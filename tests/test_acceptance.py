"""End-to-end acceptance gates, one criterion per test.

Each test prints a single summary line with the measured extremes.

Criterion 5 checks that moving one branch point off the z5 configuration
lifts the degeneracy of T(0), and at the order it does.  At a branch-point
cone point det T0 = |T22|^2 (|T11|^2 - |T31|^2) (the factorization of
criterion 4); T22 vanishes on z5 and grows linearly in the move delta
(|T22/T31| ~ 0.257 delta), so normalized_det ~ 0.25 delta^2 (1 + O(delta)):
3.92e-5, 1.60e-4, 6.61e-4, 2.84e-3 at delta = 0.0125, 0.025, 0.05, 0.1.
The value at 0.05 is converged to 1e-11 in h_order, frame order and
sampling radius, and the Green-function route (smatrix_expansion_check,
tests/test_green.py) reproduces the perturbed T22 to 3e-7.

Criterion 6 has one known shortfall, the subleading amplitude of the model
solution, asserted at its stated threshold and left red rather than
loosened; the comment at that assertion gives its cause.
"""

import json
import math
import time

import numpy as np
import pytest

from conespectra import bidiff, cli, cone, green, smatrix
from conespectra.curveperiods import (
    SurfacePoint,
    cycle_integral,
    make_curve,
    make_z5_curve,
    metric_density,
    period_data,
)
from conespectra.numerics import (
    QuadratureConfig,
    build_surface_grid,
    integrate_surface,
)

GENERIC_BP = [0.0, 1.0, 0.3 + 1.1j, -0.8 + 0.7j, -1.1 - 0.4j, 0.5 - 0.9j]


def _line(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}  ({detail})")


def _full_model(curve, cone_point, h_order=8):
    pd = period_data(curve, cone_point)
    model = bidiff.normalize_bidifferential(curve, pd)
    frame = bidiff.distinguished_frame(curve, pd, cone_point, order=20)
    model = bidiff.h_expansion(model, frame, order=h_order)
    bidiff.projective_connections(model)
    return model, frame


@pytest.fixture(scope="module")
def z5_model():
    return _full_model(make_z5_curve(0.0, 1.0), 0)


@pytest.fixture(scope="module")
def generic_model():
    return _full_model(make_curve(GENERIC_BP), 2)


def _area(curve, cone_point, grid):
    lam_p = curve.branch_points[cone_point]
    weight = lambda lam: np.abs(lam - lam_p) ** 2 / np.abs(curve.poly(lam))
    return float(np.real(integrate_surface(
        lambda lam, sheet: 1.0, weight,
        QuadratureConfig(surface_grid=(grid[0], grid[1], None)),
        branch_points=curve.branch_points)))


def test_criterion_1_period_pipeline():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    base = make_z5_curve(0.0, 1.0).branch_points
    curves = [make_z5_curve(0.0, 1.0)]
    for _ in range(5):
        bp = base + 0.02 * (rng.standard_normal(6)
                            + 1j * rng.standard_normal(6))
        curves.append(make_curve(list(bp)))
    worst_sym = worst_norm = worst_area = 0.0
    spd = True
    for curve in curves:
        pd = period_data(curve, 0)
        b = pd.Bmat
        worst_sym = max(worst_sym, float(np.abs(b - b.T).max()))
        eig = np.linalg.eigvalsh((b.imag + b.imag.T) / 2.0)
        spd = spd and eig.min() > 0
        worst_norm = max(worst_norm,
                         float(np.abs(pd.C @ pd.A - np.eye(2)).max()))
        a1, a2 = _area(curve, 0, (96, 128)), _area(curve, 0, (192, 256))
        worst_area = max(worst_area, abs(a2 - a1))
    elapsed = time.monotonic() - t0
    ok = (worst_sym <= 1e-8 and spd and worst_norm <= 1e-8
          and worst_area <= 1e-4 and elapsed < 60.0)
    _line(1, ok, f"sym {worst_sym:.1e}, norm {worst_norm:.1e}, "
                 f"area {worst_area:.1e}, {elapsed:.1f}s")
    assert worst_sym <= 1e-8
    assert spd
    assert worst_norm <= 1e-8
    assert worst_area <= 1e-4
    assert elapsed < 60.0


def test_criterion_2_bidifferential_gate(z5_model):
    model, _ = z5_model
    pd = model.periods
    curve = model.curve
    rng = np.random.default_rng(7)
    pts = []
    while len(pts) < 5:
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if np.abs(z - curve.branch_points).min() > 0.3:
            pts.append(z)
    worst_a = worst_b = worst_sym = 0.0
    for z in pts:
        z_y = complex(curve.y_at(np.asarray(z, complex), 1))
        v = model.v_values(np.asarray([z], complex), z_y)[0]
        for a in range(2):
            worst_a = max(worst_a, abs(cycle_integral(
                pd, "a", a, lambda lams, yp: model.w_values(z, z_y, lams,
                                                            yp))))
        for b in range(2):
            val = cycle_integral(
                pd, "b", b, lambda lams, yp: model.w_values(z, z_y, lams,
                                                            yp))
            worst_b = max(worst_b, abs(val - 2j * np.pi * v[b])
                          / max(abs(2j * np.pi * v[b]), 1e-30))
    for z1, z2 in zip(pts, pts[1:]):
        w12 = model.w_value(SurfacePoint(z1, 1), SurfacePoint(z2, -1))
        w21 = model.w_value(SurfacePoint(z2, -1), SurfacePoint(z1, 1))
        worst_sym = max(worst_sym, abs(w12 - w21) / max(abs(w12), 1e-30))
    # boundedness as the arguments collide on opposite sheets
    antipodal = [model.w_value(SurfacePoint(z, 1),
                               SurfacePoint(z + 1e-5, -1)) for z in pts]
    finite = all(np.isfinite(w) and abs(w) < 1e3 for w in antipodal)
    ok = worst_a <= 1e-6 and worst_b <= 1e-4 and worst_sym <= 1e-8 and finite
    _line(2, ok, f"a {worst_a:.1e}, b rel {worst_b:.1e}, "
                 f"sym {worst_sym:.1e}, antipodal finite {finite}")
    assert worst_a <= 1e-6
    assert worst_b <= 1e-4
    assert worst_sym <= 1e-8
    assert finite


def test_criterion_3_projective_connection(generic_model):
    model, _ = generic_model
    # the two routes (jet assembly vs diagonal expansion transported by
    # the Schwarzian rule) are cross-checked internally and raise above
    # the stated relative gap
    s_b, s_sch = bidiff.projective_connections(model, rel_tol=1e-8)
    s_b2, s_sch2 = bidiff.projective_connections(model, rel_tol=1e-6)
    ok = abs(s_b - s_b2) == 0.0 and abs(s_sch - s_sch2) == 0.0
    _line(3, ok, f"S_B {s_b:.6g}, S_Sch {s_sch:.6g}, routes within 1e-8")
    assert ok


def test_criterion_4_parity_suite():
    worst_v1 = worst_h = worst_p0 = worst_fact = 0.0
    for bp_list in ((0.0, 1.0), GENERIC_BP):
        curve = (make_z5_curve(*bp_list) if isinstance(bp_list, tuple)
                 else make_curve(bp_list))
        for cp in range(6):
            model, _ = _full_model(curve, cp, h_order=6)
            j = model.jets
            worst_v1 = max(worst_v1, float(np.abs(j["v1"]).max())
                           / max(1.0, float(np.abs(j["v0"]).max())))
            worst_h = max(worst_h, abs(j["h10"]) / max(1.0, abs(j["h00"])))
            sm = smatrix.t_matrix_zero(model)
            d = smatrix.kernel_diagnostics(sm)
            worst_p0 = max(worst_p0, d["normalized_detP0"])
            t = sm.T0
            closed = abs(t[1, 1]) ** 2 * (abs(t[0, 0]) ** 2
                                          - abs(t[2, 0]) ** 2)
            worst_fact = max(worst_fact, abs(sm.detT0 - closed)
                             / max(abs(closed), 1e-30))
    ok = (worst_v1 <= 1e-8 and worst_h <= 1e-8 and worst_p0 <= 1e-6
          and worst_fact <= 1e-6)
    _line(4, ok, f"v' {worst_v1:.1e}, H' {worst_h:.1e}, "
                 f"detP0 {worst_p0:.1e}, factorization {worst_fact:.1e}")
    assert worst_v1 <= 1e-8
    assert worst_h <= 1e-8
    assert worst_p0 <= 1e-6
    assert worst_fact <= 1e-6


def test_criterion_5_z5_audit(z5_model):
    t0 = time.monotonic()
    model, _ = z5_model
    sm = smatrix.t_matrix_zero(model)
    scale = float(np.abs(sm.T0).max())
    entries = {
        "S_Sch": abs(model.jets["s_sch"]),
        "T11": abs(sm.T0[0, 0]), "T12": abs(sm.T0[0, 1]),
        "T21": abs(sm.T0[1, 0]), "T22": abs(sm.T0[1, 1]),
        "T41": abs(sm.T0[3, 0]),
    }
    worst = max(entries.values()) / max(scale, 1.0)
    ndet = smatrix.normalized_det(sm)

    def perturbed(delta):
        bp = list(model.curve.branch_points)
        bp[3] += delta
        model2, _ = _full_model(make_curve(bp), 0, h_order=6)
        return smatrix.t_matrix_zero(model2)

    sm2 = perturbed(0.05)
    ndet2 = smatrix.normalized_det(sm2)
    ndet_half = smatrix.normalized_det(perturbed(0.025))
    lifted = smatrix.kernel_diagnostics(sm2)["classification"]
    order_ratio = ndet2 / ndet_half
    elapsed = time.monotonic() - t0
    generic = "generic: dim ker sing = 1 (conjectural)"
    ok = (worst <= 1e-6 and ndet <= 1e-6 and lifted == generic
          and 3.6 <= order_ratio <= 4.4 and elapsed < 120.0)
    _line(5, ok, f"entries {worst:.1e}, detT0 {ndet:.1e}, "
                 f"perturbed detT0 {ndet2:.2e} ({lifted}), "
                 f"ratio 0.05/0.025 {order_ratio:.2f} (need 3.6..4.4), "
                 f"{elapsed:.1f}s")
    assert worst <= 1e-6
    assert ndet <= 1e-6
    assert elapsed < 120.0
    # the move lifts the dimension-3 signature, and it does so at second
    # order: normalized_det ~ 4 |T22/T31|^2 ~ 0.25 delta^2, since T22
    # grows linearly off z5 (measured 6.61e-4 at 0.05, 1.60e-4 at 0.025,
    # ratio 4.14); no lift, a lift of another order, or a NaN fails here
    assert lifted == generic
    assert 3.6 <= order_ratio <= 4.4


def test_criterion_6_cone_closed_forms():
    t0 = time.monotonic()
    gamma_gap = abs(cone.C1 * cone.C2 - 27.0 / (2.0 * math.pi ** 2))
    detp_gap = abs(cone.asymptotic_entries(-1.0).det_p
                   - 27.0 / (2.0 * math.pi ** 2))

    k_gap = max(abs(cone.bessel_k(0.5, x)
                    - math.sqrt(math.pi / (2.0 * x)) * math.exp(-x))
                for x in (0.3, 1.0, 4.7))

    B, mu, w1, h = 3.0, 1.1, 3.0, 1e-5
    g = lambda w: cone.cone_green_kernel(B, mu, w1, w)
    up = (-3 * g(w1) + 4 * g(w1 + h) - g(w1 + 2 * h)) / (2 * h)
    dn = (3 * g(w1) - 4 * g(w1 - h) + g(w1 - 2 * h)) / (2 * h)
    jump_gap = abs((up - dn) + 2 * math.pi)

    # numeric conj(zeta) amplitude of Phi_{1/3} at lambda = -4
    lam, nu, r = -4.0, 1.0 / 3.0, 1e-5
    phis = np.linspace(0, 6 * math.pi, 48, endpoint=False)
    zeta = r ** (1.0 / 3.0) * np.exp(1j * phis / 3.0)
    vals = np.array([cone.phi_model(nu, lam, r, p) for p in phis])
    resid = vals - zeta ** (-3 * nu)
    basis = np.conj(zeta) ** (3 * nu)
    slope = np.vdot(basis, resid) / np.vdot(basis, basis)
    target = -cone.C1 * 4.0 ** (1.0 / 3.0)
    slope_gap = abs(slope - target) / abs(target)

    elapsed = time.monotonic() - t0
    ok = (gamma_gap <= 1e-10 and detp_gap <= 1e-6 and k_gap <= 1e-10
          and jump_gap <= 1e-6 and slope_gap <= 1e-6 and elapsed < 10.0)
    _line(6, ok, f"c1c2 {gamma_gap:.1e}, detP(-1) {detp_gap:.1e}, "
                 f"K_1/2 {k_gap:.1e}, jump {jump_gap:.1e}, "
                 f"phi slope rel {slope_gap:.3f} (need <= 1e-6), "
                 f"{elapsed:.1f}s")
    assert gamma_gap <= 1e-10
    assert detp_gap <= 1e-6
    assert k_gap <= 1e-10
    assert jump_gap <= 1e-6
    assert elapsed < 10.0
    # the Bessel subleading amplitude is -0.95527 * 4^{1/3}, short of
    # -c1 * 4^{1/3} by the factor pi / (2 sqrt(3)); kept at the stated
    # target instead of rescaling it.  Cause: the small-argument form
    # K_nu ~ I_{-nu} - I_nu fixes the conj(zeta) amplitude of phi_model
    # at b_nu = -(-lam/4)^nu Gamma(1-nu) / Gamma(1+nu) whatever its
    # prefactor, while s1 = -C1 (-lam)^{1/3} and s2 = -C2 (-lam)^{2/3}
    # are b_nu * 4 sin(pi nu) / pi, the same factor 2 sqrt(3) / pi for
    # both orders (so C1 C2 = 27 / (2 pi^2) against b_1/3 b_2/3 = 9/8
    # per unit (-lam)^nu).  Which side is right depends on the
    # paper's normalization of s1, which the repository does not hold.
    assert slope_gap <= 1e-6


def test_criterion_7_green_suite(z5_model):
    t0 = time.monotonic()
    model, frame = z5_model
    curve = model.curve
    y = SurfacePoint(0.9 + 1.3j, 1)
    x = SurfacePoint(-0.7 + 0.4j, 1)

    ctx = green.green_context(model, frame)
    sol = green.GreenSolver(ctx, y)

    sym_gap = abs(sol.green(x).value
                  - green.GreenSolver(ctx, x).green(y).value)

    grid = build_surface_grid(curve.branch_points,
                              QuadratureConfig(surface_grid=(6, 8, None)),
                              stagger=0.61)
    dens = metric_density(curve, frame.lam_p, grid.nodes)
    w = grid.weights * dens
    mean = sum(w[i] * (sol.green(SurfacePoint(complex(l), 1)).value
                       + sol.green(SurfacePoint(complex(l), -1)).value)
               for i, l in enumerate(grid.nodes)) / (2.0 * w.sum())

    rr = np.array([1e-3, 2e-3])
    gv = [sol.green(SurfacePoint(y.lam + r, 1)).value for r in rr]
    log_gap = abs((gv[1] - gv[0]) / np.log(rr[1] / rr[0])
                  - 1 / (2 * np.pi)) * 2 * np.pi

    berg = max(green.bergman_consistency(sol, SurfacePoint(z, s))["rel_err"]
               for z, s in ((-0.7 + 0.4j, 1), (1.3 - 0.5j, 1),
                            (-0.2 - 1.3j, -1)))

    match = green.coefficient_matching(sol)
    coeff_gap = max(match["rel_err_xi"], match["rel_err_xi2"])
    e2_gap = abs(green.reg_log_limit(sol) / match["g0"]
                 - 2 * np.pi) / (2 * np.pi)

    # the Laplacian needs the finer default grid for the mollified
    # potential to track the metric density below 5%
    fine = green.green_context(
        model, frame, QuadratureConfig(surface_grid=(24, 32, None)))
    sol_f = green.GreenSolver(fine, y)
    c0 = curve.branch_points.mean()
    rb = np.abs(curve.branch_points - c0).max()
    rng = np.random.default_rng(3)
    pts = []
    while len(pts) < 10:
        z = c0 + complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        if np.abs(z - curve.branch_points).min() > 0.3 \
                and abs(z - c0) < 1.2 * rb and abs(z - y.lam) > 0.5:
            pts.append(z)
    h = 1e-3
    lap_gap = 0.0
    for z in pts:
        g0 = sol_f.green(SurfacePoint(z, 1)).value
        s = sum(sol_f.green(SurfacePoint(z + d, 1)).value
                for d in (h, -h, 1j * h, -1j * h))
        lap = (s - 4 * g0) / h ** 2 / metric_density(curve, frame.lam_p,
                                                     np.asarray([z]))[0]
        lap_gap = max(lap_gap, abs(lap + 1.0 / fine.area) * fine.area)

    elapsed = time.monotonic() - t0
    ok = (sym_gap <= 1e-2 and abs(mean) <= 1e-2 and lap_gap <= 0.05
          and log_gap <= 0.05 and berg <= 0.05 and coeff_gap <= 0.10
          and e2_gap <= 0.10)
    _line(7, ok, f"sym {sym_gap:.1e}, mean {abs(mean):.1e}, "
                 f"laplacian {lap_gap:.3f}, log {log_gap:.3f}, "
                 f"bergman {berg:.1e}, coeff {coeff_gap:.1e}, "
                 f"e2 {e2_gap:.3f}, runtime {elapsed:.0f}s")
    assert sym_gap <= 1e-2
    assert abs(mean) <= 1e-2
    assert lap_gap <= 0.05
    assert log_gap <= 0.05
    assert berg <= 0.05
    assert coeff_gap <= 0.10
    assert e2_gap <= 0.10


def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "curve": {"z5": {"lambda1": [0.0, 0.0], "r": 1.0},
                  "cone_point": 0},
        "surface_grid": [12, 16],
        "commands": ["periods", "cone", "smatrix"],
    }))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["--config", str(cfg), "--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    _line(8, identical, f"{len(a.read_bytes())} byte report, "
                        f"byte-identical {identical}")
    assert identical
