"""Invariant gates for the normalized bidifferential, its cone-point
expansion, and the projective connections."""

import numpy as np
import pytest

from conespectra import bidiff
from conespectra.curveperiods import (
    SurfacePoint,
    cycle_integral,
    make_curve,
    make_z5_curve,
    period_data,
)
from conespectra.errors import (
    DiagonalEvaluation,
    InsufficientOrder,
    NotABranchPoint,
)
from conespectra.numerics import TruncatedSeries

GENERIC_BP = [0.0, 1.0, 0.3 + 1.1j, -0.8 + 0.7j, -1.1 - 0.4j, 0.5 - 0.9j]


@pytest.fixture(scope="module")
def z5_setup():
    curve = make_z5_curve(0.1 + 0.05j, 1.0)
    pd = period_data(curve, 0)
    model = bidiff.normalize_bidifferential(curve, pd)
    frame = bidiff.distinguished_frame(curve, pd, 0, order=20)
    return bidiff.h_expansion(model, frame, order=10)


@pytest.fixture(scope="module")
def generic_setup():
    curve = make_curve(GENERIC_BP)
    pd = period_data(curve, 2)
    model = bidiff.normalize_bidifferential(curve, pd)
    frame = bidiff.distinguished_frame(curve, pd, 2, order=20)
    return bidiff.h_expansion(model, frame, order=8)


# ---------------------------------------------------------------------------
# polynomial data
# ---------------------------------------------------------------------------

class TestKleinianCoefficients:
    def test_f_symmetric(self):
        fm, _ = bidiff.kleinian_coefficients(make_curve(GENERIC_BP))
        assert np.abs(fm - fm.T).max() < 1e-12 * np.abs(fm).max()

    def test_f_diagonal_values(self):
        curve = make_curve(GENERIC_BP)
        fm, _ = bidiff.kleinian_coefficients(curve)
        rng = np.random.default_rng(7)
        for lam in rng.standard_normal(4) + 1j * rng.standard_normal(4):
            p = np.power.outer(np.array([lam]), np.arange(5))[0]
            f_val = np.prod(lam - curve.branch_points)
            assert abs(p @ fm @ p - 2.0 * f_val) < 1e-10 * max(1, abs(f_val))

    def test_f_diagonal_derivative(self):
        curve = make_curve(GENERIC_BP)
        fm, _ = bidiff.kleinian_coefficients(curve)
        lam, h = 0.37 - 0.55j, 1e-6
        fpoly = np.poly(curve.branch_points)

        def f_at(l1, l2):
            p1 = np.power.outer(np.array([l1]), np.arange(5))[0]
            p2 = np.power.outer(np.array([l2]), np.arange(5))[0]
            return p1 @ fm @ p2

        d1 = (f_at(lam + h, lam) - f_at(lam - h, lam)) / (2 * h)
        fp = np.polyval(np.polyder(fpoly), lam)
        assert abs(d1 - fp) < 1e-6 * max(1, abs(fp))

    def test_q_residue_identity(self):
        curve = make_curve(GENERIC_BP)
        fm, q = bidiff.kleinian_coefficients(curve)
        fpoly = np.poly(curve.branch_points)
        rng = np.random.default_rng(3)
        for _ in range(4):
            l1, l2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            p1 = np.power.outer(np.array([l1]), np.arange(5))[0]
            p2 = np.power.outer(np.array([l2]), np.arange(5))[0]
            lhs = (p1 @ fm @ p2 - 2.0 * np.polyval(fpoly, l2)
                   - (l1 - l2) * np.polyval(np.polyder(fpoly), l2))
            rhs = (l1 - l2) ** 2 * (p1 @ q @ p2)
            assert abs(lhs - rhs) < 1e-9 * max(1, abs(rhs))


# ---------------------------------------------------------------------------
# normalization gates
# ---------------------------------------------------------------------------

class TestNormalization:
    @pytest.mark.parametrize("setup", ["z5_setup", "generic_setup"])
    def test_a_periods_vanish(self, setup, request):
        model = request.getfixturevalue(setup)
        pd = model.periods
        z_lam = pd.curve.base_point + 0.3 + 0.2j
        z_y = complex(pd.curve.y_at(np.asarray(z_lam, complex), 1))
        for a in range(2):
            val = cycle_integral(
                pd, "a", a,
                lambda lams, yp: model.w_values(z_lam, z_y, lams, yp))
            assert abs(val) < 1e-6

    @pytest.mark.parametrize("setup", ["z5_setup", "generic_setup"])
    def test_b_periods_match_v(self, setup, request):
        model = request.getfixturevalue(setup)
        pd = model.periods
        z_lam = pd.curve.base_point + 0.4 - 0.1j
        z_y = complex(pd.curve.y_at(np.asarray(z_lam, complex), 1))
        v = model.v_values(np.asarray([z_lam], complex), z_y)[0]
        for b in range(2):
            val = cycle_integral(
                pd, "b", b,
                lambda lams, yp: model.w_values(z_lam, z_y, lams, yp))
            assert abs(val - 2j * np.pi * v[b]) < 1e-4

    def test_correction_symmetric(self, generic_setup):
        c = generic_setup.c
        assert np.abs(c - c.T).max() < 1e-12 * max(1, np.abs(c).max())

    def test_w_symmetric(self, generic_setup):
        model = generic_setup
        curve = model.curve
        rng = np.random.default_rng(11)
        for _ in range(6):
            l1, l2 = rng.standard_normal(2) * 2 + 1j * rng.standard_normal(2)
            s1, s2 = rng.choice([-1, 1], 2)
            w12 = model.w_value(SurfacePoint(l1, s1), SurfacePoint(l2, s2))
            w21 = model.w_value(SurfacePoint(l2, s2), SurfacePoint(l1, s1))
            assert abs(w12 - w21) < 1e-8 * max(1, abs(w12))

    def test_diagonal_rejected(self, generic_setup):
        with pytest.raises(DiagonalEvaluation):
            generic_setup.w_value(SurfacePoint(2.0 + 1j), SurfacePoint(2.0 + 1j))

    def test_antipode_regular(self, generic_setup):
        # W(x, sigma x) must stay bounded as the arguments collide on
        # opposite sheets
        model = generic_setup
        lam = 1.7 + 0.9j
        vals = []
        for eps in (1e-3, 1e-4, 1e-5):
            vals.append(model.w_value(SurfacePoint(lam, 1),
                                      SurfacePoint(lam + eps, -1)))
        assert abs(vals[-1] - vals[-2]) < 1e-3 * max(1, abs(vals[-1]))
        assert abs(vals[-1]) < 1e3


# ---------------------------------------------------------------------------
# distinguished frame
# ---------------------------------------------------------------------------

class TestFrame:
    def test_odd_series(self, generic_setup):
        assert generic_setup.frame.xi_of_zeta.is_odd(tol=1e-10)

    def test_round_trip(self, generic_setup):
        frame = generic_setup.frame
        r = generic_setup.jets["radius"]
        pts = 0.5 * r * np.exp(1j * np.linspace(0, 6, 7))
        back = frame.xi_of_zeta.evaluate(frame.zeta_of_xi.evaluate(pts))
        assert np.abs(back - pts).max() < 1e-12 * r

    def test_cube_is_omega_integral(self, generic_setup):
        # xi^3 equals the primitive of omega term by term; check by
        # numerically integrating omega along a ray
        frame = generic_setup.frame
        curve = generic_setup.curve
        zeta_end = 0.1 * np.sqrt(curve.min_gap) * np.exp(0.4j)
        ts = np.linspace(0, 1, 20001)
        z = ts * zeta_end
        integrand = 2.0 * z ** 2 / frame.g_exact(z)
        val = np.trapezoid(integrand, z)
        xi3 = complex(frame.xi_of_zeta.evaluate(np.array([zeta_end]))[0]) ** 3
        assert abs(val - xi3) < 1e-7 * max(abs(xi3), 1e-12)

    def test_z5_sparsity_of_xi(self, z5_setup):
        # for the symmetric family the frame satisfies
        # xi^3 = C (zeta^3 + O(zeta^13))
        xi = z5_setup.frame.xi_of_zeta
        cube = (xi * xi * xi).coeffs
        scale = np.abs(cube).max()
        assert np.abs(cube[4:13]).max() < 1e-10 * scale
        assert abs(cube[3]) > 1e-3 * scale

    def test_low_order_rejected(self):
        curve = make_curve(GENERIC_BP)
        pd = period_data(curve, 2)
        with pytest.raises(InsufficientOrder):
            bidiff.distinguished_frame(curve, pd, 2, order=10)

    def test_bad_index_rejected(self):
        curve = make_curve(GENERIC_BP)
        pd = period_data(curve, 2)
        with pytest.raises(NotABranchPoint):
            bidiff.distinguished_frame(curve, pd, 6)

    def test_eta_rotates_frame(self, generic_setup):
        curve = generic_setup.curve
        pd = generic_setup.periods
        f1 = bidiff.distinguished_frame(curve, pd, 2, order=20, eta=1)
        ratio = f1.xi_of_zeta.coeffs[1] / generic_setup.frame.xi_of_zeta.coeffs[1]
        assert abs(ratio - np.exp(2j * np.pi / 3)) < 1e-12


# ---------------------------------------------------------------------------
# H expansion
# ---------------------------------------------------------------------------

class TestHExpansion:
    def test_pointwise_consistency(self, generic_setup):
        model = generic_setup
        frame = model.frame
        r = model.jets["radius"]
        t1, t2 = 0.3 * r, 0.2j * r
        z = frame.zeta_of_xi.evaluate(np.array([t1, t2]))
        lam = frame.lam_p + z ** 2
        y = z * frame.g_exact(z)
        d = 2.0 * z / frame.xi_of_zeta.derivative().evaluate(z)
        w = complex(model.w_values(lam[0], y[0], lam[1], y[1]) * d[0] * d[1])
        direct = w - 1.0 / (t1 - t2) ** 2
        series = complex(model.H.evaluate(t1, t2))
        assert abs(direct - series) < 1e-9 * max(1, abs(direct))

    def test_h_symmetric_low_block(self, generic_setup):
        h = generic_setup.H.coeffs[:4, :4]
        assert np.abs(h - h.T).max() < 1e-6 * max(1, np.abs(h).max())

    def test_parity_at_branch_point(self, generic_setup):
        # odd H-jets and odd v-coefficients vanish at a branch point
        j = generic_setup.jets
        scale = max(1, abs(j["h00"]))
        assert abs(j["h10"]) < 1e-8 * scale
        assert abs(j["h01"]) < 1e-8 * scale
        assert np.abs(j["v1"]).max() < 1e-8 * max(1, np.abs(j["v0"]).max())

    def test_z5_schiffer_sparsity(self, z5_setup):
        # the basis-independent regularization H - pi v (Im B)^-1 v obeys
        # the symmetry selection rule a + b = 8 mod 10
        model = z5_setup
        frame = model.frame
        zeta = frame.zeta_of_xi
        lam_s = zeta * zeta + frame.lam_p
        y_s = bidiff._compose_even(frame.g_series, zeta) * zeta
        w1 = (TruncatedSeries(lam_s.derivative().coeffs[1:])
              / TruncatedSeries(y_s.coeffs[1:]))
        w2 = w1 * lam_s.truncate(w1.order)
        C = model.periods.C
        v = [C[a, 0] * w1 + C[a, 1] * w2 for a in range(2)]
        imb = model.periods.im_b_inverse
        n = 11
        corr = np.zeros((n, n), dtype=complex)
        for a in range(2):
            for b in range(2):
                corr += imb[a, b] * np.outer(v[a].coeffs[:n], v[b].coeffs[:n])
        hs = model.H.coeffs[:n, :n] - np.pi * corr
        # entries beyond total degree 9 are below the sampling noise floor
        pairs = [(a, b) for a in range(n) for b in range(n) if a + b <= 9]
        scale = max(1, max(abs(hs[a, b]) for a, b in pairs))
        for a, b in pairs:
            if (a + b) % 10 != 8:
                assert abs(hs[a, b]) < 1e-6 * scale, (a, b)
        assert abs(hs[0, 8]) > 1e-3 * scale

    def test_biresidue(self, generic_setup):
        # (xi1 - xi2)^2 W -> 1 on the diagonal
        model = generic_setup
        frame = model.frame
        r = model.jets["radius"]
        t1 = 0.4 * r
        for eps in (1e-3 * r, 1e-4 * r):
            t2 = t1 + eps
            z = frame.zeta_of_xi.evaluate(np.array([t1, t2]))
            lam = frame.lam_p + z ** 2
            y = z * frame.g_exact(z)
            d = 2.0 * z / frame.xi_of_zeta.derivative().evaluate(z)
            w = complex(model.w_values(lam[0], y[0], lam[1], y[1]) * d[0] * d[1])
            assert abs((t1 - t2) ** 2 * w - 1.0) < 1e-4


# ---------------------------------------------------------------------------
# Bergman kernel and projective connections
# ---------------------------------------------------------------------------

class TestConnections:
    def test_b00_real_positive(self, z5_setup):
        b = bidiff.bergman_kernel(z5_setup)
        assert abs(b.imag) < 1e-12 * abs(b.real)
        assert b.real > 0

    def test_two_routes_agree(self, generic_setup):
        # projective_connections raises on route disagreement
        s_b, s_sch = bidiff.projective_connections(generic_setup)
        assert abs(s_b - 6.0 * generic_setup.jets["h00"]) < 1e-12 * max(1, abs(s_b))

    def test_z5_schiffer_connection_vanishes(self, z5_setup):
        _, s_sch = bidiff.projective_connections(z5_setup)
        assert abs(s_sch) < 1e-8

    @pytest.mark.parametrize("family", ["z5", "generic"])
    def test_basis_independence(self, family):
        if family == "z5":
            curve, cp = make_z5_curve(0.1 + 0.05j, 1.0), 0
        else:
            curve, cp = make_curve(GENERIC_BP), 2
        out = {}
        for basis in ("std", "alt"):
            pd = period_data(curve, cp, basis=basis)
            m = bidiff.normalize_bidifferential(curve, pd)
            f = bidiff.distinguished_frame(curve, pd, cp, order=20)
            m = bidiff.h_expansion(m, f, order=6)
            _, s_sch = bidiff.projective_connections(m)
            out[basis] = (bidiff.bergman_kernel(m), s_sch)
        for k in range(2):
            d = abs(out["std"][k] - out["alt"][k])
            assert d < 1e-8 * max(1, abs(out["std"][k]))

    def test_cube_root_covariance(self, generic_setup):
        # under xi -> c xi with c^3 = 1: S -> S / c^2, B(0,0) invariant
        curve = generic_setup.curve
        pd = generic_setup.periods
        m1 = bidiff.normalize_bidifferential(curve, pd)
        f1 = bidiff.distinguished_frame(curve, pd, 2, order=20, eta=1)
        m1 = bidiff.h_expansion(m1, f1, order=6)
        sb1, ss1 = bidiff.projective_connections(m1)
        sb0, ss0 = bidiff.projective_connections(generic_setup)
        c = np.exp(2j * np.pi / 3)
        assert abs(sb1 - sb0 / c ** 2) < 1e-8 * max(1, abs(sb0))
        assert abs(ss1 - ss0 / c ** 2) < 1e-8 * max(1, abs(ss0))
        assert abs(bidiff.bergman_kernel(m1)
                   - bidiff.bergman_kernel(generic_setup)) < 1e-10
