"""Third-kind differentials, the Roelcke Green function, and the special
growing solutions at the cone point."""

import cmath
import contextlib
import dataclasses
import json
import math
import warnings
from functools import lru_cache, partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from conespectra import bidiff, curveperiods, green, smatrix
from conespectra.curveperiods import (
    SurfacePoint,
    cycle_integral,
    make_curve,
    make_z5_curve,
    metric_density,
    period_data,
)
from conespectra.errors import (
    CoincidentArguments,
    ConeArgument,
    ConsistencyFailure,
    FitIllConditioned,
    NonConvergence,
    SingularityOnGrid,
    StepTooSmall,
)
from conespectra.numerics import (QuadratureConfig, SurfaceGrid,
                                  build_surface_grid, gauss_legendre)

GENERIC_BP = [0.0, 1.0, 0.3 + 1.1j, -0.8 + 0.7j, -1.1 - 0.4j, 0.5 - 0.9j]
CURVES = {"z5": make_z5_curve(0.0, 1.0), "generic": make_curve(GENERIC_BP)}


def _continue_to(curve, a, y_a, b):
    """y at b continued from (a, y_a) along the straight segment."""
    return complex(curveperiods._continue_sqrt(curve.branch_points, a, b,
                                               y_a, [b])[0])


def _flip_gon(curve, lam_at):
    """The 16-gon about the first branch point through lam_at, closed at
    lam_at: y continued once around it ends on the other sheet.  It
    encloses no other branch point within 1.5 r of the first (r =
    min_gap / 3)."""
    bp = complex(curve.branch_points[0])
    direction = lam_at - bp
    turns = [np.exp(2j * np.pi * k / 16) for k in range(1, 16)]
    return [lam_at] + [bp + direction * w for w in turns] + [lam_at]


def _reference_flip_loop(curve, lam_at):
    """A closed route from lam_at to the other sheet over it, with no
    branch leg: the 16-gon through lam_at within 1.5 r of the first
    branch point (r = min_gap / 3), else build_path legs from lam_at to
    the 16-gon of radius r and back."""
    bp = complex(curve.branch_points[0])
    r = curve.min_gap / 3.0
    direction = lam_at - bp
    if abs(direction) < 1.5 * r:
        return _flip_gon(curve, lam_at)
    start = bp + direction / abs(direction) * r
    approach = green.build_path(curve, lam_at, start)
    return approach + _flip_gon(curve, start)[1:-1] + approach[::-1]


def _integrate_to(curve, lam0, y0, point, f):
    """Reference route: the integral of f from (lam0, y0) to the
    sheet-resolved point, with its error, along build_path, then once
    around _reference_flip_loop if the path arrives on the other sheet."""
    val, err, y_end = green.integrate_vector_path(
        curve.branch_points, green.build_path(curve, lam0, point.lam), y0, f)
    if green._arrival(curve, y_end, point):
        tail, e1, y_end = green.integrate_vector_path(
            curve.branch_points, _reference_flip_loop(curve, point.lam),
            y_end, f)
        val, err = val + tail, err + e1
        assert not green._arrival(curve, y_end, point)
    return val, err


def build_model(branch_points, cone_point):
    curve = (make_curve(branch_points)
             if not isinstance(branch_points, tuple)
             else make_z5_curve(*branch_points))
    pd = period_data(curve, cone_point)
    model = bidiff.normalize_bidifferential(curve, pd)
    frame = bidiff.distinguished_frame(curve, pd, cone_point, order=20)
    model = bidiff.h_expansion(model, frame, order=8)
    bidiff.projective_connections(model)
    return model, frame


@pytest.fixture(scope="module")
def z5():
    return build_model((0.0, 1.0), 0)


@pytest.fixture(scope="module")
def ctx(z5):
    model, frame = z5
    return green.green_context(model, frame)


@pytest.fixture(scope="module")
def solver(ctx):
    return green.GreenSolver(ctx, SurfacePoint(0.9 + 1.3j, 1))


@pytest.fixture(scope="module")
def generic():
    model, frame = build_model(GENERIC_BP, 2)
    gctx = green.green_context(model, frame)
    return model, frame, gctx


@pytest.fixture(scope="module")
def potential_contexts(z5, generic):
    """green_context for a curve name and grid, each built once."""
    models = {"z5": z5, "generic": generic[:2]}
    return lru_cache(maxsize=None)(
        lambda name, grid: green.green_context(
            *models[name], QuadratureConfig(surface_grid=(*grid, None))))


@pytest.fixture(scope="module")
def third_kind_models(z5, generic):
    return {"z5": z5[0], "generic": generic[0]}


def _three_division_form(lam, ys, t_lam, t_y, pcoef):
    """Reference for green._form_values: the three-division form it
    replaced, (y + y_t) / (2 y (lambda - lambda_t)) + P / y per sheet,
    a pair ys = (y, -y) stacked on a new last axis."""
    sheets = ys if isinstance(ys, tuple) else (ys,)
    poly = np.zeros(np.broadcast(lam, sheets[0], t_lam).shape, dtype=complex)
    for c in pcoef[::-1]:
        poly = poly * lam + c
    p_y = poly / sheets[0]
    forms = [(y + t_y) / (2.0 * y * (lam - t_lam)) + (-p_y if k else p_y)
             for k, y in enumerate(sheets)]
    return np.stack(forms, axis=-1) if len(forms) > 1 else forms[0]


def _form_size(lam, ys, t_lam, t_y, pcoef):
    """S = |h| + |y_t h / y| + |P / y|, h = 1 / (2 (lambda - lambda_t)):
    the size of the terms both forms round."""
    h = 0.5 / (lam - t_lam)
    poly = 0.0
    for c in pcoef[::-1]:
        poly = poly * lam + c
    return np.abs(h) + np.abs(t_y * h / ys) + np.abs(poly / ys)


# Taking a complex multiply to round by at most 2 eps of its result's
# modulus, a (Smith) division by 8 eps and an add by eps / 2, the
# three-division form is within 11 eps S of the exact value and the
# two-division form within 19 eps S, to first order; they differ by at
# most 30 eps S
FORM_ROUNDING = 32 * np.finfo(float).eps


class TestFormKernel:
    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           t=st.tuples(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6)),
           t_sheet=st.sampled_from([1, -1]),
           near=st.sampled_from(["y", "antipode", "free"]),
           log_r=st.floats(-8.0, -3.0),
           phase=st.floats(0.0, 2.0 * np.pi),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_three_division_form(self, name, t, t_sheet, near,
                                         log_r, phase, seed):
        # one sheet, the pair (y, -y) and a (5, n) pcoef with column
        # arguments, at points next to y (the pole), next to its antipode
        # (y_z + y_t cancels) or anywhere, on both curves
        curve = CURVES[name]
        rng = np.random.default_rng(seed)
        t_lam = complex(*t)
        assume(np.abs(t_lam - curve.branch_points).min() > 1e-3)
        t_y = complex(curve.y_at(np.asarray(t_lam), t_sheet))
        if near == "free":
            lam = rng.uniform(-1.6, 1.6, 12) + 1j * rng.uniform(-1.6, 1.6, 12)
            sheet = t_sheet
        else:
            lam = t_lam + 10.0 ** (log_r + rng.uniform(0.0, 1.0, 12)) \
                * np.exp(1j * (phase + np.arange(12)))
            sheet = t_sheet if near == "y" else -t_sheet
        ys = curve.y_at(lam, sheet)
        pcoef = (rng.standard_normal((5, 3)) + 1j * rng.standard_normal(
            (5, 3))) * 10.0 ** rng.uniform(-3, 3, (5, 3))
        cases = []
        # one sheet
        size = _form_size(lam, ys, t_lam, t_y, pcoef[:, 0])
        cases.append((green._form_values(lam, ys, t_lam, t_y, pcoef[:, 0]),
                      _three_division_form(lam, ys, t_lam, t_y, pcoef[:, 0]),
                      size))
        # both sheets, stacked
        cases.append((np.stack([green._form_values(lam, v, t_lam, t_y,
                                                   pcoef[:, 0])
                                for v in (ys, -ys)], axis=-1),
                      _three_division_form(lam, (ys, -ys), t_lam, t_y,
                                           pcoef[:, 0]),
                      np.stack([size, size], axis=-1)))
        # the even part h and the odd part g: the form is h + g at y and
        # h - g at -y, within the two-division form's rounding
        h = 0.5 / (lam - t_lam)
        odd = green._odd_part(lam, ys, t_lam, t_y, pcoef[:, 0])
        cases.append((np.stack([h + odd, h - odd], axis=-1),
                      np.stack([green._form_values(lam, v, t_lam, t_y,
                                                   pcoef[:, 0])
                                for v in (ys, -ys)], axis=-1),
                      np.stack([size, size], axis=-1)))
        # one column per second argument: t, and two points next to it
        t_cols = t_lam + np.array([0.0, 1e-2, 2e-2j])
        ty_cols = curve.y_at(t_cols, t_sheet)
        args = (lam[:, None], ys[:, None], t_cols, ty_cols, pcoef)
        cases.append((green._form_values(*args), _three_division_form(*args),
                      _form_size(*args)))
        for got, ref, size in cases:
            assert got.shape == ref.shape
            assert np.all(np.isfinite(got))
            assert np.all(np.abs(got - ref) <= FORM_ROUNDING * size)


def _two_point_form(model, p, q):
    """Omega_{p-q}, the differential of the third kind with poles p (+1)
    and q (-1) and purely imaginary periods, from the primitives that
    GreenContext.form runs: the correction polynomial of the moments
    R(p) - R(q) from the base point (green._moment_base, _moments_at),
    each route from branch point 0 as form's, and _form_values at both
    poles.  Returns (values, pcoef), values(lam, y) the form over
    dlambda; coincident poles, whose form vanishes, are refused."""
    curve = model.curve
    if abs(complex(p.lam) - complex(q.lam)) < 1e-12 * curve.scale \
            and p.sheet == q.sheet:
        raise ValueError("third-kind poles coincide")
    base = green._moment_base(curve)
    pcoef = green._correction_pcoef(
        model, green._moments_at(curve, base, p)
        - green._moments_at(curve, base, q))
    y_p, y_q = curve.y_of(p), curve.y_of(q)

    def values(lam, y):
        return (green._form_values(lam, y, p.lam, y_p, pcoef)
                - green._form_values(lam, y, q.lam, y_q, ()))
    return values, pcoef


class TestThirdKind:
    def test_residues(self, z5):
        model, _ = z5
        p = SurfacePoint(0.4 + 0.9j, 1)
        q = SurfacePoint(-0.7 - 0.2j, -1)
        values, _ = _two_point_form(model, p, q)
        n = 32
        curve = model.curve
        for pole, want in ((p, 1.0), (q, -1.0)):
            y_pole = curve.y_of(pole)
            r = 0.04
            z = pole.lam + r * np.exp(2j * np.pi * np.arange(n) / n)
            cand = complex(curve.y_at(np.asarray(z[0], complex), 1))
            y = cand if abs(cand - y_pole) < abs(cand + y_pole) else -cand
            ys = np.empty(n, dtype=complex)
            for k in range(n):
                ys[k] = y
                y = _continue_to(curve, z[k], y, z[(k + 1) % n])
            vals = values(z, ys) * (z - pole.lam)
            res = vals.mean()
            assert abs(res - want) < 1e-6

    def test_imaginary_periods(self, z5):
        model, _ = z5
        values, _ = _two_point_form(model, SurfacePoint(0.4 + 0.9j, 1),
                                    SurfacePoint(-0.7 - 0.2j, -1))
        for kind in ("a", "b"):
            for idx in (0, 1):
                per = cycle_integral(model.periods, kind, idx, values)
                assert abs(per.real) < 1e-6, (kind, idx)

    def test_coincident_poles(self, z5):
        model, _ = z5
        p = SurfacePoint(0.4 + 0.9j, 1)
        with pytest.raises(ValueError, match="poles coincide"):
            _two_point_form(model, p, p)

    def test_reciprocity(self, z5):
        # Re int_S^R Omega_{P-Q} = Re int_Q^P Omega_{R-S}
        model, _ = z5
        curve = model.curve
        pts = [SurfacePoint(z, s) for z, s in
               ((0.4 + 0.9j, 1), (-0.7 - 0.2j, -1),
                (1.3 + 0.4j, 1), (-0.2 + 1.4j, 1))]
        P, Q, R, S = pts

        def re_int(values, frm, to):
            y0 = complex(curve.y_at(np.asarray(frm.lam, complex), frm.sheet))
            verts = green.build_path(curve, frm.lam, to.lam)
            val, _, y_end = green.integrate_vector_path(
                curve.branch_points, verts, y0,
                lambda z, y: values(z, y)[:, None])
            y_t = complex(curve.y_at(np.asarray(to.lam, complex), to.sheet))
            if abs(y_end - y_t) > abs(y_end + y_t):
                loop = _reference_flip_loop(curve, to.lam)
                tail, _, _ = green.integrate_vector_path(
                    curve.branch_points, loop, y_end,
                    lambda z, y: values(z, y)[:, None])
                val = val + tail
            return float(val[0].real)

        lhs = re_int(_two_point_form(model, P, Q)[0], S, R)
        rhs = re_int(_two_point_form(model, R, S)[0], Q, P)
        assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(lhs))

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           ends=st.lists(st.tuples(
               st.sampled_from(["branch", "free"]), st.integers(0, 5),
               st.floats(1e-4, 0.05), st.floats(0.0, 2.0 * np.pi),
               st.tuples(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6)),
               st.sampled_from([1, -1])), min_size=2, max_size=2))
    # far from branch point 0, where the reference route's flip loop
    # takes build_path legs, and next to generic branch point 1
    @example(name="generic", ends=[
        ("branch", 1, 0.03125, 0.0, (0.0, 0.0), -1),
        ("free", 0, 0.0, 0.0, (-1.3, -0.9), 1)])
    @example(name="z5", ends=[("free", 0, 0.0, 0.0, (1.2, 0.8), -1),
                              ("free", 0, 0.0, 0.0, (-1.4, 0.5), 1)])
    # q on the base point itself, 1/3 on the generic curve
    @example(name="generic", ends=[
        ("branch", 0, 0.03125, 0.0, (0.0, 0.0), 1),
        ("free", 0, 0.03125, 0.0, (1.0 / 3.0, 0.0), 1)])
    def test_base_route_matches_reference_route(self, third_kind_models,
                                                name, ends):
        # moments M(p) - M(q) from the base point against the integral
        # from q to p, then around a flip loop if it arrives on the other
        # sheet: the routes differ by a cycle, which the normalized form
        # does not see, so the polynomials agree within both routes'
        # errors plus the form's real-period defect
        model = third_kind_models[name]
        curve = model.curve
        p, q = (SurfacePoint(complex(curve.branch_points[j])
                             + r * np.exp(1j * phase)
                             if near == "branch" else complex(*free), sheet)
                for near, j, r, phase, free, sheet in ends)
        # the reference route has no path between the sheets over one
        # lambda, and neither route one to a branch point
        assume(abs(p.lam - q.lam) > 1e-3)
        assume(min(np.abs(z - curve.branch_points).min()
                   for z in (p.lam, q.lam)) >= 1e-4)
        errs = []
        per_path = green.integrate_vector_path
        lam_b = green._moment_base(curve)[0]

        def recorded(*args, **kwargs):
            out = per_path(*args, **kwargs)
            errs.append(out[1])
            return out

        with mock.patch.object(green, "integrate_vector_path", recorded):
            values, pcoef = _two_point_form(model, p, q)
        # the base point's branch leg and one path to each pole but one on
        # the base point itself
        assert len(errs) == 1 + (p.lam != lam_b) + (q.lam != lam_b)
        y_q = complex(curve.y_at(np.asarray(q.lam, complex), q.sheet))
        m_ref, err_ref = _integrate_to(curve, q.lam, y_q, p,
                                       green._moment_integrand)
        ref = green._correction_pcoef(model, m_ref)
        defect = _real_period_defect(model, values)
        bound = _pcoef_norm(model) * (sum(errs) + err_ref) + defect
        assert _pcoef_gap(pcoef, ref) <= bound

    def test_empty_path_rejected(self, z5):
        model, _ = z5
        with pytest.raises(NonConvergence):
            green.integrate_vector_path(model.curve.branch_points,
                                        [0.4 + 0.9j], 1.0,
                                        lambda z, y: z[:, None])

    def test_spent_budget_raises(self, z5):
        # an interior inverse-square-root singularity needs more than two
        # bisections; the estimate must not be accepted silently
        model, _ = z5
        a, b = -1.5 + 1.4j, 1.5 + 1.4j
        c = a + 0.371 * (b - a)
        y0 = complex(model.curve.y_at(np.asarray(a, complex)))
        with pytest.raises(NonConvergence):
            green.integrate_vector_path(
                model.curve.branch_points, [a, b], y0,
                lambda z, y: (np.abs(z - c) ** -0.5)[:, None], budget=2)


def _segment_clearance(curve, a, b):
    """Reference for green._blocked's distances: the distance from the
    segment [a, b] to the branch locus, one segment at a time."""
    seg = b - a
    if seg == 0:
        return float(np.abs(a - curve.branch_points).min())
    t = np.clip(((curve.branch_points - a) / seg).real, 0.0, 1.0)
    return float(np.abs(a + t * seg - curve.branch_points).min())


def _runs_through(curve, a, b):
    """Reference for integrate_paths' through-root refusal: some branch
    point r sees the segment [a, b] at an angle within 1e-12 of pi,
    neither end on r."""
    return any(r not in (a, b)
               and abs(cmath.phase((b - r) / (a - r))) >= math.pi - 1e-12
               for r in curve.branch_points.tolist())


def _clearance_floor(curve, a, b):
    """The clearance every path segment [a, b] must keep, written out from
    green._blocked's rule: 0.3 times the smaller endpoint distance to
    the branch points, capped at min_gap / 4."""
    gap = [float(np.abs(z - curve.branch_points).min()) for z in (a, b)]
    return min(0.3 * min(gap), curve.min_gap / 4.0)


class TestBuildPath:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           ends=st.lists(st.tuples(st.integers(0, 5), st.floats(1e-4, 0.05),
                                   st.floats(0.0, 2.0 * np.pi)),
                          min_size=2, max_size=2))
    # through branch point 1 from one side to the other, and from next to
    # it towards branch point 0 (the old flip-loop approach)
    @example(name="generic", ends=[(1, 0.03125, 0.0), (1, 0.04, np.pi)])
    @example(name="generic", ends=[(1, 0.03125, 0.0), (0, 0.05, 0.0)])
    @example(name="z5", ends=[(0, 0.01, np.pi), (1, 0.01, 0.0)])
    def test_segments_keep_clear(self, name, ends):
        # endpoints within 0.05 of a branch point each: every segment
        # keeps the one clearance rule, and the routing terminates
        curve = CURVES[name]
        a, b = (complex(curve.branch_points[j] + r * np.exp(1j * phi))
                for j, r, phi in ends)
        path = green.build_path(curve, a, b)
        assert path[0] == a and path[-1] == b
        for u, v in zip(path[:-1], path[1:]):
            clr = _segment_clearance(curve, u, v)
            assert clr >= _clearance_floor(curve, u, v), (u, v)
            assert clr > 1e-9 * curve.scale

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           ends=st.lists(st.tuples(st.integers(0, 5), st.floats(-6.0, 0.0),
                                   st.floats(0.0, 2.0 * np.pi)),
                         min_size=2, max_size=2),
           step=st.one_of(st.none(), st.floats(0.0, 0.7)))
    @example(name="z5", ends=[(0, -6.0, 0.0), (0, -6.0, 0.0)], step=0.49)
    def test_early_return_is_unblocked(self, name, ends, step):
        # ends 1e-6 to 1 from a branch point; with a step, the second end
        # is the first moved by step times its gap, so the early return
        # often applies.  Wherever it does, the path is [a, b]; and every
        # segment of every path passes _blocked, as the full route's do
        curve = CURVES[name]
        bps = curve.branch_points
        a, b = (complex(bps[j] + 10.0 ** k * np.exp(1j * phi))
                for j, k, phi in ends)
        if step is not None:
            phi = ends[1][2]
            b = a + step * float(np.abs(a - bps).min()) * np.exp(1j * phi)
        # build_path cannot route an end that sits on a branch point
        assume(a != b and min(np.abs(z - bps).min() for z in (a, b)) >= 1e-6)
        path = green.build_path(curve, a, b)
        gaps = [float(np.abs(z - bps).min()) for z in path]
        for k in range(len(path) - 1):
            assert not green._blocked(curve, path[k], path[k + 1], gaps[k],
                                      gaps[k + 1])[0].any()
        half_gap = 0.5 * max(gaps[0], gaps[-1])
        if abs(b - a) < half_gap and half_gap > 2e-9 * curve.scale:
            assert path == [a, b]

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_subnormal_segment(self, name):
        # a segment one subnormal step long, from the base point on the
        # real axis: its foot is its start, with no overflow in dividing
        # by its length
        curve = CURVES[name]
        lam = complex(curve.branch_points[0]) + curve.min_gap / 3.0
        assert lam.imag == 0.0
        with np.errstate(all="raise"):
            assert green.build_path(curve, lam, lam + 1e-310j) \
                == [lam, lam + 1e-310j]
            # build_path returns early here, so _blocked is checked alone
            gap = float(np.abs(lam - curve.branch_points).min())
            assert not green._blocked(curve, lam, lam + 1e-310j, gap,
                                      gap)[0].any()


def _reference_integrate_path(f, path, tol, budget, y0, lift):
    """Reference for green.integrate_vector_path: the callback form it
    replaced, with lift(a, b, y_a, points) continuing y from y_a at a to
    points on the segment [a, b], and every split pass's nodes compared
    with each other and both ends, short or long."""
    x = green._path_rule()[0]
    n = green._NODES
    pts = [complex(p) for p in path]
    total = None
    total_err = 0.0
    y_a = y0
    used = 0
    for a, b in zip(pts[:-1], pts[1:]):
        if a == b:
            continue
        stack = [(a, b, False)]
        while stack:
            lo, hi, split = stack.pop()
            mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
            zs = mid + half * x
            zs[n] = b
            if split and len(set(np.r_[lo, hi, zs[:n]].tolist())) < n + 2:
                raise NonConvergence("nodes not distinct")
            ys = lift(a, b, y_a, zs)
            if not ys[:n].all():
                raise NonConvergence("a node on a branch point")
            y_b = ys[n]
            vals = f(zs[:n], ys[:n])
            hi_est, err, accepted = green._embedded_gauss(half, vals, tol)
            err = float(err)
            if accepted:
                total = hi_est if total is None else total + hi_est
                total_err += err
            elif used >= budget:
                raise NonConvergence("budget spent")
            else:
                used += 1
                stack.append((lo, mid, True))
                stack.append((mid, hi, True))
        y_a = complex(y_b)
    if total is None:
        raise NonConvergence("empty integration path")
    return total, total_err, y_a


def _reference_vector_path(roots, verts, y0, f, tol=1e-9, budget=200):
    """Reference for green.integrate_paths: the one-path loop it replaced,
    verbatim.  Each segment's pieces go on a stack, the half at its end
    popped first, so the accepted pieces are summed from the segment's
    end back to its start; budget caps the bisections on the path."""
    x = green._path_rule()[0]
    n = green._NODES
    pts = [complex(p) for p in verts]
    total = None
    total_err = 0.0
    y_a = y0
    used = 0
    for a, b in zip(pts[:-1], pts[1:]):
        if a == b:
            continue
        stack = [(a, b, False)]
        while stack:
            lo, hi, split = stack.pop()
            mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
            zs = mid + half * x
            zs[n] = b
            if split and abs(half) < 4096 * math.ulp(abs(mid)) and np.unique(
                    np.r_[lo, hi, zs[:n]]).size < n + 2:
                raise NonConvergence(
                    f"path integral: [{lo}, {hi}] has nodes not distinct")
            ys = curveperiods._continue_sqrt(roots, a, b, y_a, zs)
            if np.count_nonzero(ys[:n]) < n:
                raise NonConvergence(
                    f"path integral: a node of [{lo}, {hi}] lies on a "
                    f"branch point")
            y_b = ys[n]
            hi_est, err, accepted = green._embedded_gauss(
                half, f(zs[:n], ys[:n]), tol)
            err = float(err)
            if accepted:
                total = hi_est if total is None else total + hi_est
                total_err += err
            elif used >= budget:
                raise NonConvergence(
                    f"path integral: {budget} subdivisions exhausted on "
                    f"[{lo}, {hi}] (error {err:.3e})")
            else:
                used += 1
                stack.append((lo, mid, True))
                stack.append((mid, hi, True))
        y_a = complex(y_b)
    if total is None:
        raise NonConvergence("empty integration path")
    return total, total_err, y_a


def _path_counts(parent, root, counts):
    """Sums of the counts on the edges of every node's root path, counts[i]
    on the edge from node i to its parent (0 at the root), by pointer
    jumping: up[i] starts at the parent of i and jumps to up[up[i]] in
    every pass, total[i] summing the edges from i to up[i], until every
    up[i] is the root, about log2 of the largest depth passes.  The
    whole-tree references sum along the root paths with it."""
    total = counts.copy()
    up = np.where(parent >= 0, parent, root)
    while (up != root).any():
        total += total[up]
        up = up[up]
    return total


def _tree_y_plus(curve, tree):
    """y continued along a SurfaceTree from y_root to every node in one
    vectorised pass: one _continue_sqrt call continues +sqrt(P) at the
    parent of every edge to its node, keeping or flipping the sign, and
    _path_counts sums the flips along every root path.  The
    reference for GreenSolver._y, and the start y of the whole-tree
    references here."""
    lam, bp = tree.grid.nodes, curve.branch_points
    exact = np.sqrt(curve.poly(lam))
    kids = tree.order[1:]
    up = tree.parent[kids]
    flips = np.zeros(lam.size, dtype=int)
    flips[kids] = curveperiods._continue_sqrt(
        bp, lam[up], lam[kids], exact[up], lam[kids]) != exact[kids]
    flips = _path_counts(tree.parent, tree.root, flips)
    at_root = exact[tree.root]
    flip_root = abs(tree.y_root - at_root) >= abs(tree.y_root + at_root)
    return np.where(flips % 2 != flip_root, -exact, exact)


def _lift_edges(curve, tree, kids, y_plus):
    """(zs, ys, half) of the tree edges into the nodes kids: the Gauss
    nodes of each edge as a row (_path_rule), y there continued from
    y_plus (_tree_y_plus) at its parent in one _continue_sqrt call,
    half-lengths."""
    lam = tree.grid.nodes
    up = tree.parent[kids]
    half = (lam[kids] - lam[up]) / 2.0
    zs = ((lam[up] + lam[kids]) / 2.0)[:, None] \
        + half[:, None] * green._path_rule()[0][:green._NODES]
    ys = curveperiods._continue_sqrt(curve.branch_points, lam[up], lam[kids],
                                     y_plus[up], zs.T).T
    return zs, ys, half


def _oracle_rule():
    """The 20/10-point Gauss-Legendre pair, the oracle of the nested
    10/21-point rule, in green._path_rule's layout: the 10-point nodes,
    the 20-point nodes, then 1.0; the 20-point weights, zero on the
    10-point rows; the 10-point weights.  Its estimate is the 20-point
    one (exact to degree 39) and its gap the 20-point less the 10-point
    estimate."""
    (x10, w10), (x20, w20) = gauss_legendre(10), gauss_legendre(20)
    return np.r_[x10, x20, 1.0], np.r_[np.zeros(10), w20], w10


@contextlib.contextmanager
def _oracle():
    """green's path integrals, trees and solvers on _oracle_rule: 30
    integrand nodes per interval, with _rule_weights built from it on
    each call.  A tree built here keeps its nodes."""
    rule = _oracle_rule()
    with mock.patch.multiple(green, _path_rule=lambda: rule,
                             _NODES=rule[1].size,
                             _rule_weights=green._rule_weights.__wrapped__):
        yield


def _path_f(k):
    """A k-vector integrand with y in the denominator and numerator."""
    def f(z, y):
        return np.power.outer(z, np.arange(k)) \
            * (1.0 / y + 0.1 * y)[:, None]
    return f


class TestIntegrateVectorPath:
    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           verts=st.lists(st.tuples(st.floats(-2.0, 2.0),
                                    st.floats(-2.0, 2.0)),
                          min_size=1, max_size=5),
           k=st.sampled_from([1, 2, 5]), sheet=st.sampled_from([1, -1]),
           tol=st.sampled_from([1e-9, 1e-6]),
           budget=st.sampled_from([4, 200]))
    @example(name="generic", verts=[(2.0, 0.0), (-1.0, 0.0)], k=1, sheet=1,
             tol=1e-6, budget=200)
    def test_matches_lift_callback_reference(self, name, verts, k, sheet,
                                             tol, budget):
        # the same bits as the callback form: value, error and y_end, or
        # NonConvergence from both; no vertex sits on a branch point.  A
        # segment through one is refused before the callback form would
        # start (_runs_through)
        curve = CURVES[name]
        path = [complex(*v) for v in verts]
        assume(min(np.abs(z - curve.branch_points).min() for z in path)
               > 1e-3)
        y0 = complex(curve.y_at(np.asarray(path[0]), sheet))
        f = _path_f(k)
        if any(_runs_through(curve, a, b) for a, b in zip(path, path[1:])):
            event("runs through a branch point")
            with pytest.raises(NonConvergence, match="runs through"):
                green.integrate_vector_path(curve.branch_points, path, y0,
                                            f, tol=tol, budget=budget)
            return
        try:
            ref = _reference_integrate_path(
                f, path, tol, budget, y0,
                partial(curveperiods._continue_sqrt, curve.branch_points))
        except NonConvergence:
            event("NonConvergence")
            with pytest.raises(NonConvergence):
                green.integrate_vector_path(curve.branch_points, path, y0,
                                            f, tol=tol, budget=budget)
            return
        got = green.integrate_vector_path(curve.branch_points, path, y0, f,
                                          tol=tol, budget=budget)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)
            assert type(g) is type(r)

    @pytest.mark.parametrize("sheet", [1, -1])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_path_through_branch_point_raises_before_dividing(self, k,
                                                              sheet):
        # the path (2, 0) -> (0.5, 0) runs through branch point 1 of the
        # generic curve, where f is singular inside a piece and y has no
        # continuation: the first pass refuses the segment before f is
        # evaluated, so nothing divides by y = 0
        curve = CURVES["generic"]
        path = [2.0 + 0j, 0.5 + 0j]
        y0 = complex(curve.y_at(np.asarray(path[0]), sheet))

        def f(z, y):
            return np.power.outer(z, np.arange(k)) \
                * (1.0 / y + 0.1 * y)[:, None]

        with np.errstate(all="raise"), pytest.raises(
                NonConvergence, match="runs through branch point"):
            green.integrate_vector_path(curve.branch_points, path, y0, f,
                                        tol=1e-9, budget=200)

    def test_first_pass_node_on_branch_point_raises(self):
        # a segment 2e-6 long about branch point r = 0.3+1.1i of the
        # generic curve, its end one ulp higher than its start: it misses
        # r by half an ulp, 2.2e-10 of its half-length, so it is not
        # refused as running through r, but its centre, the middle node
        # of the first pass, rounds onto r, where y = 0: the pass raises
        # before f divides by y
        curve = CURVES["generic"]
        r = complex(curve.branch_points[2])
        path = [complex(r.real - 1e-6, r.imag),
                complex(r.real + 1e-6, math.nextafter(r.imag, 2.0))]
        x = green._path_rule()[0]
        assert ((path[0] + path[1]) / 2.0
                + (path[1] - path[0]) / 2.0 * x)[x == 0] == r
        y0 = complex(curve.y_at(np.asarray(path[0]), 1))

        def f(z, y):
            return 1.0 / y

        with np.errstate(all="raise"), pytest.raises(
                NonConvergence, match="lies on a branch point"):
            green.integrate_vector_path(curve.branch_points, path, y0, f)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_singular_end_raises_before_dividing(self, name):
        # f = 1 / ((lambda - b) y) on [a, b]: bisection toward b shrinks
        # the last subinterval until a node would round onto b, and the
        # pass raises before f divides by zero there, so no
        # RuntimeWarning; 200 random segments clear of the branch points
        curve = CURVES[name]
        rng = np.random.default_rng(7)
        done = 0
        while done < 200:
            a, b = (complex(*v) for v in rng.uniform(-1.6, 1.6, (2, 2)))
            if _segment_clearance(curve, a, b) < 0.05:
                continue
            done += 1

            def f(z, y, b=b):
                return 1.0 / ((z - b) * y)

            with pytest.raises(NonConvergence, match="not distinct"):
                green.integrate_vector_path(
                    curve.branch_points, [a, b],
                    complex(curve.y_at(np.asarray(a), 1)), f)

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           verts=st.lists(st.tuples(st.floats(-2.0, 2.0),
                                    st.floats(-2.0, 2.0)),
                          min_size=2, max_size=5),
           k=st.sampled_from([1, 2, 5]), sheet=st.sampled_from([1, -1]),
           tol=st.sampled_from([1e-9, 1e-6]))
    @example(name="generic", verts=[(0.0, 1.0), (0.0, -2.0)], k=1, sheet=1,
             tol=1e-6)
    @example(name="generic", verts=[(0.0, 1.0), (0.0, -1.0)], k=1, sheet=1,
             tol=1e-9)
    @example(name="generic", verts=[(2.0, 0.0), (0.5, 0.0)], k=1, sheet=1,
             tol=1e-6)
    def test_agrees_with_gauss_20_10_oracle(self, name, verts, k, sheet,
                                            tol):
        # the nested 10/21-point rule against the 20/10-point pair it
        # replaced: the values within the sum of both error estimates
        # (plus 64 ulp of the larger of 1 and the largest component, for
        # rounding where both rules are exact), and y_end on the same
        # sheet.  The examples run through branch points 0 and 1, where
        # both rules must refuse the segment: accepted, their gaps
        # under-counted the error, or only the 10/21 rule put a node on 0
        curve = CURVES[name]
        path = [complex(*v) for v in verts]
        assume(min(np.abs(z - curve.branch_points).min() for z in path)
               > 1e-3)
        y0 = complex(curve.y_at(np.asarray(path[0]), sheet))
        try:
            with _oracle():
                ref = green.integrate_vector_path(curve.branch_points, path,
                                                  y0, _path_f(k), tol=tol)
        except NonConvergence:
            event("oracle NonConvergence")
            return
        got = green.integrate_vector_path(curve.branch_points, path, y0,
                                          _path_f(k), tol=tol)
        size = max(1.0, float(np.abs(ref[0]).max()))
        assert np.abs(got[0] - ref[0]).max() \
            <= got[1] + ref[1] + 64 * np.finfo(float).eps * size
        assert abs(got[2] - ref[2]) <= 1e-12 * abs(ref[2])


class TestIntegratePaths:
    """green.integrate_paths, the one adaptive path integrator, against
    the one-path loop it replaced (_reference_vector_path)."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)), odd=st.booleans(),
           ends=st.lists(st.tuples(st.floats(-1.8, 1.8), st.floats(-1.8, 1.8),
                                   st.floats(-1.8, 1.8), st.floats(-1.8, 1.8),
                                   st.sampled_from([1, -1])),
                         min_size=1, max_size=6),
           tol=st.floats(1e-14, 1e-8))
    def test_batch_matches_reference(self, read_solvers, name, odd, ends,
                                     tol):
        # a batch of build_path polylines, with the moments or a solver's
        # odd part g as the integrand: every path's value, error and end
        # y with the bits of the one-path loop, both as a row of the batch
        # (a lone path is batched twice, so the array pass always runs)
        # and alone (integrate_vector_path, the scalar pass), or
        # NonConvergence from both wherever the loop raises on a path
        sol = read_solvers[name, (6, 8)][0]
        curve = sol.ctx.curve
        bp = curve.branch_points
        f = sol._odd if odd else green._moment_integrand
        paths, y0s = [], []
        for ax, ay, bx, by, sheet in ends:
            a, b = complex(ax, ay), complex(bx, by)
            assume(a != b and min(np.abs(z - bp).min() for z in (a, b))
                   > 1e-3)
            paths.append(green.build_path(curve, a, b))
            y0s.append(complex(curve.y_at(np.asarray(a), sheet)))
        copies = 1 if len(paths) > 1 else 2
        refs = []
        for path, y0 in zip(paths, y0s):
            try:
                refs.append(_reference_vector_path(bp, path, y0, f, tol))
            except NonConvergence:
                event("NonConvergence")
                with pytest.raises(NonConvergence):
                    green.integrate_paths(bp, paths * copies, y0s * copies,
                                          f, tol)
                with pytest.raises(NonConvergence):
                    green.integrate_vector_path(bp, path, y0, f, tol)
                return
        rejected = []
        with mock.patch.object(green, "_embedded_gauss",
                               _recording(rejected, green._embedded_gauss)):
            got = green.integrate_paths(bp, paths * copies, y0s * copies, f,
                                        tol)
        event("bisected" if any((~np.asarray(ok)).any()
                                for *_, ok in rejected) else "no bisection")
        assert [len(out) for out in got] == [len(paths) * copies] * 3
        for out, ref, path, y0 in zip(zip(*got), refs * copies,
                                      paths * copies, y0s * copies):
            alone = green.integrate_vector_path(bp, path, y0, f, tol)
            for g, r, a in zip(out, ref, alone):
                assert type(g) is type(r) is type(a)
                assert np.asarray(g).tobytes() == np.asarray(r).tobytes() \
                    == np.asarray(a).tobytes()

    def test_budget_is_per_path(self):
        # f singular 1e-3 off the path [a, b] takes the path `need`
        # bisections, and the path far from it none.  One batch at budget
        # need - 1 raises, though the far paths in it converge; three
        # copies of [a, b] at budget need, 3 need bisections together,
        # pass with the bits of each alone
        curve = CURVES["z5"]
        bp = curve.branch_points
        a, b = -1.5 + 1.4j, 1.5 + 1.4j
        c = a + 0.371 * (b - a) + 1e-3j

        def f(z, y):
            return (np.abs(z - c) ** -0.5)[:, None]

        y0 = complex(curve.y_at(np.asarray(a)))
        far = [1.5 - 1.4j, 1.4 - 1.2j]
        y_far = complex(curve.y_at(np.asarray(far[0])))

        def alone(budget):
            try:
                return _reference_vector_path(bp, [a, b], y0, f,
                                              budget=budget)
            except NonConvergence:
                return None

        need = next(k for k in range(200) if alone(k) is not None)
        assert need >= 2
        ref_far = _reference_vector_path(bp, far, y_far, f, budget=0)
        with pytest.raises(NonConvergence, match="subdivisions exhausted"):
            green.integrate_paths(bp, [far, [a, b], far], [y_far, y0, y_far],
                                  f, budget=need - 1)
        got = green.integrate_paths(bp, [[a, b]] * 3 + [far],
                                    [y0] * 3 + [y_far], f, budget=need)
        for out, ref in zip(zip(*got), [alone(need)] * 3 + [ref_far]):
            for g, r in zip(out, ref):
                assert np.asarray(g).tobytes() == np.asarray(r).tobytes()


def _surface_grid(name, grid, stagger):
    return build_surface_grid(CURVES[name].branch_points,
                              QuadratureConfig(surface_grid=(*grid, None)),
                              stagger=stagger)


def _reference_search(curve, lam, before, i):
    """The parent of node i among the nodes before (node indices) that
    green.build_surface_tree's search gives, one node at a time: the
    first of the 16 nearest (ties to the lower index) whose segment keeps
    _clearance_floor and 1e-9 scale clear of the branch points, else the
    nearest."""
    vi = np.sort(np.asarray(before))
    d = np.abs(lam[vi] - lam[i])
    for j in vi[np.argsort(d, kind="stable")[:16]]:
        if _keeps_clear(curve, lam[j], lam[i]):
            return int(j)
    return int(vi[np.argmin(d)])


def _keeps_clear(curve, a, b):
    """Whether the segment [a, b] keeps _clearance_floor and 1e-9 scale
    clear of the branch points, one segment at a time."""
    clr = _segment_clearance(curve, a, b)
    return clr >= _clearance_floor(curve, a, b) and clr > 1e-9 * curve.scale


def _reference_layout(curve, grid, root):
    """Reference for green._layout_tree, one node at a time: the visit
    order and the layout parents of a grid with a recorded layout, -1
    where the search is to find the parent.

    Patches go last to first; in each, the rings go from the outermost in
    lambda (the first on the inverted exterior chart, the last on the
    others), each at offsets 0, 1, -1, 2, -2, ... from the spine, the
    outermost ring's node nearest the root.  A node's neighbours are the
    next one out on its spoke (none on the outermost ring) and the next
    one toward the spine on its ring (none on the spine), the spoke's
    first if it is nearer.  The node hangs from the first whose edge is
    clear: shorter than half the larger endpoint distance to the branch
    points, that half over 2e-9 scale (build_path's early return), or
    else _keeps_clear."""
    lam = grid.nodes
    bps = curve.branch_points
    starts = np.cumsum([0] + [P.size for P in grid.patches])
    order, parent = [], {}

    def clear(u, v):
        half_gap = 0.5 * max(np.abs(lam[v] - bps).min(),
                             np.abs(lam[u] - bps).min())
        return (np.abs(lam[v] - lam[u]) < half_gap
                and half_gap > 2e-9 * curve.scale) \
            or _keeps_clear(curve, lam[u], lam[v])

    for i in reversed(range(len(grid.patches))):
        P = grid.patches[i]
        k = P.n_ang
        rings = list(range(P.radii.size))
        if not P.inverted:
            rings.reverse()

        def at(r, j):
            return int(starts[i] + r * k + j % k)

        head = int(np.argmin(np.abs(
            lam[[at(rings[0], j) for j in range(k)]] - lam[root])))
        offsets = [0] + [s * m for m in range(1, k) for s in (1, -1)]
        for q, r in enumerate(rings):
            for t in offsets[:k]:
                v = at(r, head + t)
                near = [at(r, head + t - int(np.sign(t)))] if t else []
                if q > 0:
                    out = at(rings[q - 1], head + t)
                    if not near or np.abs(lam[out] - lam[v]) \
                            < np.abs(lam[near[0]] - lam[v]):
                        near.insert(0, out)
                    else:
                        near.append(out)
                order.append(v)
                parent[v] = next((u for u in near if clear(u, v)), -1)
    return order, parent


def _reference_tree(curve, grid):
    """Reference for green.build_surface_tree, one node at a time: the
    layout parents (_reference_layout) on a SurfaceGrid, else (a
    hand-built _node_grid) the nodes by distance from the root, as
    _nearest_visited_tree takes them; a node with no parent there takes
    _reference_search's among the nodes before it.  y is continued
    segment by segment."""
    lam = grid.nodes
    n = lam.size
    root = int(np.argmax(np.abs(lam - grid.center)))
    if isinstance(grid, SurfaceGrid):
        order, layout = _reference_layout(curve, grid, root)
    else:
        order = sorted(range(n), key=lambda i: (abs(lam[i] - lam[root]), i))
        layout = {}
    assert order[0] == root
    parent = np.full(n, -1, dtype=int)
    for k, i in enumerate(order[1:], 1):
        parent[i] = layout.get(i, -1)
        if parent[i] < 0:
            parent[i] = _reference_search(curve, lam, order[:k], i)
    y_plus = np.empty(n, dtype=complex)
    y_plus[root] = _continue_to(curve, curve.base_point,
                                curve.base_sheet_value, lam[root])
    depth = np.zeros(n, dtype=int)
    for i in order[1:]:
        y_plus[i] = _continue_to(curve, lam[parent[i]], y_plus[parent[i]],
                                 lam[i])
        depth[i] = depth[parent[i]] + 1
    return parent, np.asarray(order), y_plus, root, depth


def _node_grid(nodes):
    """A hand-built grid: nodes about centre 0, with no layout and so no
    SurfaceGrid; its tree is _nearest_visited_tree's."""
    return SimpleNamespace(nodes=np.asarray(nodes, dtype=complex), center=0.0)


def _nearest_visited_tree(curve, grid):
    """The nearest-visited tree over the nodes of a grid, whatever its
    layout: the nodes by distance from the root (the node farthest from
    the grid centre), ties to the lower index, each hanging from
    green._nearest_clear's pick among the nodes before it; the hub and
    y_root as green.build_surface_tree takes them.  The distances are
    Python's abs, which differs from np.abs by an ulp on some nodes,
    enough to swap two nodes of equal distance in the visit order."""
    lam = grid.nodes
    root = int(np.argmax(np.abs(lam - grid.center)))
    rho = [abs(z) for z in (lam - lam[root]).tolist()]
    order = np.lexsort((np.arange(lam.size), rho))
    dist = np.abs(lam[:, None] - curve.branch_points)
    parent = np.full(lam.size, -1)
    parent[order[1:]] = green._nearest_clear(curve, lam, dist.min(axis=1),
                                             order, order[1:])
    route = green.build_path(curve, curve.base_point, lam[root])
    y_root = curve.base_sheet_value
    for a, b in zip(route, route[1:]):
        y_root = _continue_to(curve, a, y_root, b)
    return green.SurfaceTree(
        grid=grid, parent=parent, order=order, y_root=y_root, root=root,
        hub=int(np.argmin(np.abs(dist[:, 0] - curve.min_gap / 3.0))))


def _tree_depth(tree):
    """Edges from the root to every node of a SurfaceTree, one node at a
    time in visit order, each one more than its parent."""
    depth = np.zeros(tree.order.size, dtype=int)
    for v in tree.order[1:]:
        depth[v] = depth[tree.parent[v]] + 1
    return depth


def _accumulate_tree(curve, tree, f, k, tol=1e-8, budget=30):
    """Whole-tree reference for GreenSolver.settle: cumulative integrals
    int_root^node of the k-vector f(lam, y) along the tree edges, on the
    sheet of the tree continuation (_tree_y_plus).

    f is evaluated once, on the nodes of every edge at their lifted y
    (_lift_edges of every edge), in one batched pass of the nested rule
    (green._embedded_gauss); an edge that fails its acceptance rule
    goes through integrate_vector_path from y at its parent, with
    the same per-edge budget.  The edge values, with each edge's
    accepted gap as one more column, are summed along every root path by
    pointer jumping (_path_counts), in at most ceil(log2 d) rounds
    on a path of d edges: with S the sum of its |edge values| each sum is
    within (ceil(log2 d) + d - 1) 2^-53 S of the per-node walk (first
    order, in real and imaginary parts).  Returns (vals, error,
    path_err): error sums the accepted gaps of every edge, and path_err
    those on each node's root path."""
    lam, kids = tree.grid.nodes, tree.order[1:]
    up = tree.parent[kids]
    y_plus = _tree_y_plus(curve, tree)
    zs, ys, half = _lift_edges(curve, tree, kids, y_plus)
    fv = f(zs.T.ravel(), ys.T.ravel()).reshape(*zs.T.shape, k)
    hi_est, gap, ok = green._embedded_gauss(half, fv, tol)
    edge_err = np.where(ok, gap, 0.0)
    for e in np.flatnonzero(~ok):
        hi_est[e], edge_err[e], _ = green.integrate_vector_path(
            curve.branch_points, [lam[up[e]], lam[kids[e]]],
            y_plus[up[e]], f, tol=tol, budget=budget)
    sums = np.zeros((lam.size, k + 1), dtype=complex)
    sums[kids, :k] = hi_est
    sums[kids, k] = edge_err
    sums = _path_counts(tree.parent, tree.root, sums)
    return sums[:, :k], float(edge_err.sum()), sums[:, k].real


def _node_values(sol, nodes=None):
    """(gamma, node_err) of a solver at p nodes (all by default), read
    through GreenSolver.settle: gamma = Re Gamma on the tree sheet, S +
    Re Gamma(root), and node_err the error of u less its closed-form
    terms on the tree sheet, e, and on the other one, e + cross_err."""
    if nodes is None:
        nodes = np.arange(sol.p_tree.grid.nodes.size)
    s, e = sol.settle(nodes).T
    return s + sol.gamma_root, np.stack([e, e + sol.cross_err], axis=1)


def _reference_accumulate(curve, tree, f, k, tol, budget):
    """Reference for _accumulate_tree's edges: one integrate_vector_path per
    edge.  Returns the cumulative values and, per node, the summed error
    of the edges on its path from the root."""
    lam = tree.grid.nodes
    y_plus = _tree_y_plus(curve, tree)
    vals = np.zeros((lam.size, k), dtype=complex)
    path_err = np.zeros(lam.size)
    for i in tree.order[1:]:
        j = tree.parent[i]
        v, e, _ = green.integrate_vector_path(
            curve.branch_points, [lam[j], lam[i]], y_plus[j], f,
            tol=tol, budget=budget)
        vals[i] = vals[j] + v
        path_err[i] = path_err[j] + e
    return vals, path_err


def _harm_both(sol):
    """A solver's averaged form (less its Cauchy sum) at y and at -y, as
    two columns: the integrand of the two-column route, the oracle for
    the solver's odd route."""
    def f(zs, ys):
        return np.stack([green._form_values(zs, v, *sol.form)
                         for v in (ys, -ys)], axis=-1)
    return f


def _node_u(sol):
    """u less t_nodes at every p node of a solver, on the tree sheet and
    on the other one: (1/2) log|lambda - lambda_y| + c +- gamma."""
    even = 0.5 * np.log(np.abs(sol.p_tree.grid.nodes - sol.form[0])) + sol.c
    gamma = _node_values(sol)[0]
    return np.stack([even + gamma, even - gamma], axis=1)


def _both_sheets(curve, tree, f):
    """The integrals of f, a solver's averaged form on both sheets
    (_harm_both), from the tree root to every node on its tree sheet and
    on the other one, with their errors, on the two-column route: the
    tree sums, and on the other sheet the flip down to the hub, through
    the branch leg and back up."""
    vals, _, path_err = _accumulate_tree(curve, tree, f, 2)
    hub = tree.hub
    leg, leg_err = green._branch_leg(curve, tree.grid.nodes[hub],
                                     _tree_y_plus(curve, tree)[hub], f)
    flip = vals[hub, 0] - vals[hub, 1] + leg[1] - leg[0]
    flip_err = 2.0 * path_err[hub] + leg_err
    return (np.stack([vals[:, 0], flip + vals[:, 1]], axis=1),
            np.stack([path_err, path_err + flip_err], axis=1))


def _assert_reference_tree(curve, grid):
    """build_surface_tree on a SurfaceGrid, or _nearest_visited_tree on a
    hand-built grid (_node_grid), against _reference_tree, bit for bit: a
    tree over the grid nodes alone, one edge per node but the root, with
    no vertex of its own, and y at the root; the reference's y at every
    node is _tree_y_plus's."""
    tree = (green.build_surface_tree(curve, grid)
            if isinstance(grid, SurfaceGrid)
            else _nearest_visited_tree(curve, grid))
    parent, order, y_plus, root, depth = _reference_tree(curve, grid)
    n = grid.nodes.size
    assert tree.root == root
    np.testing.assert_array_equal(tree.parent, parent)
    np.testing.assert_array_equal(tree.order, order)
    assert tree.y_root == y_plus[root]
    np.testing.assert_array_equal(_tree_y_plus(curve, tree), y_plus)
    np.testing.assert_array_equal(_tree_depth(tree), depth)
    zs, ys, half = _lift_edges(curve, tree, order[1:], y_plus)
    assert zs.shape == ys.shape == (n - 1, green._NODES)
    np.testing.assert_array_equal(
        half, (grid.nodes[order[1:]] - grid.nodes[parent[order[1:]]]) / 2.0)
    return tree


def _two_chain_grid():
    """A hand-built grid whose tree is deep and whose depth does not rise
    along the visit order: from the root 5, a chain of 100 steps of 0.02
    towards -1-1j and a chain of 10 steps of 0.3 towards 0, both clear of
    the branch points.  Its hub is far from branch point 0, which only a
    solver's branch leg would need."""
    step = np.exp(1j * 1.25 * np.pi)
    nodes = np.concatenate([[5.0], 5.0 + 0.02 * step * np.arange(1, 101),
                            5.0 - 0.3 * np.arange(1, 11)])
    return _node_grid(nodes)


def _gram_potential(ctx, pts):
    """log_potential at the points pts in the Gram form, as t_nodes' near
    pairs take it: green._gram_sums about the branch-point mean against
    every q node, times -1 / (2 Area)."""
    c = ctx.curve.branch_points.mean()
    return green._gram_sums(green._gram_rows(pts - c),
                            green._gram_cols(ctx.q_grid.nodes - c),
                            ctx.cauchy_w, ctx.moll_radius ** 2) \
        * (-0.5 / ctx.area)


def _direct_log_potential(ctx, pts):
    """log_potential's direct sum at pts in its own arithmetic (squared
    real plus squared imaginary difference, bump on every near pair),
    and the bound _gram_sums' docstring states for the Gram form
    (_gram_potential) against it: (16 eps / Area) sum_i W_i (|x| +
    |q'_i|)^2 / max(r_i^2, eps_m^2), x and q' taken about the branch-point
    mean, plus 16 eps of sum_i |W_i phi_i| / Area for the rounding of the
    sum itself.  Rows go 128 at a time, each summed alone."""
    q = ctx.q_grid.nodes
    c = ctx.curve.branch_points.mean()
    eps2 = ctx.moll_radius ** 2
    dense, bound = [], []
    for s in range(0, pts.size, 128):
        x = pts[s:s + 128]
        r2 = (x.real[:, None] - q.real) ** 2 + (x.imag[:, None] - q.imag) ** 2
        u = r2 / eps2
        inside = u * (8.0 + u * (-9.0 + u * (16.0 / 3.0 - 1.25 * u))) \
            + (np.log(eps2) - 37.0 / 12.0)
        wphi = ctx.cauchy_w * np.where(r2 < eps2, inside,
                                       np.log(np.maximum(r2, 1e-300)))
        size = (np.abs(x - c)[:, None] + np.abs(q - c)) ** 2 \
            / np.maximum(r2, eps2)
        dense.append(wphi.sum(axis=-1) * (-0.5 / ctx.area))
        bound.append(16 * np.finfo(float).eps / ctx.area
                     * ((ctx.cauchy_w * size).sum(axis=-1)
                        + np.abs(wphi).sum(axis=-1)))
    return np.concatenate(dense), np.concatenate(bound)


class TestSurfaceTree:
    @pytest.mark.parametrize("name, grid, stagger", [
        *(pytest.param(name, grid, stagger, id=f"{name}-grid{k}-{stagger}")
          for name in sorted(CURVES)
          for k, grid in enumerate([(6, 8), (12, 16)])
          for stagger in [0.0, 0.31]),
        # a finer grid, with more of its nodes by the branch points
        pytest.param("generic", (24, 32), 0.31, id="generic-grid2-0.31")])
    def test_matches_reference_tree(self, name, grid, stagger):
        _assert_reference_tree(CURVES[name], _surface_grid(name, grid,
                                                           stagger))

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           grid=st.sampled_from([(3, 4), (6, 8), (12, 16), (24, 32)]),
           stagger=st.floats(0.0, 1.0, exclude_max=True))
    def test_edges_keep_clear(self, name, grid, stagger):
        # every tree edge passes _blocked, and order lists every node
        # after its parent.  At (1, 2) one edge is blocked: the search's
        # nearest fallback, with none of a node's 16 candidates clear
        curve = CURVES[name]
        tree = green.build_surface_tree(curve,
                                        _surface_grid(name, grid, stagger))
        lam = tree.grid.nodes
        gap = np.abs(lam[:, None] - curve.branch_points).min(axis=1)
        kids = tree.order[1:]
        up = tree.parent[kids]
        assert not green._blocked(curve, lam[up], lam[kids], gap[up],
                                  gap[kids])[0].any()
        np.testing.assert_array_equal(np.sort(tree.order),
                                      np.arange(lam.size))
        assert tree.order[0] == tree.root
        pos = np.argsort(tree.order)
        assert (pos[up] < np.arange(1, lam.size)).all()

    @pytest.mark.parametrize("grid", [(1, 2), (3, 4), (6, 8), (12, 16),
                                      (24, 32)],
                             ids=lambda g: f"{g[0]}x{g[1]}")
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_root_route_keeps_clear(self, name, grid):
        # y_root is y continued from the base point to the root along
        # build_path, one _continue_sqrt call per segment: every segment
        # passes _blocked, and where the route is one segment y_root is
        # the straight-segment value.  On z5 at (1, 2) the straight
        # segment passes within 2e-16 of branch point 0, so the route
        # detours
        curve = CURVES[name]
        calls = []

        def lift(roots, a, b, *args):
            calls.append((complex(a), complex(b)))
            return curveperiods._continue_sqrt(roots, a, b, *args)

        with mock.patch.object(green, "_continue_sqrt", lift):
            tree = green.build_surface_tree(curve,
                                            _surface_grid(name, grid, 0.0))
        root = complex(tree.grid.nodes[tree.root])
        route = green.build_path(curve, curve.base_point, root)
        assert calls == list(zip(route, route[1:]))
        gaps = [float(np.abs(z - curve.branch_points).min()) for z in route]
        for a, b, g_a, g_b in zip(route, route[1:], gaps, gaps[1:]):
            assert not green._blocked(curve, a, b, g_a, g_b)[0].any()
        y = curve.base_sheet_value
        for a, b in zip(route, route[1:]):
            y = _continue_to(curve, a, y, b)
        assert tree.y_root == y
        if len(route) == 2:
            assert tree.y_root == _continue_to(
                curve, curve.base_point, curve.base_sheet_value, root)
        if (name, grid) == ("z5", (1, 2)):
            assert len(route) > 2

    def test_parent_across_branch_point(self):
        # node x's nearest visited node a lies across branch point 1.0, so
        # x hangs from c, the next nearest, through the 16-candidate search;
        # the hub is far from branch point 0 on this hand-built grid
        curve = CURVES["generic"]
        root, a, c, x = 10.0, 1.02, 1.0 + 0.035j, 0.98
        nodes = np.array([x, c, 1.0 + 0.5j, a, root, 0.95 + 0.3j], complex)
        tree = _assert_reference_tree(curve, _node_grid(nodes))
        visited = tree.order[:list(tree.order).index(0)]   # x is node 0
        assert nodes[visited[np.argmin(np.abs(nodes[visited] - x))]] == a
        assert nodes[tree.parent[0]] == c

    def test_two_chain_tree(self):
        tree = _assert_reference_tree(CURVES["generic"], _two_chain_grid())
        depth = _tree_depth(tree)
        assert depth.max() >= 100
        assert (np.diff(depth[tree.order]) < 0).any()

    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           grid=st.sampled_from([(6, 8), (12, 16)]),
           stagger=st.floats(0.0, 0.5, exclude_max=True))
    def test_layout_tree_matches_nearest_visited(self, read_solvers, name,
                                                 grid, stagger):
        # the layout tree against the nearest-visited tree it replaced
        # (_nearest_visited_tree over the same grid): a spanning tree
        # listed parents first, with the same root and hub, and u less
        # t_nodes at every node on both sheets (a GreenSolver for the same
        # y on a context with that grid as its p grid and that tree as
        # its p tree) within both trees' node errors plus the period
        # defect, since the two root paths differ by a cycle
        sol, defect = read_solvers[name, grid]
        ctx = sol.ctx
        surface = _surface_grid(name, grid, stagger)
        on_surface = dataclasses.replace(
            ctx, p_grid=surface, dens_p=metric_density(
                ctx.curve, ctx.frame.lam_p, surface.nodes))
        ctxs = [on_surface, dataclasses.replace(on_surface)]
        ctxs[1].__dict__["p_tree"] = _nearest_visited_tree(ctx.curve, surface)
        sols = [green.GreenSolver(c, sol.y) for c in ctxs]
        trees = [s.p_tree for s in sols]
        n = surface.n_nodes
        layout, nearest = trees
        np.testing.assert_array_equal(np.sort(layout.order), np.arange(n))
        pos = np.argsort(layout.order)
        assert layout.order[0] == layout.root
        assert (pos[layout.parent[layout.order[1:]]]
                < np.arange(1, n)).all()
        assert (layout.root, layout.hub) == (nearest.root, nearest.hub)
        u, err = [], []
        y_layout = _tree_y_plus(ctx.curve, layout)
        for s, tree in zip(sols, trees):
            both, node_err = _node_u(s), _node_values(s)[1]
            # the layout tree's sheet of each node first
            same = (_tree_y_plus(ctx.curve, tree) == y_layout)[:, None]
            u.append(np.where(same, both, both[:, ::-1]))
            err.append(np.where(same, node_err, node_err[:, ::-1]))
        assert (np.abs(u[0] - u[1]) <= err[0] + err[1] + defect
                + 1e-12).all()

    @pytest.mark.parametrize("name, grid, stagger", [
        pytest.param("generic", (6, 8), 0.31, id="generic-grid0"),
        pytest.param("z5", (24, 32), 0.0, id="z5-grid2"),
        pytest.param("generic", None, 0.0, id="two-chain")])
    def test_level_sums_match_per_node_loop(self, name, grid, stagger,
                                            monkeypatch):
        # _accumulate_tree, the whole-tree reference, sums the edges along
        # every root path by pointer jumping (_path_counts); against the
        # per-node loop over tree.order, one edge at a time in visit
        # order, on the same edge values, a path of d edges is within
        # (ceil(log2 d) + d - 1) 2^-53 of the sum of the |edge values| on
        # it (real and imaginary parts alike), the bound it states
        curve = CURVES[name]
        tree = (_nearest_visited_tree(curve, _two_chain_grid())
                if grid is None else green.build_surface_tree(
                    curve, _surface_grid(name, grid, stagger)))
        edges = []
        path_sums = _path_counts

        def recorded(parent, root, counts):
            edges.append(counts.copy())
            return path_sums(parent, root, counts)

        monkeypatch.setitem(globals(), "_path_counts", recorded)
        vals, _, path_err = _accumulate_tree(
            curve, tree, green._moment_integrand, 5)
        # the sheet flips of _tree_y_plus, then the edge values
        flips, est = edges
        walk = np.zeros_like(est)
        size = np.zeros(est.shape)
        for v in tree.order[1:]:
            j = tree.parent[v]
            walk[v] = walk[j] + est[v]
            size[v] = size[j] + np.abs(est[v])
        depth = _tree_depth(tree)
        if grid is None:
            assert depth.max() >= 100
        u = 2.0 ** -53
        m = np.ceil(np.log2(np.maximum(depth, 1))) + np.maximum(depth - 1, 0)
        bound = (m * u / (1.0 - m * u))[:, None] * size

        def within(got, ref, tol):
            return (np.abs(got.real - ref.real) <= tol).all() \
                and (np.abs(got.imag - ref.imag) <= tol).all()

        assert within(vals, walk[:, :5], bound[:, :5])
        assert within(path_err, walk[:, 5].real, bound[:, 5])

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_batched_accumulation_matches_per_edge(self, name, tol,
                                                   monkeypatch):
        # tol = 1e-12 sends some edges past the one batched Gauss pass
        curve = CURVES[name]
        tree = green.build_surface_tree(curve, _surface_grid(name, (6, 8),
                                                             0.31))
        ref, path_err = _reference_accumulate(
            curve, tree, green._moment_integrand, 5, tol, 30)
        calls = []
        per_path = green.integrate_vector_path

        def counted(*args, **kwargs):
            calls.append((args[1][0], args[2], kwargs.get("budget")))
            return per_path(*args, **kwargs)

        monkeypatch.setattr(green, "integrate_vector_path", counted)
        vals, err, node_err = _accumulate_tree(
            curve, tree, green._moment_integrand, 5, tol=tol)
        gap = np.abs(vals - ref).max(axis=1)
        bound = path_err + 1e-13 * np.abs(ref).max(axis=1)
        assert (gap <= bound).all(), int(np.argmax(gap - bound))
        assert err >= path_err.max()
        # per-node errors: the same edges' gaps (to their rounding) summed
        # along the root path
        np.testing.assert_allclose(node_err, path_err, rtol=1e-3,
                                   atol=1e-11)
        assert err >= node_err.max()
        if tol == 1e-12:
            # at least one tree edge fell back, at the per-edge budget,
            # each from a node on its tree sheet
            assert {budget for _, _, budget in calls} == {30}
            node = {(complex(lam), complex(y)) for lam, y in
                    zip(tree.grid.nodes, _tree_y_plus(curve, tree))}
            on_tree = [(a, y) in node for a, y, _ in calls]
            assert sum(on_tree) >= 1
            assert all(on_tree)

    def test_spent_edge_budget_raises(self, z5):
        # a second argument on a p-tree edge, 0.3 of the way along it and
        # so on no Gauss-Kronrod node, puts the form's pole on it: the
        # edge's bisection in settle's integrate_paths call spends the
        # per-edge budget.  The edge is off the hub's
        # root path, so the solver builds and settles the edge's start;
        # settling its end node raises
        model, frame = z5
        c = green.green_context(model, frame,
                                QuadratureConfig(surface_grid=(6, 8, None)))
        tree = c.p_tree
        lam = tree.grid.nodes
        hub_path, j = set(), tree.hub
        while j != tree.root:
            hub_path.add(j)
            j = tree.parent[j]
        mid = lam[tree.parent] + 0.3 * (lam - lam[tree.parent])
        kid = next(k for k in tree.order[1:].tolist() if k not in hub_path
                   and 0.5 < abs(mid[k]) < 1.5
                   and np.abs(mid[k] - c.curve.branch_points).min() > 0.2)
        sol = green.GreenSolver(c, SurfacePoint(complex(mid[kid]), 1))
        sol.settle([tree.parent[kid]])
        with pytest.raises(NonConvergence):
            sol.settle([kid])

    def test_log_potential_blocks(self, ctx):
        # more than three row blocks.  log_potential runs the direct sum
        # on 1-D arrays, with no 1e-300 floor, and gets the bits of the
        # dense direct sum; the Gram form (_gram_sums) stays within its
        # stated bound of it, and gives each point the same bits whatever
        # block it falls in.  The last point is a q node: r^2 = 0 there,
        # overwritten by the bump with no divide warning
        q = ctx.q_grid.nodes
        pts = np.append(ctx.p_grid.nodes[:3 * green._POTENTIAL_ROWS + 5],
                        q[q.size // 3])
        block = _gram_potential(ctx, pts)
        with np.errstate(all="raise"):
            single = np.array([ctx.log_potential(z) for z in pts.tolist()])
        assert np.isfinite(single).all()
        assert isinstance(ctx.log_potential(complex(pts[0])), float)
        dense, bound = _direct_log_potential(ctx, pts)
        eps2 = ctx.moll_radius ** 2
        assert (np.abs(pts[:, None] - q) ** 2 < eps2).any(axis=1).all()
        np.testing.assert_array_equal(single, dense)
        assert np.all(np.abs(block - dense) <= bound)
        rows = green._POTENTIAL_ROWS
        for start in (0, 1, rows - 1, rows + 3):
            for n in (1, 2, rows - 1, rows, rows + 1, 2 * rows + 3):
                part = _gram_potential(ctx, pts[start:start + n])
                np.testing.assert_array_equal(part, block[start:start + n])

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           grid=st.sampled_from([(6, 8), (12, 16), (24, 32)]),
           picks=st.lists(st.one_of(
               st.tuples(st.just("q"), st.integers(0, 10 ** 6)),
               st.tuples(st.just("exterior"), st.integers(0, 10 ** 6)),
               st.tuples(st.just("far"), st.floats(2.0, 3.5),
                         st.floats(0.0, 2.0 * np.pi)),
               st.tuples(st.just("box"), st.floats(-3.0, 3.0),
                         st.floats(-3.0, 3.0))), min_size=1, max_size=40))
    def test_log_potential_gram_bound(self, potential_contexts, name, grid,
                                      picks):
        # random point sets: q nodes, exterior-chart p nodes (|lambda| up
        # to about 480 at (24,32)), points at |lambda| = 10^2 to 10^3.5 and
        # points in a box round the branch points; the Gram form is
        # within its stated bound of the dense direct sum
        c = potential_contexts(name, grid)
        q, p = c.q_grid.nodes, c.p_grid.nodes
        n_ext = grid[0] * grid[1]
        pts = []
        for kind, a, *b in picks:
            if kind == "q":
                pts.append(q[a % q.size])
            elif kind == "exterior":
                pts.append(p[p.size - n_ext + a % n_ext])
            elif kind == "far":
                pts.append(10.0 ** a * np.exp(1j * b[0]))
            else:
                pts.append(complex(a, b[0]))
        pts = np.array(pts, dtype=complex)
        dense, bound = _direct_log_potential(c, pts)
        assert np.all(np.abs(_gram_potential(c, pts) - dense) <= bound)

    @pytest.mark.parametrize("name", ["z5", "generic"])
    def test_t_nodes_match_scalar(self, ctx, generic, name):
        # at (12,16), every p node's t_nodes entry is within the Gram
        # bound of the scalar direct sum at that node
        c = ctx if name == "z5" else generic[2]
        p = c.p_grid.nodes
        scalar = np.array([c.log_potential(z) for z in p.tolist()])
        _, bound = _direct_log_potential(c, p)
        assert np.all(np.abs(c.t_nodes - scalar) <= bound)

    @pytest.mark.parametrize("grid", [(6, 8, None), (12, 16, None),
                                      (24, 32, None), (12, 16, 2.5),
                                      (12, 16, 8.0)],
                             ids=lambda g: "x".join(map(str, g)))
    @pytest.mark.parametrize("name", ["z5", "generic"])
    def test_t_nodes_patch_sums(self, z5, generic, name, grid, monkeypatch):
        # t_nodes, patch by patch from the grids' layouts, is within the
        # Gram bound of the dense direct sum plus its truncation bound,
        # with the default truncation radius and explicit ones (2.5 brings
        # the exterior chart within 1.5 of the branch points); from
        # (12,16) on, every route runs: ring convolutions, expansions and
        # near pairs
        model, frame = (z5 if name == "z5" else generic)[:2]
        c = green.green_context(model, frame,
                                QuadratureConfig(surface_grid=grid))
        routes = set()
        for route in ("_ring_tables", "_power_sums", "_gram_sums"):
            monkeypatch.setattr(green, route, partial(
                lambda f, r, *a: routes.add(r) or f(*a),
                getattr(green, route), route))
        dense, bound = _direct_log_potential(c, c.p_grid.nodes)
        assert np.all(np.abs(c.t_nodes - dense) <= bound + c.t_bound)
        assert c.t_bound <= 2.0 ** -53
        if grid[0] >= 12:
            assert routes == {"_ring_tables", "_power_sums", "_gram_sums"}

    @pytest.mark.parametrize("kappa", [0.0, 0.01, 0.16, 0.31, 0.45, 0.5])
    def test_log_terms_bound_the_tail(self, kappa):
        # the expansions of t_nodes keep L = _log_terms(kappa) terms: the
        # tail sum_{l>L} kappa^l / l of log(1 - t), |t| <= kappa, summed
        # term by term (no cancellation), is at most 2^-53, and it is not
        # with one term fewer unless L = 1
        n = green._log_terms(kappa)

        def tail(m):
            return math.fsum(kappa ** l / l for l in range(m + 1, m + 400))

        assert tail(n) <= 2.0 ** -53
        assert n == 1 or tail(n - 1) > 2.0 ** -53 * (1.0 - kappa)

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           grid=st.sampled_from([(6, 8), (8, 12), (12, 16), (16, 20)]),
           stagger=st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99)),
           seed=st.integers(0, 2 ** 32 - 1),
           zeros=st.floats(0.0, 0.9))
    def test_t_nodes_any_layout_and_weights(self, potential_contexts, name,
                                            grid, stagger, seed, zeros):
        # any stagger of either grid, any grid size and any non-negative
        # weights, a share of them 0: t_nodes is within the Gram bound of
        # the dense direct sum plus its truncation bound
        c = potential_contexts(name, grid)
        cfg = QuadratureConfig(surface_grid=(*grid, None))
        p_grid, q_grid = (build_surface_grid(c.curve.branch_points, cfg, s)
                          for s in stagger)
        rng = np.random.default_rng(seed)
        w = rng.random(q_grid.n_nodes) * (rng.random(q_grid.n_nodes)
                                          >= zeros)
        c = dataclasses.replace(c, p_grid=p_grid, q_grid=q_grid, cauchy_w=w)
        dense, bound = _direct_log_potential(c, p_grid.nodes)
        assert np.all(np.abs(c.t_nodes - dense) <= bound + c.t_bound)

    @pytest.mark.parametrize("eps", [0.4, 1.2])
    @pytest.mark.parametrize("grid", [(6, 8), (12, 16)])
    def test_patch_sums_branch_point_at_centre(self, grid, eps):
        # branch point 0 is the exact mean of the others, so its disk
        # shares the main disk's and the exterior chart's centre and
        # convolves with both (16 against 32 angles, and with the
        # inverted chart); random non-negative weights
        bp = np.array([0.0, 2.0, -1.0 + 1.0j, -1.0 - 1.0j, 3.0, -3.0])
        assert bp.mean() == 0.0
        cfg = QuadratureConfig(surface_grid=(*grid, None))
        p_grid, q_grid = (build_surface_grid(bp, cfg, s) for s in (0, 0.31))
        w = np.random.default_rng(7).random(q_grid.n_nodes)
        c = green.GreenContext(
            model=None, frame=None, curve=make_curve(list(bp)),
            p_grid=p_grid, q_grid=q_grid, cauchy_w=w, moll_radius=eps,
            dens_p=None, area=2.0 * float(w.sum()))
        calls = []
        tables = green._ring_tables
        with mock.patch.object(green, "_ring_tables",
                               lambda pair, *a: calls.append(pair)
                               or tables(pair, *a)):
            t = c.t_nodes
        assert any(P.center == 0.0 and P.n_ang != Q.n_ang
                   for P, Q in calls)
        dense, bound = _direct_log_potential(c, p_grid.nodes)
        assert np.all(np.abs(t - dense) <= bound + c.t_bound)

    @pytest.mark.parametrize("grid", [(6, 8), (12, 16), (24, 32)],
                             ids=lambda g: f"{g[0]}x{g[1]}")
    @pytest.mark.parametrize("name", ["z5", "generic"])
    def test_log_potential_matches_hypot_sum(self, name, grid, request):
        # the direct sum in hypot form, -(1/Area) sum_i W_i phi_i with
        # phi = log r or the bump potential in r = |lam - lam_i|, agrees
        # with the squared-distance Gram kernel to rounding: 16 ulp of
        # sum_i |W_i phi_i| / Area per point
        model, frame = request.getfixturevalue(name)[:2]
        c = green.green_context(model, frame,
                                QuadratureConfig(surface_grid=(*grid, None)))
        q = c.q_grid.nodes
        pts = np.append(c.p_grid.nodes[::max(1, c.p_grid.nodes.size // 512)],
                        q[q.size // 3])
        r = np.abs(pts[:, None] - q)
        eps = c.moll_radius
        u = np.minimum((r / eps) ** 2, 1.0)
        inside = (4.0 * u - 4.5 * u ** 2 + (8.0 / 3.0) * u ** 3
                  - 0.625 * u ** 4) - 37.0 / 24.0 + np.log(eps)
        wphi = c.cauchy_w * np.where(r >= eps, np.log(np.maximum(r, 1e-300)),
                                     inside)
        ref = -wphi.sum(axis=-1) / c.area
        bound = 16 * np.finfo(float).eps * np.abs(wphi).sum(axis=-1) / c.area
        assert np.all(np.abs(_gram_potential(c, pts) - ref) <= bound)
        # a query exactly on a q node: the bump, with no divide by zero
        with np.errstate(divide="raise", invalid="raise"):
            on_node = c.log_potential(complex(q[q.size // 3]))
        assert abs(on_node - ref[-1]) <= bound[-1]

    def test_context_builds_each_tree_once(self, z5, monkeypatch):
        model, frame = z5
        built = []
        build = green.build_surface_tree

        def counted(curve, grid):
            built.append(grid)
            return build(curve, grid)

        monkeypatch.setattr(green, "build_surface_tree", counted)
        cfg = QuadratureConfig(surface_grid=(6, 8, None))
        c = green.green_context(model, frame, cfg)
        assert built == []
        # a context plus its solvers builds the p tree alone
        ys = [SurfacePoint(z, 1) for z in (0.9 + 1.3j, -0.7 + 0.4j)]
        solvers = [green.GreenSolver(c, y) for y in ys]
        assert built == [c.p_grid]
        assert all(s.p_tree is c.p_tree for s in solvers)
        # the special-solution means and the expansion check build no
        # tree of their own, and none over the q grid
        green.special_solution_means(c)
        green.smatrix_expansion_check(c)
        assert built == [c.p_grid]
        # a solver sharing the tree equals one built alone, at every node
        # read through settle
        nodes = np.arange(c.p_grid.n_nodes)
        for s, y in zip(solvers, ys):
            alone = green.GreenSolver(green.green_context(model, frame, cfg),
                                      y)
            np.testing.assert_array_equal(s.settle(nodes),
                                          alone.settle(nodes))
            for field in ("gamma_root", "c", "cross_err", "mean_u",
                          "tree_err"):
                assert getattr(s, field) == getattr(alone, field), field


def _reference_u_at(solver, x):
    """Reference for GreenSolver.u_at: the integral from the p-tree root
    along build_path, then around a flip loop if the path arrives on the
    other sheet, plus log_potential at x."""
    tree = solver.p_tree

    def harm(zs, ys):
        return green._form_values(zs, ys, *solver.form)[:, None]

    val, err = _integrate_to(solver.ctx.curve, tree.grid.nodes[tree.root],
                             tree.y_root, x, harm)
    t_x = float(solver.ctx.log_potential(complex(x.lam)))
    return float(val[0].real) + t_x, err


def _tree_sheet(curve, tree, i):
    """Reference sheet (+1 or -1) of the tree continuation at node i."""
    lam = complex(tree.grid.nodes[i])
    ref = complex(curve.y_at(np.asarray(lam), 1))
    y = _tree_y_plus(curve, tree)[i]
    return 1 if abs(y - ref) < abs(y + ref) else -1


def _real_period_defect(model, values):
    """Sum of |Re| of the a- and b-periods of a computed normalized form,
    values(lam, y) being the form over dlambda.

    They vanish in theory and are about 1e-11 in practice, so Re u
    changes by up to this much between two routes to the same point,
    which no quadrature estimate counts."""
    return sum(abs(curveperiods.cycle_integral(model.periods, kind, i,
                                               values).real)
               for kind in "ab" for i in (0, 1))


def _solver_period_defect(sol):
    """_real_period_defect of a solver's averaged form."""
    def harm(lam, ys):
        return green._form_values(lam, ys, *sol.form)

    return _real_period_defect(sol.ctx.model, harm)


@pytest.fixture(scope="module")
def read_solvers(z5, solver, generic):
    """GreenSolvers on z5 and the generic curve at grids (6,8), (12,16),
    each with its _solver_period_defect."""
    gen_model, gen_frame, gen_ctx = generic
    y_gen = SurfacePoint(-0.4 - 0.2j, -1)
    coarse = QuadratureConfig(surface_grid=(6, 8, None))
    sols = {
        ("z5", (6, 8)): green.GreenSolver(
            green.green_context(*z5, coarse), solver.y),
        ("z5", (12, 16)): solver,
        ("generic", (6, 8)): green.GreenSolver(
            green.green_context(gen_model, gen_frame, coarse), y_gen),
        ("generic", (12, 16)): green.GreenSolver(gen_ctx, y_gen),
    }
    return {k: (sol, _solver_period_defect(sol)) for k, sol in sols.items()}


@pytest.fixture(scope="module")
def settle_solvers(read_solvers):
    """The read_solvers second arguments on their contexts (layout True)
    and on copies whose p tree is the nearest-visited tree of the same
    grid (_nearest_visited_tree; False), each solver with every p node
    settled in one call."""
    out = {}
    for (name, grid), (sol, _) in read_solvers.items():
        nearest = dataclasses.replace(sol.ctx)
        nearest.__dict__["p_tree"] = _nearest_visited_tree(
            sol.ctx.curve, sol.ctx.p_grid)
        for layout, ctx in ((True, sol.ctx), (False, nearest)):
            whole = out[name, grid, layout] = green.GreenSolver(ctx, sol.y)
            whole.settle(np.arange(ctx.p_grid.n_nodes))
    return out


GREEN_QUERY_REFERENCE = (Path(__file__).resolve().parents[1] / "stagebench"
                         / "reference" / "green_query.json")


class TestGreenRead:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           grid=st.sampled_from([(6, 8), (12, 16)]),
           near=st.sampled_from(["branch", "cone", "y", "node", "free"]),
           index=st.integers(0, 5),
           r=st.floats(1e-4, 0.05),
           phase=st.floats(0.0, 2.0 * np.pi),
           free=st.tuples(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6)),
           sheet=st.sampled_from([1, -1]))
    # 1.03125 on sheet -1, whose root route once approached the flip loop
    # around branch point 0 straight through branch point 1.0
    @example(name="generic", grid=(6, 8), near="branch", index=1,
             r=0.03125, phase=0.0, free=(0.0, 0.0), sheet=-1)
    @example(name="generic", grid=(12, 16), near="branch", index=1,
             r=0.03125, phase=0.0, free=(0.0, 0.0), sheet=-1)
    def test_matches_root_path(self, read_solvers, name, grid, near, index,
                               r, phase, free, sheet):
        # the nearest-node start against the root path it replaced, on
        # both sheets, near the singular points of the integrand and on p
        # nodes; the two routes differ by a cycle, so by up to the period
        # defect
        sol, defect = read_solvers[name, grid]
        assert defect < 1e-9
        ctx = sol.ctx
        centre = {"branch": ctx.curve.branch_points[index],
                  "cone": ctx.frame.lam_p, "y": sol.y.lam,
                  "node": ctx.p_grid.nodes[index * 97],
                  "free": complex(*free)}[near]
        lam = complex(centre) + (0.0 if near == "node" else
                                 r * np.exp(1j * phase))
        x = SurfacePoint(lam, sheet)
        u, err = sol.u_at(x)
        u_ref, err_ref = _reference_u_at(sol, x)
        assert abs(u - u_ref) <= err + err_ref + defect + 1e-12
        # u(x) + u(x on the other sheet) = log|lambda_x - lambda_y| +
        # 2 log_potential(x) + 2c: the odd part Re Gamma cancels between
        # the sheets, within both reads' errors
        u_other, err_other = sol.u_at(SurfacePoint(lam, -sheet))
        t = float(ctx.log_potential(lam))
        even = math.log(abs(lam - sol.y.lam)) + 2.0 * t + 2.0 * sol.c
        assert abs(u + u_other - even) <= err + err_other + 1e-12

    def test_nearest_node_matches_hypot_argmin(self, read_solvers):
        # u_at's squared-distance nearest node against the hypot argmin
        # it replaced: the same node on a seeded pool, the stored
        # green-query points and the p nodes themselves.  Midpoints of
        # neighbouring nodes are ties, which either rounding may break
        # its own way; there both nodes lie at the same distance to
        # rounding
        rng = np.random.default_rng(2019)
        stored = [complex(re, im) for re, im, *_ in
                  json.loads(GREEN_QUERY_REFERENCE.read_text())["pool"]]
        for sol, _ in read_solvers.values():
            nodes = sol.ctx.p_grid.nodes
            pool = np.concatenate([
                rng.uniform(-2.0, 2.0, 400) + 1j * rng.uniform(-2.0, 2.0, 400),
                stored, nodes[::7]])
            for lam in pool.tolist():
                assert sol._nearest_node(lam) \
                    == int(np.argmin(np.abs(nodes - lam)))
            for lam in (0.5 * (nodes[:-1:5] + nodes[1::5])).tolist():
                d = np.abs(nodes - lam)
                assert d[sol._nearest_node(lam)] <= d.min() * (1 + 1e-15)

    def test_p_node_needs_no_path(self, ctx, solver, monkeypatch):
        # at a p node u is its node value (_node_u) with log_potential
        # for t_nodes, to the rounding of the four terms, and its error
        # is the node's, with no path
        # (every node settled first: settling may integrate an edge)
        tree = solver.p_tree
        node_u = _node_u(solver)
        gamma, node_err = _node_values(solver)
        calls = []
        monkeypatch.setattr(green, "integrate_vector_path",
                            lambda *a, **k: calls.append(a))
        for i in (0, tree.root, ctx.p_grid.n_nodes // 2):
            lam = complex(ctx.p_grid.nodes[i])
            t = float(ctx.log_potential(lam))
            s = _tree_sheet(ctx.curve, tree, i)
            for k, sheet in enumerate((s, -s)):
                u, err = solver.u_at(SurfacePoint(lam, sheet))
                size = abs(0.5 * math.log(abs(lam - solver.y.lam))) \
                    + abs(gamma[i]) + abs(solver.c) + abs(t)
                assert abs(u - (node_u[i, k] + t)) \
                    <= 8 * np.finfo(float).eps * size
                assert err == node_err[i, k]
        assert calls == []

    def test_pool_within_path_only_estimate(self, ctx, monkeypatch):
        # the stored green-query values lie within the estimate without
        # the node errors, so the reference gate does not pass only
        # because the error bar now counts them
        ref = json.loads(GREEN_QUERY_REFERENCE.read_text())
        assert ref["surface_grid"] == [12, 16]
        re_y, im_y, sheet_y = ref["y"]
        sol = green.GreenSolver(ctx, SurfacePoint(complex(re_y, im_y),
                                                  sheet_y))
        # every node settled first: settling may integrate an edge
        sol.settle(np.arange(ctx.p_grid.n_nodes))
        short = []
        path = green.integrate_vector_path

        def recorded(*args, **kwargs):
            out = path(*args, **kwargs)
            short.append(out[1])
            return out

        monkeypatch.setattr(green, "integrate_vector_path", recorded)
        tree_part = sol.tree_err
        for re_x, im_x, sheet, value, _ in ref["pool"]:
            short.clear()
            g = sol.green(SurfacePoint(complex(re_x, im_x), int(sheet)))
            assert len(short) == 1
            bar = (short[0] + tree_part) / (2.0 * np.pi) + 1e-12
            assert abs(g.value - value) <= bar, (re_x, im_x, sheet)
            assert g.error_estimate + 1e-12 >= bar


def _reference_flip(curve, tree, f, tol=1e-8):
    """Oracle for the crossing through the branch leg: the integral of f
    from the tree root to the root's other sheet once around
    _reference_flip_loop, at budget 200, with its error."""
    lam = complex(tree.grid.nodes[tree.root])
    y_root = tree.y_root
    val, err, y_end = green.integrate_vector_path(
        curve.branch_points, _reference_flip_loop(curve, lam), y_root, f,
        tol=tol, budget=200)
    assert abs(y_end + y_root) <= 1e-6 * max(1.0, abs(y_root))
    return val, err


def _tree_moments(curve, tree):
    """(m_node, m_flip, node_err, flip_err): the moments from the tree
    root to every node on the tree sheet (_accumulate_tree) and to the
    root's other sheet (_reference_flip), each node's error on both
    sheets (the other adds the flip's) and m_flip's."""
    m_node, _, path_err = _accumulate_tree(
        curve, tree, green._moment_integrand, 5)
    m_flip, flip_err = _reference_flip(curve, tree, green._moment_integrand)
    return (m_node, m_flip, np.stack([path_err, path_err + flip_err], 1),
            flip_err)


def _q_forms(ctx):
    """(lambda, y, pcoef) of Omega_bar_q for the q nodes on the tree sheet
    (_tree_y_plus of the q grid's build_surface_tree), then on the other
    sheet: the q-node second arguments that special_solution_means sums
    in closed form, on the root routes that GreenContext.form replaced.
    With m_node and M_flip = m_flip from the q-tree root (_tree_moments),
    M(q) is m_node on the tree sheet and m_flip - m_node on the other,
    and pcoef carries M(q) - M_flip / 2."""
    tree = green.build_surface_tree(ctx.curve, ctx.q_grid)
    m_node, m_flip = _tree_moments(ctx.curve, tree)[:2]
    m = np.concatenate([m_node, m_flip - m_node])
    y = _tree_y_plus(ctx.curve, tree)
    return (np.tile(ctx.q_grid.nodes, 2), np.concatenate([y, -y]),
            green._correction_pcoef(ctx.model, (m - 0.5 * m_flip).T))


def _sheet_pair_means(ctx, g):
    """Surface means from special-solution values g = (G_{1/xi},
    G_{1/xi^2}) at the q nodes on both sheets, as _q_forms lists them:
    each node's two sheets summed with its Cauchy weight, over Area."""
    n = ctx.q_grid.n_nodes
    return np.array([(ctx.cauchy_w * (v[:n] + v[n:])).sum() / ctx.area
                     for v in g])


def _reference_moments(ctx, point):
    """Reference for the moments of GreenContext.form: the root route,
    build_path from the q-tree root and around _reference_flip_loop if it
    arrives on the other sheet, with its error."""
    tree = green.build_surface_tree(ctx.curve, ctx.q_grid)
    return _integrate_to(ctx.curve, tree.grid.nodes[tree.root],
                         tree.y_root, point, green._moment_integrand)


def _nearest_node_moments(ctx, point, q_moments):
    """Reference for the moments of GreenContext.form: the nearest-q-node
    route it replaced, with its error.

    q_moments is (m_plus, m_flip, node_err), the q tree's _tree_moments
    (q_moments fixture).  One build_path from the q node k nearest to
    the point, started at y there on the tree sheet (_tree_y_plus), gives
    val: M = m_plus[k] + val if it arrives at y(point), (m_flip -
    m_plus[k]) - val if at -y(point); a q node itself takes no path.  The
    error is the path's plus node_err[k] on the sheet the route starts
    from (column 1 includes the flip error)."""
    m_plus, m_flip, node_err, _ = q_moments
    tree = green.build_surface_tree(ctx.curve, ctx.q_grid)
    nodes = tree.grid.nodes
    k = int(np.argmin(np.abs(nodes - point.lam)))
    y_k = _tree_y_plus(ctx.curve, tree)[k]
    node = (m_plus[k], m_flip - m_plus[k])
    if nodes[k] == point.lam:
        s = green._arrival(ctx.curve, y_k, point)
        return node[s].copy(), node_err[k, s]
    val, err, y_end = green.integrate_vector_path(
        ctx.curve.branch_points,
        green.build_path(ctx.curve, nodes[k], point.lam), y_k,
        green._moment_integrand)
    s = green._arrival(ctx.curve, y_end, point)
    return (node[s] - val if s else node[s] + val), err + node_err[k, s]


def _leg_err(ctx):
    """Quadrature error of the base point's moments R_b (ctx.base), which
    the context does not keep: the same leg again, checked to give the
    same moments."""
    lam, y, r_b = ctx.base
    val, err = green._branch_leg(ctx.curve, lam, y, green._moment_integrand)
    np.testing.assert_array_equal(val, r_b)
    return err


def _pcoef_norm(model):
    """Largest change of a real or imaginary part of _correction_pcoef
    over moment changes whose components have modulus at most 1: the
    largest row sum of the real-linear map's 10 x 10 matrix."""
    cols = []
    for k in range(5):
        for unit in (1.0, 1j):
            dm = np.zeros(5, dtype=complex)
            dm[k] = unit
            p = green._correction_pcoef(model, dm)
            cols.append(np.concatenate([p.real, p.imag]))
    return float(np.abs(np.asarray(cols)).sum(axis=0).max())


def _pcoef_gap(p, q):
    d = np.asarray(p) - np.asarray(q)
    return float(np.abs(np.concatenate([d.real.ravel(),
                                        d.imag.ravel()])).max())


@pytest.fixture(scope="module")
def q_moments(read_solvers):
    """_tree_moments of the q tree of every read_solvers context, which
    _q_forms folds into its correction polynomials."""
    return {key: _tree_moments(sol.ctx.curve, green.build_surface_tree(
        sol.ctx.curve, sol.ctx.q_grid))
        for key, (sol, _) in read_solvers.items()}


READ_KEYS = [pytest.param(name, grid, id=f"{name}-{grid[0]}x{grid[1]}")
             for name in sorted(CURVES) for grid in [(6, 8), (12, 16)]]


def _recording(calls, fn):
    """fn that appends each call's result to calls."""
    def recorded(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(out)
        return out
    return recorded


def _route_clearance(tree, b0, lam):
    """Distance from lam to the solver routes: every tree edge and the
    branch leg, the segment from the hub to b0."""
    nodes = tree.grid.nodes
    kids = tree.order[1:]
    a = np.append(nodes[tree.parent[kids]], nodes[tree.hub])
    seg = np.append(nodes[kids], b0) - a
    t = np.clip(((lam - a) / seg).real, 0.0, 1.0)
    return float(np.abs(a + t * seg - lam).min())


def _clear_point(sol, pt):
    """Whether pt lies over 1e-3 from every branch point, the cone point
    and the solver's second argument."""
    lam = complex(pt.lam)
    return (np.abs(lam - sol.ctx.curve.branch_points).min() > 1e-3
            and abs(lam - sol.ctx.frame.lam_p) > 1e-3
            and abs(lam - sol.y.lam) > 1e-3)


class TestSettle:
    """GreenSolver.settle, the tree sums on the root paths a solver
    reads."""

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           grid=st.sampled_from([(6, 8), (12, 16)]),
           before=st.lists(st.tuples(st.floats(-1.6, 1.6),
                                     st.floats(-1.6, 1.6),
                                     st.sampled_from([1, -1])),
                           max_size=6),
           x=st.tuples(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6),
                       st.sampled_from([1, -1])))
    def test_green_independent_of_query_order(self, read_solvers, name,
                                              grid, before, x):
        # G(x) and its error estimate on a fresh solver (on a fresh
        # context) and on one that answered other queries first, settling
        # their root paths: the same bits
        sol = read_solvers[name, grid][0]
        pts = [SurfacePoint(complex(a, b), s) for a, b, s in before + [x]]
        assume(all(_clear_point(sol, p) for p in pts))
        fresh, used = (green.GreenSolver(dataclasses.replace(sol.ctx), sol.y)
                       for _ in range(2))
        for p in pts[:-1]:
            used.green(p)
        assert fresh.green(pts[-1]) == used.green(pts[-1])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 64))
    def test_edge_rule_independent_of_batch(self, seed, m):
        # the batched nested rule, as an integrate_paths pass runs it on
        # (_NODES, rows): each row's estimate, gap and acceptance are the
        # same bits alone and inside any batch (np.dot over the block is
        # not: BLAS rounds a column by the batch it sits in)
        rng = np.random.default_rng(seed)
        x = green._path_rule()[0][:green._NODES, None]
        half = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / 7.0
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        vals = 1.0 / (a + half * x - 0.05j) \
            + rng.standard_normal((green._NODES, m)) * 1e-12
        batch = green._embedded_gauss(half, vals, 1e-9)
        sub = rng.permutation(m)[:rng.integers(1, m + 1)]
        part = green._embedded_gauss(half[sub], vals[:, sub], 1e-9)
        for got, ref in zip(part, batch):
            np.testing.assert_array_equal(got, ref[sub])
        for e in range(m):
            alone = green._embedded_gauss(half[e:e + 1], vals[:, e:e + 1],
                                          1e-9)
            for got, ref in zip(alone, batch):
                np.testing.assert_array_equal(got, ref[e:e + 1])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 16),
           k=st.sampled_from([1, 5]), tol=st.sampled_from([1e-14, 1e-9]),
           bad=st.sampled_from([None, np.nan, np.inf]))
    def test_one_interval_matches_block(self, seed, m, k, tol, bad):
        # one interval as integrate_vector_path runs it, a Python complex
        # half over (_NODES, k), against the same interval inside a block
        # of m as a batched pass runs it, (_NODES, m, k): the estimate,
        # gap and acceptance bits agree, a non-finite integrand value at a
        # node of the interval included
        rng = np.random.default_rng(seed)
        x = green._path_rule()[0][:green._NODES, None, None]
        half = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / 7.0
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        vals = 1.0 / (a[:, None] + half[:, None] * x
                      - 0.05j * np.arange(1, k + 1)) \
            + rng.standard_normal((green._NODES, m, k)) * 1e-12
        e = int(rng.integers(m))
        if bad is not None:
            vals[rng.integers(green._NODES), e, rng.integers(k)] = bad
        with np.errstate(invalid="ignore"):   # inf - inf, inf * 0
            block = green._embedded_gauss(half, vals, tol)
            one = green._embedded_gauss(complex(half[e]), vals[:, e], tol)
        event("accepted" if one[2] else "rejected")
        for got, ref in zip(one, block):
            assert np.shape(got) == np.shape(ref[e])
            assert np.asarray(got).tobytes() == np.asarray(ref[e]).tobytes()

    @pytest.mark.parametrize("name, grid", READ_KEYS)
    def test_settled_values_match_whole_tree(self, read_solvers, name, grid,
                                             monkeypatch):
        # every node settled against the whole-tree reference
        # (_accumulate_tree) of the same integrand: the same edge values,
        # walked from the root one edge at a time instead of summed by
        # pointer jumping, so within (ceil(log2 d) + d - 1) 2^-53 of the
        # sum of the |edge values| on a path of d edges
        sol = read_solvers[name, grid][0]
        tree = sol.p_tree
        edges = []
        path_sums = _path_counts

        def recorded(parent, root, counts):
            edges.append(counts.copy())
            return path_sums(parent, root, counts)

        monkeypatch.setitem(globals(), "_path_counts", recorded)
        vals, _, path_err = _accumulate_tree(sol.ctx.curve, tree, sol._odd,
                                             1)
        monkeypatch.undo()
        # the sheet flips of _tree_y_plus, then the edge values
        flips, est = edges
        size = np.zeros(est.shape)
        for v in tree.order[1:]:
            size[v] = size[tree.parent[v]] + np.abs(est[v].real)
        depth = _tree_depth(tree)
        u = 2.0 ** -53
        m = np.ceil(np.log2(np.maximum(depth, 1))) + np.maximum(depth - 1, 0)
        bound = (m * u / (1.0 - m * u))[:, None] * size
        got = sol.settle(np.arange(depth.size))
        assert (np.abs(got[:, 0] - vals[:, 0].real) <= bound[:, 0]).all()
        assert (np.abs(got[:, 1] - path_err) <= bound[:, 1]).all()

    @settings(max_examples=16, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           grid=st.sampled_from([(6, 8), (12, 16)]),
           layout=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           batches=st.integers(1, 8))
    def test_batches_match_one_settle(self, settle_solvers, name, grid,
                                      layout, seed, batches):
        # a fresh solver settling a random subset of the p nodes in random
        # batches against one that settled every node in one call, on the
        # layout tree and on the nearest-visited tree of the same grid:
        # the same (S, e) and y (_y) bits, nothing settled off the root
        # paths read, and every settled y the reference's (_tree_y_plus),
        # bit for bit
        whole = settle_solvers[name, grid, layout]
        tree = whole.p_tree
        n = tree.grid.n_nodes
        rng = np.random.default_rng(seed)
        subset = rng.permutation(n)[:rng.integers(1, n + 1)]
        cuts = np.sort(rng.choice(np.arange(1, subset.size), replace=False,
                                  size=min(batches, subset.size) - 1))
        fresh = green.GreenSolver(whole.ctx, whole.y)
        for batch in np.split(subset, cuts):
            np.testing.assert_array_equal(fresh.settle(batch),
                                          whole._sums[batch])
        read = np.zeros(n, dtype=bool)
        for j in [tree.hub, *subset.tolist()]:
            while j >= 0 and not read[j]:
                read[j] = True
                j = tree.parent[j]
        np.testing.assert_array_equal(fresh._known, read)
        np.testing.assert_array_equal(fresh._sums[read], whole._sums[read])
        np.testing.assert_array_equal(fresh._y[read], whole._y[read])
        np.testing.assert_array_equal(
            whole._y, _tree_y_plus(whole.ctx.curve, tree))


class TestSheetConnector:
    """The branch leg into branch point 0 (green._branch_leg), the one
    route between the sheets, against the 16-gon about that branch point
    (_reference_flip_loop) it replaced."""

    @pytest.mark.parametrize("name, grid", READ_KEYS)
    def test_flip_matches_root_loop(self, read_solvers, name, grid):
        # the solver's crossing at the hub against the root flip loop: the
        # routes differ by a cycle, so Re of the averaged form's flip
        # agrees within both errors plus the real-period defect
        sol, defect = read_solvers[name, grid]
        assert defect < 1e-9
        curve, tree = sol.ctx.curve, sol.p_tree
        # the solver's node values against the two-column route it
        # replaced (_both_sheets), the same tree paths and crossing with h
        # integrated by quadrature, within both routes' node errors
        both, node_err = _both_sheets(curve, tree, _harm_both(sol))
        assert (np.abs(both.real - _node_u(sol))
                <= node_err + _node_values(sol)[1] + 1e-12).all()
        # the flip, root to root over the crossing, is -2 Gamma(root): u
        # on the other sheet less u on the tree sheet at the root
        gamma, sol_err = _node_values(sol, [tree.root])
        flip = -2.0 * gamma[0]
        ref, ref_err = _reference_flip(curve, tree, _harm_both(sol))
        gap = abs(flip - ref[0].real)
        assert gap <= sol_err[0, 1] + ref_err + defect, gap

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           grid=st.sampled_from([(6, 8), (12, 16)]),
           near=st.sampled_from(["b0", "free"]),
           r=st.floats(0.02, 1.0),
           phase=st.floats(0.0, 2.0 * np.pi),
           free=st.tuples(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6)),
           sheet=st.sampled_from([1, -1]))
    # inside the retired 16-gon, on both sheets
    @example(name="generic", grid=(12, 16), near="free", r=0.02, phase=0.0,
             free=(0.05, 0.02), sheet=-1)
    @example(name="z5", grid=(12, 16), near="free", r=0.02, phase=0.0,
             free=(0.05, 0.02), sheet=1)
    def test_solver_flip_matches_reference(self, read_solvers, name, grid,
                                           near, r, phase, free, sheet):
        # a solver's flip, Re of the integral of its averaged form from
        # the p-tree root to the root's other sheet (-2 Re Gamma(root), u
        # on the other sheet less u on the tree sheet), against
        # _reference_flip, for second arguments y on either sheet, within
        # min_gap / 3 of branch point 0 (r in units of that) or anywhere:
        # within both routes' errors plus the real-period defect.  A y
        # inside the 16-gon moves Im of the flip by 2 pi i, which u does
        # not read.
        # y is kept off the routes, where the form's pole would sit on
        # them: a y on a tree edge or on the leg raises NonConvergence
        sol, _ = read_solvers[name, grid]
        ctx = sol.ctx
        b0 = complex(ctx.curve.branch_points[0])
        lam = (b0 + r * ctx.curve.min_gap / 3.0 * np.exp(1j * phase)
               if near == "b0" else complex(*free))
        assume(np.abs(lam - ctx.curve.branch_points).min() > 1e-3)
        assume(abs(lam - ctx.frame.lam_p) > 1e-3)
        assume(_route_clearance(sol.p_tree, b0, lam) > 1e-4)
        other = green.GreenSolver(ctx, SurfacePoint(lam, sheet))
        tree = other.p_tree
        gamma, other_err = _node_values(other, [tree.root])
        flip = -2.0 * gamma[0]
        ref, ref_err = _reference_flip(ctx.curve, tree, _harm_both(other))
        gap = abs(flip - ref[0].real)
        bound = other_err[0, 1] + ref_err \
            + _solver_period_defect(other) + 1e-12
        assert gap <= bound, (gap, bound)

    @pytest.mark.parametrize("name, grid", READ_KEYS)
    def test_context_and_solver_match_root_routes(self, read_solvers,
                                                  q_moments, name, grid):
        # the context's moments from branch point 0 against the root
        # routes they replaced: the q tree's moments from its root, whose
        # other sheet is reached once around the root flip loop
        # (_q_forms), and one root route to y
        sol, defect = read_solvers[name, grid]
        assert defect < 1e-9
        ctx = sol.ctx
        model = ctx.model
        _, m_flip, node_err, _ = q_moments[name, grid]
        m_ref, err_ref = _reference_moments(ctx, sol.y)
        ref_pcoef = green._correction_pcoef(model, m_ref - 0.5 * m_flip)
        path_errs = [err_ref, _leg_err(ctx)]
        calls = []
        recorded = _recording(calls, green.integrate_vector_path)
        with mock.patch.object(green, "integrate_vector_path", recorded):
            pcoef = ctx.form(sol.y)[2]
        path_errs += [out[1] for out in calls]
        # every moment route's error: the q tree's (node and flip errors
        # included), the paths to y and the base point's leg
        q_err = node_err[:, 1].max()
        bound = _pcoef_norm(model) * (q_err + sum(path_errs)) + defect
        assert _pcoef_gap(pcoef, ref_pcoef) <= bound
        # the q-node second arguments on the root routes (_q_forms)
        # against GreenContext.form at 24 q nodes on both sheets, each one
        # path from the base point
        t_lam, t_y, ref_forms = _q_forms(ctx)
        tree = green.build_surface_tree(ctx.curve, ctx.q_grid)
        n = ctx.q_grid.n_nodes
        for i in np.linspace(0, n - 1, 12, dtype=int):
            s = _tree_sheet(ctx.curve, tree, i)
            for sheet, k in ((s, i), (-s, n + i)):
                calls.clear()
                with mock.patch.object(green, "integrate_vector_path",
                                       recorded):
                    _, y_k, got = ctx.form(
                        SurfacePoint(complex(t_lam[k]), sheet))
                assert abs(y_k - t_y[k]) <= 1e-12 * abs(t_y[k])
                err = q_err + path_errs[1] + sum(out[1] for out in calls)
                assert _pcoef_gap(got, ref_forms[:, k]) \
                    <= _pcoef_norm(model) * err + defect, k
        # the closed-form means against the root routes' sheet-pair sum
        means = green.special_solution_means(ctx) - _sheet_pair_means(
            ctx, _reference_special_solutions(ctx, t_lam, t_y, ref_forms))
        assert np.abs(means).max() <= bound
        # the solver against the root flip loop, with the same correction
        # polynomial, on the two-column route: u on the tree sheet is the
        # tree sum, on the other it moves by Re of the flip change, mean_u
        # by half of it; the solver integrates h in closed form, so each
        # node also moves within both routes' tree-path errors (bound)
        vals, _, path_err = _accumulate_tree(ctx.curve, sol.p_tree,
                                             _harm_both(sol), 2)
        ref, ref_err = _reference_flip(ctx.curve, sol.p_tree,
                                       _harm_both(sol))
        u = _node_u(sol) + ctx.t_nodes[:, None]
        ref_plus = vals[:, 0].real + ctx.t_nodes
        ref_minus = (ref[0] + vals[:, 1]).real + ctx.t_nodes
        w = ctx.p_grid.weights * ctx.dens_p
        ref_mean = float((w * (ref_plus + ref_minus)).sum() / ctx.area)
        sol_err = _node_values(sol)[1]
        bound = sol_err[:, 0] + path_err + 1e-12
        assert (np.abs(u[:, 0] - ref_plus) <= bound).all()
        flip_errs = sol_err[0, 1] - sol_err[0, 0] + ref_err
        assert (np.abs(u[:, 1] - ref_minus)
                <= flip_errs + bound + defect).all()
        assert abs(sol.mean_u - ref_mean) \
            <= flip_errs + 2.0 * bound.max() * w.sum() / ctx.area + defect

    def test_solver_runs_no_flip_loop(self, z5, monkeypatch):
        # a context runs one branch leg, for its base point's moments, and
        # none to build its p tree; each solver runs one, at the hub
        model, frame = z5
        c = green.green_context(model, frame,
                                QuadratureConfig(surface_grid=(6, 8, None)))
        legs = []
        leg = green._branch_leg

        def counted(curve, lam, y, f):
            legs.append((lam, y, f))
            return leg(curve, lam, y, f)

        monkeypatch.setattr(green, "_branch_leg", counted)
        c.p_tree
        c.base
        assert [(lam, f) for lam, _, f in legs] \
            == [(c.base[0], green._moment_integrand)]
        legs.clear()
        for y in (SurfacePoint(0.9 + 1.3j, 1), SurfacePoint(1.03125, -1)):
            green.GreenSolver(c, y)
        hub = c.p_tree.hub
        assert [(lam, y) for lam, y, _ in legs] == 2 * [
            (c.p_grid.nodes[hub], _tree_y_plus(c.curve, c.p_tree)[hub])]

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           grid=st.sampled_from([(6, 8), (12, 16)]),
           near=st.sampled_from(["branch", "cone", "free"]),
           index=st.integers(0, 5),
           r=st.floats(1e-4, 0.05),
           phase=st.floats(0.0, 2.0 * np.pi),
           free=st.tuples(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6)),
           sheet=st.sampled_from([1, -1]))
    @example(name="generic", grid=(12, 16), near="branch", index=1,
             r=0.03125, phase=0.0, free=(0.0, 0.0), sheet=-1)
    def test_moments_match_root_route(self, read_solvers, q_moments, name,
                                      grid, near, index, r, phase, free,
                                      sheet):
        # the base-point start against the root route, through
        # GreenContext.form: the routes differ by a cycle, which the
        # normalized form does not see, so the polynomials agree within
        # the paths' and legs' errors plus the real-period defect
        sol, defect = read_solvers[name, grid]
        assert defect < 1e-9
        ctx = sol.ctx
        centre = {"branch": ctx.curve.branch_points[index],
                  "cone": ctx.frame.lam_p, "free": complex(*free)}[near]
        x = SurfacePoint(complex(centre) + r * np.exp(1j * phase), sheet)
        short = []
        with mock.patch.object(green, "integrate_vector_path", _recording(
                short, green.integrate_vector_path)):
            pcoef = ctx.form(x)[2]
        assert len(short) == 1
        _, m_flip, _, flip_err = q_moments[name, grid]
        m_ref, err_ref = _reference_moments(ctx, x)
        ref = green._correction_pcoef(ctx.model, m_ref - 0.5 * m_flip)
        # the q tree's flip error (flip_err) is the error of m_flip
        err = short[0][1] + _leg_err(ctx) + err_ref + flip_err
        assert _pcoef_gap(pcoef, ref) <= _pcoef_norm(ctx.model) * err + defect

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           grid=st.sampled_from([(6, 8), (12, 16)]),
           near=st.sampled_from(["branch", "cone", "base", "gon", "far"]),
           index=st.integers(0, 15),
           r=st.floats(0.0, 0.05),
           phase=st.floats(0.0, 2.0 * np.pi),
           far=st.floats(2.0, 150.0),
           sheet=st.sampled_from([1, -1]))
    @example(name="generic", grid=(12, 16), near="base", index=0, r=0.0,
             phase=0.0, far=2.0, sheet=-1)
    @example(name="generic", grid=(12, 16), near="branch", index=1,
             r=0.03125, phase=0.0, far=2.0, sheet=-1)
    @example(name="z5", grid=(12, 16), near="far", index=0, r=0.0,
             phase=2.0, far=150.0, sheet=-1)
    # a path one subnormal step long, whose nodes all round onto its ends
    @example(name="z5", grid=(6, 8), near="base", index=0, r=5e-324,
             phase=math.pi / 2, far=2.0, sheet=1)
    def test_base_point_matches_nearest_node_route(
            self, read_solvers, q_moments, name, grid, near, index, r,
            phase, far, sheet):
        # the base-point start against the nearest-q-node route it
        # replaced, through GreenContext.form, at points next to every branch
        # point, the cone point, the base point and the retired 16-gon
        # through it, and far out: the routes differ by a cycle, which the
        # normalized form does not see, so the polynomials agree within
        # both routes' errors plus the real-period defect
        sol, defect = read_solvers[name, grid]
        assert defect < 1e-9
        ctx = sol.ctx
        gon = _flip_gon(ctx.curve, ctx.base[0])
        centre = {"branch": ctx.curve.branch_points[index % 6],
                  "cone": ctx.frame.lam_p, "base": ctx.base[0],
                  "gon": gon[index], "far": far * np.exp(1j * phase)}[near]
        if near in ("branch", "cone"):
            r = max(r, 1e-4)
        x = SurfacePoint(complex(centre) + r * np.exp(1j * phase), sheet)
        short = []
        with mock.patch.object(green, "integrate_vector_path", _recording(
                short, green.integrate_vector_path)):
            pcoef = ctx.form(x)[2]
        assert len(short) == int(x.lam != ctx.base[0])
        _, m_flip, _, flip_err = q_moments[name, grid]
        m_ref, err_ref = _nearest_node_moments(ctx, x, q_moments[name, grid])
        ref = green._correction_pcoef(ctx.model, m_ref - 0.5 * m_flip)
        # new route: its path and the leg; old route: its path, the q
        # node's tree path and m_flip's flip error
        err = sum(out[1] for out in short) + _leg_err(ctx) + err_ref \
            + flip_err
        assert _pcoef_gap(pcoef, ref) <= _pcoef_norm(ctx.model) * err + defect

    def test_base_point_needs_no_path(self, ctx, generic, monkeypatch):
        # at lambda_b the moments are R_b on the sheet of y_b and -R_b on
        # the other, with no path
        ctxs = (ctx, generic[2])
        for c in ctxs:
            c.base
        calls = []
        monkeypatch.setattr(green, "integrate_vector_path",
                            lambda *a, **k: calls.append(a))
        for c in ctxs:
            lam_b, y_b, r_b = c.base
            assert lam_b == c.curve.branch_points[0] + c.curve.min_gap / 3.0
            assert y_b == c.curve.y_at(np.asarray(lam_b), 1)
            for sheet, want in ((1, r_b), (-1, -r_b)):
                np.testing.assert_array_equal(green._moments_at(
                    c.curve, c.base, SurfacePoint(lam_b, sheet)), want)
        assert calls == []

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_leg_moments_are_half_the_gon(self, name):
        # R_b, the moments from branch point 0 to the base point, against
        # the 16-gon through the base point, which runs from the base
        # point to its other sheet: that integral is -2 R_b
        curve = CURVES[name]
        lam_b, y_b, r_b = green._moment_base(curve)
        gon, _, y_end = green.integrate_vector_path(
            curve.branch_points, _flip_gon(curve, lam_b), y_b,
            green._moment_integrand)
        assert abs(y_end + y_b) <= 1e-6 * abs(y_b)
        assert np.abs(r_b + 0.5 * gon).max() <= 1e-15 * np.abs(gon).max()

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_moments_odd_in_sheet(self, name):
        # R(z-) = -R(z+) bit for bit: at lambda_b, where no path is taken,
        # and away from it, where the same path arrives on either sheet
        curve = CURVES[name]
        base = green._moment_base(curve)
        for lam in (base[0], 0.9 + 1.3j, -0.4 - 0.2j, 1.03125,
                    complex(curve.branch_points[3]) + 0.01j, 40.0 - 30.0j):
            up, down = (green._moments_at(curve, base, SurfacePoint(lam, s))
                        for s in (1, -1))
            np.testing.assert_array_equal(down, -up)

    @pytest.mark.parametrize("name, grid", READ_KEYS)
    def test_connector_lift_matches_scalar_chain(self, read_solvers, name,
                                                 grid):
        # the leg runs straight from the hub into branch point 0 in
        # lambda (lambda = b0 + s^2, s on a segment to 0): y = s g at its
        # nodes equals y continued from y at the hub node by node along
        # that segment, one scalar step at a time, to rounding; the leg on
        # the other sheet (s -> -s) takes -y at the same nodes, exactly.
        # On both trees
        ctx = read_solvers[name, grid][0].ctx
        curve = ctx.curve
        b0 = complex(curve.branch_points[0])
        for tree in (ctx.p_tree,
                     green.build_surface_tree(curve, ctx.q_grid)):
            lam_hub = complex(tree.grid.nodes[tree.hub])
            y_tree = _tree_y_plus(curve, tree)[tree.hub]
            nodes = []
            for y_hub in (y_tree, -y_tree):
                seen = []

                def f(lam, y):
                    seen.append((lam.copy(), y.copy()))
                    return green._moment_integrand(lam, y)

                green._branch_leg(curve, lam_hub, y_hub, f)
                nodes.append((np.concatenate([z for z, _ in seen]),
                              np.concatenate([y for _, y in seen])))
            (lam, y), (lam_o, y_o) = nodes
            np.testing.assert_array_equal(lam_o, lam)
            np.testing.assert_array_equal(y_o, -y)
            assert np.abs(np.angle((lam - b0) / (lam_hub - b0))).max() \
                <= 1e-12
            chain = []
            at, y_at = lam_hub, y_tree
            for k in np.argsort(-np.abs(lam - b0), kind="stable"):
                y_at = _continue_to(curve, at, y_at, lam[k])
                at = lam[k]
                chain.append((k, y_at))
            for k, y_k in chain:
                assert abs(y[k] - y_k) <= 1e-12 * abs(y_k), k

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_far_start_rejected(self, name):
        # the leg's contract: an end within min_gap / 2 of branch point 0,
        # so its segment in s keeps clear of the ten other roots
        curve = CURVES[name]
        bp = complex(curve.branch_points[0])
        r = curve.min_gap / 3.0
        lam = bp + 1.4 * r
        y = complex(curve.y_at(np.asarray(lam), 1))
        val, err = green._branch_leg(curve, lam, y, green._moment_integrand)
        assert np.isfinite(val).all() and err < 1e-9
        lam = bp + 1.6 * r
        with pytest.raises(ConsistencyFailure, match="not next to"):
            green._branch_leg(curve, lam, complex(curve.y_at(
                np.asarray(lam), 1)), green._moment_integrand)

    @pytest.mark.parametrize("grid", [(1, 1), (1, 2), (3, 5), (8, 1),
                                      (9, 7), (17, 3)],
                             ids=lambda g: f"{g[0]}x{g[1]}")
    @pytest.mark.parametrize("stagger", [0.0, 0.31, 0.61])
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_hub_next_to_branch_point(self, name, grid, stagger):
        # every grid has at least one angle per radius and one 8-point
        # Gauss panel in the disk of radius r = min_gap / 3 about branch
        # point 0, whose outer radius lies within 2% of r; so the hub, the
        # node closest to distance r, ends a branch leg well inside its
        # min_gap / 2 contract
        curve = CURVES[name]
        tree = green.build_surface_tree(curve,
                                        _surface_grid(name, grid, stagger))
        r = curve.min_gap / 3.0
        d = abs(tree.grid.nodes[tree.hub] - curve.branch_points[0])
        assert abs(d - r) <= 0.02 * r


class TestRoelckeGreen:
    def test_symmetry(self, ctx, solver):
        x = SurfacePoint(-0.7 + 0.4j, 1)
        g_xy = solver.green(x).value
        g_yx = green.GreenSolver(ctx, x).green(solver.y).value
        assert abs(g_xy - g_yx) < 1e-2

    def test_tree_values_match_path_integrals(self, ctx, solver):
        # the node values (_node_u, plus t_nodes) hold u at the tree sheet
        # and at the other one; the tree sheet is read off _tree_y_plus,
        # not assumed to be sheet +1
        tree = solver.p_tree
        u = _node_u(solver) + ctx.t_nodes[:, None]
        nodes = [i for i in np.linspace(0, ctx.p_grid.n_nodes - 1, 9,
                                        dtype=int) if i != tree.root][:8]
        for i in nodes:
            lam = complex(ctx.p_grid.nodes[i])
            s = _tree_sheet(ctx.curve, tree, i)
            assert abs(u[i, 0]
                       - _reference_u_at(solver, SurfacePoint(lam, s))[0]) \
                < 1e-8, i
            assert abs(u[i, 1]
                       - _reference_u_at(solver, SurfacePoint(lam, -s))[0]) \
                < 1e-8, i

    @pytest.mark.parametrize("grid", [(6, 8), (12, 16)])
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_solver_matches_gauss_20_10_oracle(self, read_solvers, name,
                                               grid):
        # a solver on the nested 10/21-point rule against one whose
        # context, tree and paths all run the 20/10-point pair it
        # replaced: the node values Re Gamma and G on both sheets agree
        # to rounding (measured: 1.8e-15 and 2.2e-16 up to (24,32)), and
        # the error estimates to 1e-6 relative (measured: 3.4e-7)
        sol = read_solvers[name, grid][0]
        ctx = sol.ctx
        xs = [SurfacePoint(complex(*v), s) for v in
              [(-0.7, 0.4), (0.6, 0.5), (1.2, -0.3), (-0.2, -1.1),
               (0.05, 0.02), (0.31, 1.05)] for s in (1, -1)]
        rules = []
        rule = green._embedded_gauss

        def recorded(half, vals, tol):
            rules.append(vals.shape[0])
            return rule(half, vals, tol)

        with _oracle(), mock.patch.object(green, "_embedded_gauss",
                                          recorded):
            ref = green.GreenSolver(green.green_context(
                ctx.model, ctx.frame,
                QuadratureConfig(surface_grid=(*grid, None))), sol.y)
            want = [ref.green(x) for x in xs]
            ref_gamma = _node_values(ref)[0]
        # every pass, the tree's and the paths', ran on the 30-node pair
        assert set(rules) == {30}
        assert np.abs(_node_values(sol)[0] - ref_gamma).max() <= 1e-14
        for x, g in zip(xs, want):
            got = sol.green(x)
            assert abs(got.value - g.value) <= 1e-15, x
            assert abs(got.error_estimate / g.error_estimate - 1) <= 1e-6, x
        assert abs(sol.tree_err / ref.tree_err - 1) <= 1e-6

    def test_mean_zero_independent_grid(self, ctx, solver):
        # quadrature over a third staggered grid that shares no nodes
        grid = build_surface_grid(ctx.curve.branch_points,
                                  QuadratureConfig(surface_grid=(6, 8, None)),
                                  stagger=0.61)
        dens = metric_density(ctx.curve, ctx.frame.lam_p, grid.nodes)
        w = grid.weights * dens
        mean = sum(w[i] * (solver.green(SurfacePoint(complex(l), 1)).value
                           + solver.green(SurfacePoint(complex(l), -1)).value)
                   for i, l in enumerate(grid.nodes)) / (2.0 * w.sum())
        assert abs(mean) < 1e-2

    def test_log_singularity_coefficient(self, solver):
        y = solver.y
        r = np.array([1e-3, 2e-3])
        g = [solver.green(SurfacePoint(y.lam + rr, y.sheet)).value
             for rr in r]
        slope = (g[1] - g[0]) / np.log(r[1] / r[0])
        assert abs(slope - 1.0 / (2 * np.pi)) < 0.05 / (2 * np.pi)

    def test_laplacian(self, z5):
        # metric Laplacian -1/Area away from the poles; needs the finer
        # grid for the mollified density to settle under 5%
        model, frame = z5
        fine = green.green_context(
            model, frame, QuadratureConfig(surface_grid=(16, 24, None)))
        sol = green.GreenSolver(fine, SurfacePoint(0.9 + 1.3j, 1))
        h = 1e-3
        for z in (-0.55 - 0.35j, 0.3 + 0.52j, -0.15 - 0.62j):
            g0 = sol.green(SurfacePoint(z, 1)).value
            s = sum(sol.green(SurfacePoint(z + d, 1)).value
                    for d in (h, -h, 1j * h, -1j * h))
            dens = metric_density(model.curve, frame.lam_p,
                                  np.asarray([z]))[0]
            lap = (s - 4 * g0) / h ** 2 / dens
            assert abs(lap + 1.0 / fine.area) < 0.08 / fine.area, z

    @pytest.mark.parametrize("sheet", [1, -1])
    def test_next_to_a_branch_point(self, generic, sheet):
        # 1.03125 lies 0.03125 from generic branch point 1.0; on sheet -1
        # both used to route straight through 1.0 and raise NonConvergence
        model, _, gctx = generic
        y = SurfacePoint(1.03125, sheet)
        x = SurfacePoint(-0.4 - 0.2j, 1)
        g_xy = green.GreenSolver(gctx, y).green(x).value
        g_yx = green.GreenSolver(gctx, x).green(y).value
        assert abs(g_xy - g_yx) < 1e-2
        values, _ = _two_point_form(model, y, x)
        for kind in ("a", "b"):
            for idx in (0, 1):
                per = cycle_integral(model.periods, kind, idx, values)
                assert abs(per.real) < 1e-6, (kind, idx)

    @pytest.mark.parametrize("name, j", [
        *(("z5", j) for j in (1, 2, 3, 4, 5)),
        *(("generic", j) for j in (0, 1, 3, 4, 5))])
    def test_next_to_a_non_cone_branch_point(self, solver, generic, name, j):
        # x = b + 10^-k for every non-cone branch point b, at (12,16): the
        # last leg ends inside _blocked's 1e-9 scale floor from k = 9 on,
        # which blocks only feet inside a segment, so G is finite with no
        # RuntimeWarning and settles as k grows
        if name == "z5":
            sol = solver
        else:
            sol = green.GreenSolver(generic[2], SurfacePoint(0.9 + 1.3j, 1))
        b = complex(sol.ctx.curve.branch_points[j])
        assert abs(b - sol.ctx.frame.lam_p) > 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            g = {k: sol.green(SurfacePoint(b + 10.0 ** -k, 1)).value
                 for k in (6, 9, 12)}
        assert all(np.isfinite(v) for v in g.values()), g
        assert abs(g[12] - g[9]) <= 1e-4, g

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)), index=st.integers(0, 4),
           theta=st.floats(0.0, 2.0 * np.pi), k=st.integers(6, 13),
           sheet=st.sampled_from([1, -1]))
    def test_next_to_a_branch_point_any_direction(self, read_solvers, name,
                                                  index, theta, k, sheet):
        # x = b + 10^-k e^{i theta} next to a non-cone branch point b, on
        # the (12,16) solvers: G is finite with no RuntimeWarning, and
        # G(k) - G(k + 2) shrinks like 10^(-k/2), as G is smooth in the
        # local parameter s = sqrt(lambda - b).  At k + 2 = 16 the offset
        # is near the ulp of |b| and the last leg is too short to split
        sol = read_solvers[name, (12, 16)][0]
        b = [complex(e) for e in sol.ctx.curve.branch_points
             if abs(e - sol.ctx.frame.lam_p) > 0.1][index]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            g = [sol.green(SurfacePoint(
                b + 10.0 ** -m * np.exp(1j * theta), sheet)).value
                 for m in (k, k + 2)]
        assert np.isfinite(g).all(), g
        assert abs(g[0] - g[1]) <= 10.0 ** (-k / 2), g

    def test_coincident_arguments(self, solver):
        with pytest.raises(CoincidentArguments):
            solver.green(solver.y)

    @pytest.mark.parametrize("name, grid", READ_KEYS)
    def test_second_argument_on_p_node_rejected(self, read_solvers, name,
                                                grid, monkeypatch):
        # a y on a p node, where (1/2) log|lambda - lambda_y| is infinite,
        # raises SingularityOnGrid before anything is settled or logged
        ctx = read_solvers[name, grid][0].ctx
        calls = []
        monkeypatch.setattr(green, "integrate_paths",
                            lambda *a, **k: calls.append(a))
        for i in (0, ctx.p_grid.n_nodes // 3, ctx.p_tree.hub):
            for sheet in (1, -1):
                y = SurfacePoint(complex(ctx.p_grid.nodes[i]), sheet)
                with np.errstate(all="raise"), \
                        pytest.raises(SingularityOnGrid, match="p-grid node"):
                    green.GreenSolver(ctx, y)
        assert calls == []

    def test_cone_second_argument_rejected(self, ctx):
        with pytest.raises(ConeArgument):
            green.GreenSolver(ctx, SurfacePoint(ctx.frame.lam_p, 1))

    def test_bounded_at_cone(self, ctx, solver):
        gp, err = solver.green_at_cone()
        assert np.isfinite(gp)
        assert abs(gp) < 10.0
        assert err < 1e-3
        # the mean of green over six equispaced points of the xi-circle
        # |xi| = 1e-3, with the largest of their estimates
        gs = [solver.green(p)
              for p in green._cone_circle_points(ctx, 1e-3, 6)[1]]
        assert (gp, err) == (np.mean([g.value for g in gs]),
                             max(g.error_estimate for g in gs))

    @pytest.mark.parametrize("name, grid", READ_KEYS)
    @pytest.mark.parametrize("y", [None, (0.05 + 0.02j, -1)],
                             ids=["read", "near-b0"])
    def test_cone_mean_settles(self, read_solvers, name, grid, y):
        # G(P, y) by the mean-value property does not depend on the
        # circle: the means at |xi| = 1e-3 and 1e-4 agree within their
        # estimates, for the read solvers' y and a y next to branch point 0
        sol = read_solvers[name, grid][0]
        if y is not None:
            sol = green.GreenSolver(sol.ctx, SurfacePoint(*y))
        gp, err = sol.green_at_cone()
        gs = [sol.green(p)
              for p in green._cone_circle_points(sol.ctx, 1e-4, 6)[1]]
        assert abs(gp - np.mean([g.value for g in gs])) \
            <= err + max(g.error_estimate for g in gs)


def _q_bounded_radius(ctx, t_lam=()):
    """Sampling radius of the removed Cauchy-sum evaluator: 0.9 |xi(zeta)|
    at zeta = 0.65 sqrt(d), d the distance from the cone point to the
    nearest q node (a pole of the Cauchy sum) or second argument."""
    d = np.abs(np.append(ctx.q_grid.nodes, t_lam) - ctx.frame.lam_p)
    zeta_r = 0.65 * np.sqrt(d[d > 0].min())
    return 0.9 * abs(complex(ctx.frame.xi_of_zeta.evaluate(
        np.asarray([zeta_r], complex))[0]))


def _reference_special_solutions(ctx, t_lam, t_y, pcoef):
    """Reference for green._special_solutions: the 32-point FFT of the
    whole averaged form, _form_values minus the q-grid Cauchy sum
    sum_q W_q / (lambda - lambda_q) / Area at every sample, on the circle
    of _q_bounded_radius, inside every pole."""
    n = 32
    r = _q_bounded_radius(ctx, t_lam)
    shape = (n,) + (1,) * np.ndim(t_lam)
    lam, yv, dlam_dxi = (v.reshape(shape)
                         for v in green._cone_circle(ctx, r, n)[1:])
    cauchy = (ctx.cauchy_w / (lam[..., None] - ctx.q_grid.nodes)).sum(-1)
    omega_bar = green._form_values(lam, yv, t_lam, t_y, pcoef) \
        - cauchy / ctx.area
    coef = np.fft.fft(omega_bar * dlam_dxi, axis=0) / n
    return -coef[0], -coef[1] / r


class TestSpecialSolutions:
    def test_means_vanish(self, ctx):
        m1, m2 = green.special_solution_means(ctx)
        assert abs(m1) < 1e-6
        assert abs(m2) < 1e-6

    @pytest.mark.parametrize("name", ["z5", "generic"])
    @pytest.mark.parametrize("grid", [(6, 8), (12, 16)])
    def test_means_match_sheet_pair_sum(self, potential_contexts, name,
                                        grid, monkeypatch):
        # the closed form against the sum it stands for: _special_solutions
        # at every q node on both sheets (_q_forms), each on the circle
        # inside every q node, summed with the Cauchy weights
        ctx = potential_contexts(name, grid)
        means = green.special_solution_means(ctx)
        t_lam, t_y, pcoef = _q_forms(ctx)
        radius = green._xi_circle_radius
        with monkeypatch.context() as m:
            m.setattr(green, "_xi_circle_radius", lambda c, t_lam=():
                      radius(c, c.q_grid.nodes))
            g = np.array([green._special_solutions(ctx, t_lam[k], t_y[k],
                                                   pcoef[:, k])
                          for k in range(t_lam.size)]).T
        assert np.abs(_sheet_pair_means(ctx, g) - means).max() <= 1e-15
        # the two sheets' correction polynomials are opposite: their
        # moment vectors m_node - m_flip / 2 and (m_flip - m_node) -
        # m_flip / 2 round apart by a few ulp of the moments' largest part
        tree = green.build_surface_tree(ctx.curve, ctx.q_grid)
        m_node, m_flip = _tree_moments(ctx.curve, tree)[:2]
        parts = np.concatenate([m_node.ravel(), m_flip])
        size = max(np.abs(parts.real).max(), np.abs(parts.imag).max())
        n = ctx.q_grid.n_nodes
        assert _pcoef_gap(pcoef[:, :n], -pcoef[:, n:]) \
            <= 8 * np.finfo(float).eps * size * _pcoef_norm(ctx.model)
        # without the Cauchy sum's cone term the means do not vanish
        monkeypatch.setattr(green.GreenContext, "cone_cauchy",
                            property(lambda self: 0.0))
        if name == "generic":
            assert np.abs(green.special_solution_means(ctx)).max() > 1e-6

    def test_grid_matches_pointwise(self, ctx):
        # both halves of _q_forms: "plus" is the tree sheet of each node,
        # read off the q tree's _tree_y_plus, and "minus" the other sheet
        t_lam, t_y, pcoef = _q_forms(ctx)
        nodes = ctx.q_grid.nodes
        n = nodes.size
        picks = [int(np.argmin(np.abs(nodes - (0.8 + 0.8j))))] + list(
            np.linspace(0, nodes.size - 1, 11, dtype=int))
        q_tree = green.build_surface_tree(ctx.curve, ctx.q_grid)
        for i in picks:
            s = _tree_sheet(ctx.curve, q_tree, i)
            for sheet, k in ((s, i), (-s, n + i)):
                g1, g2 = green._special_solutions(ctx, t_lam[k], t_y[k],
                                                  pcoef[:, k])
                pt = SurfacePoint(complex(nodes[i]), sheet)
                assert abs(g1 - green.special_solution_zero(ctx, 1, pt)) \
                    < 1e-8, (i, sheet)
                assert abs(g2 - green.special_solution_zero(ctx, 2, pt)) \
                    < 1e-8, (i, sheet)

    @pytest.mark.parametrize("name", ["z5", "generic"])
    @pytest.mark.parametrize("grid", [(12, 16), (24, 32)])
    def test_closed_form_matches_cauchy_sum(self, potential_contexts, name,
                                            grid, monkeypatch):
        # the Cauchy sum in closed form (cone_cauchy) against the removed
        # evaluator's FFT of the whole averaged form, on its circle;
        # relative to the largest value of each order, since q nodes next
        # to the cone point give values 1e4 times the smallest
        ctx = potential_contexts(name, grid)
        monkeypatch.setattr(green, "_xi_circle_radius", _q_bounded_radius)
        args = [ctx.form(SurfacePoint(lam, s)) for lam, s in
                ((0.9 + 1.3j, 1), (-0.4 - 0.2j, -1), (1.3 - 0.5j, 1))]
        for t in args:
            got = green._special_solutions(ctx, *t)
            for g, ref in zip(got, _reference_special_solutions(ctx, *t)):
                assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
        # the q-node arguments on both sheets, one call each at 64 nodes
        # spread over the grid and the 4 next to the cone point, against
        # the reference on all of them at once (one circle for all: the
        # q-bounded radius of a q node is every q node's)
        t_lam, t_y, pcoef = _q_forms(ctx)
        refs = _reference_special_solutions(ctx, t_lam, t_y, pcoef)
        n = ctx.q_grid.n_nodes
        picks = np.union1d(np.linspace(0, n - 1, 64, dtype=int), np.argsort(
            np.abs(ctx.q_grid.nodes - ctx.frame.lam_p))[:4])
        for k in np.concatenate([picks, n + picks]):
            got = green._special_solutions(ctx, t_lam[k], t_y[k],
                                           pcoef[:, k])
            for g, ref in zip(got, refs):
                assert abs(g - ref[k]) <= 1e-12 * np.abs(ref).max(), k

    def test_radius_inside_frame_chart(self, generic, monkeypatch):
        # a far second argument leaves the circle to the frame chart's
        # disk, whose edge is the nearest other branch point: halving the
        # radius moves nothing beyond rounding
        gctx = generic[2]
        form = gctx.form(SurfacePoint(0.9 + 1.3j, 1))
        full = green._special_solutions(gctx, *form)
        radius = green._xi_circle_radius
        monkeypatch.setattr(green, "_xi_circle_radius",
                            lambda ctx, t_lam=(): 0.5 * radius(ctx, t_lam))
        for a, b in zip(full, green._special_solutions(gctx, *form)):
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_one_averaged_pcoef_per_point(self, ctx, solver, monkeypatch):
        # the special-solution pair comes from one form (and correction
        # polynomial) per second argument; a solver already holds its own
        pairs = [green.special_solution_zero(ctx, l, solver.y)
                 for l in (1, 2)]
        calls = []
        form = green.GreenContext.form

        def counted(self, y):
            calls.append(y)
            return form(self, y)

        monkeypatch.setattr(green.GreenContext, "form", counted)
        green.coefficient_matching(solver)
        assert calls == []
        green.smatrix_expansion_check(ctx)
        assert len(calls) == 32
        assert list(solver.special_solutions()) == pairs

    def test_order_validation(self, ctx):
        # 1.0 equals 1 but is no order: refused, not a TypeError from
        # indexing the pair with it
        for l in (3, 1.0):
            with pytest.raises(ValueError):
                green.special_solution_zero(ctx, l,
                                            SurfacePoint(0.9 + 1.3j, 1))

    def test_cone_argument_rejected(self, ctx):
        with pytest.raises(ConeArgument):
            green.special_solution_zero(ctx, 1,
                                        SurfacePoint(ctx.frame.lam_p, 1))


class TestCoefficientMatching:
    def test_fit_against_special_solutions(self, solver):
        out = green.coefficient_matching(solver)
        assert out["rel_err_xi"] < 0.1
        assert out["rel_err_xi2"] < 0.1

    def test_rank_deficient_raises(self, solver):
        with pytest.raises(FitIllConditioned):
            green.coefficient_matching(solver, n_samples=3)

    def test_reg_log_limit(self, solver):
        # reg_log = 2 pi G(P, y) must match the fitted constant term
        out = green.coefficient_matching(solver)
        rl = green.reg_log_limit(solver)
        assert abs(rl - 2 * np.pi * out["g0"]) < 0.1 * abs(rl)


class TestBergmanConsistency:
    def test_mixed_derivative(self, solver):
        for z in (-0.7 + 0.4j, 1.3 - 0.5j):
            out = green.bergman_consistency(solver, SurfacePoint(z, 1))
            assert out["rel_err"] < 0.05, z

    def test_step_validation(self, solver):
        with pytest.raises(StepTooSmall):
            green.bergman_consistency(solver, SurfacePoint(-0.7 + 0.4j, 1),
                                      h=0.0)

    def test_step_halving_stable(self, solver):
        x = SurfacePoint(1.3 - 0.5j, 1)
        a = green.bergman_consistency(solver, x, h=2e-4)
        b = green.bergman_consistency(solver, x, h=1e-4)
        assert abs(a["mixed_derivative"] - b["mixed_derivative"]) \
            < 1e-4 * abs(b["mixed_derivative"]) + 1e-12


class TestSMatrixCrossCheck:
    def test_expansion_reproduces_t_entries(self, generic):
        model, frame, gctx = generic
        t = smatrix.t_matrix_zero(model).T0
        out = green.smatrix_expansion_check(gctx)
        scale = np.abs(t).max()
        assert abs(out["sing_1"] - 1.0) < 1e-6
        assert abs(out["sing_2"] - 1.0) < 1e-6
        assert abs(out["spurious_1"]) < 1e-6
        assert abs(out["spurious_2"]) < 1e-6
        assert abs(out["coeffs_1"]["xi"] - t[0, 0]) < 1e-3 * scale
        assert abs(out["coeffs_1"]["xi2"] - t[1, 0]) < 1e-3 * scale
        assert abs(out["coeffs_2"]["xi2"] - t[1, 1]) < 1e-3 * scale
        # conjugate sector comes out with the opposite sign to the
        # assembled block; determinant-level invariants are unaffected
        assert abs(out["coeffs_1"]["conj_xi"] + t[2, 0]) < 1e-3 * scale
        assert abs(out["coeffs_2"]["conj_xi2"] + t[3, 1]) < 1e-3 * scale

    @pytest.mark.parametrize("grid", [(12, 16), (24, 32)])
    def test_expansion_independent_of_grid(self, generic, potential_contexts,
                                           grid):
        # the sampling circles follow the frame chart, not the q nodes, so
        # a finer grid leaves the T(0) route at rounding
        t = smatrix.t_matrix_zero(generic[0]).T0
        out = green.smatrix_expansion_check(potential_contexts("generic",
                                                               grid))
        scale = np.abs(t).max()
        for key in ("sing_1", "sing_2"):
            assert abs(out[key] - 1.0) < 1e-12
        for key in ("spurious_1", "spurious_2"):
            assert abs(out[key]) < 1e-12
        c1, c2 = out["coeffs_1"], out["coeffs_2"]
        assert abs(c1["xi"] - t[0, 0]) < 1e-9 * scale
        assert abs(c1["xi2"] - t[1, 0]) < 1e-9 * scale
        assert abs(c2["xi2"] - t[1, 1]) < 1e-9 * scale
        assert abs(c1["conj_xi"] + t[2, 0]) < 1e-9 * scale
        assert abs(c2["conj_xi2"] + t[3, 1]) < 1e-9 * scale

    def test_perturbed_z5_t22(self):
        # off z5 the degeneracy lifts through T22, which grows linearly in
        # the move; the Green-function route must reproduce its small value
        bp = list(make_z5_curve(0.0, 1.0).branch_points)
        bp[3] += 0.05
        model, frame = build_model(bp, 0)
        t22 = smatrix.t_matrix_zero(model).T0[1, 1]
        out = green.smatrix_expansion_check(green.green_context(model, frame))
        assert abs(out["coeffs_2"]["xi2"] - t22) < 1e-4 * abs(t22)

    def test_z5_conjugate_entry(self, ctx):
        out = green.smatrix_expansion_check(ctx)
        pb = np.pi * green.bergman_kernel(ctx.model)
        assert abs(out["coeffs_1"]["conj_xi"] + pb) < 1e-3 * abs(pb)
        assert abs(out["coeffs_1"]["xi"]) < 1e-3 * abs(pb)
