import cmath
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conespectra import bidiff, green, numerics
from conespectra.curveperiods import make_curve, make_z5_curve, period_data
from conespectra.errors import DegenerateJet, NonConvergence, SingularityOnGrid
from conespectra.numerics import (
    BivariateSeries,
    QuadratureConfig,
    SurfaceGrid,
    TruncatedSeries,
    build_surface_grid,
    gamma,
    integrate_surface,
    schwarzian,
)


def geometric(order=16):
    # 1/(1 - t)
    return TruncatedSeries(np.ones(order + 1))


class TestSeriesArithmetic:
    def test_mul_matches_polynomial_product(self):
        f = TruncatedSeries([1, 2, 3], order=8)
        g = TruncatedSeries([4, 0, -1], order=8)
        h = (f * g).coeffs
        np.testing.assert_allclose(h[:5], [4, 8, 11, -2, -3])

    def test_reciprocal_of_geometric(self):
        r = geometric().reciprocal()
        np.testing.assert_allclose(r.coeffs[:3], [1, -1, 0], atol=1e-14)
        np.testing.assert_allclose(r.coeffs[3:], 0, atol=1e-14)

    def test_division_by_vanishing_leading_coefficient_raises(self):
        f = TruncatedSeries([1, 1], order=4)
        g = TruncatedSeries([1e-15, 1], order=4)
        with pytest.raises(DegenerateJet):
            f / g

    def test_derivative_integral_roundtrip(self):
        f = TruncatedSeries(np.arange(1, 10, dtype=float))
        g = f.derivative().integral()
        np.testing.assert_allclose(g.coeffs[1:], f.coeffs[1:9], atol=1e-14)

    def test_unit_root_squares_back(self):
        f = TruncatedSeries([1, 1, 0.5, -0.25], order=10)
        r = f.unit_root(2)
        np.testing.assert_allclose((r * r).coeffs, f.coeffs, atol=1e-12)

    def test_unit_root_branch(self):
        f = TruncatedSeries([1, 1], order=6)
        r = f.unit_root(3, branch=1)
        assert abs(r.coeffs[0] - np.exp(2j * np.pi / 3)) < 1e-12

    def test_evaluate_horner(self):
        f = TruncatedSeries([1, 2, 3])
        assert abs(f.evaluate(0.5) - (1 + 1 + 0.75)) < 1e-14

    def test_odd_detection(self):
        assert TruncatedSeries([0, 1, 0, -2, 0, 3]).is_odd()
        assert not TruncatedSeries([0, 1, 0.5]).is_odd()

    def test_zero_dim_array_operand_is_a_scalar(self):
        f = TruncatedSeries([1, 2, 3])
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: a * b, lambda a, b: a / b):
            got = op(f, np.array(2.0))
            np.testing.assert_array_equal(got.coeffs, op(f, 2.0).coeffs)
            assert got.order == f.order

    def test_constructor_pads_truncates_and_freezes(self):
        c = np.array([1.0, 2.0, 3.0])
        f = TruncatedSeries(c, order=4)
        np.testing.assert_array_equal(f.coeffs, [1, 2, 3, 0, 0])
        assert f.coeffs.dtype == complex and f.order == 4
        np.testing.assert_array_equal(TruncatedSeries(c, 1).coeffs, [1, 2])
        with pytest.raises(ValueError):
            f.coeffs[0] = 0.0
        with pytest.raises(ValueError):
            TruncatedSeries([])
        with pytest.raises(ValueError):
            f.truncate(-1)

    @pytest.mark.parametrize("order", [-1, 2.5])
    def test_constructor_rejects_order(self, order):
        # an order that is not a whole number >= 0 raises at once, not as
        # an IndexError in a later evaluate or reciprocal
        with pytest.raises(ValueError, match="whole number"):
            TruncatedSeries([1.0, 2.0], order)


# ---------------------------------------------------------------------------
# object-path reference for the array loops of TruncatedSeries: the series
# algorithms as they were written on the series operators, one series per
# step; the array loops must equal them bit for bit
# ---------------------------------------------------------------------------

def _ref_constant(value, order):
    c = np.zeros(order + 1, dtype=complex)
    c[0] = value
    return TruncatedSeries(c)


def ref_reciprocal(f):
    n, a = f.order, f.coeffs
    if abs(a[0]) < 1e-13:
        raise DegenerateJet("reciprocal of a series with leading zero")
    out = np.zeros(n + 1, dtype=complex)
    out[0] = 1.0 / a[0]
    for k in range(1, n + 1):
        out[k] = -np.dot(a[1 : k + 1], out[k - 1 :: -1]) / a[0]
    return TruncatedSeries(out)


def ref_compose(f, inner):
    n = min(f.order, inner.order)
    g = TruncatedSeries(inner.coeffs[: n + 1], n)
    acc = _ref_constant(f.coeffs[n], n)
    for k in range(n - 1, -1, -1):  # Horner in series
        acc = acc * g + f.coeffs[k]
    return acc


def ref_inverse(f):
    n, c = f.order, f.coeffs
    g = np.zeros(n + 1, dtype=complex)
    g[1] = 1.0 / c[1]
    for m in range(2, n + 1):
        gm = TruncatedSeries(g[: m + 1], m)
        val = ref_compose(TruncatedSeries(c[: m + 1], m), gm).coeffs[m]
        g[m] = -val / c[1]
    return TruncatedSeries(g)


def ref_unit_root(f, k, branch=0):
    n = f.order
    r0 = f.coeffs[0] ** (1.0 / k) * cmath.exp(2j * cmath.pi * branch / k)
    r = _ref_constant(r0, n)
    for _ in range(n + 2):  # Newton on r^k = f
        rk1 = _ref_constant(1.0, n)
        for _ in range(k - 1):
            rk1 = rk1 * r
        r = r - (rk1 * r - f) * ref_reciprocal(k * rk1)
    return r


def _same(got, ref):
    assert got.order == ref.order
    assert np.array_equal(got.coeffs, ref.coeffs)


unit = st.floats(min_value=-1, max_value=1, allow_nan=False)
complex_coeff = st.builds(complex, unit, unit)


@st.composite
def complex_series(draw, lead=None, order=None):
    """Random complex series of order 14..32; lead fixes the constant
    term: 0 (a series compose and inverse accept as inner or f, with a
    linear term of modulus 0.75..1.5) or None (a constant term of modulus
    0.5..2, as unit_root and reciprocal need)."""
    n = draw(st.integers(14, 32)) if order is None else order
    rest = draw(st.lists(complex_coeff, min_size=n + 1, max_size=n + 1))
    if lead is None:
        rest[0] = cmath.rect(draw(st.floats(0.5, 2.0)),
                             draw(st.floats(-math.pi, math.pi)))
    else:
        rest[0] = lead
        rest[1] = cmath.rect(draw(st.floats(0.75, 1.5)),
                             draw(st.floats(-math.pi, math.pi)))
    return TruncatedSeries(rest)


# a bit-level mismatch needs no minimal witness, and shrinking these
# examples takes minutes and hundreds of MB: the failing draw is reported
# as found
bitwise = settings(max_examples=30, deadline=None,
                   phases=[Phase.explicit, Phase.reuse, Phase.generate])


class TestArrayLoopsMatchObjectPath:
    @bitwise
    @given(complex_series())
    def test_unit_root_every_branch(self, f):
        for k in (2, 3):
            for branch in range(k):
                _same(f.unit_root(k, branch), ref_unit_root(f, k, branch))

    @bitwise
    @given(complex_series())
    def test_reciprocal(self, f):
        _same(f.reciprocal(), ref_reciprocal(f))

    @bitwise
    @given(complex_series(), complex_series(lead=0.0))
    def test_compose(self, f, inner):
        _same(f.compose(inner), ref_compose(f, inner))

    @bitwise
    @given(complex_series(lead=0.0))
    def test_inverse(self, f):
        _same(f.inverse(), ref_inverse(f))

    @pytest.mark.parametrize("name", ["z5", "generic"])
    def test_distinguished_frame(self, name, monkeypatch):
        # all six cone points at order 20, then again with the object-path
        # algorithms patched into the series class
        curve = GRID_CURVES[name]
        pds = [period_data(curve, cp) for cp in range(6)]
        frames = [bidiff.distinguished_frame(curve, pd, cp, order=20)
                  for cp, pd in enumerate(pds)]
        for meth, ref in [("unit_root", ref_unit_root),
                          ("reciprocal", ref_reciprocal),
                          ("compose", ref_compose),
                          ("inverse", ref_inverse)]:
            monkeypatch.setattr(TruncatedSeries, meth, ref)
        for cp, (pd, frame) in enumerate(zip(pds, frames)):
            ref = bidiff.distinguished_frame(curve, pd, cp, order=20)
            _same(frame.xi_of_zeta, ref.xi_of_zeta)
            _same(frame.zeta_of_xi, ref.zeta_of_xi)
            _same(frame.g_series, ref.g_series)


coeff = st.floats(min_value=-2, max_value=2, allow_nan=False)


small = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)


@st.composite
def invertible_jets(draw, order=10):
    sign = draw(st.sampled_from([-1.0, 1.0]))
    lead = sign * draw(st.floats(min_value=0.75, max_value=1.5))
    rest = draw(st.lists(small, min_size=order - 1, max_size=order - 1))
    return TruncatedSeries([0.0, lead] + rest)


class TestComposeInverse:
    @settings(max_examples=40, deadline=None)
    @given(invertible_jets())
    def test_compose_with_inverse_is_identity(self, f):
        g = f.inverse()
        comp = f.compose(g)
        ident = np.zeros(comp.order + 1)
        ident[1] = 1.0
        cond = max(1.0, abs(1.0 / f.coeffs[1]) ** f.order)
        np.testing.assert_allclose(comp.coeffs, ident, atol=1e-9 * cond)

    def test_compose_requires_vanishing_inner(self):
        f = TruncatedSeries([0, 1], order=4)
        with pytest.raises(ValueError):
            f.compose(TruncatedSeries([1, 1], order=4))

    def test_known_reversion(self):
        # inverse of t/(1-t) is t/(1+t)
        f = TruncatedSeries([0] + [1] * 10)
        g = f.inverse()
        expect = [0] + [(-1) ** (k + 1) for k in range(1, 11)]
        np.testing.assert_allclose(g.coeffs, expect, atol=1e-12)


class TestSchwarzian:
    def test_cubic_example(self):
        f = TruncatedSeries([0, 1, 0, 1], order=6)
        s = schwarzian(f)
        assert abs(s.coeffs[0] - 6.0) < 1e-12

    def test_moebius_has_zero_schwarzian(self):
        f = TruncatedSeries([0] + [1] * 12)  # t/(1-t)
        s = schwarzian(f)
        np.testing.assert_allclose(s.coeffs, 0, atol=1e-10)

    def test_degenerate_jet(self):
        with pytest.raises(DegenerateJet):
            schwarzian(TruncatedSeries([0, 0, 1, 1], order=6))

    @settings(max_examples=25, deadline=None)
    @given(invertible_jets(order=12), invertible_jets(order=12))
    def test_cocycle(self, f, g):
        # {f o g} = ({f} o g) g'^2 + {g}
        lhs = schwarzian(f.compose(g))
        sg = schwarzian(g)
        dg = g.derivative()
        rhs = schwarzian(f).compose(g.truncate(f.order - 3)) * (dg * dg) + sg
        n = min(lhs.order, rhs.order, 6)
        scale = max(1.0, np.abs(lhs.coeffs[: n + 1]).max())
        np.testing.assert_allclose(
            lhs.coeffs[: n + 1], rhs.coeffs[: n + 1], atol=1e-7 * scale)


class TestBivariateSeries:
    def test_evaluate(self):
        h = BivariateSeries([[1, 2], [3, 4]])
        assert abs(h.evaluate(0.5, 0.25) - (1 + 0.5 + 1.5 + 0.5)) < 1e-14

    def test_divide_by_diagonal_square(self):
        rng = np.random.default_rng(7)
        n = 10
        h = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
        # build k = (t1 - t2)^2 h exactly, truncated to the same order
        k = np.zeros((n + 1, n + 1), dtype=complex)
        k[2:, :] += h[:-2, :]
        k[1:, 1:] += -2 * h[:-1, :-1]
        k[:, 2:] += h[:, :-2]
        got = BivariateSeries(k).divide_by_diagonal_square().coeffs
        # top anti-diagonals are lost to truncation; compare the rest
        for a in range(n - 1):
            for b in range(n - 1 - a):
                assert abs(got[a, b] - h[a, b]) < 1e-10


class TestGamma:
    def test_reflection_value(self):
        assert abs(gamma(1 / 3) * gamma(2 / 3) - 2 * math.pi / math.sqrt(3)) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma(-1.0)


class TestGaussLegendre:
    def test_cached_rule_refuses_writes(self):
        x, w = numerics.gauss_legendre(10)
        assert numerics.gauss_legendre(10)[0] is x
        for a in (x, w):
            with pytest.raises(ValueError):
                a[0] = a[0]  # the same value: a failing check corrupts nothing


def _tensordot_gauss(half, vals, tol):
    """The np.tensordot form of green._embedded_gauss's nested
    Gauss-Kronrod rule, the Gauss nodes in the first rows: a BLAS product,
    so its estimates agree with the rule's to rounding."""
    _, wk, wg = green._path_rule()
    half = np.asarray(half)
    hi_est = np.tensordot(wk, vals, axes=(0, 0))
    scale = half.reshape(half.shape + (1,) * (hi_est.ndim - half.ndim))
    hi_est = scale * hi_est
    lo_est = scale * np.tensordot(wg, vals[:wg.size], axes=(0, 0))
    per_interval = half.shape + (-1,)
    gap = np.abs(hi_est - lo_est).reshape(per_interval).max(axis=-1)
    top = np.abs(hi_est).reshape(per_interval).max(axis=-1)
    return hi_est, gap, gap <= np.maximum(tol, 1e-10 * top)


def _rowwise_gauss(half, vals, tol):
    """Reference for green._embedded_gauss: each interval's rules summed
    row by row in order, one column at a time in Python complex
    arithmetic, so no column depends on another."""
    _, wk, wg = green._path_rule()
    half = np.asarray(half)
    cols = vals.reshape(vals.shape[0], -1).T
    sums = np.array([[sum((complex(w) * v
                           for w, v in zip(rule[1:], col[1:])),
                          complex(rule[0]) * col[0])
                      for rule in (wk, wg)] for col in cols.tolist()])
    rest = vals.shape[1:]
    scale = half.reshape(half.shape + (1,) * (len(rest) - half.ndim))
    hi_est = scale * sums[:, 0].reshape(rest)
    lo_est = scale * sums[:, 1].reshape(rest)
    per_interval = half.shape + (-1,)
    gap = np.abs(hi_est - lo_est).reshape(per_interval).max(axis=-1)
    top = np.abs(hi_est).reshape(per_interval).max(axis=-1)
    return hi_est, gap, gap <= np.maximum(tol, 1e-10 * top)


# branch points far from every test path, so y is smooth along each
FAR = make_curve(10.0 * np.exp(2j * np.pi * np.arange(6) / 6))


def path_integral(f, path, tol=1e-12, budget=4000):
    """green.integrate_vector_path of an integrand f(z) that ignores y, at
    the tolerance and budget these tests were written for."""
    return green.integrate_vector_path(FAR.branch_points, path,
                                       FAR.y_at(path[0]),
                                       lambda z, y: f(z), tol=tol,
                                       budget=budget)


class TestPathQuadrature:
    # a case is named by the shape it had when the path rule was the
    # 20/10-point Gauss pair on 30 rows, so names stay stable; the rows
    # are green._NODES
    @pytest.mark.parametrize("rest, per_interval", [
        pytest.param(rest, per, id="x".join(map(str, (30,) + rest))
                     + ("-per-interval" if per else "-scalar"))
        for rest in [(), (1,), (2,), (3,), (5,), (10,), (7, 1), (7, 2),
                     (7, 5)]
        for per in ([False, True] if rest else [False])])
    def test_embedded_gauss_matches_tensordot(self, rest, per_interval):
        # every shape sums each column row by row: the bits of
        # _rowwise_gauss, and estimates within rounding of np.tensordot
        # (a BLAS product); a per-interval half runs along axis 1, as for
        # the edges of GreenSolver.settle
        shape = (green._NODES,) + rest
        rng = np.random.default_rng(len(shape) * 10 + shape[-1])
        x = green._path_rule()[0][:green._NODES]
        for trial in range(20):
            half = (rng.standard_normal(shape[1]) if per_interval
                    else rng.standard_normal()) * (1 + 1j) / 7.0
            a = rng.standard_normal() + 1j * rng.standard_normal()
            # smooth and near-singular integrands, so some intervals fail
            z = (a + np.multiply.outer(x, np.ones(shape[1:]))
                 * (1.0 + 0.3 * trial))
            vals = 1.0 / (z - 0.05j * trial) \
                + rng.standard_normal(shape) * 1e-12
            for tol in (1e-9, 1e-14):
                got = green._embedded_gauss(half, vals, tol)
                size = np.abs(half).max() * np.abs(vals).max() * 2.0
                np.testing.assert_allclose(
                    got[0], _tensordot_gauss(half, vals, tol)[0], rtol=0,
                    atol=64 * 2.0 ** -53 * size)
                for g, r in zip(got, _rowwise_gauss(half, vals, tol)):
                    assert np.shape(g) == np.shape(r)
                    np.testing.assert_array_equal(g, r)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
    def test_one_interval_matches_batched_form(self, k):
        # a scalar half over a (_NODES, k) block, as integrate_vector_path
        # calls it, against the batched forms on the same interval: a (1,)
        # half over (_NODES, 1, k), and a 0-d array half over (_NODES, k),
        # all the same bits
        rng = np.random.default_rng(21 + k)
        x = green._path_rule()[0][:green._NODES]
        accepted = set()
        for trial in range(40):
            half = complex(rng.standard_normal(), rng.standard_normal()) / 7
            a = complex(rng.standard_normal(), rng.standard_normal())
            z = np.multiply.outer(a + half * x, np.ones(k))
            vals = 1.0 / (z - 0.1j * np.arange(1, k + 1)) \
                + rng.standard_normal((green._NODES, k)) * 1e-12
            for tol in (1e-9, 1e-14):
                got = green._embedded_gauss(half, vals, tol)
                accepted.add(bool(got[2]))
                batched = green._embedded_gauss(np.array([half]),
                                                vals[:, None], tol)
                plain = green._embedded_gauss(np.asarray(half), vals, tol)
                for g, r, p in zip(got, batched, plain):
                    assert np.shape(g) == np.shape(p) == np.shape(r[0])
                    np.testing.assert_array_equal(g, r[0])
                    np.testing.assert_array_equal(g, p)
        assert accepted == {True, False}

    def test_kronrod_rule_constants(self):
        # the nested rule: the Kronrod weights integrate x^m exactly for
        # m <= 31 and the Gauss weights for m <= 19, to 4 ulp of 1, and
        # neither the next even degree; the 10 Gauss nodes, first and
        # ascending, are gauss_legendre(10)'s to 2 ulp; both weight sets
        # sum to 2 within 2 ulp of 2
        x, wk, wg = green._path_rule()
        n = green._NODES
        assert x.shape == (n + 1,) and x[n] == 1.0
        assert wk.shape == (n,) and wg.shape == (10,)
        assert np.all(np.diff(x[:10]) > 0) and np.all(np.diff(x[10:n]) > 0)
        assert np.abs(x[:n]).max() < 1.0
        assert np.unique(x).size == n + 1
        for m in range(34):
            exact = (1.0 + (-1) ** m) / (m + 1)
            k_err = abs(float(wk @ x[:n] ** m) - exact)
            g_err = abs(float(wg @ x[:10] ** m) - exact)
            # odd powers integrate to 0 by symmetry alone
            assert (k_err <= 4 * math.ulp(1.0)) == (m <= 31 or m % 2), \
                (m, k_err)
            assert (g_err <= 4 * math.ulp(1.0)) == (m <= 19 or m % 2), \
                (m, g_err)
        xg, w10 = numerics.gauss_legendre(10)
        assert np.abs(x[:10] - xg).max() <= 2 * math.ulp(1.0)
        assert np.abs(wg - w10).max() <= 2 * math.ulp(1.0)
        for w in (wk, wg):
            assert abs(float(w.sum()) - 2.0) <= 2 * math.ulp(2.0)
        for a in (x, wk, wg):
            with pytest.raises(ValueError):
                a[0] = a[0]

    def test_beta_integral_with_endpoint_singularities(self):
        # at tol 1e-12, bisection toward the endpoint singularities of
        # 1 / sqrt(t (1 - t)) reaches subintervals whose Gauss nodes are
        # no longer distinct floats; accepting one would report an error
        # of 1.8e-11 for a true error of 2.2e-8, so it must raise
        def f(t):
            u = t * (1 - t)
            with np.errstate(divide="ignore", invalid="ignore"):
                r = 1.0 / np.sqrt(u)
            return np.where(np.isfinite(r), r, 0.0)

        with pytest.raises(NonConvergence, match="not distinct"):
            path_integral(f, [0.0, 1.0])

    def test_unit_circle_residue(self):
        path = [1, 1j, -1, -1j, 1]
        val, _, _ = path_integral(lambda z: 1.0 / z, path)
        assert abs(val - 2j * math.pi) < 1e-10

    def test_error_estimate_is_honest(self):
        f = lambda z: np.exp(z) * np.cos(3 * z)
        val, err, _ = path_integral(f, [0.0, 2.0 + 1.0j])
        import cmath
        a = 1 + 3j
        b = 1 - 3j
        z1 = 2.0 + 1.0j
        exact = 0.5 * ((cmath.exp(a * z1) - 1) / a + (cmath.exp(b * z1) - 1) / b)
        assert abs(val - exact) <= max(err * 10, 1e-10)

    def test_nonconvergence(self):
        with pytest.raises(NonConvergence):
            path_integral(lambda t: np.abs(t - 0.371) ** -0.5, [0.0, 1.0],
                          tol=1e-300, budget=8)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(coeff, min_size=3, max_size=6))
    def test_polynomial_exactness(self, cs):
        poly = np.polynomial.Polynomial(cs)
        exact = poly.integ()(1.5) - poly.integ()(0.0)
        val, _, _ = path_integral(lambda z: poly(z), [0.0, 0.7 + 0.2j, 1.5])
        assert abs(val - exact) < 1e-9 * max(1.0, abs(exact))


HEX = 0.1 * np.exp(2j * np.pi * np.arange(6) / 6)

GRID_CURVES = {
    "z5": make_z5_curve(0.0, 1.0),
    "generic": make_curve([0.0, 1.0, 0.3 + 1.1j, -0.8 + 0.7j, -1.1 - 0.4j,
                           0.5 - 0.9j]),
}


def _reference_surface_grid(branch_points, cfg, stagger=0.0):
    """Reference for build_surface_grid: every partition bump evaluated on
    every node of its patch, the branch-point check on one (nodes, branch
    points) array, and the layout of each patch as built."""
    bp = np.asarray(branch_points, dtype=complex)
    shift = 0.5 + stagger
    n_rad, n_ang, radius = cfg.surface_grid
    center = complex(bp.mean())
    span = float(np.abs(bp - center).max())
    if radius is None:
        radius = span + 2.0
    gaps = [abs(a - b) for i, a in enumerate(bp) for b in bp[i + 1:]]
    disk_r = min(gaps) / 3.0

    def bump_at(pts, j):
        r = np.abs(pts - bp[j])
        return numerics._smooth_step((disk_r - r) / (disk_r / 2.0))

    layout = []

    def polar_patch(c, r_hi, n, k, inverted=False):
        # a patch of its own, not a view into one grid array; the
        # exterior chart is built about 0 and inverted about the centre
        r, rw = numerics._radii(0.0, r_hi, n)
        layout.append(numerics.PolarPatch(c, r, k, shift, inverted))
        return numerics._polar_patch(0.0 if inverted else c, r, rw, k, shift,
                                     np.empty(r.size * k, dtype=complex),
                                     np.empty(r.size * k))

    all_pts, all_w = [], []
    for j in range(bp.size):
        pts, w = polar_patch(bp[j], disk_r, n_rad, n_ang)
        all_pts.append(pts)
        all_w.append(w * bump_at(pts, j))
    pts, w = polar_patch(center, radius, 2 * n_rad, 2 * n_ang)
    comp = np.ones_like(w)
    for j in range(bp.size):
        comp = comp * (1.0 - bump_at(pts, j))
    all_pts.append(pts)
    all_w.append(w * comp)
    mpts, mw = polar_patch(center, 1.0 / radius, n_rad, n_ang, True)
    all_pts.append(center + 1.0 / mpts)
    all_w.append(mw / np.abs(mpts) ** 4)
    nodes = np.concatenate(all_pts)
    dmin = np.abs(nodes[:, None] - bp[None, :]).min()
    if dmin < 1e-12 * max(1.0, span):
        raise SingularityOnGrid("a quadrature node coincides with a branch point")
    return SurfaceGrid(nodes, np.concatenate(all_w), center, tuple(layout))


def _split_radii(breakpoints):
    """numerics._radii with [r_lo, r_hi] first cut at the breakpoints
    inside it and the plain rule taken on each piece.  On the GRID_CURVES
    grids only the main disk reaches a breakpoint."""
    plain = numerics._radii

    def radii(r_lo, r_hi, n_rad):
        cuts = [r_lo, *sorted(b for b in breakpoints if r_lo < b < r_hi),
                r_hi]
        parts = [plain(lo, hi, n_rad) for lo, hi in zip(cuts[:-1], cuts[1:])]
        return tuple(np.concatenate(p) for p in zip(*parts))
    return radii


class TestSurfaceQuadrature:
    def test_gaussian_total_mass(self):
        cfg = QuadratureConfig(surface_grid=(48, 64, 1.5))
        val = integrate_surface(
            lambda lam, sheet: 1.0,
            lambda lam: np.exp(-np.abs(lam) ** 2),
            cfg, branch_points=HEX)
        assert abs(val - 2 * math.pi) < 1e-3 * 2 * math.pi

    def test_sheet_dependence(self):
        cfg = QuadratureConfig(surface_grid=(24, 32, 1.5))
        val = integrate_surface(
            lambda lam, sheet: sheet,
            lambda lam: np.exp(-np.abs(lam) ** 2),
            cfg, branch_points=HEX)
        assert abs(val) < 1e-12

    @pytest.mark.parametrize("breakpoints", [None, [0.5, 1.5]])
    @pytest.mark.parametrize("stagger", [0.0, 0.31])
    @pytest.mark.parametrize("grid", [(6, 8), (12, 16), (96, 128)])
    @pytest.mark.parametrize("name", sorted(GRID_CURVES))
    def test_grid_matches_reference(self, name, grid, stagger, breakpoints,
                                    monkeypatch):
        # with breakpoints, both grids take the radial rule split at them,
        # so the main disk's patch differs in size and layout from the
        # plain rule's; the in-place writer must place it all the same
        if breakpoints:
            monkeypatch.setattr(numerics, "_radii",
                                _split_radii(breakpoints))
        bp = GRID_CURVES[name].branch_points
        cfg = QuadratureConfig(surface_grid=(*grid, None))
        g = build_surface_grid(bp, cfg, stagger)
        ref = _reference_surface_grid(bp, cfg, stagger)
        np.testing.assert_array_equal(g.nodes, ref.nodes)
        np.testing.assert_array_equal(g.weights, ref.weights)
        assert g.center == ref.center
        assert len(g.patches) == len(ref.patches)
        for P, Q in zip(g.patches, ref.patches):
            assert (P.center, P.n_ang, P.shift, P.inverted) \
                == (Q.center, Q.n_ang, Q.shift, Q.inverted)
            np.testing.assert_array_equal(P.radii, Q.radii)

    @pytest.mark.parametrize("breakpoints", [None, [0.5, 1.5]])
    @pytest.mark.parametrize("stagger", [0.0, 0.31])
    @pytest.mark.parametrize("grid", [(6, 8), (12, 16), (24, 32)])
    @pytest.mark.parametrize("name", sorted(GRID_CURVES))
    def test_patches_rebuild_nodes(self, name, grid, stagger, breakpoints,
                                   monkeypatch):
        # each recorded patch, read on its own (centre, radii, angle count,
        # shift, chart), gives its nodes bit for bit, in node order; the
        # split radial rule changes the main disk's radii, which the patch
        # records as used
        if breakpoints:
            monkeypatch.setattr(numerics, "_radii",
                                _split_radii(breakpoints))
        bp = GRID_CURVES[name].branch_points
        g = build_surface_grid(bp, QuadratureConfig(surface_grid=(*grid,
                                                                  None)),
                               stagger)
        parts = []
        for patch in g.patches:
            th = 2 * np.pi * (np.arange(patch.n_ang) + patch.shift) \
                / patch.n_ang
            z = np.multiply.outer(patch.radii, np.exp(1j * th)).ravel()
            # the exterior chart is laid out about 0, then inverted
            parts.append(1.0 / (z + 0.0) + patch.center if patch.inverted
                         else z + patch.center)
        assert [p.inverted for p in g.patches] == [False] * (bp.size + 1) \
            + [True]
        assert all(p.center == g.center for p in g.patches[bp.size:])
        np.testing.assert_array_equal(np.concatenate(parts), g.nodes)

    @pytest.mark.parametrize("name", sorted(GRID_CURVES))
    def test_large_grid_matches_reference(self, name):
        bp = GRID_CURVES[name].branch_points
        cfg = QuadratureConfig(surface_grid=(192, 256, None))
        g = build_surface_grid(bp, cfg)
        ref = _reference_surface_grid(bp, cfg)
        np.testing.assert_array_equal(g.nodes, ref.nodes)
        np.testing.assert_array_equal(g.weights, ref.weights)

    @pytest.mark.parametrize("patch", [2, 6, 7],
                             ids=["branch-disk", "main-disk", "exterior-chart"])
    def test_node_on_branch_point_raises(self, patch, monkeypatch):
        self._check_moved_node_raises(patch, 0.0, monkeypatch)

    @pytest.mark.parametrize("patch", [2, 6, 7],
                             ids=["branch-disk", "main-disk", "exterior-chart"])
    def test_node_next_to_branch_point_raises(self, patch, monkeypatch):
        # 1e-13 from the branch point, below the 1e-12 * span threshold
        self._check_moved_node_raises(patch, 1e-13, monkeypatch)

    @staticmethod
    def _check_moved_node_raises(patch, offset, monkeypatch):
        # the grid's _polar_patch calls are the six branch disks, the main
        # disk and the exterior chart, in that order; one node of the
        # chosen patch moves onto a branch point, or offset from it: disk
        # 2's own, or branch point 4 (mu = 1 / (lambda - center) on the
        # exterior chart)
        bp = GRID_CURVES["generic"].branch_points
        cfg = QuadratureConfig(surface_grid=(6, 8, None))
        mu4 = 1.0 / (bp[4] + offset - bp.mean())
        onto = {2: bp[2] + offset, 6: bp[4] + offset, 7: mu4}[patch]
        polar_patch = numerics._polar_patch
        calls = []

        def moved(*args, **kwargs):
            pts, w = polar_patch(*args, **kwargs)
            if len(calls) % 8 == patch:
                pts[0] = onto
            calls.append(args)
            return pts, w

        monkeypatch.setattr(numerics, "_polar_patch", moved)
        for build in (build_surface_grid, _reference_surface_grid):
            with pytest.raises(SingularityOnGrid):
                build(bp, cfg)
        assert len(calls) == 16

    def test_radius_invariant(self):
        cfg = QuadratureConfig(surface_grid=(24, 32, 1.05))
        with pytest.raises(ValueError):
            build_surface_grid(HEX, cfg)

    def test_radius_check_follows_the_centre(self):
        # the check reads the branch points' distance from their centre,
        # not from 0: HEX moved to 5 + 5i builds HEX's grid moved, with
        # the automatic radius or an explicit one above span + 1 = 1.1,
        # and refuses 1.05 as for HEX itself
        moved = HEX + (5.0 + 5.0j)
        for radius in (None, 1.2):
            cfg = QuadratureConfig(surface_grid=(6, 8, radius))
            g, ref = build_surface_grid(moved, cfg), build_surface_grid(HEX,
                                                                        cfg)
            np.testing.assert_allclose(g.nodes - (5.0 + 5.0j), ref.nodes,
                                       rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(g.weights, ref.weights, rtol=1e-9)
        with pytest.raises(ValueError):
            build_surface_grid(moved, QuadratureConfig(surface_grid=(6, 8,
                                                                     1.05)))

    def test_grid_doubling_consistency(self):
        w = lambda lam: 1.0 / (1.0 + np.abs(lam) ** 4)
        f = lambda lam, sheet: 1.0
        c1 = QuadratureConfig(surface_grid=(24, 32, 2.0))
        c2 = QuadratureConfig(surface_grid=(48, 64, 2.0))
        v1 = integrate_surface(f, w, c1, branch_points=HEX)
        v2 = integrate_surface(f, w, c2, branch_points=HEX)
        assert abs(v1 - v2) < 5e-3 * abs(v2)

    def test_determinism(self):
        cfg = QuadratureConfig(surface_grid=(24, 32, 2.0))
        w = lambda lam: np.exp(-np.abs(lam))
        a = integrate_surface(lambda lam, s: np.sin(lam.real), w, cfg,
                              branch_points=HEX)
        b = integrate_surface(lambda lam, s: np.sin(lam.real), w, cfg,
                              branch_points=HEX)
        assert a == b
