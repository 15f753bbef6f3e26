import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from conespectra import bidiff, curveperiods, green
from conespectra.curveperiods import (
    SurfacePoint,
    _continue_sqrt,
    curve_from_json,
    curve_to_json,
    cycle_integral,
    make_curve,
    make_z5_curve,
    metric_area,
    metric_density,
    period_data,
)
from conespectra.errors import (
    BaseOnBranchPoint,
    DuplicateBranchPoints,
    NotABranchPoint,
)
from conespectra.numerics import (QuadratureConfig, build_surface_grid,
                                  gauss_legendre)

GENERIC_BP = [0.0, 1.0, 0.3 + 1.1j, -0.8 + 0.7j, -1.1 - 0.4j, 0.5 - 0.9j]


def _segment_clearance(curve, a, b):
    """Distance from segment [a, b] to the branch locus."""
    seg = b - a
    if seg == 0:
        return float(np.abs(a - curve.branch_points).min())
    t = np.clip(((curve.branch_points - a) / seg).real, 0.0, 1.0)
    return float(np.abs(a + t * seg - curve.branch_points).min())


def circle_path(center, radius, n=24, closed=True):
    th = np.linspace(0, 2 * np.pi, n + 1 if closed else n)
    return center + radius * np.exp(1j * th)


class TestConstruction:
    def test_z5_branch_points(self):
        c = make_z5_curve(0.0, 1.0)
        expect = np.concatenate([[0.0], np.exp(2j * np.pi * np.arange(5) / 5)])
        np.testing.assert_allclose(c.branch_points, expect, atol=1e-14)

    def test_base_sheet_value_squares_to_poly(self):
        c = make_curve(GENERIC_BP)
        assert abs(c.base_sheet_value ** 2 - c.poly(c.base_point)) < 1e-12 * abs(
            c.poly(c.base_point))

    def test_duplicate_branch_points(self):
        with pytest.raises(DuplicateBranchPoints):
            make_curve([0.0, 1.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DuplicateBranchPoints):
            make_curve([0.0, 1.0, 2.0, 3.0, 4.0])

    def test_base_on_branch_point(self):
        with pytest.raises(BaseOnBranchPoint):
            make_curve(GENERIC_BP, base=1.0)

    def test_surface_point(self):
        p = SurfacePoint(lam=0.5 + 0.5j, sheet=-1)
        assert (p.lam, p.sheet) == (0.5 + 0.5j, -1)
        assert SurfacePoint(lam=0.0).sheet == 1


class TestContinuation:
    """y continued along a polyline from the base point: the y_end of
    green.integrate_vector_path, here of a zero integrand."""

    def setup_method(self):
        self.curve = make_curve(GENERIC_BP)

    def continue_y(self, path):
        curve = self.curve
        return green.integrate_vector_path(
            curve.branch_points, [curve.base_point, *path],
            curve.base_sheet_value,
            lambda z, y: np.zeros(z.size))[2]

    def test_trivial_loop(self):
        path = list(circle_path(self.curve.base_point, 0.3)) + [
            self.curve.base_point]
        y = self.continue_y(path)
        assert abs(y - self.curve.base_sheet_value) < 1e-9 * abs(y)

    def test_single_branch_point_flips_sheet(self):
        loop = circle_path(0.0, 0.35)
        path = [0.35 + 0j] + list(loop) + [self.curve.base_point]
        y = self.continue_y(path)
        assert abs(y + self.curve.base_sheet_value) < 1e-9 * abs(y)

    def test_two_branch_points_restore_sheet(self):
        # 0 and 1 are both inside |lam - 0.5| = 0.62
        loop = circle_path(0.5, 0.62, n=48)
        path = [0.5 + 0.62j] + list(np.roll(loop, -12)) + [
            self.curve.base_point]
        y = self.continue_y(path)
        assert abs(y - self.curve.base_sheet_value) < 1e-8 * abs(y)

    def test_path_through_branch_point_rejected(self):
        # a vertex 1e-12 from branch point 1: the segment from it to 2.0
        # has that branch point's foot just inside it, under _blocked's
        # 1e-9 scale floor, so build_path detours.  The floor blocks no
        # foot at an end point, so a path still reaches the vertex
        a, b = 1.0 - 1e-12j, 2.0
        gaps = [float(np.abs(z - self.curve.branch_points).min())
                for z in (a, b)]
        assert green._blocked(self.curve, a, b, *gaps)[0].any()
        assert len(green.build_path(self.curve, a, b)) > 2
        assert green.build_path(self.curve, self.curve.base_point, a)[-1] == a

    def test_result_squares_to_poly(self):
        end = -2.0 + 0.1j
        y = self.continue_y([end])
        assert abs(y ** 2 - self.curve.poly(end)) < 1e-10 * abs(y) ** 2


coord = st.floats(min_value=-2.0, max_value=2.0)
unit = st.floats(min_value=0.0, max_value=1.0)
CURVES = {"z5": make_z5_curve(), "generic": make_curve(GENERIC_BP)}


def _stepped_sqrt(roots, a, val, targets):
    """Reference for curveperiods._continue_sqrt: the stepping tracker it
    replaced.  Targets are visited by distance from a; each step stays
    under 0.45 times the distance to the nearest root and snaps to
    +-cmath.sqrt(complex(np.prod(t - roots))) at its end."""
    targets = np.asarray(targets, dtype=complex)
    out = np.empty(targets.shape, dtype=complex)
    pos, val = complex(a), complex(val)
    order = np.argsort(np.abs(targets - pos))
    for i, target in zip(order.tolist(), targets[order].tolist()):
        while pos != target:
            cap = 0.45 * float(np.abs(pos - roots).min())
            rem = target - pos
            nxt = target if abs(rem) <= cap else pos + rem * (cap / abs(rem))
            val = val * cmath.sqrt(np.prod((nxt - roots) / (pos - roots)))
            exact = cmath.sqrt(complex(np.prod(nxt - roots)))
            val = exact if abs(val - exact) < abs(val + exact) else -exact
            pos = nxt
        out[i] = val
    return out


def _turn(roots, a, b):
    """The turn S = sum_r |Arg((b - r) / (a - r))| of the segments [a, b],
    which _continue_sqrt compares with _TURN_BOUND."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (np.asarray(b)[..., None] - roots) \
            / (np.asarray(a)[..., None] - roots)
    return np.abs(np.angle(ratio)).sum(axis=-1)


def _ratio_only():
    """Sends every segment through _continue_sqrt's ratio product."""
    return mock.patch.object(curveperiods, "_TURN_BOUND", 0.0)


def _turns_across_the_bound(roots, j):
    """Two segments about root j, from 0.3 to 0.4 away from it, whose
    turns S lie on either side of _TURN_BOUND and within a few ulps of
    it: bisection in the angle they sweep about the root."""
    r = complex(roots[j])
    a = r + 0.3

    def seg(phi):
        return a, r + 0.4 * cmath.exp(1j * phi)

    lo, hi = 0.0, math.pi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _turn(roots, *seg(mid)) < curveperiods._TURN_BOUND:
            lo = mid
        else:
            hi = mid
    return seg(lo), seg(hi)


def _assert_matches_stepping(curve, a, b, ts, sign):
    """The closed form equals the stepping reference bit for bit on the
    targets a + ts (b - a), given in the order of ts."""
    roots = curve.branch_points
    targets = a + np.asarray(ts) * (b - a)
    val = sign * cmath.sqrt(complex(np.prod(a - roots)))
    np.testing.assert_array_equal(_continue_sqrt(roots, a, b, val, targets),
                                  _stepped_sqrt(roots, a, val, targets))


class TestContinueSqrt:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(CURVES)), coord, coord, coord, coord,
           st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                    max_size=8),
           st.sampled_from([1, -1]))
    def test_exact_roots_and_path_consistency(self, name, ax, ay, bx, by,
                                              ts, sign):
        roots = CURVES[name].branch_points
        a, b = complex(ax, ay), complex(bx, by)
        seg = b - a
        assume(abs(seg) > 1e-3)
        t = np.clip(((roots - a) / seg).real, 0.0, 1.0)
        assume(np.abs(a + t * seg - roots).min() > 0.05)
        # the drawn targets, then a dense grid on which y must be continuous
        dense = np.linspace(0.0, 1.0, 2001)
        targets = a + np.concatenate([ts, dense]) * seg
        val = sign * cmath.sqrt(complex(np.prod(a - roots)))
        out = _continue_sqrt(roots, a, b, val, targets)
        for z, v in zip(targets, out):
            exact = cmath.sqrt(complex(np.prod(complex(z) - roots)))
            assert v == exact or v == -exact
        for z, v in zip(targets[:len(ts)], out):
            # one target at a time, each walked from a on its own
            assert _continue_sqrt(roots, a, b, val, [z])[0] == v
        line = out[len(ts):]
        assert line[0] == val
        assert (np.abs(np.diff(line)) < np.abs(line[1:] + line[:-1])).all()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(CURVES)), coord, coord, coord, coord,
           st.lists(unit, min_size=1, max_size=8), st.sampled_from([1, -1]))
    def test_matches_stepping_reference(self, name, ax, ay, bx, by, ts,
                                        sign):
        curve = CURVES[name]
        a, b = complex(ax, ay), complex(bx, by)
        assume(abs(b - a) > 1e-3)
        assume(_segment_clearance(curve, a, b) > 0.05)
        _assert_matches_stepping(curve, a, b, ts, sign)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(-2.0, -0.05), (0.05, 0.95), (1.05, 2.0)]),
           unit, unit, st.sampled_from([0.0, -0.0]),
           st.lists(unit, min_size=1, max_size=8), st.sampled_from([1, -1]))
    def test_matches_stepping_along_z5_real_axis(self, gap, sa, sb, im, ts,
                                                 sign):
        # the z5 branch points 0 and 1 lie on the real axis, so these
        # segments run along the principal cuts of their factors; gap is a
        # stretch of the axis at least 0.05 from both
        lo, hi = gap
        a = complex(lo + sa * (hi - lo), im)
        b = complex(lo + sb * (hi - lo), im)
        assume(abs(b - a) > 1e-3)
        _assert_matches_stepping(CURVES["z5"], a, b, ts, sign)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(CURVES)),
           st.lists(st.tuples(coord, coord, coord, coord,
                              st.sampled_from([1, -1])),
                    min_size=1, max_size=6),
           st.lists(unit, min_size=1, max_size=8))
    def test_array_of_starts_matches_scalar_calls(self, name, segs, ts):
        roots = CURVES[name].branch_points
        a = np.array([complex(ax, ay) for ax, ay, _, _, _ in segs])
        b = np.array([complex(bx, by) for _, _, bx, by, _ in segs])
        assume(np.abs(a[:, None] - roots).min() > 1e-3)
        val = np.array([s * cmath.sqrt(complex(np.prod(z - roots)))
                        for z, (*_, s) in zip(a, segs)])
        targets = a + np.asarray(ts)[:, None] * (b - a)    # (targets, starts)
        out = _continue_sqrt(roots, a, b, val, targets)
        assert out.shape == targets.shape
        for s in range(a.size):
            np.testing.assert_array_equal(
                out[:, s],
                _continue_sqrt(roots, complex(a[s]), complex(b[s]),
                               complex(val[s]), targets[:, s]))

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_targets_out_of_distance_order(self, name):
        ts = [0.9, 0.1, 1.0, 0.5, 0.0, 0.3, 0.7]
        _assert_matches_stepping(CURVES[name], -1.5 + 1.6j, 1.8 - 1.5j, ts, 1)

    @pytest.mark.parametrize("stagger", [0.0, 0.31])
    @pytest.mark.parametrize("grid", [(6, 8), (12, 16), (24, 32)])
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_rule_matches_ratio_on_tree_edges(self, name, grid, stagger):
        # the sign flips of the tree build and the lift to the Gauss nodes
        # of every edge; from (12, 16) on, every edge takes the sign rule.
        # On the (6, 8) grid the arcs of the exterior chart's three outer
        # rings join nodes 45 degrees apart seen from the branch points, a
        # turn of about 6 pi / 4, so those take the ratio product (with one
        # branch-disk edge on z5): 3.7-3.8% of the edges
        curve = CURVES[name]
        surface = build_surface_grid(
            curve.branch_points, QuadratureConfig(surface_grid=(*grid, None)),
            stagger=stagger)
        tree = green.build_surface_tree(curve, surface)
        kids = tree.order[1:]
        past = _turn(curve.branch_points, surface.nodes[tree.parent[kids]],
                     surface.nodes[kids]) >= curveperiods._TURN_BOUND
        assert past.any() == (grid == (6, 8)) and past.mean() < 0.05
        up = tree.parent[kids]
        zs = ((surface.nodes[up] + surface.nodes[kids]) / 2.0)[:, None] \
            + ((surface.nodes[kids] - surface.nodes[up]) / 2.0)[:, None] \
            * green._path_rule()[0][:green._NODES]

        def lift(t):
            # y at the Gauss nodes of every edge, from y_plus at its parent
            return _continue_sqrt(curve.branch_points, surface.nodes[up],
                                  surface.nodes[kids], t.y_plus[up], zs.T)

        with _ratio_only():
            ratio_tree = green.build_surface_tree(curve, surface)
            ratio_ys = lift(ratio_tree)
        for field in ("parent", "order", "y_plus"):
            np.testing.assert_array_equal(getattr(tree, field),
                                          getattr(ratio_tree, field))
        np.testing.assert_array_equal(lift(tree), ratio_ys)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(CURVES)), st.integers(0, 5),
           st.one_of(st.just(0.0), st.floats(0.02, 1.5)),
           st.floats(0.02, 1.5), st.floats(-np.pi, np.pi),
           st.floats(-np.pi, np.pi), st.lists(unit, min_size=1, max_size=8),
           st.sampled_from([1, -1]))
    # a small turn about the branch point, a turn past the bound, a start
    # on the branch point
    @example("generic", 1, 0.3, 0.4, 0.0, 0.5, [0.5, 1.0], 1)
    @example("generic", 1, 0.3, 0.4, 0.0, 3.0, [0.5, 1.0], 1)
    @example("z5", 0, 0.0, 0.4, 0.0, 1.0, [0.5, 1.0], -1)
    def test_rule_matches_ratio_across_the_bound(self, name, j, rho_a, rho_b,
                                                 phi, turn, ts, sign):
        # segments that turn by up to pi about branch point j, so their
        # turn S falls on either side of _TURN_BOUND; rho_a = 0 starts on
        # the branch point, where S is not finite
        curve = CURVES[name]
        roots = curve.branch_points
        a = complex(roots[j] + rho_a * cmath.exp(1j * phi))
        b = complex(roots[j] + rho_b * cmath.exp(1j * (phi + turn)))
        targets = a + np.asarray(ts) * (b - a)
        val = sign * cmath.sqrt(complex(np.prod(a - roots)))
        s = _turn(roots, a, b)
        event("start on a root" if not np.isfinite(s) else
              "sign rule" if s < curveperiods._TURN_BOUND else "ratio")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _continue_sqrt(roots, a, b, val, targets)
            with _ratio_only():
                np.testing.assert_array_equal(
                    out, _continue_sqrt(roots, a, b, val, targets))
        if np.isfinite(s) and _segment_clearance(curve, a, b) \
                > 0.05:
            _assert_matches_stepping(curve, a, b, ts, sign)

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_scalar_segment_matches_one_element_arrays(self, name):
        # one segment, as scalars or as 1-element arrays, takes its turn
        # in cmath and, below the bound, only the sign rule; the same
        # segment twice over, as 2-element arrays, takes the array path.
        # Seeded segments, segments whose turn lies just below and just
        # above _TURN_BOUND, and the loop_nodes segments
        curve = CURVES[name]
        roots = curve.branch_points
        rng = np.random.default_rng(14)
        cases = []
        for _ in range(40):
            a, b = rng.uniform(-2.0, 2.0, 2) + 1j * rng.uniform(-2.0, 2.0, 2)
            cases.append((roots, a, b, a + np.linspace(0.0, 1.0, 31)
                          * (b - a)))
        for j in range(roots.size):
            below, above = _turns_across_the_bound(roots, j)
            assert _turn(roots, *below) < curveperiods._TURN_BOUND \
                <= _turn(roots, *above)
            for a, b in (below, above):
                cases.append((roots, a, b, a + rng.uniform(0.0, 1.0, 31)
                              * (b - a)))
        order = curveperiods._angle_sorted(curve)
        for i in range(6):
            i0, i1 = order[i], order[(i + 1) % 6]
            rest = np.delete(roots, [i0, i1])
            # 160 and 1280 targets: both _root_product routes
            for panels in (16, 128):
                lams = curveperiods.loop_nodes(curve, i0, i1, panels)[0]
                cases.append((rest, lams[0], lams[-1], lams))
        for rts, a, b, targets in cases:
            for sign in (1, -1):
                val = sign * cmath.sqrt(complex(np.prod(a - rts)))
                got = _continue_sqrt(rts, a, b, val, targets)
                one = _continue_sqrt(rts, np.array([a]), np.array([b]),
                                     np.array([val]), targets[:, None])
                ref = _continue_sqrt(rts, np.array([a, a]), np.array([b, b]),
                                     np.array([val, val]),
                                     np.stack([targets, targets], axis=1))
                assert got.shape == targets.shape
                np.testing.assert_array_equal(got, ref[:, 0])
                np.testing.assert_array_equal(one, ref[:, :1])

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_loop_segments_on_both_sides_of_the_bound(self, name):
        # period_data's pair loops: on both curves some turn past the
        # bound and take the ratio product, the others the sign rule
        curve = CURVES[name]
        order = curveperiods._angle_sorted(curve)
        past = []
        for i in range(6):
            i0, i1 = order[i], order[(i + 1) % 6]
            lams, _, y_plus = curveperiods.loop_nodes(curve, i0, i1)
            rest = np.delete(curve.branch_points, [i0, i1])
            past.append(_turn(rest, lams[0], lams[-1])
                        >= curveperiods._TURN_BOUND)
            with _ratio_only():
                np.testing.assert_array_equal(
                    y_plus, curveperiods.loop_nodes(curve, i0, i1)[2])
            if past[-1]:
                g0 = cmath.sqrt(complex(np.prod(lams[0] - rest)))
                np.testing.assert_array_equal(
                    _continue_sqrt(rest, lams[0], lams[-1], g0, lams),
                    _stepped_sqrt(rest, lams[0], g0, lams))
        assert any(past) and not all(past)


@st.composite
def probe_points(draw, roots):
    """A point with |lambda| up to 1e3, or one 1e-12 to 1e-6 from a root."""
    turn = cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    if draw(st.booleans()):
        return draw(st.floats(0.0, 1e3)) * turn
    root = roots[draw(st.integers(0, roots.size - 1))]
    return root + 10.0 ** draw(st.floats(-12.0, -6.0)) * turn


class TestRootProduct:
    """Curve.poly's bulk route, curveperiods._real_product, against the
    np.prod reduction it replaced."""

    @staticmethod
    def _assert_same_bits(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(CURVES)),
           st.sampled_from([(), (1,), (7,), (33,), (1, 2), (16, 2)]),
           st.data())
    def test_equals_np_prod(self, name, shape, data):
        curve = CURVES[name]
        roots = curve.branch_points
        n = int(np.prod(shape))
        z = np.array(data.draw(st.lists(probe_points(roots), min_size=n,
                                        max_size=n)), dtype=complex)
        z = z.reshape(shape)
        want = np.prod(z[..., None] - roots, axis=-1)
        self._assert_same_bits(curveperiods._real_product(z, roots), want)
        self._assert_same_bits(curve.poly(z), want)
        # past _BULK_POINTS, Curve.poly takes the real route itself
        big = np.resize(z, (curveperiods._BULK_POINTS + 1,) + shape[1:])
        self._assert_same_bits(
            curve.poly(big), np.prod(big[..., None] - roots, axis=-1))

    @pytest.mark.parametrize("grid", [(24, 32, None), (48, 64, None)])
    @pytest.mark.parametrize("cone_point", [0, 3])
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_metric_area_equals_two_sheet_prod(self, name, cone_point,
                                                grid):
        # the area as it was summed before: np.prod density, both sheets
        curve = CURVES[name]
        cfg = QuadratureConfig(surface_grid=grid)
        surface = build_surface_grid(curve.branch_points, cfg)
        lam = surface.nodes
        dens = np.abs(lam - curve.branch_points[cone_point]) ** 2 \
            / np.abs(np.prod(lam[:, None] - curve.branch_points, axis=-1))
        one = np.asarray(1.0, dtype=complex)
        total = 0.0 + 0.0j
        for _ in (+1, -1):
            total += np.sum(one * dens * surface.weights)
        assert metric_area(curve, cone_point, cfg) == total.real


def _direct_loop_nodes(curve, i0, i1, panels):
    """loop_nodes with its panel rule built in place on every call."""
    e0, e1 = curve.branch_points[i0], curve.branch_points[i1]
    rest = np.delete(curve.branch_points, [i0, i1])
    mid, half = (e0 + e1) / 2.0, (e1 - e0) / 2.0
    xg, wg = gauss_legendre(10)
    edges = np.linspace(-np.pi / 2, np.pi / 2, panels + 1)
    thetas = np.concatenate(
        [(a + b) / 2 + (b - a) / 2 * xg for a, b in zip(edges[:-1], edges[1:])])
    weights = np.concatenate(
        [(b - a) / 2 * wg for a, b in zip(edges[:-1], edges[1:])])
    lams = mid + half * np.sin(thetas)
    g0 = cmath.sqrt(complex(np.prod(lams[0] - rest)))
    gs = _continue_sqrt(rest, lams[0], lams[-1], g0, lams)
    y_plus = 1j * half * np.cos(thetas) * gs
    w = weights * half * np.cos(thetas)
    return lams, w, y_plus


class TestLoopNodes:
    @pytest.mark.parametrize("panels", [16, 24, 32, 64, 128])
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_equals_direct_formula(self, name, panels):
        curve = CURVES[name]
        order = curveperiods._angle_sorted(curve)
        for i in range(6):
            i0, i1 = order[i], order[(i + 1) % 6]
            for got, ref in zip(curveperiods.loop_nodes(curve, i0, i1, panels),
                                _direct_loop_nodes(curve, i0, i1, panels)):
                np.testing.assert_array_equal(got, ref)

    def test_cached_panel_rule_refuses_writes(self):
        rule = curveperiods._loop_panels(16)
        assert curveperiods._loop_panels(16)[0] is rule[0]
        for a in rule:
            with pytest.raises(ValueError):
                a[0] = a[0]  # the same value: a failing check corrupts nothing


class TestPeriodData:
    def setup_method(self):
        self.curve = make_z5_curve()
        self.pd = period_data(self.curve, 0)

    def test_period_matrix_symmetric(self):
        assert np.abs(self.pd.Bmat - self.pd.Bmat.T).max() < 1e-8

    def test_imaginary_part_positive_definite(self):
        eig = np.linalg.eigvalsh(self.pd.Bmat.imag)
        assert eig.min() > 0

    def test_a_period_normalization(self):
        np.testing.assert_allclose(self.pd.C @ self.pd.A, np.eye(2), atol=1e-8)

    def test_area_positive_and_stable(self):
        # the bilinear area against the surface integral on a fine grid
        fine = QuadratureConfig(surface_grid=(192, 256, None))
        for curve, cone_point in ((self.curve, 0),
                                  (make_curve(GENERIC_BP), 2)):
            area = period_data(curve, cone_point).area
            assert area > 0
            ref = metric_area(curve, cone_point, fine)
            assert abs(area - ref) < 1e-6 * ref

    def test_area_computed_on_first_read(self, monkeypatch):
        # read off the periods: neither period_data nor reading the area
        # integrates over the surface
        calls = []
        monkeypatch.setattr(curveperiods, "integrate_surface",
                            lambda *args, **kwargs: calls.append(args))
        pd = period_data(self.curve, 0)
        area = pd.area
        assert pd.area == area
        assert calls == []

    def test_metric_density_blocks(self):
        # more than three row blocks: each row's value is the unblocked
        # formula's, whatever the block and the input shape
        lam = build_surface_grid(self.curve.branch_points,
                                 QuadratureConfig(surface_grid=(48, 64, None))
                                 ).nodes
        assert lam.size > 3 * curveperiods._DENSITY_ROWS
        lam_p = self.curve.branch_points[0]
        dense = np.abs(lam - lam_p) ** 2 / np.abs(self.curve.poly(lam))
        dens = metric_density(self.curve, lam_p, lam)
        np.testing.assert_array_equal(dens, dense)
        np.testing.assert_array_equal(
            metric_density(self.curve, lam_p, lam.reshape(-1, 2)),
            dense.reshape(-1, 2))
        assert metric_density(self.curve, lam_p, lam[5]) == dense[5]

    def test_alternative_basis_agrees_on_invariants(self):
        alt = period_data(self.curve, 0, basis="alt")
        # different matrices, same Riemann-gated structure and same area
        assert np.abs(alt.Bmat - alt.Bmat.T).max() < 1e-8
        assert np.linalg.eigvalsh(alt.Bmat.imag).min() > 0
        assert abs(alt.area - self.pd.area) < 1e-10

    def test_regression_against_refined_run(self):
        fine = period_data(self.curve, 0, panels=64)
        assert np.abs(fine.Bmat - self.pd.Bmat).max() < 1e-7

    def test_generic_curve(self):
        pd = period_data(make_curve(GENERIC_BP), 0)
        assert np.abs(pd.Bmat - pd.Bmat.T).max() < 1e-8
        assert np.linalg.eigvalsh(pd.Bmat.imag).min() > 0

    def test_pi_contains_ab_periods(self):
        np.testing.assert_allclose(self.pd.Pi[:2], self.pd.A, atol=1e-12)

    def test_cone_point_validation(self):
        with pytest.raises(NotABranchPoint):
            period_data(self.curve, 7)


class TestNormalizedDifferentials:
    """BidiffModel.v_values, the one evaluator of v = C (omega_1,
    omega_2) / dlambda."""

    @staticmethod
    def _model(curve):
        return bidiff.normalize_bidifferential(curve, period_data(curve, 0))

    def test_a_periods_are_kronecker(self):
        # cycle_integral over the stored a-cycles gives the identity, on
        # a curve with symmetry and on one without
        for curve in (make_z5_curve(), make_curve(GENERIC_BP)):
            model = self._model(curve)
            per = np.array([[cycle_integral(
                model.periods, "a", beta,
                lambda lams, y, a=alpha: model.v_values(lams, y)[:, a])
                for beta in range(2)] for alpha in range(2)])
            assert np.abs(per - np.eye(2)).max() < 1e-12

    def test_parity_at_branch_point(self):
        # v expanded in zeta = sqrt(lam - e_j) has only even powers: v on the
        # two sheets at equal lam agrees near the branch point after the
        # involution, i.e. v(zeta) dzeta is even <=> v/dlam odd in y
        curve = make_z5_curve()
        model = self._model(curve)
        lam = np.array([curve.branch_points[2] + 1e-3 * np.exp(0.7j)])
        up = model.v_values(lam, curve.y_at(lam, 1))
        dn = model.v_values(lam, curve.y_at(lam, -1))
        np.testing.assert_allclose(up, -dn, rtol=1e-12)


class TestSingularDifferential:
    def setup_method(self):
        self.curve = make_z5_curve()

    @staticmethod
    def _omega_dzeta(curve, zeta):
        # local branch y = zeta * sqrt(prod(lam - rest)) near the branch
        # point at 0; omega/dzeta = (lam/y) (dlam/dzeta) = 2 zeta^2 / g
        lam = zeta ** 2
        rest = curve.branch_points[1:]
        g = np.sqrt(np.prod(lam[..., None] - rest, axis=-1))
        return 2.0 * zeta ** 2 / g

    def test_double_zero_in_local_parameter(self):
        zeta = 1e-4 * np.exp(1j * np.linspace(0, 2 * np.pi, 8, endpoint=False))
        lead = self._omega_dzeta(self.curve, zeta) / zeta ** 2
        assert np.abs(lead).min() > 0.1
        assert np.abs(lead - lead.mean()).max() < 1e-6 * abs(lead.mean())

    def test_z5_expansion_gap(self):
        # next correction after zeta^2 appears at zeta^12: the ratio
        # (omega/dzeta)/(c zeta^2) deviates from 1 by O(zeta^10)
        zs = np.array([1e-3])
        c = complex(self._omega_dzeta(self.curve, zs)[0]) / 1e-6
        for r in (1e-1, 5e-2):
            zeta = np.array([r * np.exp(0.3j)])
            val = complex(self._omega_dzeta(self.curve, zeta)[0])
            dev = abs(val / (c * zeta[0] ** 2) - 1)
            assert dev < 5 * r ** 10


class TestSerialization:
    def test_roundtrip_generic(self):
        c = make_curve(GENERIC_BP)
        obj = curve_to_json(c, 3)
        c2, cp = curve_from_json(obj)
        assert cp == 3
        np.testing.assert_allclose(c2.branch_points, c.branch_points)

    def test_z5_form(self):
        c, cp = curve_from_json({"z5": {"lambda1": [0.0, 0.0], "r": 1.0},
                                 "cone_point": 0})
        np.testing.assert_allclose(sorted(np.abs(c.branch_points))[1:], 1.0)
        assert cp == 0
