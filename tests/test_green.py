"""Third-kind differentials, the Roelcke Green function, and the special
growing solutions at the cone point."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    CoincidentPoles,
    ConeArgument,
    FitIllConditioned,
    GridTooCoarse,
    NonConvergence,
    StepTooSmall,
)
from conespectra.numerics import QuadratureConfig, build_surface_grid

GENERIC_BP = [0.0, 1.0, 0.3 + 1.1j, -0.8 + 0.7j, -1.1 - 0.4j, 0.5 - 0.9j]


def build_model(branch_points, cone_point):
    curve = (make_curve(branch_points)
             if not isinstance(branch_points, tuple)
             else make_z5_curve(*branch_points))
    pd = period_data(curve, cone_point, QuadratureConfig())
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


class TestThirdKind:
    def test_residues(self, z5):
        model, _ = z5
        p = SurfacePoint(0.4 + 0.9j, 1)
        q = SurfacePoint(-0.7 - 0.2j, -1)
        form = green.third_kind_form(model, p, q)
        n = 32
        curve = model.curve
        for pole, y_pole, want in ((p, form.y_p, 1.0), (q, form.y_q, -1.0)):
            r = 0.04
            z = pole.lam + r * np.exp(2j * np.pi * np.arange(n) / n)
            cand = complex(curve.y_at(np.asarray(z[0], complex), 1))
            y = cand if abs(cand - y_pole) < abs(cand + y_pole) else -cand
            ys = np.empty(n, dtype=complex)
            for k in range(n):
                ys[k] = y
                y = green._continue_to(curve, z[k], y, z[(k + 1) % n])
            vals = form.values(z, ys) * (z - pole.lam)
            res = vals.mean()
            assert abs(res - want) < 1e-6

    def test_imaginary_periods(self, z5):
        model, _ = z5
        form = green.third_kind_form(model, SurfacePoint(0.4 + 0.9j, 1),
                                     SurfacePoint(-0.7 - 0.2j, -1))
        for kind in ("a", "b"):
            for idx in (0, 1):
                per = cycle_integral(model.periods, kind, idx, form.values)
                assert abs(per.real) < 1e-6, (kind, idx)

    def test_coincident_poles(self, z5):
        model, _ = z5
        p = SurfacePoint(0.4 + 0.9j, 1)
        with pytest.raises(CoincidentPoles):
            green.third_kind_form(model, p, p)

    def test_reciprocity(self, z5):
        # Re int_S^R Omega_{P-Q} = Re int_Q^P Omega_{R-S}
        model, _ = z5
        curve = model.curve
        pts = [SurfacePoint(z, s) for z, s in
               ((0.4 + 0.9j, 1), (-0.7 - 0.2j, -1),
                (1.3 + 0.4j, 1), (-0.2 + 1.4j, 1))]
        P, Q, R, S = pts

        def re_int(form, frm, to):
            y0 = complex(curve.y_at(np.asarray(frm.lam, complex), frm.sheet))
            verts = green.build_path(curve, frm.lam, to.lam)
            val, _, y_end = green.integrate_vector_path(
                curve, verts, y0, lambda z, y: form.values(z, y)[:, None])
            y_t = complex(curve.y_at(np.asarray(to.lam, complex), to.sheet))
            if abs(y_end - y_t) > abs(y_end + y_t):
                loop = green._flip_loop(curve, to.lam)
                tail, _, _ = green.integrate_vector_path(
                    curve, loop, y_end,
                    lambda z, y: form.values(z, y)[:, None])
                val = val + tail
            return float(val[0].real)

        lhs = re_int(green.third_kind_form(model, P, Q), S, R)
        rhs = re_int(green.third_kind_form(model, R, S), Q, P)
        assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(lhs))

    def test_empty_path_rejected(self, z5):
        model, _ = z5
        with pytest.raises(NonConvergence):
            green.integrate_vector_path(model.curve, [0.4 + 0.9j],
                                        1.0, lambda z, y: z[:, None])

    def test_spent_budget_raises(self, z5):
        # an interior inverse-square-root singularity needs more than two
        # bisections; the estimate must not be accepted silently
        model, _ = z5
        a, b = -1.5 + 1.4j, 1.5 + 1.4j
        c = a + 0.371 * (b - a)
        y0 = complex(model.curve.y_at(np.asarray(a, complex)))
        with pytest.raises(NonConvergence):
            green.integrate_vector_path(
                model.curve, [a, b], y0,
                lambda z, y: (np.abs(z - c) ** -0.5)[:, None], budget=2)


CURVES = {"z5": make_z5_curve(0.0, 1.0), "generic": make_curve(GENERIC_BP)}


def _surface_grid(name, grid, stagger):
    return build_surface_grid(CURVES[name].branch_points,
                              QuadratureConfig(surface_grid=(*grid, None)),
                              stagger=stagger)


def _reference_tree(curve, grid):
    """Reference for green.build_surface_tree: the per-node parent search
    and chained segment-by-segment sheet continuation it replaced."""
    lam = grid.nodes
    n = lam.size
    root = int(np.argmax(np.abs(lam - grid.center)))
    parent = np.full(n, -1, dtype=int)
    visited = np.zeros(n, dtype=bool)
    visited[root] = True
    order = [root]
    todo = sorted(range(n), key=lambda i: (abs(lam[i] - lam[root]), i))
    for i in todo:
        if visited[i]:
            continue
        vi = np.flatnonzero(visited)
        d = np.abs(lam[vi] - lam[i])
        for j in vi[np.argsort(d, kind="stable")[:16]]:
            clr = curveperiods._segment_clearance(curve, lam[j], lam[i])
            floor = 0.3 * min(
                float(np.abs(lam[i] - curve.branch_points).min()),
                float(np.abs(lam[j] - curve.branch_points).min()))
            if clr >= min(floor, curve.min_gap / 4.0) \
                    and clr > 1e-9 * curve.scale:
                parent[i] = j
                break
        else:
            parent[i] = int(vi[np.argmin(d)])
        visited[i] = True
        order.append(i)
    y_plus = np.empty(n, dtype=complex)
    y_plus[root] = green._continue_to(curve, curve.base_point,
                                      curve.base_sheet_value, lam[root])
    for i in order[1:]:
        y_plus[i] = green._continue_to(curve, lam[parent[i]],
                                       y_plus[parent[i]], lam[i])
    return parent, np.asarray(order), y_plus, root


def _reference_accumulate(curve, tree, f, k, tol, budget):
    """Reference for accumulate_tree's edges: one integrate_vector_path per
    edge.  Returns the cumulative values and, per node, the summed error
    of the edges on its path from the root."""
    lam = tree.grid.nodes
    vals = np.zeros((lam.size, k), dtype=complex)
    path_err = np.zeros(lam.size)
    for i in tree.order[1:]:
        j = tree.parent[i]
        v, e, _ = green.integrate_vector_path(
            curve, [lam[j], lam[i]], tree.y_plus[j], f, tol=tol,
            budget=budget)
        vals[i] = vals[j] + v
        path_err[i] = path_err[j] + e
    return vals, path_err


class TestSurfaceTree:
    @pytest.mark.parametrize("stagger", [0.0, 0.31])
    @pytest.mark.parametrize("grid", [(6, 8), (12, 16)])
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_matches_reference_tree(self, name, grid, stagger):
        curve = CURVES[name]
        g = _surface_grid(name, grid, stagger)
        tree = green.build_surface_tree(curve, g)
        parent, order, y_plus, root = _reference_tree(curve, g)
        assert tree.root == root
        np.testing.assert_array_equal(tree.parent, parent)
        np.testing.assert_array_equal(tree.order, order)
        np.testing.assert_array_equal(tree.y_plus, y_plus)

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
            calls.append(kwargs.get("budget"))
            return per_path(*args, **kwargs)

        monkeypatch.setattr(green, "integrate_vector_path", counted)
        vals, _, err, node_err = green.accumulate_tree(
            curve, tree, green._moment_integrand, 5, tol=tol)
        gap = np.abs(vals - ref).max(axis=1)
        bound = path_err + 1e-13 * np.abs(ref).max(axis=1)
        assert (gap <= bound).all(), int(np.argmax(gap - bound))
        assert err >= path_err.max()
        # per-node errors: the same edges' gaps (to their rounding) summed
        # along the root path; the other sheet adds the flip-loop error
        np.testing.assert_allclose(node_err[:, 0], path_err, rtol=1e-3,
                                   atol=1e-11)
        flip_err = node_err[:, 1] - node_err[:, 0]
        assert flip_err.min() > 0
        np.testing.assert_allclose(flip_err, flip_err[tree.root], rtol=1e-12)
        assert err >= node_err[:, 1].max()
        if tol == 1e-12:
            # the sheet connector plus at least one edge that fell back
            assert calls.count(30) >= 1 and calls.count(200) == 1

    def test_spent_edge_budget_raises(self):
        curve = CURVES["z5"]
        tree = green.build_surface_tree(curve, _surface_grid("z5", (6, 8),
                                                             0.31))
        with pytest.raises(NonConvergence):
            green.accumulate_tree(curve, tree, green._moment_integrand, 5,
                                  tol=1e-12, budget=0)

    def test_log_potential_blocks(self, ctx):
        # more than three row blocks; each point's value must not depend
        # on the block it is evaluated in
        pts = ctx.p_grid.nodes[:3 * green._POTENTIAL_ROWS + 5]
        block = ctx.log_potential(pts)
        single = np.array([ctx.log_potential(z) for z in pts])
        np.testing.assert_array_equal(block, single)
        assert isinstance(ctx.log_potential(complex(pts[0])), float)
        assert ctx.log_potential(pts.reshape(-1, 1)).shape == (pts.size, 1)
        # the dense formula it replaced, bump on every pair
        r = np.abs(pts[:, None] - ctx.q_grid.nodes)
        eps = ctx.moll_radius
        assert (r < eps).any(axis=1).all()
        u = np.minimum((r / eps) ** 2, 1.0)
        inside = (4.0 * u - 4.5 * u ** 2 + (8.0 / 3.0) * u ** 3
                  - 0.625 * u ** 4) - 37.0 / 24.0 + np.log(eps)
        phi = np.where(r >= eps, np.log(np.maximum(r, 1e-300)), inside)
        dense = -(ctx.cauchy_w * phi).sum(axis=-1) / ctx.area
        np.testing.assert_array_equal(block, dense)

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
        green.special_solution_means(c)
        assert built == [c.q_grid]
        solvers = [green.GreenSolver(c, SurfacePoint(z, 1))
                   for z in (0.9 + 1.3j, -0.7 + 0.4j)]
        assert built == [c.q_grid, c.p_grid]
        assert all(s.p_tree is c.p_tree for s in solvers)


def _reference_u_at(solver, x):
    """Reference for GreenSolver.u_at: the integral from the p-tree root
    along build_path, then around a flip loop if the path arrives on the
    other sheet, plus log_potential at x."""
    tree = solver.p_tree

    def harm(zs, ys):
        return solver.ctx.harm_values(solver.y, solver.y_val, solver.pcoef,
                                      zs, ys)[:, None]

    val, err = green._integrate_to(solver.ctx.curve,
                                   tree.grid.nodes[tree.root],
                                   tree.y_plus[tree.root], x, harm)
    t_x = float(solver.ctx.log_potential(np.asarray(x.lam, complex)))
    return float(val[0].real) + t_x, err


def _tree_sheet(curve, tree, i):
    """Reference sheet (+1 or -1) of the tree continuation at node i."""
    lam = complex(tree.grid.nodes[i])
    ref = complex(curve.y_at(np.asarray(lam), 1))
    return 1 if abs(tree.y_plus[i] - ref) < abs(tree.y_plus[i] + ref) else -1


def _real_period_defect(sol):
    """Sum of |Re| of the a- and b-periods of the computed averaged form.

    They vanish in theory and are about 1e-11 in practice, so Re u
    changes by up to this much between two routes to the same point,
    which no quadrature estimate counts."""
    def harm(lam, ys):
        return sol.ctx.harm_values(sol.y, sol.y_val, sol.pcoef, lam, ys)

    periods = sol.ctx.model.periods
    return sum(abs(curveperiods.cycle_integral(periods, kind, i, harm).real)
               for kind in "ab" for i in (0, 1))


@pytest.fixture(scope="module")
def read_solvers(z5, solver, generic):
    """GreenSolvers on z5 and the generic curve at grids (6,8), (12,16),
    each with its _real_period_defect."""
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
    return {k: (sol, _real_period_defect(sol)) for k, sol in sols.items()}


GREEN_QUERY_REFERENCE = (Path(__file__).resolve().parents[1] / "stagebench"
                         / "reference" / "green_query.json")


class TestGreenRead:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)),
           grid=st.sampled_from([(6, 8), (12, 16)]),
           near=st.sampled_from(["branch", "cone", "y", "free"]),
           index=st.integers(0, 5),
           r=st.floats(1e-4, 0.05),
           phase=st.floats(0.0, 2.0 * np.pi),
           free=st.tuples(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6)),
           sheet=st.sampled_from([1, -1]))
    def test_matches_root_path(self, read_solvers, name, grid, near, index,
                               r, phase, free, sheet):
        # the nearest-node start against the root path it replaced, on
        # both sheets and near the singular points of the integrand; the
        # two routes differ by a cycle, so by up to the period defect
        sol, defect = read_solvers[name, grid]
        assert defect < 1e-9
        centre = {"branch": sol.ctx.curve.branch_points[index],
                  "cone": sol.ctx.frame.lam_p, "y": sol.y.lam,
                  "free": complex(*free)}[near]
        x = SurfacePoint(complex(centre) + r * np.exp(1j * phase), sheet)
        u, err = sol.u_at(x)
        u_ref, err_ref = _reference_u_at(sol, x)
        assert abs(u - u_ref) <= err + err_ref + defect + 1e-12

    def test_p_node_needs_no_path(self, ctx, solver, monkeypatch):
        calls = []
        monkeypatch.setattr(green, "integrate_vector_path",
                            lambda *a, **k: calls.append(a))
        tree = solver.p_tree
        for i in (0, tree.root, ctx.p_grid.n_nodes // 2):
            lam = complex(ctx.p_grid.nodes[i])
            s = _tree_sheet(ctx.curve, tree, i)
            u, err = solver.u_at(SurfacePoint(lam, s))
            assert u == solver.u_plus[i] and err == solver.node_err[i, 0]
            u, err = solver.u_at(SurfacePoint(lam, -s))
            assert u == solver.u_minus[i] and err == solver.node_err[i, 1]
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
        short = []
        path = green.integrate_vector_path

        def recorded(*args, **kwargs):
            out = path(*args, **kwargs)
            short.append(out[1])
            return out

        monkeypatch.setattr(green, "integrate_vector_path", recorded)
        tree_part = sol.tree_err / max(1.0, ctx.area)
        for re_x, im_x, sheet, value, _ in ref["pool"]:
            short.clear()
            g = sol.green(SurfacePoint(complex(re_x, im_x), int(sheet)))
            assert len(short) == 1
            bar = (short[0] + tree_part) / (2.0 * np.pi) + 1e-12
            assert abs(g.value - value) <= bar, (re_x, im_x, sheet)
            assert g.error_estimate + 1e-12 >= bar


class TestRoelckeGreen:
    def test_symmetry(self, ctx, solver):
        x = SurfacePoint(-0.7 + 0.4j, 1)
        g_xy = solver.green(x).value
        g_yx = green.GreenSolver(ctx, x).green(solver.y).value
        assert abs(g_xy - g_yx) < 1e-2

    def test_tree_values_match_path_integrals(self, ctx, solver):
        # u_plus / u_minus hold u at the tree sheet and at the other one;
        # the tree sheet is read off y_plus, not assumed to be sheet +1
        tree = solver.p_tree
        nodes = [i for i in np.linspace(0, ctx.p_grid.n_nodes - 1, 9,
                                        dtype=int) if i != tree.root][:8]
        for i in nodes:
            lam = complex(ctx.p_grid.nodes[i])
            s = _tree_sheet(ctx.curve, tree, i)
            assert abs(solver.u_plus[i]
                       - _reference_u_at(solver, SurfacePoint(lam, s))[0]) \
                < 1e-8, i
            assert abs(solver.u_minus[i]
                       - _reference_u_at(solver, SurfacePoint(lam, -s))[0]) \
                < 1e-8, i

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

    def test_coincident_arguments(self, solver):
        with pytest.raises(CoincidentArguments):
            solver.green(solver.y)

    def test_cone_second_argument_rejected(self, ctx):
        with pytest.raises(ConeArgument):
            green.GreenSolver(ctx, SurfacePoint(ctx.frame.lam_p, 1))

    def test_bounded_at_cone(self, solver):
        gp, err = solver.green_at_cone()
        assert np.isfinite(gp)
        assert abs(gp) < 10.0
        assert err < 1e-3

    def test_one_shot_matches_solver(self, z5):
        model, frame = z5
        cfg = QuadratureConfig(surface_grid=(6, 8, None))
        x = SurfacePoint(-0.7 + 0.4j, 1)
        y = SurfacePoint(0.9 + 1.3j, 1)
        one = green.roelcke_green(model, frame, x, y, cfg)
        sol = green.GreenSolver(green.green_context(model, frame, cfg), y)
        assert one.value == sol.green(x).value


class TestSpecialSolutions:
    def test_means_vanish(self, ctx):
        m1, m2 = green.special_solution_means(ctx)
        assert abs(m1) < 1e-6
        assert abs(m2) < 1e-6

    def test_conjugate_is_conjugate(self, ctx):
        y = SurfacePoint(0.9 + 1.3j, 1)
        v = green.special_solution_zero(ctx, 1, y)
        vc = green.special_solution_conjugate(ctx, 1, y)
        assert vc == np.conj(v)

    def test_grid_matches_pointwise(self, ctx):
        (g1p, _), (g2p, _), _ = green.special_solution_grid(ctx)
        i = int(np.argmin(np.abs(ctx.q_grid.nodes - (0.8 + 0.8j))))
        pt = SurfacePoint(complex(ctx.q_grid.nodes[i]), 1)
        assert abs(g1p[i] - green.special_solution_zero(ctx, 1, pt)) < 1e-8
        assert abs(g2p[i] - green.special_solution_zero(ctx, 2, pt)) < 1e-8

    def test_order_validation(self, ctx):
        with pytest.raises(ValueError):
            green.special_solution_zero(ctx, 3, SurfacePoint(0.9 + 1.3j, 1))

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


class TestGHol:
    def test_hermitian(self, ctx):
        x = SurfacePoint(-0.7 + 0.4j, 1)
        y = SurfacePoint(0.9 + 1.3j, -1)
        gxy = green.g_hol(ctx, x, y)
        gyx = green.g_hol(ctx, y, x)
        assert np.isfinite(gxy)
        assert abs(gxy - np.conj(gyx)) < 1e-10 * max(1.0, abs(gxy))

    def test_coarse_grid_rejected(self, z5):
        model, frame = z5
        tiny = green.green_context(
            model, frame, QuadratureConfig(surface_grid=(2, 3, None)))
        with pytest.raises(GridTooCoarse):
            green.g_hol(tiny, SurfacePoint(-0.7 + 0.4j, 1),
                        SurfacePoint(0.9 + 1.3j, 1))


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
