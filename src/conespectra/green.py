"""Surface Green-function machinery: third-kind differentials, the
Roelcke double-quadrature Green function, special growing solutions at
lambda = 0, the regularized log entry, and cross-checks against the
Bergman kernel.

Everything reduces to one closed-form kernel. With the exact
antiderivative A(z,t) = (y_z + y_t) / (2 y_z (lambda_z - lambda_t)) and
the residue polynomial Q of the raw bidifferential,

    Omega_{p-q}(z) / dlambda = A(z,p) - A(z,q) + P(lambda_z) / y_z,

where the degree-4 polynomial P is linear in the moment vector
M = int_q^p lambda^k dlambda / y (k = 0..4).  Averaging over a surface
grid in q therefore only needs the weighted average of M, and the grid
sum of the A terms collapses to one real-weighted Cauchy sum because
the sheet-odd part cancels between the two sheets of each node.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ._core import third_kind_values
from .bidiff import BidiffModel, DistinguishedFrame, bergman_kernel
from .curveperiods import (Curve, SurfacePoint, _continue_sqrt,
                           metric_density)
from .errors import (
    CoincidentArguments,
    CoincidentPoles,
    ConeArgument,
    ConsistencyFailure,
    FitIllConditioned,
    GridTooCoarse,
    PathTooCloseToBranchPoint,
    StepTooSmall,
)
from .numerics import (QuadratureConfig, _embedded_gauss, build_surface_grid,
                       gauss_legendre, integrate_path)


# ---------------------------------------------------------------------------
# sheet-aware path construction and integration
# ---------------------------------------------------------------------------

def build_path(curve, lam_from, lam_to, clearance=None, depth=0):
    """Polyline from lam_from to lam_to keeping the stated clearance from
    every branch point; endpoints themselves may sit closer."""
    a, b = complex(lam_from), complex(lam_to)
    if clearance is None:
        clearance = curve.min_gap / 4.0
    if depth > 12:
        raise PathTooCloseToBranchPoint(
            f"could not route a path {lam_from} -> {lam_to}")
    seg = b - a
    if seg == 0:
        return [a]
    t = np.clip(((curve.branch_points - a) / seg).real, 0.0, 1.0)
    feet = a + t * seg
    d = np.abs(feet - curve.branch_points)
    ok = (d >= clearance) | (np.abs(curve.branch_points - a) < clearance) \
        | (np.abs(curve.branch_points - b) < clearance)
    if ok.all():
        return [a, b]
    j = int(np.argmin(np.where(ok, np.inf, d)))
    bp = curve.branch_points[j]
    away = feet[j] - bp
    if abs(away) < 1e-12 * curve.scale:
        away = 1j * seg / abs(seg)
    detour = bp + away / abs(away) * 2.0 * clearance
    left = build_path(curve, a, detour, clearance, depth + 1)
    right = build_path(curve, detour, b, clearance, depth + 1)
    return left + right[1:]


def _flip_loop(curve, lam_at, index=0):
    """Closed polyline from lam_at around one branch point and back; the
    y-continuation along it ends on the other sheet."""
    bp = complex(curve.branch_points[index])
    r = curve.min_gap / 3.0
    direction = lam_at - bp
    if abs(direction) < r:
        direction = complex(curve.scale)
    start = bp + direction / abs(direction) * r
    th0 = cmath.phase(direction)
    circle = [bp + r * cmath.exp(1j * (th0 + 2 * np.pi * k / 16))
              for k in range(17)]
    approach = build_path(curve, lam_at, start)
    return approach + circle[1:] + approach[-2::-1]


def _continue_to(curve, a, y_a, b):
    """y at b continued from (a, y_a) along the straight segment."""
    return complex(_continue_sqrt(curve.branch_points, a, y_a, [b])[0])


def integrate_vector_path(curve, verts, y0, f, tol=1e-9, budget=200):
    """numerics.integrate_path of the k-vector f(lam, y) along a polyline,
    with y continued on the curve from y0 at the first vertex.

    f maps (lam array, y array) to an (n, k) array.  Returns (value,
    error, y_end); a path that needs more than budget bisections raises
    NonConvergence.
    """
    return integrate_path(f, verts, tol=tol, budget=budget, y0=y0,
                          lift=partial(_continue_sqrt, curve.branch_points))


def _integrate_to(curve, lam0, y0, point: SurfacePoint, f):
    """Integral of f from (lam0, y0) to the sheet-resolved point, with its
    error: along build_path, then once around _flip_loop if the path
    arrives on the other sheet."""
    val, err, y_end = integrate_vector_path(
        curve, build_path(curve, lam0, point.lam), y0, f)
    y_t = complex(curve.y_at(np.asarray(point.lam, complex), point.sheet))
    if abs(y_end - y_t) > abs(y_end + y_t):
        tail, e1, y_end = integrate_vector_path(
            curve, _flip_loop(curve, point.lam), y_end, f)
        val = val + tail
        err += e1
    if abs(y_end - y_t) > 1e-6 * max(1.0, abs(y_t)):
        raise ConsistencyFailure(
            f"sheet tracking lost on the path to {point.lam}")
    return val, err


def _moment_integrand(zs, ys):
    return np.power.outer(zs, np.arange(5)) / ys[:, None]


# ---------------------------------------------------------------------------
# third-kind differential between two explicit points
# ---------------------------------------------------------------------------

@dataclass
class ThirdKindForm:
    """Omega_{p-q}: simple poles +1 at p, -1 at q, purely imaginary
    periods."""

    p: SurfacePoint
    q: SurfacePoint
    curve: Curve
    y_p: complex
    y_q: complex
    pcoef: np.ndarray
    abel: np.ndarray          # int_q^p v_beta

    def values(self, lam, y):
        return third_kind_values(lam, y, self.p.lam, self.y_p,
                                 self.q.lam, self.y_q, self.pcoef)


def _correction_pcoef(model, moments):
    """Degree-4 polynomial coefficients carried by the moment vector
    M_k = int_q^p lambda^k dlambda / y (a (5, n) matrix gives one column
    per node), including the imaginary-period normalization term."""
    pcoef = 0.25 * (model.raw.q @ moments)
    cn = model.periods.C
    abel = cn @ moments[:2]
    e = model.c @ abel - 2j * np.pi * (model.periods.im_b_inverse @ abel.imag)
    pcoef[:2] += cn.T @ e
    return pcoef, abel


def third_kind_form(model: BidiffModel, p: SurfacePoint,
                    q: SurfacePoint) -> ThirdKindForm:
    """Unique differential of the third kind with poles p (+1) and q (-1)
    and purely imaginary periods, in closed form up to five line moments."""
    curve = model.curve
    if abs(complex(p.lam) - complex(q.lam)) < 1e-12 * curve.scale \
            and p.sheet == q.sheet:
        raise CoincidentPoles("third-kind poles coincide")
    y_q = complex(curve.y_at(np.asarray(q.lam, complex), q.sheet))
    y_p = complex(curve.y_at(np.asarray(p.lam, complex), p.sheet))
    moments, _ = _integrate_to(curve, q.lam, y_q, p, _moment_integrand)
    pcoef, abel = _correction_pcoef(model, moments)
    return ThirdKindForm(p=p, q=q, curve=curve, y_p=y_p, y_q=y_q,
                         pcoef=pcoef, abel=abel)


# ---------------------------------------------------------------------------
# surface trees: cumulative integrals over quadrature grids
# ---------------------------------------------------------------------------

@dataclass
class SurfaceTree:
    """Spanning tree over the nodes of a surface grid with sheet-tracked
    straight edges; construction is deterministic.

    y_plus is y continued from the base point along the tree.  Its sheet,
    called +1 by the tree users, is the sheet of that continuation, not
    the reference sheet of Curve.y_at(lam, +1): on the generic curve's
    (12, 16) grid about 30% of the nodes sit on reference sheet -1."""

    grid: object
    parent: np.ndarray
    order: np.ndarray          # visit order, root first
    y_plus: np.ndarray         # y continued along the tree at every node
    root: int


def build_surface_tree(curve, grid) -> SurfaceTree:
    """Visit the nodes by distance from the root (the node farthest from
    the grid center); each new node hangs from the nearest of its 16
    nearest visited nodes whose edge keeps clear of the branch points
    (the nearest of all if none does), distance ties going to the lower
    node index.  y is continued along the tree in closed form: every
    y_plus[i] is sigma_i * sqrt(prod(lam_i - bp)), and the sign sigma_i
    is the parent's times the edge's sign flip."""
    lam = grid.nodes
    bp = curve.branch_points
    n = lam.size
    root = int(np.argmax(np.abs(lam - grid.center)))
    # scalar abs, not np.abs: the two differ by an ulp on some nodes,
    # enough to swap two nodes of equal distance in the visit order
    order = np.asarray(sorted(range(n),
                              key=lambda i: (abs(lam[i] - lam[root]), i)))
    # the visit order fixes every node's visited set, so the candidate
    # parents of all nodes are known before any parent is chosen
    lam_ord = lam[order]
    cand = np.full((n, 16), root)      # the root pads the first 16 rows
    for k in range(1, n):
        d = np.abs(lam_ord[:k] - lam_ord[k])
        sel = np.flatnonzero(d <= np.partition(d, 15)[15]) if k > 16 \
            else np.arange(k)
        near = order[sel[np.lexsort((order[sel], d[sel]))[:16]]]
        cand[k, :near.size] = near
    kids, cand = order[1:], cand[1:]
    valid = np.arange(16) < np.arange(1, n)[:, None]
    # clearance of every candidate edge [lam_j, lam_i] from the branch
    # points, as curveperiods._segment_clearance
    a = lam[cand][..., None]
    seg = lam[kids][:, None, None] - a
    t = np.clip(((bp - a) / seg).real, 0.0, 1.0)
    clr = np.abs(a + t * seg - bp).min(axis=-1)
    gap = np.abs(lam[:, None] - bp).min(axis=1)
    floor = 0.3 * np.minimum(gap[kids][:, None], gap[cand])
    ok = valid & (clr >= np.minimum(floor, curve.min_gap / 4.0)) \
        & (clr > 1e-9 * curve.scale)
    parent = np.full(n, -1, dtype=int)
    parent[kids] = np.where(ok.any(axis=1),
                            cand[np.arange(n - 1), ok.argmax(axis=1)],
                            cand[:, 0])
    exact = np.sqrt(np.prod(lam[:, None] - bp, axis=-1))
    y_root = _continue_to(curve, curve.base_point, curve.base_sheet_value,
                          lam[root])
    # the sign flip of each edge: continuing +exact[parent] to the node
    # gives +exact or -exact there (as _continue_sqrt decides it)
    up = parent[kids]
    cont = exact[up] * np.prod(np.sqrt((lam[kids, None] - bp)
                                       / (lam[up, None] - bp)), axis=-1)
    flips = np.abs(cont - exact[kids]) >= np.abs(cont + exact[kids])
    sigma = np.ones(n, dtype=np.int8)
    if abs(y_root - exact[root]) >= abs(y_root + exact[root]):
        sigma[root] = -1
    for i, j, flip in zip(kids.tolist(), up.tolist(), flips.tolist()):
        sigma[i] = -sigma[j] if flip else sigma[j]
    return SurfaceTree(grid=grid, parent=parent, order=order,
                       y_plus=np.where(sigma < 0, -exact, exact), root=root)


def accumulate_tree(curve, tree, f, k, tol=1e-8, budget=30):
    """Cumulative integrals int_root^node of the k-vector f(lam, y) along
    the tree edges, on the sheet of the tree continuation (tree.y_plus).

    All edges share one vectorised pass of numerics.integrate_path's
    embedded 20/10-point Gauss rules (numerics._embedded_gauss): y is
    lifted to every edge's nodes in one _continue_sqrt call and f is
    evaluated once on all of them.  An edge is accepted by
    integrate_path's own rule; the edges that fail go through
    integrate_vector_path with the same per-edge budget, so a spent
    budget raises NonConvergence.  f must act pointwise on flat arrays.

    The flip vector is the integral of f around the sheet connector at
    the root, a loop around one branch point from y_plus[root] to
    -y_plus[root]; a caller that needs the other sheet stacks f(lam, -y)
    as extra columns and adds the flip of the matching columns.  Returns
    (vals, flip_vector, error, node_err), where error sums the accepted
    gaps of all edges and the error of the flip loop, and node_err is
    (n, 2): column 0 sums the accepted gaps of the edges on each node's
    path from the root, column 1 adds the flip loop's error, the route
    to the node on the other sheet."""
    lam = tree.grid.nodes
    vals = np.zeros((lam.size, k), dtype=complex)
    loop = _flip_loop(curve, lam[tree.root])
    y_root = tree.y_plus[tree.root]
    flip, flip_err, y_end = integrate_vector_path(curve, loop, y_root, f,
                                                  tol=tol, budget=200)
    if abs(y_end + y_root) > 1e-6 * max(1.0, abs(y_root)):
        raise ConsistencyFailure("sheet connector did not flip the sheet")
    err = flip_err
    kids = tree.order[1:]
    up = tree.parent[kids]
    a, b = lam[up], lam[kids]
    x30 = np.concatenate([gauss_legendre(20)[0], gauss_legendre(10)[0]])
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    zs = mid + half * x30[:, None]                              # (30, edges)
    ys = _continue_sqrt(curve.branch_points, a, tree.y_plus[up], zs)
    fv = f(zs.ravel(), ys.ravel()).reshape(30, kids.size, k)
    hi_est, gap, ok = _embedded_gauss(half, fv, tol)
    err += float(gap[ok].sum())
    edge_err = np.where(ok, gap, 0.0)
    for e in np.flatnonzero(~ok):
        hi_est[e], edge_err[e], _ = integrate_vector_path(
            curve, [a[e], b[e]], tree.y_plus[up[e]], f, tol=tol,
            budget=budget)
        err += float(edge_err[e])
    path_err = np.zeros(lam.size)
    for i, j, v, e in zip(kids, up, hi_est, edge_err):
        vals[i] = vals[j] + v
        path_err[i] = path_err[j] + e
    return vals, flip, err, np.stack([path_err, path_err + flip_err], axis=1)


# ---------------------------------------------------------------------------
# grid-averaged third-kind data, independent of both Green arguments
# ---------------------------------------------------------------------------

# rows of log_potential evaluated together; bounds its temporaries to
# this many rows times the q-grid size
_POTENTIAL_ROWS = 64


@dataclass
class GreenContext:
    """Precomputed q-side data: staggered grids, moment tree, Cauchy
    weights, and the metric area.

    The p-side data that every GreenSolver of the context shares, the
    p-grid tree and the log potential at the p nodes, are built on first
    read, so a caller that never builds a solver never pays for them."""

    model: BidiffModel
    frame: DistinguishedFrame
    curve: Curve
    p_grid: object
    q_grid: object
    q_tree: SurfaceTree
    m_plus: np.ndarray         # (n, 5) moments to q nodes at q_tree.y_plus
    m_flip: np.ndarray         # moments along the sheet connector
    cauchy_w: np.ndarray       # real per-node weights W_i (one sheet)
    moll_radius: float         # mollification radius of the log potential
    dens_p: np.ndarray
    area: float

    def moments_at(self, point: SurfacePoint):
        """Moment vector int_root^point lambda^k dlambda / y."""
        lam_r = self.q_tree.grid.nodes[self.q_tree.root]
        y_r = self.q_tree.y_plus[self.q_tree.root]
        return _integrate_to(self.curve, lam_r, y_r, point,
                             _moment_integrand)[0]

    def averaged_pcoef(self, y: SurfacePoint):
        """Correction polynomial of the q-averaged form Omega_bar_y.

        Averaging the moments over the grid leaves M(y) - M_conn / 2: the
        per-node moments cancel pairwise between sheets, each node pair
        contributing the sheet-connector moments once."""
        if abs(complex(y.lam) - self.frame.lam_p) < 1e-10 * self.curve.scale:
            raise ConeArgument("argument coincides with the cone point")
        m_y = self.moments_at(y)
        return _correction_pcoef(self.model, m_y - 0.5 * self.m_flip)[0]

    def omega_bar_values(self, y: SurfacePoint, y_val, pcoef, lam, ys):
        """Omega_bar_y(z) / dlambda at sheet-resolved points (lam, ys)."""
        cauchy = (self.cauchy_w / (lam[..., None] - self.q_grid.nodes)
                  ).sum(axis=-1) / self.area
        return self.harm_values(y, y_val, pcoef, lam, ys) - cauchy

    def harm_values(self, y: SurfacePoint, y_val, pcoef, lam, ys):
        """Omega_bar_y without the Cauchy sum over the q nodes; the real
        part of the integral of the removed sum is the closed-form
        log_potential below."""
        a_y = (ys + y_val) / (2.0 * ys * (lam - y.lam))
        poly = np.zeros_like(lam)
        for c in pcoef[::-1]:
            poly = poly * lam + c
        return a_y + poly / ys

    @cached_property
    def p_tree(self) -> SurfaceTree:
        """Spanning tree over the p grid, shared by every GreenSolver."""
        return build_surface_tree(self.curve, self.p_grid)

    @cached_property
    def t_nodes(self) -> np.ndarray:
        """log_potential at the p-grid nodes."""
        return self.log_potential(self.p_grid.nodes)

    def log_potential(self, lam):
        """-(1/Area) sum_i W_i log|lam - lam_i|, each node mollified over
        a radial bump spanning a few interior grid cells.

        Outside a node's bump disk its potential is exactly the point
        log, so the mollification only redistributes the -1/Area
        Laplacian of G into a smooth density instead of log spikes.  The
        bump (8 - 20u)(1 - u)^2 / (pi eps^2), u = r^2 / eps^2, has unit
        mass and vanishing second moment, so the smeared density matches
        the metric density to fourth order in eps.

        Points are taken _POTENTIAL_ROWS at a time; each point's sum runs
        over the q nodes in the same order whatever the block, so a point
        gets the same value alone or in any array.  A scalar lam gives a
        float."""
        lam = np.asarray(lam, dtype=complex)
        flat = lam.reshape(-1)
        out = np.empty(flat.size)
        eps = self.moll_radius
        for s in range(0, flat.size, _POTENTIAL_ROWS):
            r = np.abs(flat[s:s + _POTENTIAL_ROWS, None] - self.q_grid.nodes)
            phi = np.log(np.maximum(r, 1e-300))
            near = r < eps
            u = np.minimum((r[near] / eps) ** 2, 1.0)
            phi[near] = (4.0 * u - 4.5 * u ** 2 + (8.0 / 3.0) * u ** 3
                         - 0.625 * u ** 4) - 37.0 / 24.0 + np.log(eps)
            out[s:s + _POTENTIAL_ROWS] = \
                -(self.cauchy_w * phi).sum(axis=-1) / self.area
        return out.reshape(lam.shape)[()]


def green_context(model: BidiffModel, frame: DistinguishedFrame,
                  cfg: QuadratureConfig | None = None) -> GreenContext:
    """Build the reusable context; cfg.surface_grid sets the resolution
    (coarse by design, Green properties hold to about 1e-2)."""
    cfg = cfg or QuadratureConfig(surface_grid=(12, 16, None))
    curve = model.curve
    p_grid = build_surface_grid(curve.branch_points, cfg)
    q_grid = build_surface_grid(curve.branch_points, cfg, stagger=0.31)
    dens_q = metric_density(curve, frame.lam_p, q_grid.nodes)
    dens_p = metric_density(curve, frame.lam_p, p_grid.nodes)
    cauchy_w = q_grid.weights * dens_q
    area = 2.0 * float(cauchy_w.sum())
    q_tree = build_surface_tree(curve, q_grid)
    m_plus, m_flip, _, _ = accumulate_tree(curve, q_tree, _moment_integrand,
                                           5)
    center = curve.branch_points.mean()
    rb = np.abs(curve.branch_points - center).max()
    inhull = np.abs(q_grid.nodes - center) < 1.5 * rb
    cells = q_grid.weights[inhull] if inhull.any() else q_grid.weights
    moll_radius = 3.0 * float(np.sqrt(np.percentile(cells, 95)))
    return GreenContext(model=model, frame=frame, curve=curve, p_grid=p_grid,
                        q_grid=q_grid, q_tree=q_tree, m_plus=m_plus,
                        m_flip=m_flip, cauchy_w=cauchy_w,
                        moll_radius=moll_radius, dens_p=dens_p, area=area)


# ---------------------------------------------------------------------------
# the Roelcke Green function
# ---------------------------------------------------------------------------

@dataclass
class GreenEvaluation:
    x: SurfacePoint
    y: SurfacePoint
    value: float
    error_estimate: float


class GreenSolver:
    """Green function G(., y) for one fixed second argument.

    Carries the q-averaged differential Omega_bar_y and u = Re int
    Omega_bar_y + log_potential at every p node on both sheets (u_plus,
    u_minus), so each new x costs one short path from its nearest p node:
    G(x, y) = (u(x) - mean_p u) / 2 pi.  node_err holds each node value's
    quadrature error on the same two sheets.  The p-grid tree and the log
    potential at its nodes are the context's (p_tree is ctx.p_tree); only
    the one accumulation over that tree depends on y.
    """

    def __init__(self, ctx: GreenContext, y: SurfacePoint, tol=1e-8):
        self.ctx = ctx
        curve = ctx.curve
        self.y = y
        self.y_val = complex(curve.y_at(np.asarray(y.lam, complex), y.sheet))
        self.pcoef = ctx.averaged_pcoef(y)
        self.p_tree = ctx.p_tree
        vals, flip, err, self.node_err = accumulate_tree(
            curve, self.p_tree, self._harm_both, 2, tol=tol)
        self.u_plus = vals[:, 0].real + ctx.t_nodes
        self.u_minus = (flip[0] + vals[:, 1]).real + ctx.t_nodes
        w = ctx.p_grid.weights * ctx.dens_p
        self.mean_u = float((w * (self.u_plus + self.u_minus)).sum()
                            / ctx.area)
        self.tree_err = err

    def _harm_both(self, zs, ys):
        """The averaged form on the tree sheet and on the other sheet."""
        harm = self.ctx.harm_values
        return np.stack([harm(self.y, self.y_val, self.pcoef, zs, ys),
                         harm(self.y, self.y_val, self.pcoef, zs, -ys)],
                        axis=1)

    def u_at(self, x: SurfacePoint):
        """u(x) = Re int_root^x of Omega_bar_y plus log_potential(x), with
        its quadrature error.

        Starts from the p node j nearest to x, where u is known on both
        sheets: one build_path from lam_j to x carries the form on the
        tree sheet of j and on the other sheet (_harm_both), and the
        column whose sheet arrives at y(x) adds its real part and
        log_potential(x) - t_nodes[j] to that sheet's node value.  The
        real part is path independent (all loop integrals of the
        averaged form are purely imaginary; the computed form's real
        periods are about 1e-11), so no flip loop is needed.  A p node
        itself returns its node value.  The error is the short path's plus
        the node value's (node_err)."""
        curve = self.ctx.curve
        nodes = self.p_tree.grid.nodes
        j = int(np.argmin(np.abs(nodes - x.lam)))
        y_x = complex(curve.y_at(np.asarray(x.lam, complex), x.sheet))
        y_j = self.p_tree.y_plus[j]
        if nodes[j] == x.lam:
            s = int(abs(y_j + y_x) < abs(y_j - y_x))
            return (float((self.u_plus, self.u_minus)[s][j]),
                    float(self.node_err[j, s]))
        val, err, y_end = integrate_vector_path(
            curve, build_path(curve, nodes[j], x.lam), y_j, self._harm_both)
        # column s arrives on the sheet of x: s = 1 is the other sheet
        miss = (abs(y_end - y_x), abs(y_end + y_x))
        s = int(miss[1] < miss[0])
        if miss[s] > 1e-6 * max(1.0, abs(y_x)):
            raise ConsistencyFailure(
                f"sheet tracking lost on the path to {x.lam}")
        u_j = (self.u_plus, self.u_minus)[s][j] - self.ctx.t_nodes[j]
        t_x = float(self.ctx.log_potential(np.asarray(x.lam, complex)))
        return (float(u_j + val[s].real) + t_x,
                float(err + self.node_err[j, s]))

    def green(self, x: SurfacePoint) -> GreenEvaluation:
        """G(x, y) from u_at.  The error estimate is u_at's error (short
        path and node value) plus the tree's total error over
        max(1, Area), all over 2 pi."""
        if abs(complex(x.lam) - complex(self.y.lam)) \
                < 1e-10 * self.ctx.curve.scale and x.sheet == self.y.sheet:
            raise CoincidentArguments("Green arguments coincide")
        ux, err = self.u_at(x)
        val = (ux - self.mean_u) / (2.0 * np.pi)
        est = (err + self.tree_err / max(1.0, self.ctx.area)) / (2.0 * np.pi)
        return GreenEvaluation(x=x, y=self.y, value=val,
                               error_estimate=float(est))

    def green_at_cone(self):
        """G(P, y) via a path ending just off the cone point; the averaged
        form is integrable there, so no quadrature node sits at P."""
        eps = 1e-5 * self.ctx.curve.scale
        x = SurfacePoint(self.ctx.frame.lam_p + eps, 1)
        ux, err = self.u_at(x)
        return (ux - self.mean_u) / (2.0 * np.pi), err


def roelcke_green(model: BidiffModel, frame: DistinguishedFrame,
                  x: SurfacePoint, y: SurfacePoint,
                  cfg: QuadratureConfig | None = None) -> GreenEvaluation:
    """One-shot Roelcke Green value; build a GreenSolver for repeated x."""
    ctx = green_context(model, frame, cfg)
    return GreenSolver(ctx, y).green(x)


# ---------------------------------------------------------------------------
# special growing solutions at lambda = 0
# ---------------------------------------------------------------------------

def _xi_circle_radius(ctx: GreenContext, exclude=None):
    """Sampling radius in xi strictly inside the nearest Omega_bar pole."""
    lam_p = ctx.frame.lam_p
    d = np.abs(ctx.q_grid.nodes - lam_p)
    dmin = float(d[d > 0].min())
    if exclude is not None:
        dmin = min(dmin, abs(complex(exclude) - lam_p))
    zeta_r = 0.65 * np.sqrt(dmin)
    return 0.9 * abs(complex(ctx.frame.xi_of_zeta.evaluate(
        np.asarray([zeta_r], complex))[0]))


def _cone_circle(ctx: GreenContext, r, n):
    """Distinguished-frame sampling circle |xi| = r around the cone point.

    Returns (xi, lam, y, dlambda/dxi).  Note that lambda winds twice per
    xi loop, antipodal xi samples sharing lambda on opposite sheets."""
    frame = ctx.frame
    xi = r * np.exp(2j * np.pi * np.arange(n) / n)
    zeta = frame.zeta_of_xi.evaluate(xi)
    lam = frame.lam_p + zeta ** 2
    yv = zeta * frame.g_exact(zeta)
    dlam_dxi = 2.0 * zeta / frame.xi_of_zeta.derivative().evaluate(zeta)
    return xi, lam, yv, dlam_dxi


def _cone_circle_points(ctx: GreenContext, r, n):
    """Sheet-resolved SurfacePoints of the cone circle, with xi."""
    xi, lam, yv, _ = _cone_circle(ctx, r, n)
    y_ref = ctx.curve.y_at(lam, 1)
    sheets = np.where(np.abs(yv - y_ref) <= np.abs(yv + y_ref), 1, -1)
    pts = [SurfacePoint(complex(lam[k]), int(sheets[k])) for k in range(n)]
    return xi, pts


def special_solution_zero(ctx: GreenContext, l: int,
                          y: SurfacePoint) -> complex:
    """G_{1/xi^l}(y; 0) for l in {1, 2}.

    Equals minus the xi-Taylor coefficient of order l - 1 of the averaged
    form Omega_bar_y / dxi at the cone point, read off a circle."""
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    pcoef = ctx.averaged_pcoef(y)
    y_val = complex(ctx.curve.y_at(np.asarray(y.lam, complex), y.sheet))
    n = 32
    r = _xi_circle_radius(ctx, y.lam)
    _, lam, yv, dlam_dxi = _cone_circle(ctx, r, n)
    samples = ctx.omega_bar_values(y, y_val, pcoef, lam, yv) * dlam_dxi
    coef = np.fft.fft(samples) / n
    return complex(-coef[0] if l == 1 else -coef[1] / r)


def special_solution_conjugate(ctx: GreenContext, l: int,
                               y: SurfacePoint) -> complex:
    """G_{1/conj(xi)^l}(y; 0) = conj(G_{1/xi^l}(y; 0))."""
    return complex(np.conj(special_solution_zero(ctx, l, y)))


def special_solution_grid(ctx: GreenContext):
    """G_{1/xi} and G_{1/xi^2} at every q-grid node on both sheets.

    The tree moments make the whole grid one vectorized Cauchy sum.
    Returns ((g1_plus, g1_minus), (g2_plus, g2_minus), weights); "plus"
    is the node at y = q_tree.y_plus (the tree sheet, which need not be
    reference sheet +1), "minus" the node at -q_tree.y_plus."""
    n = 32
    r = _xi_circle_radius(ctx)
    _, lam, yv, dlam_dxi = _cone_circle(ctx, r, n)
    cauchy = (ctx.cauchy_w / (lam[:, None] - ctx.q_grid.nodes[None, :])
              ).sum(axis=1) / ctx.area
    lam_q = ctx.q_grid.nodes
    powers = np.power.outer(lam, np.arange(5))          # (n, 5)
    out = []
    for sheet, m_nodes in ((1, ctx.m_plus),
                           (-1, ctx.m_flip[None, :] - ctx.m_plus)):
        yq = sheet * ctx.q_tree.y_plus
        a_y = (yv[:, None] + yq[None, :]) / (
            2.0 * yv[:, None] * (lam[:, None] - lam_q[None, :]))
        qm, _ = _correction_pcoef(ctx.model,
                                  (m_nodes - 0.5 * ctx.m_flip).T)
        poly = powers @ qm                              # (n, n_nodes)
        samples = (a_y - cauchy[:, None] + poly / yv[:, None]) \
            * dlam_dxi[:, None]
        coef = np.fft.fft(samples, axis=0) / n
        out.append((-coef[0], -coef[1] / r))
    (g1p, g2p), (g1m, g2m) = out
    return (g1p, g1m), (g2p, g2m), ctx.cauchy_w


def special_solution_means(ctx: GreenContext):
    """Surface means of G_{1/xi} and G_{1/xi^2}; both vanish in theory."""
    (g1p, g1m), (g2p, g2m), w = special_solution_grid(ctx)
    mean1 = complex((w * (g1p + g1m)).sum() / ctx.area)
    mean2 = complex((w * (g2p + g2m)).sum() / ctx.area)
    return mean1, mean2


# ---------------------------------------------------------------------------
# coefficient matching, regularized log entry, Bergman consistency
# ---------------------------------------------------------------------------

def coefficient_matching(solver: GreenSolver, r0=None,
                         n_samples=12) -> dict:
    """Fit G(xi, y) on |xi| = r0 against the cone-point expansion model
    G(P,y) - sum_l (1/4 pi l)[G_{1/xi^l} xi^l + conj terms], and compare
    the fitted coefficients with the special-solution values."""
    ctx = solver.ctx
    if r0 is None:
        r0 = 0.5 * _xi_circle_radius(ctx, solver.y.lam)
    xi, pts = _cone_circle_points(ctx, r0, n_samples)
    g_vals = np.array([solver.green(p).value for p in pts])
    # real-valued model: g0 + 2 Re(b1 xi + b2 xi^2)
    mat = np.stack([np.ones(n_samples), xi.real, -xi.imag,
                    (xi ** 2).real, -(xi ** 2).imag], axis=1)
    sol, _, rank, _ = np.linalg.lstsq(mat, g_vals, rcond=None)
    if rank < 5:
        raise FitIllConditioned("cone-point fit matrix is rank deficient")
    g0 = float(sol[0])
    b1 = 0.5 * (sol[1] + 1j * sol[2])
    b2 = 0.5 * (sol[3] + 1j * sol[4])
    t1 = -special_solution_zero(ctx, 1, solver.y) / (4.0 * np.pi)
    t2 = -special_solution_zero(ctx, 2, solver.y) / (8.0 * np.pi)
    return {
        "g0": g0,
        "fit_xi": complex(b1),
        "fit_xi2": complex(b2),
        "model_xi": complex(t1),
        "model_xi2": complex(t2),
        "rel_err_xi": float(abs(b1 - t1) / max(abs(t1), 1e-30)),
        "rel_err_xi2": float(abs(b2 - t2) / max(abs(t2), 1e-30)),
        "residual": float(np.abs(mat @ sol - g_vals).max()),
        "radius": float(r0),
    }


def smatrix_expansion_check(ctx: GreenContext, n_samples=16) -> dict:
    """End-to-end comparison of the special-solution expansions at the
    cone point with the assembled T(0) entries.

    Fits G_{1/xi^l}(y; 0) as a harmonic series in y on two circles (two
    radii separate 1/xi^l from conj(xi)^l, which coincide on one circle).
    The holomorphic-sector coefficients reproduce the T(0) entries with
    their sign; the conjugate-sector coefficients come out as the
    negated entries, fixing the sign convention of the conjugate block
    relative to the Bergman-kernel sum.
    """
    rmax = _xi_circle_radius(ctx)
    rows, rhs1, rhs2 = [], [], []
    for r0 in (0.3 * rmax, 0.55 * rmax):
        xi, pts = _cone_circle_points(ctx, r0, n_samples)
        v1 = [special_solution_zero(ctx, 1, p) for p in pts]
        v2 = [special_solution_zero(ctx, 2, p) for p in pts]
        for k in range(n_samples):
            z = xi[k]
            rows.append([1 / z ** 2, 1 / z, 1.0, z, z ** 2,
                         np.conj(z), np.conj(z) ** 2])
            rhs1.append(v1[k])
            rhs2.append(v2[k])
    mat = np.asarray(rows)
    c1, _, rank, _ = np.linalg.lstsq(mat, np.asarray(rhs1), rcond=None)
    c2, _, _, _ = np.linalg.lstsq(mat, np.asarray(rhs2), rcond=None)
    if rank < 7:
        raise FitIllConditioned("two-circle expansion fit is rank deficient")
    return {
        "sing_1": complex(c1[1]),          # should be 1
        "sing_2": complex(c2[0]),          # should be 1
        "spurious_1": complex(c1[0]),      # 1/xi^2 content of G_{1/xi}
        "spurious_2": complex(c2[1]),      # 1/xi content of G_{1/xi^2}
        "coeffs_1": {"xi": complex(c1[3]), "xi2": complex(c1[4]),
                     "conj_xi": complex(c1[5]), "conj_xi2": complex(c1[6])},
        "coeffs_2": {"xi": complex(c2[3]), "xi2": complex(c2[4]),
                     "conj_xi": complex(c2[5]), "conj_xi2": complex(c2[6])},
    }


def reg_log_limit(solver: GreenSolver) -> float:
    """Regularized limit of the logarithmic entry at the cone point,
    equal to 2 pi G(P, y); computed through the integrable averaged form
    rather than by quadrature at P."""
    gp, _ = solver.green_at_cone()
    return float(2.0 * np.pi * gp)


def bergman_consistency(solver: GreenSolver, x: SurfacePoint,
                        h=1e-4) -> dict:
    """Mixed derivative d_x d_conj(y) of the Friedrichs Green function
    against -(1/4) B(x, conj(y)).

    The Friedrichs kernel (inverse of the positive Laplacian on mean-zero
    functions) is minus the Roelcke G of this module, whose log
    coefficient is +1/(2 pi).  Only the u(x) term of G depends on x, so
    the mixed derivative needs the averaged form alone; the conj(y)
    derivative is taken by central differences.
    """
    ctx = solver.ctx
    if h <= 0 or h < 1e-10 * ctx.curve.scale:
        raise StepTooSmall(f"finite-difference step {h} is too small")
    y = solver.y

    def dxg(dy):
        yy = SurfacePoint(complex(y.lam) + dy, y.sheet)
        y_val = complex(ctx.curve.y_at(np.asarray(yy.lam, complex),
                                       yy.sheet))
        pcoef = ctx.averaged_pcoef(yy)
        y_x = complex(ctx.curve.y_at(np.asarray(x.lam, complex), x.sheet))
        om = ctx.omega_bar_values(yy, y_val, pcoef,
                                  np.asarray([x.lam], complex),
                                  np.asarray([y_x], complex))[0]
        return -om / (4.0 * np.pi)

    d_re = (dxg(h) - dxg(-h)) / (2 * h)
    d_im = (dxg(1j * h) - dxg(-1j * h)) / (2 * h)
    mixed = 0.5 * (d_re + 1j * d_im)
    target = -0.25 * bergman_kernel(solver.ctx.model, x, y)
    return {
        "mixed_derivative": complex(mixed),
        "minus_quarter_bergman": complex(target),
        "rel_err": float(abs(mixed - target) / max(abs(target), 1e-30)),
    }


def g_hol(ctx: GreenContext, x: SurfacePoint, y: SurfacePoint) -> complex:
    """Holomorphic-kernel entry G_hol(x, y): surface quadrature of
    d_x G_F(x,z) d_conj(y) G_F(z,y) / (omega(x) conj(omega(y))).

    Uses the gradient identity d_x G(x,z) = Omega_bar_z(x) / 4 pi,
    vectorized over the grid in z through the tree moments; omega is the
    metric differential (lambda - lambda_P) dlambda / y.
    """
    if ctx.q_grid.n_nodes < 600:
        raise GridTooCoarse("g_hol needs a denser surface grid")
    curve = ctx.curve
    lam_q = ctx.q_grid.nodes
    y_x = complex(curve.y_at(np.asarray(x.lam, complex), x.sheet))
    y_y = complex(curve.y_at(np.asarray(y.lam, complex), y.sheet))
    cx = (ctx.cauchy_w / (x.lam - lam_q)).sum() / ctx.area
    cy = (ctx.cauchy_w / (y.lam - lam_q)).sum() / ctx.area
    pw_x = x.lam ** np.arange(5)
    pw_y = y.lam ** np.arange(5)
    total = 0.0 + 0.0j
    for sheet, m_nodes in ((1, ctx.m_plus),
                           (-1, ctx.m_flip[None, :] - ctx.m_plus)):
        yq = sheet * ctx.q_tree.y_plus
        qm, _ = _correction_pcoef(ctx.model,
                                  (m_nodes - 0.5 * ctx.m_flip).T)
        gx = ((y_x + yq) / (2.0 * y_x * (x.lam - lam_q)) - cx
              + (pw_x @ qm) / y_x) / (4.0 * np.pi)
        gy = ((y_y + yq) / (2.0 * y_y * (y.lam - lam_q)) - cy
              + (pw_y @ qm) / y_y) / (4.0 * np.pi)
        total += (ctx.cauchy_w * gx * np.conj(gy)).sum()
    om_x = (x.lam - ctx.frame.lam_p) / y_x
    om_y = (y.lam - ctx.frame.lam_p) / y_y
    return complex(total / (om_x * np.conj(om_y)))
