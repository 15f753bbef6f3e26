"""Surface Green-function machinery: third-kind differentials, the
Roelcke double-quadrature Green function, special growing solutions at
lambda = 0, the regularized log entry, and cross-checks against the
Bergman kernel.

Everything reduces to one closed-form kernel, _form_values. With the
exact antiderivative A(z,t) = (y_z + y_t) / (2 y_z (lambda_z - lambda_t))
and the residue polynomial Q of the raw bidifferential,

    Omega_{p-q}(z) / dlambda = A(z,p) - A(z,q) + P(lambda_z) / y_z,

where the degree-4 polynomial P is linear in the moment vector
M = int_q^p lambda^k dlambda / y (k = 0..4).  A(z,t) + P / y_z is h + g:
h = 1 / (2 (lambda_z - lambda_t)) is even in the sheet of z, with the
real integral (1/2) log|lambda_z - lambda_t|, and g (_odd_part) is odd.
Every odd integral is taken from branch point 0, b0, by way of a known
point and signed by the sheet it arrives on (_odd_at): the moments R(z) =
int_b0^z lambda^k dlambda / y, with M = R(p) - R(q), and the Green
solvers' int_b0^z g alike.  The leg into b0, regular in the local
parameter s = sqrt(lambda - b0), is the one route between the sheets
(_branch_leg).  R is odd, so the grid average of M over both sheets of
every node is R(p), and the grid sum of the A terms collapses to one
real-weighted Cauchy sum.  The averaged form Omega_bar_y = A(z,y) +
P_y(lambda_z) / y_z minus that sum is the x-gradient of G(., y); the sum
enters G through log_potential and the special solutions through
GreenContext.cone_cauchy.  The same cancellation leaves the Cauchy sum
alone in the special solutions' surface means (special_solution_means).
Solvers integrate g only on the p-tree root paths they read (settle).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bidiff import BidiffModel, DistinguishedFrame, bergman_kernel
from .curveperiods import (Curve, SurfacePoint, _continue_sqrt,
                           _segment_turn, metric_density)
from .errors import (
    CoincidentArguments,
    CoincidentPoles,
    ConeArgument,
    ConsistencyFailure,
    FitIllConditioned,
    NonConvergence,
    PathTooCloseToBranchPoint,
    SingularityOnGrid,
    StepTooSmall,
)
from .numerics import QuadratureConfig, build_surface_grid


# ---------------------------------------------------------------------------
# sheet-aware path construction and integration
# ---------------------------------------------------------------------------

def _blocked(curve, a, b, gap_a, gap_b):
    """Which branch points (last axis) the segments [a, b] pass too close
    to, with the feet of the branch points on them and the distances.

    A segment must keep at least 0.3 times the smaller endpoint gap (an
    endpoint's distance to the nearest branch point), capped at
    min_gap / 4, so a segment that heads away from a nearby branch point
    passes and one through it does not; and, where the foot lies inside
    the segment (0 < t < 1), more than 1e-9 scale from the branch point,
    a floor of its own that still blocks a segment through it whose
    endpoint gaps are tiny.  A foot at an end point is that end point,
    whose own gap the first rule already bounds, so an end point closer
    than the floor does not block its segments.  a, b, gap_a and gap_b
    broadcast."""
    bp = curve.branch_points
    a = np.asarray(a)[..., None]
    seg = np.asarray(b)[..., None] - a
    # a segment shorter than 1e-100 scale, which could overflow, divides
    # by inf instead: its foot is its start
    t = np.minimum(np.maximum(((bp - a) / np.where(
        np.abs(seg) < 1e-100 * curve.scale, np.inf, seg)).real, 0.0), 1.0)
    feet = a + t * seg
    d = np.abs(feet - bp)
    floor = np.minimum(0.3 * np.minimum(gap_a, gap_b), curve.min_gap / 4.0)
    inside = (t > 0.0) & (t < 1.0)
    return (d < np.asarray(floor)[..., None]) \
        | (inside & (d <= 1e-9 * curve.scale)), feet, d


def _short(curve, a, b, gap_a, gap_b):
    """Whether the segments [a, b] are shorter than g / 2 > 2e-9 scale, g
    the larger endpoint gap: their points lie over g / 2 (and their
    length) from every branch point, so _blocked passes them too."""
    half_gap = 0.5 * np.maximum(gap_a, gap_b)
    return (abs(b - a) < half_gap) & (half_gap > 2e-9 * curve.scale)


def build_path(curve, lam_from, lam_to, depth=0):
    """Polyline from lam_from to lam_to whose every segment keeps clear of
    the branch points by _blocked's rule: a segment that passes too close
    to one is split at a detour point min_gap / 2 from it, on the side of
    its foot.  A _short segment returns at once."""
    a, b = complex(lam_from), complex(lam_to)
    if depth > 12:
        raise PathTooCloseToBranchPoint(
            f"could not route a path {lam_from} -> {lam_to}")
    if a == b:
        return [a]
    bps = curve.branch_points
    gap_a, gap_b = map(min, np.abs(np.array([[a], [b]]) - bps).tolist())
    if _short(curve, a, b, gap_a, gap_b):
        return [a, b]
    bad, feet, d = _blocked(curve, a, b, gap_a, gap_b)
    if not bad.any():
        return [a, b]
    j = int(np.argmin(np.where(bad, d, np.inf)))
    away = feet[j] - bps[j]
    if abs(away) < 1e-12 * curve.scale:
        away = 1j * (b - a) / abs(b - a)
    detour = bps[j] + away / abs(away) * curve.min_gap / 2.0
    left = build_path(curve, a, detour, depth + 1)
    right = build_path(curve, detour, b, depth + 1)
    return left + right[1:]


def _segments(roots, verts):
    """(a, b, turn) of each segment [a, b], a != b, of the polyline verts,
    in path order, with its turn from its ratios (b - r) / (a - r)
    (curveperiods._segment_turn), taken once for both uses: NonConvergence
    for a segment through a root r, seen from r at an angle within 1e-12
    of pi (a start on r does not count), checked from the last segment."""
    v = list(map(complex, verts))
    out = []
    for a, b in zip(v[-2::-1], v[:0:-1]):
        if a != b:
            turn, ratios = _segment_turn(roots, a, b)
            # only a turn over pi / 2 has a ratio left of the imaginary axis
            for r, w in zip(roots, ratios) if not turn <= np.pi / 2 else ():
                if w is not None and w.real < 0 \
                        and abs(w.imag) <= 1e-12 * abs(w):
                    raise NonConvergence(f"path integral: [{a}, {b}] runs "
                                         f"through branch point {r}")
            out.append((a, b, turn))
    return out[::-1]


def _pass(roots, lo, hi, mid, half, a, b, y_a, turn, x, f, tol):
    """One pass over pieces [lo, hi] of segments [a, b], Python scalars (one
    row) or arrays (a row per entry) alike: the nodes mid + half * x, the
    last set to b, lifted from y at a in one _continue_sqrt call, f in one
    call and the rule in one _embedded_gauss call.  Returns the estimates,
    gaps, acceptance and y at b; NonConvergence, before f, if a node lies
    on a branch point (y = 0)."""
    zs = mid + half * x
    zs[_NODES] = b
    ys = _continue_sqrt(roots, a, b, y_a, zs, turn)
    inner = ys[:_NODES]
    if np.count_nonzero(inner) < inner.size:
        i = int((inner == 0).reshape(_NODES, -1).any(0).argmax())
        raise NonConvergence(f"path integral: a node of [{np.ravel(lo)[i]}, "
                             f"{np.ravel(hi)[i]}] lies on a branch point")
    vals = f(zs[:_NODES].ravel(), inner.ravel())
    return _embedded_gauss(half, vals.reshape(inner.shape + vals.shape[1:]),
                           tol) + (ys[_NODES],)


def _not_distinct(lo, hi, mid, half, x):
    """Whether the nodes mid + half * x of a piece [lo, hi] split from a
    rejected one are not distinct from each other and both ends.  They lie
    0.0218 half-lengths apart and 0.0043 from an end or more, each within
    about 2 ulp of |mid| per part, so only pieces shorter than 4096 ulp of
    |mid| are compared."""
    return abs(half) < 4096 * math.ulp(abs(mid)) and np.unique(
        np.r_[lo, hi, (mid + half * x)[:_NODES]]).size < _NODES + 2


def integrate_paths(roots, paths, y0s, f, tol=1e-9, budget=200):
    """Adaptive integrals of the k-vector f(lam, y) along polylines of
    complex vertices, with y = sqrt(prod(lam - roots)) continued along
    path i from y0s[i] at its first vertex, by bisection with the nested
    10/21-point Gauss-Kronrod rule.  roots are a curve's branch points, or
    _branch_leg's roots in its local parameter.

    Each path takes the pieces [lo, hi] of its segments [a, b] depth first
    in one fixed order: segments in turn, a rejected piece giving way to
    its halves, the one at b first, so each segment is summed from its end
    back to its start.  A pass (_pass) takes the next piece of every live
    path, with f mapping (lam array, y array) to an (n,) or (n, k) array;
    a next segment starts from y where its path's last pass ended.  One
    path (integrate_vector_path) runs on Python scalars.  A batch holds
    one row per live path in arrays (lo, hi, y at a, segment, split),
    decides accepted and rejected rows with masks and sums the accepted
    ones per path; only the lower halves of rejected pieces go to Python
    stacks, one per path, until the upper half is done.  So every path
    gets the same bits alone or in any batch.  (Breadth first would spend
    the budget before a piece that must raise, and lose the order.)

    budget caps the bisections on each path; a path that needs more
    raises NonConvergence.  So does, before any pass, a segment through a
    root (_segments), where f is singular inside a piece and no accepted
    gap bounds the error; and a piece, before f is evaluated, with a node
    on a branch point (y = 0), or split from a rejected one with nodes
    not distinct (_not_distinct), as bisection toward an integrand
    singular at an end would divide by zero there (a first pass a few ulp
    long has coinciding nodes and a fine estimate).  Returns lists of the
    values, the errors (sums of the accepted gaps) and y at the last
    vertex, one entry per path."""
    paths = list(paths)
    if len(paths) == 1:
        return tuple([out] for out in integrate_vector_path(
            roots, paths[0], y0s[0], f, tol, budget))
    rs = roots.tolist()
    segs = [_segments(rs, v) for v in paths]
    if not all(segs):
        raise NonConvergence("empty integration path")
    if not segs:
        return [], [], []
    # the segments, path after path, and each path's end among them; each
    # live row's path and segment
    lens = [len(q) for q in segs]
    a_seg, b_seg, turns = map(np.array, zip(*sum(segs, [])))
    stop = np.cumsum(lens)
    rows, seg = np.arange(len(segs)), stop - lens
    lo, hi, y_a = a_seg[seg], b_seg[seg], np.array(y0s, dtype=complex)
    split, used = np.zeros(rows.size, bool), np.zeros(rows.size, int)
    stacks, depth = [[] for _ in segs], np.zeros(rows.size, int)
    value, error, y_end = None, np.zeros(rows.size), y_a.copy()
    x = _path_rule()[0][:, None]
    while rows.size:
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        for i in np.flatnonzero(split).tolist():
            if _not_distinct(lo[i], hi[i], mid[i], half[i], x[:, 0]):
                raise NonConvergence(f"path integral: [{lo[i]}, {hi[i]}] "
                                     f"has nodes not distinct")
        est, gap, ok, y_b = _pass(roots, lo, hi, mid, half, a_seg[seg],
                                  b_seg[seg], y_a, turns[seg], x, f, tol)
        if value is None:   # -0 adds exactly: a first estimate keeps its bits
            value = np.full((len(segs),) + est.shape[1:], complex(-0.0, -0.0))
        value[rows[ok]] += est[ok]
        error[rows[ok]] += gap[ok]
        y_end[rows] = y_b
        bad = np.flatnonzero(~ok)
        spent = bad[used[rows[bad]] >= budget]
        if spent.size:
            i = spent[0]
            raise NonConvergence(
                f"path integral: {budget} subdivisions exhausted on "
                f"[{lo[i]}, {hi[i]}] (error {gap[i]:.3e})")
        used[rows[bad]] += 1
        depth[rows[bad]] += 1
        for p, u, m in zip(rows[bad].tolist(), lo[bad].tolist(),
                           mid[bad].tolist()):
            stacks[p].append((u, m))
        lo[bad], split[bad] = mid[bad], True
        # an accepted row takes its path's stacked half, else its next
        # segment, else ends
        done = ok & (depth[rows] == 0)
        back = np.flatnonzero(ok & ~done)
        for i in back.tolist():
            lo[i], hi[i] = stacks[rows[i]].pop()
        depth[rows[back]] -= 1
        split[back] = True
        seg[done] += 1
        new = done & (seg < stop[rows])
        lo[new], hi[new], y_a[new] = a_seg[seg[new]], b_seg[seg[new]], y_b[new]
        split[new] = False
        live = ~done | new
        rows, seg, lo, hi, y_a, split = (
            rows[live], seg[live], lo[live], hi[live], y_a[live], split[live])
    return list(value), error.tolist(), y_end.tolist()


def integrate_vector_path(roots, verts, y0, f, tol=1e-9, budget=200):
    """(value, error, y_end) of integrate_paths on the one polyline verts
    from y0, its one-path case: every pass on Python scalars, the pieces
    (lo, hi, split) of a segment on one stack."""
    segs = _segments(roots.tolist(), verts)
    if not segs:
        raise NonConvergence("empty integration path")
    x = _path_rule()[0]
    y, value, error, used = complex(y0), None, 0.0, 0
    for a, b, turn in segs:
        todo = [(a, b, False)]
        while todo:
            lo, hi, split = todo.pop()
            mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
            if split and _not_distinct(lo, hi, mid, half, x):
                raise NonConvergence(f"path integral: [{lo}, {hi}] has "
                                     f"nodes not distinct")
            est, gap, ok, y_b = _pass(roots, lo, hi, mid, half, a, b, y, turn,
                                      x, f, tol)
            if ok:
                value = est if value is None else value + est
                error += gap
            elif used >= budget:
                raise NonConvergence(
                    f"path integral: {budget} subdivisions exhausted on "
                    f"[{lo}, {hi}] (error {gap:.3e})")
            else:
                used += 1
                todo += [(lo, mid, True), (mid, hi, True)]
        y = complex(y_b)
    return value, error, y


def _arrival(curve, y_end, point: SurfacePoint):
    """1 if a path ending at y_end arrives on the other sheet of the point,
    0 if on its own; ConsistencyFailure if at neither +-y within 1e-6.
    y(point), Curve.y_at's product of principal roots, is only compared,
    so it is taken in scalar arithmetic."""
    lam = complex(point.lam)
    y_t = point.sheet * math.prod(
        [cmath.sqrt(lam - r) for r in curve.branch_points.tolist()])
    miss = (abs(y_end - y_t), abs(y_end + y_t))
    s = int(miss[1] < miss[0])
    if miss[s] > 1e-6 * max(1.0, abs(y_t)):
        raise ConsistencyFailure(
            f"sheet tracking lost on the path to {point.lam}")
    return s


def _odd_at(curve, lam0, y0, v0, point: SurfacePoint, f):
    """An integral of the sheet-odd form f from branch point 0, b0, at the
    point, by way of a known point: v0 is its value at (lam0, y0).  One
    build_path from lam0, started at y0, gives val, and the integral is v0
    + val if the path arrives at y(point).  It is odd in the sheet (the leg
    from b0 to the other sheet is the same leg with -y), so if the path
    arrives at -y(point) it is -(v0 + val).  lam0 itself takes no path.
    Returns the integral, the path's error and the sheet it arrives on
    (_arrival: ConsistencyFailure at neither +-y(point) within 1e-6)."""
    if lam0 == point.lam:
        val, err, s = 0.0, 0.0, _arrival(curve, y0, point)
    else:
        val, err, y_end = integrate_vector_path(
            curve.branch_points, build_path(curve, lam0, point.lam), y0, f)
        s = _arrival(curve, y_end, point)
    r = v0 + val
    return (-r if s else r), err, s


def _branch_leg(curve, lam, y, f):
    """Integral of the k-vector f dlambda from branch point 0, b0, to
    (lam, y), with its error: the one route between the sheets.

    In the local parameter s = sqrt(lambda - b0), lambda = b0 + s^2 and
    y = s g(s), g^2 = prod(s - rho) over the ten roots rho = +-sqrt(e_j -
    b0), j != 0, so f(b0 + s^2, s g) 2 s is regular at s = 0 and the leg
    is one integrate_vector_path over those roots, from s_end = sqrt(lam -
    b0), where g = y / s_end exactly, to 0, negated.  The other sheet is
    s -> -s, so (lam, -y) takes the same leg with f(lambda, -y).  |lam -
    b0| must be below min_gap / 2 (else ConsistencyFailure), so the
    segment keeps over 1 - 1/sqrt(2) of |rho| from every root.  f maps
    (lam array, y array) to an (n, k) array."""
    bp = curve.branch_points
    b0 = complex(bp[0])
    if not abs(lam - b0) < curve.min_gap / 2.0:
        raise ConsistencyFailure(f"branch leg end {lam} is not next to {b0}")
    rho = np.sqrt(bp[1:] - b0)
    s_end = cmath.sqrt(lam - b0)
    val, err, _ = integrate_vector_path(
        np.concatenate([rho, -rho]), [s_end, 0.0], y / s_end,
        lambda s, g: f(b0 + s * s, s * g) * (2.0 * s)[:, None])
    return -val, err


def _moment_integrand(zs, ys):
    return np.power.outer(zs, np.arange(5)) / ys[:, None]


def _moment_base(curve):
    """(lambda_b, y_b, R_b), where every moment route starts:
    branch_points[0] + min_gap / 3 on sheet +1, and the moments R(z) =
    int_b0^z lambda^k dlambda / y there (_branch_leg)."""
    lam = complex(curve.branch_points[0]) + curve.min_gap / 3.0
    y = curve.y_of(SurfacePoint(lam, 1))
    return lam, y, _branch_leg(curve, lam, y, _moment_integrand)[0]


def _moments_at(curve, base, point: SurfacePoint):
    """Moment vector R = int_b0^point lambda^k dlambda / y from branch
    point 0, b0, by way of base = (lambda_b, y_b, R_b) (_odd_at)."""
    return _odd_at(curve, *base, point, _moment_integrand)[0]


def _odd_part(lam, ys, t_lam, t_y, pcoef):
    """g = (y_t h + P(lambda_z)) / y_z, h = 1 / (2 (lambda_z - lambda_t)),
    at the points z = (lam, ys): the part of _form_values that is odd in
    the sheet of z.  pcoef holds the coefficients of P, lowest first,
    along its first axis; an empty pcoef gives P = 0."""
    h = 0.5 / (lam - t_lam)
    poly = pcoef[-1] if len(pcoef) else 0.0
    for c in pcoef[-2::-1]:
        poly = poly * lam + c
    return (t_y * h + poly) / ys


def _form_values(lam, ys, t_lam, t_y, pcoef):
    """A(z, t) + P(lambda_z) / y_z at the points z = (lam, ys), with
    A(z, t) = (y_z + y_t) / (2 y_z (lambda_z - lambda_t)) and pcoef as in
    _odd_part: h = 1 / (2 (lambda_z - lambda_t)), even in the sheet of z,
    plus g = _odd_part, odd in it."""
    return 0.5 / (lam - t_lam) + _odd_part(lam, ys, t_lam, t_y, pcoef)


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

    def values(self, lam, y):
        """Omega_{p-q} / dlambda at the points (lam, y) (arrays)."""
        return (_form_values(lam, y, self.p.lam, self.y_p, self.pcoef)
                - _form_values(lam, y, self.q.lam, self.y_q, ()))


def _correction_pcoef(model, moments):
    """Degree-4 polynomial coefficients carried by the moment vector
    M_k = int_q^p lambda^k dlambda / y (a (5, n) matrix gives one column
    per node), including the imaginary-period normalization term."""
    pcoef = 0.25 * (model.q @ moments)
    cn = model.periods.C
    abel = cn @ moments[:2]
    e = model.c @ abel - 2j * np.pi * (model.periods.im_b_inverse @ abel.imag)
    pcoef[:2] += cn.T @ e
    return pcoef


def third_kind_form(model: BidiffModel, p: SurfacePoint,
                    q: SurfacePoint) -> ThirdKindForm:
    """Unique differential of the third kind with poles p (+1) and q (-1)
    and purely imaginary periods, in closed form up to five line moments,
    R(p) - R(q) on the route of GreenContext.form (_moments_at); another
    route differs by a cycle, which the period normalization removes."""
    curve = model.curve
    if abs(complex(p.lam) - complex(q.lam)) < 1e-12 * curve.scale \
            and p.sheet == q.sheet:
        raise CoincidentPoles("third-kind poles coincide")
    base = _moment_base(curve)
    pcoef = _correction_pcoef(
        model, _moments_at(curve, base, p) - _moments_at(curve, base, q))
    return ThirdKindForm(p=p, q=q, curve=curve, y_p=curve.y_of(p),
                         y_q=curve.y_of(q), pcoef=pcoef)


# ---------------------------------------------------------------------------
# surface trees: cumulative integrals over quadrature grids
# ---------------------------------------------------------------------------

@dataclass
class SurfaceTree:
    """Spanning tree over the nodes of a surface grid, with straight edges;
    construction is deterministic.  Every node but the root hangs from its
    parent by one straight edge, the edge into it.

    y_root is y continued from the base point to the root.  Its sheet, the
    tree sheet, runs on along the root paths (GreenSolver.settle), and is
    not the reference sheet of Curve.y_at(lam, +1): on the generic curve's
    (12, 16) grid about 30% of the nodes sit on reference sheet -1.

    hub is the node whose distance to the first branch point is closest
    to min_gap / 3 (ties to the lower index), where a solver's one
    _branch_leg ends: on every build_surface_grid grid it lies within
    min_gap / 2 of that branch point."""

    grid: object
    parent: np.ndarray         # -1 at the root
    order: np.ndarray          # grid nodes, root and parents first
    y_root: complex            # y continued from the base point to the root
    root: int
    hub: int                   # end of the solvers' branch leg


def _layout_tree(curve, grid, root, gap):
    """Visit order and parents (-1: for _nearest_clear) on a grid's layout.

    Patches go from the last, the exterior chart, whose outermost ring in
    lambda holds the root, to the first; rings outermost first, each from
    the spine (the spoke through the outer ring's node nearest the root)
    along both arcs.  A node hangs from the nearer of its neighbours
    before it, out on its spoke or toward the spine, if their edge is
    _short.  A node whose edge is not, inside a patch visited later (a
    main-disk node by a branch point), follows every patch with the
    nodes below it, so its parent can come from that patch."""
    lam = grid.nodes
    ends = np.cumsum([P.size for P in grid.patches])
    parts = []
    for P, e in zip(grid.patches[::-1], ends[::-1].tolist()):
        k = P.n_ang
        rings = e - P.size + k * np.arange(P.radii.size)[:, None]
        rings = rings if P.inverted else rings[::-1]
        head = np.argmin(np.abs(lam[rings[0] + np.arange(k)] - lam[root]))
        # arc offsets 0, 1, -1, 2, -2, ... from the spine
        off = np.arange(1, k + 1) // 2 * (-1) ** np.arange(1, k + 1)
        nodes = rings + (head + off) % k
        up = rings + (head + off - np.sign(off)) % k
        out = np.abs(lam[nodes[:-1]] - lam[nodes[1:]]) \
            < np.abs(lam[up[1:]] - lam[nodes[1:]])
        up[1:] = np.where(out | (off == 0), nodes[:-1], up[1:])
        up[0, 0] = -1
        parts.append((nodes.ravel(), up.ravel()))
    order, parent = map(np.concatenate, zip(*parts))
    parent = parent[np.argsort(order)]
    kid, up = order[1:], parent[order[1:]]
    fail = kid[(up >= 0) & ~_short(curve, lam[up], lam[kid], gap[up],
                                   gap[kid])]
    own = np.searchsorted(ends, fail, side="right")
    late = np.zeros(lam.size, dtype=int)
    for j, P in enumerate(grid.patches):
        late[fail] |= (own > j) & (abs(lam[fail] - P.center) < P.radii.max())
    late = _path_counts(parent, root, late)[order] > 0
    parent[fail] = -1
    return np.concatenate([order[~late], order[late]]), parent


def _nearest_clear(curve, lam, gap, order, kids):
    """Parents of the nodes kids (listed as in order) from the nodes before
    each in order: the nearest of its 16 nearest whose edge passes
    _blocked, else the nearest, ties to the lower node index; rows go in
    blocks of about _POWER_BLOCK distances."""
    pos = np.argsort(order)
    kth = min(15, lam.size - 1)
    step = max(1, _POWER_BLOCK // lam.size)
    out = np.empty(kids.size, dtype=int)
    for s in range(0, kids.size, step):
        kid = kids[s:s + step, None]
        d = np.abs(lam - lam[kid])
        d[pos >= pos[kid]] = np.inf
        d[d > np.partition(d, kth)[:, kth, None]] = np.inf
        # a stable sort of the few finite distances keeps ties in node order
        cand = np.argsort(d, kind="stable")[:, :16]
        ok = (np.take_along_axis(d, cand, 1) < np.inf) & ~_blocked(
            curve, lam[cand], lam[kid], gap[cand], gap[kid])[0].any(axis=-1)
        out[s:s + step] = cand[np.arange(cand.shape[0]), ok.argmax(axis=1)]
    return out


def _path_counts(parent, root, counts):
    """Sums of the counts on the edges of every node's root path, counts[i]
    on the edge from node i to its parent (0 at the root), by pointer
    jumping: up[i] starts at the parent of i and jumps to up[up[i]] in
    every pass, total[i] summing the edges from i to up[i], until every
    up[i] is the root, about log2 of the largest depth passes.
    _layout_tree counts the late nodes on each root path with it."""
    total = counts.copy()
    up = np.where(parent >= 0, parent, root)
    while (up != root).any():
        total += total[up]
        up = up[up]
    return total


def build_surface_tree(curve, grid) -> SurfaceTree:
    """The root is the node farthest from the grid center.  A grid with a
    recorded layout is visited patch by patch, a node hanging from a
    layout neighbour where it can (_layout_tree); one without, by
    distance from the root, ties to the lower index.  A node left without
    a parent takes one from the nodes before it in one batched search
    (_nearest_clear), so a layout-less grid gets the nearest-visited tree.
    y_root is y continued from the base point to the root along
    build_path, one _continue_sqrt call per segment, each clear of the
    branch points."""
    lam = grid.nodes
    root = int(np.argmax(np.abs(lam - grid.center)))
    dist = np.abs(lam[:, None] - curve.branch_points)
    gap = dist.min(axis=1)
    if grid.patches:
        order, parent = _layout_tree(curve, grid, root, gap)
    else:
        # scalar abs, not np.abs: the two differ by an ulp on some nodes,
        # enough to swap two nodes of equal distance in the visit order
        rho = np.array([abs(z) for z in (lam - lam[root]).tolist()])
        order = np.lexsort((np.arange(lam.size), rho))
        parent = np.full(lam.size, -1, dtype=int)
    search = order[1:][parent[order[1:]] < 0]
    parent[search] = _nearest_clear(curve, lam, gap, order, search)
    hub = int(np.argmin(np.abs(dist[:, 0] - curve.min_gap / 3.0)))
    route = build_path(curve, curve.base_point, lam[root])
    y_root = curve.base_sheet_value
    for a, b in zip(route[:-1], route[1:]):
        y_root = complex(_continue_sqrt(curve.branch_points, a, b, y_root,
                                        [b])[0])
    return SurfaceTree(grid=grid, parent=parent, order=order, y_root=y_root,
                       root=root, hub=hub)


# QUADPACK's qk21 (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
# 1983): the Kronrod abscissae xgk in [0, 1], outermost first, every second
# one (xgk[1::2]) a node of the 10-point Gauss rule; their 21-point Kronrod
# weights wgk; and the 10-point Gauss weights wg of xgk[1::2]
_XGK = (0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077958109831074,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_NODES = 21   # integrand nodes per interval


@lru_cache(maxsize=None)
def _path_rule():
    """integrate_paths' nodes on [-1, 1], the 10 Gauss nodes and
    then the other 11, each ascending, then 1.0, with the Kronrod weights
    of the first _NODES and the Gauss weights of the first 10; read-only."""
    x, w = np.array(_XGK), np.array(_WGK)
    first = np.r_[1:_NODES:2, 0:_NODES:2]   # the Gauss nodes first
    rule = (np.r_[np.r_[-x[:-1], x[::-1]][first], 1.0],
            np.r_[w[:-1], w[::-1]][first], np.r_[_WG, _WG[::-1]])
    for a in rule:
        a.setflags(write=False)
    return rule


@lru_cache(maxsize=None)
def _rule_weights():
    """_path_rule's Kronrod and Gauss weights as the columns of one
    read-only (_NODES, 2, 1) block, the Gauss column zero past row 10."""
    block = np.zeros((_NODES, 2, 1))
    block[:, 0, 0], block[:10, 1, 0] = _path_rule()[1:]
    block.setflags(write=False)
    return block


def _embedded_gauss(half, vals, tol):
    """The nested 10/21-point Gauss-Kronrod rule of integrate_paths on
    one or more intervals: vals holds the integrand along axis 0 at the
    _NODES nodes of each (_path_rule), half the half-length, a Python
    complex (one interval) or an array of one per interval on the next
    axes of vals.  Returns the Kronrod estimates (exact to degree 31),
    each interval's gap (the largest component difference from the Gauss
    estimate, exact to degree 19) and whether it is accepted: a gap of
    at most max(tol, 1e-10 * the largest component of its Kronrod
    estimate).  Each column is summed row by row (np.add.accumulate), so
    unlike a BLAS product no bit depends on the batch: a piece gets the
    same bits in any pass.  The products, differences and moduli run on
    one (2, ..., k) block of the Kronrod and Gauss sums.  One interval
    returns its gap as a Python float and takes its bound with Python's
    max, which a NaN size leaves at tol where np.maximum gives NaN: a NaN
    size has a NaN gap, and both reject it."""
    sums = np.add.accumulate(_rule_weights() * vals.reshape(_NODES, 1, -1))
    # the Kronrod sums (last row, column 0) over the Gauss sums (row 9,
    # column 1), a strided view of the rows of the flattened block
    last = 2 * _NODES - 2
    sums = sums.reshape(2 * _NODES, -1)[last:18:19 - last]
    if isinstance(half, complex):
        est = half * sums
        est[1] = est[0] - est[1]
        size = np.abs(est)
        size, gap = (size[:, 0] if size.shape[1] == 1
                     else size.max(axis=1)).tolist()
        return (est[0].reshape(vals.shape[1:]), gap,
                gap <= max(tol, 1e-10 * size))
    half = np.asarray(half)[..., None]
    est = half * sums.reshape((2,) + half.shape[:-1] + (-1,))
    est[1] = est[0] - est[1]
    size = np.abs(est)
    size, gap = size[..., 0] if size.shape[-1] == 1 else size.max(axis=-1)
    return (est[0].reshape(vals.shape[1:]), gap,
            gap <= np.maximum(tol, 1e-10 * size))


# ---------------------------------------------------------------------------
# grid-averaged third-kind data, independent of both Green arguments
# ---------------------------------------------------------------------------

def _parts(nodes):
    """Real and imaginary parts of complex nodes, each contiguous."""
    return np.ascontiguousarray(nodes.real), np.ascontiguousarray(nodes.imag)


def _squared_distances(lam, parts):
    """|lam - node|^2 from one point to nodes given by _parts: the squared
    real difference plus the squared imaginary difference, with no hypot.
    It is the direct square of log_potential's scalar path, exact to the
    rounding of each difference, unlike the array path's Gram form."""
    re, im = parts
    r2 = lam.real - re
    r2 *= r2
    d = lam.imag - im
    d *= d
    r2 += d
    return r2


def _bump_phi(u, c0):
    """log_potential's phi inside a bump, at u = r^2 / eps^2 (c0 is
    log eps^2 - 37 / 12)."""
    return u * (8.0 + u * (-9.0 + u * (16.0 / 3.0 - 1.25 * u))) + c0


def _phi(r2, eps2, c0, near):
    """Overwrite the squared distances r2 with log_potential's phi: log r^2,
    floored at log 1e-300, or the bump where r^2 < eps^2, which the bool
    buffer near (of r2's shape) marks."""
    np.less(r2, eps2, out=near)
    u = r2[near]
    u /= eps2
    np.maximum(r2, 1e-300, out=r2)
    np.log(r2, out=r2)
    r2[near] = _bump_phi(u, c0)


def _gram_rows(x):
    """(n, 4) point side of the Gram form of r^2 for points x taken about
    the Gram centre: rows [|x|^2, 1, -2 Re x, -2 Im x]."""
    return np.stack([x.real * x.real + x.imag * x.imag, np.ones(x.size),
                     -2.0 * x.real, -2.0 * x.imag], axis=1)


def _gram_cols(q):
    """(4, m) node side of the Gram form for nodes q taken about the Gram
    centre: rows 1, |q|^2, Re q and Im q."""
    return np.stack([np.ones(q.size), q.real * q.real + q.imag * q.imag,
                     q.real, q.imag])


# rows of a Gram block come in multiples of _POTENTIAL_ROWS: one BLAS
# product of fixed shape writes the block's rows times the node count
# into a float buffer, with a bool buffer of the same size.  16 is a
# multiple of the row unroll of the OpenBLAS dgemm kernels checked
# (Haswell, SkylakeX, Sandybridge), so with one shape for every product
# a row's bits do not depend on its place in the block.  Re-timed over
# 8-64 rows on a 2-vCPU Xeon with 2 MB of L2 per core: at (12,16) 16-64
# rows tied within 5% and 8 paid 10-15% in per-block calls; at (24,32) 8
# and 16 tied and 32-64 paid about 10% (their buffers outgrow L2).  A
# block takes as many multiples as fit in _POTENTIAL_BLOCK entries, so a
# product against a few hundred nodes (t_nodes' near pairs) is not a
# dozen NumPy calls per 16 rows
_POTENTIAL_ROWS = 16
_POTENTIAL_BLOCK = 1 << 15


def _gram_sums(x, cols, w, eps2):
    """sum_i w_i phi_i for every row of x (_gram_rows) against the nodes
    given by cols (_gram_cols) with weights w, phi as _phi of the squared
    distance r^2 = x @ cols.

    The rows go in blocks of a fixed shape, which depends on the node
    count alone (_POTENTIAL_BLOCK); the last is padded with zero rows,
    which are neither logged nor returned.  A second fixed-shape product
    per block, phi times w, sums the rows.  So against the same nodes a
    row gets the same bits whatever its block, alone or among any rows."""
    n, m = x.shape[0], cols.shape[1]
    rows = _POTENTIAL_ROWS * max(1, _POTENTIAL_BLOCK
                                 // (_POTENTIAL_ROWS * m))
    xs = np.zeros((-(-n // rows) * rows, 4))
    xs[:n] = x
    out = np.empty(xs.shape[0])
    c0 = np.log(eps2) - 37.0 / 12.0
    r2_buf = np.empty((rows, m))
    near_buf = np.empty(r2_buf.shape, dtype=bool)
    for s in range(0, n, rows):
        np.matmul(xs[s:s + rows], cols, out=r2_buf)
        k = min(rows, n - s)
        _phi(r2_buf[:k], eps2, c0, near_buf[:k])
        np.matmul(r2_buf, w, out=out[s:s + rows])
    return out[:n]


def _log_terms(kappa):
    """Terms L of a log expansion whose ratio is at most kappa < 1: the
    least L with kappa^(L+1) / ((L+1)(1 - kappa)) <= 2^-53, which bounds
    the tail sum_{l>L} kappa^l / l of log(1 - t), |t| <= kappa."""
    n = 1
    while kappa ** (n + 1) > 2.0 ** -53 * (n + 1) * (1.0 - kappa):
        n += 1
    return n


# complex entries of one power table (_powers) or _nearest_clear block, so
# a block stays about 1 MB whatever the node count
_POWER_BLOCK = 1 << 16


def _powers(z, n):
    """(n, z.size) table of z, z^2, ..., z^n, each power block the
    product of the one below it and an earlier row: about log2 n whole
    products, not n."""
    t = np.empty((n, z.size), dtype=complex)
    t[0] = z
    m = 1
    while m < n:
        k = min(m, n - m)
        np.multiply(t[:k], t[m - 1], out=t[m:m + k])
        m += k
    return t


def _power_sums(z, w, n):
    """sum_i w_i z_i^l / l for l = 1..n."""
    out = np.zeros(n, dtype=complex)
    step = max(1, _POWER_BLOCK // n)
    for s in range(0, z.size, step):
        out += _powers(z[s:s + step], n) @ w[s:s + step]
    return out / np.arange(1, n + 1)


def _power_series(z, coef):
    """Re sum_l coef[l - 1] z^l at every z."""
    out = np.empty(z.size)
    step = max(1, _POWER_BLOCK // coef.size)
    for s in range(0, z.size, step):
        out[s:s + step] = (coef @ _powers(z[s:s + step], coef.size)).real
    return out


def _ring_tables(pair, eps2, c0):
    """The phi table of two polar patches P, Q about one centre, whose
    angle counts divide n = the larger one, in the angle index of that
    n-gon, and its FFT along the angles.

    A node's angle, 2 pi (j + shift) / n_ang, or minus that on the
    inverted chart (its node is centre + (1/r) e^{-i theta}), is
    2 pi (sign a j + sign a shift) / n with a = n / n_ang, and its
    distance from the centre is r, or 1/r inverted.  So a P node at index
    m_P = sign_P a_P j and a Q node at m_Q = sign_Q a_Q j' are
    2 pi (m_P - m_Q + delta) / n apart in angle, and their squared
    distance, (r - r')^2 + 4 r r' sin^2(half that angle), a sum of two
    non-negative terms, depends on m_P - m_Q mod n alone.  Returns n, the
    index maps of P's and Q's angles, and the FFT of phi on (P radius,
    Q radius, m_P - m_Q)."""
    out = []
    n = max(pair[0].n_ang, pair[1].n_ang)
    delta = 0.0
    for patch, sign in zip(pair, (1.0, -1.0)):
        a = n // patch.n_ang
        turn = -1 if patch.inverted else 1
        out.append((1.0 / patch.radii if patch.inverted else patch.radii,
                    turn * a * np.arange(patch.n_ang) % n))
        delta += sign * turn * a * patch.shift
    (r_p, m_p), (r_q, m_q) = out
    s2 = np.sin(np.pi * (np.arange(n) + delta) / n)
    s2 *= s2
    dr = r_p[:, None] - r_q
    r2 = (4.0 * np.multiply.outer(r_p, r_q))[..., None] * s2
    r2 += (dr * dr)[..., None]
    _phi(r2, eps2, c0, np.empty(r2.shape, dtype=bool))
    return n, m_p, m_q, np.fft.rfft(r2)


def _patch_sums(p_grid, q_grid, w, eps, centre):
    """sum_i w_i phi(|lam - lam_i|^2) at every p node lam, over the q nodes
    lam_i, patch by patch from both grids' layouts (SurfaceGrid.patches);
    phi is log_potential's, eps the mollification radius.

    Each pair of a p patch P and a q patch Q takes one of three routes.

    - Same centre, one angle count dividing the other (a branch disk with
      itself; the main disk and the exterior chart with each other): a
      circular convolution along the angles of the phi table of every
      radius pair (_ring_tables) with Q's weights, by FFT, bump included.
    - Other centres: the smaller plain (not inverted) patch, P where it is
      plain and no larger than Q or Q is inverted, else Q, takes an
      expansion about its centre c, of radius R (its largest radius).
      The other patch's nodes at least R + max(eps, R) from c are
      separated: their distance from any node of the patch exceeds eps,
      so phi there is log r^2 exactly, and the ratio kappa of R to their
      distance from c is at most 1/2.  A separated q node enters P's
      local expansion, log|z - w|^2 = log|w|^2 - 2 Re sum_l (z/w)^l / l
      with z = lam - c, w = lam_i - c; a separated p node takes Q's
      multipole expansion, the same series with z and w swapped.  Each
      takes L = _log_terms(kappa) terms, so each pair's phi is within
      2 kappa^(L+1) / ((L+1)(1 - kappa)) <= 2^-52 of the exact one.
    - The rest, the near pairs (and two inverted patches about two
      centres, which no build_surface_grid grid has), take the Gram form
      about centre (_gram_sums) against their q nodes of non-zero weight.

    So the truncation leaves the sums within 2^-52 sum_i |w_i| of the
    pair-by-pair sum.  Beyond it they differ by rounding: the ring
    tables' squared distances add two non-negative terms and cancel
    nowhere, the near pairs round as log_potential's Gram form does, and
    the FFTs and expansions round in proportion to the sums they form."""
    p, q = p_grid.nodes, q_grid.nodes
    eps2 = eps * eps
    c0 = np.log(eps2) - 37.0 / 12.0
    out = np.zeros(p.size)
    p_at = np.cumsum([0] + [P.size for P in p_grid.patches]).tolist()
    q_at = np.cumsum([0] + [Q.size for Q in q_grid.patches]).tolist()
    p_reach = [float(P.radii.max()) for P in p_grid.patches]
    q_reach = [float(Q.radii.max()) for Q in q_grid.patches]
    # ring pairs by the shape of both patches; the q columns of each p
    # patch's local expansion and the p rows of each q patch's multipole
    # one; the near p rows and q columns
    rings, local, multipole, near = {}, {}, {}, []
    for i, P in enumerate(p_grid.patches):
        rows = np.arange(p_at[i], p_at[i + 1])
        for j, Q in enumerate(q_grid.patches):
            cols = np.arange(q_at[j], q_at[j + 1])
            small, large = sorted((P.n_ang, Q.n_ang))
            if P.center == Q.center and large % small == 0:
                key = tuple((X.radii.tobytes(), X.n_ang, X.shift, X.inverted)
                            for X in (P, Q))
                rings.setdefault(key, ((P, Q), []))[1].append((i, j))
            elif not P.inverted and (Q.inverted or p_reach[i] <= q_reach[j]):
                local.setdefault(i, []).append(cols)
            elif not Q.inverted:
                multipole.setdefault(j, []).append(rows)
            else:
                near.append((rows, cols))
    for pair, ij in rings.values():
        n, m_p, m_q, table = _ring_tables(pair, eps2, c0)
        v = np.zeros((len(ij), pair[1].radii.size, n))
        for k, (_, j) in enumerate(ij):
            v[k][:, m_q] = w[q_at[j]:q_at[j + 1]].reshape(v.shape[1], -1)
        conv = np.fft.irfft(
            np.einsum("gjk,ijk->gik", np.fft.rfft(v), table), n)
        for k, (i, _) in enumerate(ij):
            out[p_at[i]:p_at[i + 1]] += conv[k][:, m_p].ravel()
    for i, cols in local.items():
        own = np.arange(p_at[i], p_at[i + 1])
        c = p_grid.patches[i].center
        cols = np.concatenate(cols)
        cols = cols[w[cols] != 0.0]
        d = q[cols] - c
        r2 = d.real * d.real + d.imag * d.imag
        far = r2 >= (p_reach[i] + max(eps, p_reach[i])) ** 2
        near.append((own, cols[~far]))
        if far.any():
            wf, r2 = w[cols[far]], r2[far]
            coef = _power_sums(1.0 / d[far], wf, _log_terms(
                p_reach[i] / math.sqrt(r2.min())))
            out[own] += wf @ np.log(r2) - 2.0 * _power_series(p[own] - c,
                                                               coef)
    for j, rows in multipole.items():
        own = np.arange(q_at[j], q_at[j + 1])
        c = q_grid.patches[j].center
        rows = np.concatenate(rows)
        d = p[rows] - c
        r2 = d.real * d.real + d.imag * d.imag
        far = r2 >= (q_reach[j] + max(eps, q_reach[j])) ** 2
        near.append((rows[~far], own))
        if far.any():
            r2 = r2[far]
            coef = _power_sums(q[own] - c, w[own], _log_terms(
                q_reach[j] / math.sqrt(r2.min())))
            out[rows[far]] += w[own].sum() * np.log(r2) - 2.0 \
                * _power_series(1.0 / d[far], coef)
    x, gram = _gram_rows(p - centre), _gram_cols(q - centre)
    for rows, cols in near:
        cols = cols[w[cols] != 0.0]
        if rows.size and cols.size:
            out[rows] += _gram_sums(x[rows], gram[:, cols], w[cols], eps2)
    return out


@dataclass
class GreenContext:
    """Precomputed q-side data: staggered grids, Cauchy weights, area.

    The averaged form is _form_values for a second argument, the triple
    (lambda, y, pcoef) that form gives for one surface point, less the
    Cauchy sum: G reads the sum through t_nodes and log_potential, the
    special solutions through cone_cauchy.  The p-side data that every
    GreenSolver shares (p_tree and t_nodes) are built on first read: a
    context, its solvers and its checks build one tree, the p tree."""

    model: BidiffModel
    frame: DistinguishedFrame
    curve: Curve
    p_grid: object
    q_grid: object
    cauchy_w: np.ndarray       # real per-node weights W_i (one sheet)
    moll_radius: float         # mollification radius of the log potential
    dens_p: np.ndarray
    area: float

    base = cached_property(lambda self: _moment_base(self.curve))

    def form(self, y: SurfacePoint):
        """(lambda, y, pcoef) of the q-averaged form Omega_bar_y, the
        second argument of _form_values for the one point y;
        ConeArgument at the cone point.

        pcoef is the correction polynomial of the moments R(y) from
        branch point 0 (_moments_at).  Averaging the moments R(y) - R(q)
        over the grid leaves R(y): R is odd in the sheet, so R(q) cancels
        between the two sheets of each node.  Another start moves the
        polynomial only by the computed form's real periods."""
        if abs(complex(y.lam) - self.frame.lam_p) < 1e-10 * self.curve.scale:
            raise ConeArgument("argument coincides with the cone point")
        return y.lam, self.curve.y_of(y), _correction_pcoef(
            self.model, _moments_at(self.curve, self.base, y))

    @cached_property
    def cone_cauchy(self) -> complex:
        """S = sum_q W_q / (lambda_P - lambda_q) / Area, the Cauchy sum
        at the cone point, all that _special_solutions reads of it."""
        s = (self.cauchy_w / (self.frame.lam_p - self.q_grid.nodes)).sum()
        return complex(s / self.area)

    @cached_property
    def p_tree(self) -> SurfaceTree:
        """Spanning tree over the p grid, shared by every GreenSolver."""
        return build_surface_tree(self.curve, self.p_grid)

    @cached_property
    def t_nodes(self) -> np.ndarray:
        """log_potential at the p-grid nodes, patch by patch from the two
        grids' layouts (_patch_sums) where both have one, else
        log_potential's array path itself.

        On the layout route each entry is within t_bound of the direct
        sum, beyond rounding: t_bound covers the truncated expansions,
        and the near pairs round as the array path's Gram form does."""
        if not (self.p_grid.patches and self.q_grid.patches):
            return self.log_potential(self.p_grid.nodes)
        out = _patch_sums(self.p_grid, self.q_grid, self.cauchy_w,
                          self.moll_radius, self.curve.branch_points.mean())
        out *= -0.5 / self.area
        return out

    @property
    def t_bound(self) -> float:
        """Truncation bound of t_nodes: 2^-53 sum_i |W_i| / Area, which is
        (1/2) / Area times _patch_sums' 2^-52 sum_i |W_i|."""
        return 2.0 ** -53 * float(np.abs(self.cauchy_w).sum()) / self.area

    @cached_property
    def _q_parts(self):
        """Real and imaginary parts of the q nodes, contiguous."""
        return _parts(self.q_grid.nodes)

    @cached_property
    def _q_gram(self):
        """(4, n_q) q-side factor of log_potential's Gram form
        (_gram_cols) of q' = lam_q - c, c the branch-point mean."""
        return _gram_cols(self.q_grid.nodes
                          - self.curve.branch_points.mean())

    @cached_property
    def _p_parts(self):
        """Real and imaginary parts of the p nodes, contiguous."""
        return _parts(self.p_grid.nodes)

    def log_potential(self, lam):
        """-(1/Area) sum_i W_i log|lam - lam_i|, each node mollified over
        a radial bump spanning a few interior grid cells.

        Outside a node's bump disk its potential is exactly the point
        log, so the mollification only redistributes the -1/Area
        Laplacian of G into a smooth density instead of log spikes.  The
        bump (8 - 20u)(1 - u)^2 / (pi eps^2), u = r^2 / eps^2, has unit
        mass and vanishing second moment, so the smeared density matches
        the metric density to fourth order in eps.

        The sum runs in squared distances with no hypot: phi = log r^2,
        or twice the bump potential plus log eps^2 where r^2 < eps^2, and
        the result is -(1/2) sum_i W_i phi_i / Area.

        A scalar lam, the query path of GreenSolver.u_at, is the direct
        sum (_log_potential_at): r^2 is _squared_distances from lam to
        the q nodes, and the near entries are set to 1 before the log and
        to the bump after it, so a point on a q node warns of no divide.

        An array lam takes r^2 in the Gram form about c, the branch-point
        mean: with x = lam - c and q' = lam_i - c, r^2 = [|x|^2, 1,
        -2 Re x, -2 Im x] . [1, |q'|^2, Re q', Im q'], one BLAS product
        per block of points against the cached (4, n_q) q side (_q_gram),
        and one more for the row sums (_gram_sums): a point gets the same
        bits whatever its block, alone or in any array.  phi is floored at
        log 1e-300, so a near pair whose r^2 rounds to zero or below warns
        of nothing before its bump replaces it.  t_nodes runs this path
        on its near pairs only (_patch_sums) and adds its truncation bound
        t_bound to what is stated here.

        The Gram form cancels where r is small against |x| + |q'|.
        Rounding x, q', |x|^2, |q'|^2 and the four-term product leaves r^2
        within 4 ulp of (|x| + |q'|)^2 of the direct square (ulp = 2^-52),
        and phi's slope in r^2 is at most 1/r^2 outside a bump and 8/eps^2
        inside one.  So each phi_i is within 32 ulp of (|x| + |q'_i|)^2 /
        max(r_i^2, eps^2), and the array path within (16 ulp / Area)
        sum_i W_i (|x| + |q'_i|)^2 / max(r_i^2, eps^2) of the direct sum,
        beyond the rounding of the sum itself."""
        lam = np.asarray(lam, dtype=complex)
        if lam.ndim == 0:
            return self._log_potential_at(complex(lam))
        out = _gram_sums(
            _gram_rows(lam.reshape(-1) - self.curve.branch_points.mean()),
            self._q_gram, self.cauchy_w, self._bump[0])
        out *= -0.5 / self.area
        return out.reshape(lam.shape)[()]

    @cached_property
    def _bump(self):
        """(eps^2, log eps^2 - 37 / 12) of log_potential's bump."""
        eps2 = self.moll_radius ** 2
        return eps2, np.log(eps2) - 37.0 / 12.0

    def _log_potential_at(self, lam):
        """log_potential's scalar path at the Python complex lam."""
        eps2, c0 = self._bump
        r2 = _squared_distances(lam, self._q_parts)
        near = (r2 < eps2).nonzero()[0]
        u = r2[near] / eps2
        r2[near] = 1.0
        np.log(r2, out=r2)
        r2[near] = _bump_phi(u, c0)
        r2 *= self.cauchy_w
        return np.add.reduce(r2) * (-0.5 / self.area)


def green_context(model: BidiffModel, frame: DistinguishedFrame,
                  cfg: QuadratureConfig | None = None) -> GreenContext:
    """The reusable context, with no tree yet; cfg.surface_grid sets the
    resolution (coarse by design, Green properties hold to about 1e-2)."""
    cfg = cfg or QuadratureConfig(surface_grid=(12, 16, None))
    curve = model.curve
    p_grid = build_surface_grid(curve.branch_points, cfg)
    q_grid = build_surface_grid(curve.branch_points, cfg, stagger=0.31)
    dens_q = metric_density(curve, frame.lam_p, q_grid.nodes)
    dens_p = metric_density(curve, frame.lam_p, p_grid.nodes)
    cauchy_w = q_grid.weights * dens_q
    area = 2.0 * float(cauchy_w.sum())
    center = curve.branch_points.mean()
    rb = np.abs(curve.branch_points - center).max()
    inhull = np.abs(q_grid.nodes - center) < 1.5 * rb
    cells = q_grid.weights[inhull] if inhull.any() else q_grid.weights
    moll_radius = 3.0 * float(np.sqrt(np.percentile(cells, 95)))
    return GreenContext(model=model, frame=frame, curve=curve, p_grid=p_grid,
                        q_grid=q_grid, cauchy_w=cauchy_w,
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

    The averaged form less its Cauchy sum (see t_nodes) is h + g
    (_form_values).  With Gamma(z) = int_b0^z g dlambda, odd in the sheet
    as the moments are, u = (1/2) log|lambda - lambda_y| +- Re Gamma + t +
    c (+ on the tree sheet of a point, - on the other; t is t_nodes at a
    p node, log_potential elsewhere) is the real integral of the averaged
    form from the p-tree root, plus t, and G(x, y) = (u(x) - mean_u) /
    2 pi; a y on a p node raises SingularityOnGrid.  Only g is integrated,
    where it is read: at a p node Re Gamma(j) = gamma_root + S(j), the
    tree sum of g on its root path (settle, which takes y there, _y(j),
    from the same edges), and gamma_root = Re Gamma(root) = Re leg -
    S(hub), leg the _branch_leg of g from b0 to _y(hub), so construction
    settles the hub's root path.
    c = -(1/2) log|lambda_root - lambda_y| - gamma_root reaches G only as
    mean_u divides a p-grid sum by the q-grid area, ctx.area.  Errors,
    e(j) being S(j)'s: c is within e(hub) + leg_err.  u_at adds
    c + gamma_root, exact, on the tree sheet, so its error is e(j) plus
    its short path's, and c - gamma_root on the other, adding cross_err =
    2 (e(hub) + leg_err).  In mean_u = (2 / Area) sum_p w_p ((1/2)
    log|lambda_p - lambda_y| + c + t_p) the sheets' Re Gamma cancel: with
    s = 2 sum_p w_p / Area it is within tree_err = s (e(hub) + leg_err +
    ctx.t_bound), t_bound bounding each t_nodes entry, which reaches G
    through mean_u alone (u_at reads log_potential)."""

    def __init__(self, ctx: GreenContext, y: SurfacePoint):
        self.ctx = ctx
        self.y = y
        dist = np.abs(ctx.p_grid.nodes - y.lam)
        if dist.min() < 1e-12 * ctx.curve.scale:
            raise SingularityOnGrid(f"y = {y.lam} lies on a p-grid node")
        self.form = ctx.form(y)
        # _odd's form, its pcoef as Python complex, which NumPy takes
        # faster than NumPy scalars, to the same bits
        self._odd_form = self.form[:2] + (self.form[2].tolist(),)
        tree = self.p_tree = ctx.p_tree
        hub, lam = tree.hub, tree.grid.nodes
        self._sums = np.zeros((lam.size, 2))   # (S, e) where settled
        self._known = np.arange(lam.size) == tree.root
        self._y = np.where(self._known, tree.y_root, 0j)   # where settled
        s_hub, e_hub = self.settle([hub])[0]
        leg, leg_err = _branch_leg(ctx.curve, lam[hub], self._y[hub],
                                   self._odd)
        self.gamma_root = float(leg[0].real - s_hub)
        half_log = 0.5 * np.log(dist)
        self.c = float(-half_log[tree.root] - self.gamma_root)
        self.cross_err = float(2.0 * (e_hub + leg_err))
        # u_at's constant on the tree sheet and the other
        self._offset = (self.c + self.gamma_root, self.c - self.gamma_root)
        # u's two sheets sum to 2 (half_log + c + t_nodes): gamma cancels
        w = ctx.p_grid.weights * ctx.dens_p
        self.mean_u = float(
            2.0 * (w * (half_log + self.c + ctx.t_nodes)).sum() / ctx.area)
        self.tree_err = float(2.0 * w.sum() / ctx.area
                              * (e_hub + leg_err + ctx.t_bound))

    def _odd(self, zs, ys):
        """The odd part g of the averaged form (_odd_part), one column."""
        return _odd_part(zs, ys, *self._odd_form)[:, None]

    def settle(self, nodes):
        """(S, e) at the p nodes in nodes, (m, 2): S(j) = Re int_root^j g
        along the tree on its sheet, e(j) its error, and _y(j), y on that
        sheet.  The unsettled root-path edges, each a two-vertex path from
        +sqrt(P) at its parent, take one integrate_paths call at tol 1e-8
        and budget 30.  Its value v and end y are odd in the start y, bit
        for bit, so walking each path from the root down, with sigma = +-1
        as _y at the parent is +-sqrt(P), a node takes S = S(parent) +
        sigma v and _y = sigma y_end.  S and e are prefix sums (np.cumsum)
        seeded with the deepest settled ancestor: a node gets the bits of
        the walk from the root, whatever was settled before."""
        tree, known, sums, ys = self.p_tree, self._known, self._sums, self._y
        parent, lam = tree.parent, tree.grid.nodes
        paths, new = [], set()
        for j in map(int, nodes):
            path = []
            while not (known[j] or j in new):
                path.append(j)
                new.add(j)
                j = int(parent[j])
            paths.append((j, path[::-1]))
        if new:
            kids = np.array(sorted(new))
            up = parent[kids]
            y_up = np.sqrt(self.ctx.curve.poly(lam[up]))
            vals, gap, y_end = integrate_paths(
                self.ctx.curve.branch_points,
                zip(lam[up].tolist(), lam[kids].tolist()), y_up, self._odd,
                tol=1e-8, budget=30)
            edges = np.column_stack([np.real(vals)[:, 0], gap])
            for j, path in paths:
                rows = np.searchsorted(kids, path)
                for k, r in zip(path, rows.tolist()):
                    if ys[parent[k]] != y_up[r]:   # parent on -sqrt(P)
                        edges[r, 0], y_end[r] = -edges[r, 0], -y_end[r]
                    ys[k] = y_end[r]
                sums[path] = np.cumsum(np.vstack([sums[j], edges[rows]]),
                                       axis=0)[1:]
            known[kids] = True
        return sums[nodes]

    def _nearest_node(self, lam):
        """Index of the p node nearest to lam, by squared distance on the
        context's contiguous real and imaginary parts (no hypot pass),
        ties to the lower index (argmin).  It is the hypot argmin unless
        two distances agree to rounding."""
        return int(_squared_distances(lam, self.ctx._p_parts).argmin())

    def u_at(self, x: SurfacePoint):
        """u(x) = (1/2) log|lambda_x - lambda_y| + Re Gamma(x) +
        log_potential(x) + c and its error.  Gamma(x) starts from the p
        node j nearest to x (_nearest_node), settled first if it is not:
        one build_path from (lambda_j, _y[j]) from S(j), signed by its
        arrival sheet (_odd_at), plus +- gamma_root; a p node takes no
        path.  Re Gamma is path independent (loop integrals of the form
        are imaginary, to real periods of about 1e-11).  The error is the
        short path's plus e(j), plus cross_err on the other sheet."""
        tree = self.p_tree
        lam = complex(x.lam)
        j = self._nearest_node(lam)
        if not self._known[j]:
            self.settle([j])
        odd, err, s = _odd_at(self.ctx.curve, tree.grid.nodes[j],
                              self._y[j], self._sums[j, :1], x, self._odd)
        t_x = float(self.ctx._log_potential_at(lam))
        even = 0.5 * math.log(abs(lam - self.form[0]))
        return (even + float(odd[0].real) + t_x + self._offset[s],
                float(err + self._sums[j, 1] + s * self.cross_err))

    def green(self, x: SurfacePoint) -> GreenEvaluation:
        """G(x, y) from u_at.  The error estimate is u_at's error (short
        path and root path) plus tree_err (mean_u's), over 2 pi."""
        if abs(complex(x.lam) - complex(self.y.lam)) \
                < 1e-10 * self.ctx.curve.scale and x.sheet == self.y.sheet:
            raise CoincidentArguments("Green arguments coincide")
        ux, err = self.u_at(x)
        val = (ux - self.mean_u) / (2.0 * np.pi)
        est = (err + self.tree_err) / (2.0 * np.pi)
        return GreenEvaluation(x=x, y=self.y, value=val,
                               error_estimate=float(est))

    def green_at_cone(self):
        """G(P, y) and its error estimate by the mean-value property: the
        mean of green over six equispaced points of the xi-circle |xi| =
        1e-3 about the cone point (_cone_circle_points), with the largest
        of their estimates.  In the frame chart G(P) + 2 Re sum_l b_l xi^l
        is G up to O(|xi|^6) (the metric density vanishes like |xi|^4 at
        P), and the six points average every xi^l, l < 6, out; one point
        would keep 2 Re(b1 xi), three 2 Re(b3 xi^3).  No quadrature node
        sits at P."""
        gs = [self.green(p) for p in _cone_circle_points(self.ctx, 1e-3,
                                                         6)[1]]
        return (float(np.mean([g.value for g in gs])),
                max(g.error_estimate for g in gs))

    def special_solutions(self):
        """(G_{1/xi}, G_{1/xi^2})(y; 0) from this solver's form
        (_special_solutions)."""
        return tuple(map(complex, _special_solutions(self.ctx, *self.form)))


# ---------------------------------------------------------------------------
# special growing solutions at lambda = 0
# ---------------------------------------------------------------------------

def _xi_circle_radius(ctx: GreenContext, t_lam=()):
    """Sampling radius in xi of the special-solution FFT: 0.9 |xi(zeta)|
    at zeta = 0.65 sqrt(d), d a quarter of the distance from the cone
    point to the nearest pole of _form_values (a second argument in t_lam:
    scalar, array or none) or edge of the frame chart (a branch point)."""
    lam_p = ctx.frame.lam_p
    d = 0.25 * np.min(np.abs(np.asarray(t_lam) - lam_p),
                      initial=np.abs(ctx.frame.rest - lam_p).min())
    zeta_r = 0.65 * np.sqrt(d)
    return 0.9 * abs(complex(ctx.frame.xi_of_zeta.evaluate(
        np.asarray([zeta_r], complex))[0]))


def _cone_circle(ctx: GreenContext, r, n):
    """Distinguished-frame sampling circle |xi| = r around the cone point.

    Returns (xi, lam, y, dlambda/dxi) (DistinguishedFrame.xi_chart).  Note
    that lambda winds twice per xi loop, antipodal xi samples sharing
    lambda on opposite sheets."""
    xi = r * np.exp(2j * np.pi * np.arange(n) / n)
    return (xi, *ctx.frame.xi_chart(xi)[1:])


def _cone_circle_points(ctx: GreenContext, r, n):
    """Sheet-resolved SurfacePoints of the cone circle, with xi."""
    xi, lam, yv, _ = _cone_circle(ctx, r, n)
    y_ref = ctx.curve.y_at(lam, 1)
    sheets = np.where(np.abs(yv - y_ref) <= np.abs(yv + y_ref), 1, -1)
    pts = [SurfacePoint(complex(lam[k]), int(sheets[k])) for k in range(n)]
    return xi, pts


def _cone_orders(ctx: GreenContext, r, form):
    """Minus the xi-Taylor coefficients of orders 0 and 1 at the cone point
    of (form - C) dlambda/dxi, form(lam, y) a form over dlambda regular
    inside |xi| = r and C the Cauchy sum: one 32-point FFT of form on that
    circle, and C in closed form.  With zeta = c1 xi + O(xi^2), C
    dlambda/dxi = 2 c1^2 C(lambda_P) xi + O(xi^2) adds -2 c1^2 cone_cauchy
    at order 1 alone."""
    n = 32
    _, lam, yv, dlam_dxi = _cone_circle(ctx, r, n)
    coef = np.fft.fft(form(lam, yv) * dlam_dxi) / n
    c1 = complex(ctx.frame.zeta_of_xi.coeffs[1])
    return -coef[0], 2.0 * c1 * c1 * ctx.cone_cauchy - coef[1] / r


def _special_solutions(ctx: GreenContext, t_lam, t_y, pcoef):
    """(G_{1/xi}, G_{1/xi^2})(t; 0) for the second argument t = (t_lam,
    t_y) with correction pcoef: _cone_orders of _form_values, the averaged
    form Omega_bar_t without its Cauchy sum, on a circle inside its
    poles."""
    return _cone_orders(ctx, _xi_circle_radius(ctx, t_lam), lambda lam, yv:
                        _form_values(lam, yv, t_lam, t_y, pcoef))


def special_solution_zero(ctx: GreenContext, l: int,
                          y: SurfacePoint) -> complex:
    """G_{1/xi^l}(y; 0) for l in {1, 2} (_special_solutions)."""
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    return complex(_special_solutions(ctx, *ctx.form(y))[l - 1])


def special_solution_means(ctx: GreenContext):
    """Surface means of G_{1/xi} and G_{1/xi^2}; both vanish in theory.

    The mean is the Cauchy-weighted sum of _special_solutions over the q
    nodes on both sheets, over Area.  A node's two sheets carry opposite
    y and opposite correction polynomials, exactly: R(q-) = -R(q+)
    (_moments_at) and _correction_pcoef is real-linear.  So their two
    _form_values sum to 1 / (lambda - lambda_q), and the weighted sum of
    those, with Area = 2 sum_q W_q, is C itself.  So the means are
    _cone_orders of C, on the circle that stays inside every q node: what
    they check is the closed form of C at the cone point against the FFT
    of C."""
    def cauchy(lam, _):
        return (ctx.cauchy_w / (lam[:, None] - ctx.q_grid.nodes)).sum(1) \
            / ctx.area
    return tuple(map(complex, _cone_orders(
        ctx, _xi_circle_radius(ctx, ctx.q_grid.nodes), cauchy)))


# ---------------------------------------------------------------------------
# coefficient matching, regularized log entry, Bergman consistency
# ---------------------------------------------------------------------------

def coefficient_matching(solver: GreenSolver, n_samples=12) -> dict:
    """Fit G(xi, y) on |xi| = r0, half the special-solution circle's
    radius, against the cone-point expansion model
    G(P,y) - sum_l (1/4 pi l)[G_{1/xi^l} xi^l + conj terms], and compare
    the fitted coefficients with the special-solution values."""
    ctx = solver.ctx
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
    g1, g2 = solver.special_solutions()
    t1 = -g1 / (4.0 * np.pi)
    t2 = -g2 / (8.0 * np.pi)
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


def smatrix_expansion_check(ctx: GreenContext) -> dict:
    """End-to-end comparison of the special-solution expansions at the
    cone point with the assembled T(0) entries.

    Fits G_{1/xi^l}(y; 0) as a harmonic series in y on two circles (two
    radii separate 1/xi^l from conj(xi)^l, which coincide on one circle).
    The holomorphic-sector coefficients reproduce the T(0) entries with
    their sign; the conjugate-sector coefficients come out as the
    negated entries, fixing the sign convention of the conjugate block
    relative to the Bergman-kernel sum.  Each of the 16 points per circle
    costs one GreenContext.form; the frame chart alone sizes the circles.
    """
    rmax = _xi_circle_radius(ctx)
    rows, rhs1, rhs2 = [], [], []
    for r0 in (0.3 * rmax, 0.55 * rmax):
        xi, pts = _cone_circle_points(ctx, r0, 16)
        for z, p in zip(xi, pts):
            g1, g2 = _special_solutions(ctx, *ctx.form(p))
            rows.append([1 / z ** 2, 1 / z, 1.0, z, z ** 2,
                         np.conj(z), np.conj(z) ** 2])
            rhs1.append(complex(g1))
            rhs2.append(complex(g2))
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
    the mixed derivative needs _form_values alone (the Cauchy sum does not
    depend on y); the conj(y) derivative is taken by central differences.
    """
    ctx = solver.ctx
    if h <= 0 or h < 1e-10 * ctx.curve.scale:
        raise StepTooSmall(f"finite-difference step {h} is too small")
    y = solver.y
    lam_x = np.asarray([x.lam], complex)
    y_x = ctx.curve.y_at(lam_x, x.sheet)

    def dxg(dy):
        yy = SurfacePoint(complex(y.lam) + dy, y.sheet)
        om = _form_values(lam_x, y_x, *ctx.form(yy))[0]
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
