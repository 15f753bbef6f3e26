"""Genus-2 hyperelliptic curve y^2 = prod (lambda - lambda_j): sheet
tracking, a/b periods of the differentials lambda^m dlambda / y, the
period matrix, and the area of the flat conical metric |omega|^2.

The homology basis is built from loops around consecutive angle-sorted
branch-point pairs; its validity is gated a posteriori by the Riemann
relations (symmetric period matrix with positive definite imaginary
part), and everything consumed downstream is basis-independent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BaseOnBranchPoint,
    ConsistencyFailure,
    DomainError,
    DuplicateBranchPoints,
    NonConvergence,
    NotABranchPoint,
)
from .numerics import QuadratureConfig, gauss_legendre, integrate_surface


@dataclass(frozen=True)
class Curve:
    """Hyperelliptic curve with a fixed square-root sheet convention.

    The reference branch y-hat(lambda) = prod_j sqrt(lambda - lambda_j)
    (principal square roots) defines sheet +1; the base point sits far
    above the branch locus where that product is continuation-friendly.
    """

    branch_points: np.ndarray
    base_point: complex
    base_sheet_value: complex

    @cached_property
    def scale(self):
        bp = self.branch_points
        return float(np.abs(bp - bp.mean()).max()) or 1.0

    @cached_property
    def min_gap(self):
        bp = self.branch_points
        d = np.abs(bp[:, None] - bp[None, :])
        return float(d[d > 0].min())

    def poly(self, lam):
        """prod(lambda - lambda_j) over the branch points (_root_product)."""
        return _root_product(lam, self.branch_points)

    def y_at(self, lam, sheet=1):
        lam = np.asarray(lam, dtype=complex)
        return sheet * np.prod(np.sqrt(lam[..., None] - self.branch_points),
                               axis=-1)

    def y_of(self, point):
        """y at a SurfacePoint, as a Python complex (y_at on its sheet)."""
        return complex(self.y_at(np.asarray(point.lam, complex), point.sheet))


# _root_product takes np.prod below this many points, where it is cheaper
_BULK_POINTS = 1024


def _root_product(z, roots):
    """prod(z - r) over roots on the last axis, equal bit for bit to
    np.prod(z[..., None] - roots, axis=-1): its reduction below
    _BULK_POINTS points, _real_product from there on."""
    z = np.asarray(z, dtype=complex)
    if z.size < _BULK_POINTS:
        return np.multiply.reduce(z[..., None] - roots, axis=-1)
    return _real_product(z, roots)


def _real_product(z, roots):
    """prod(z - r) over the (at least one) roots, in real arithmetic on
    contiguous real and imaginary parts.

    Why real arithmetic: np.prod reduces one complex product at a time,
    each taken as (pr*br - pi*bi, pr*bi + pi*br) with every real product
    rounded on its own.  Whole-array real multiplies and subtractions
    repeat exactly those steps, so the result equals
    np.prod(z[..., None] - roots, axis=-1) bit for bit, in a few vector
    passes per root.  NumPy's elementwise complex multiply (p *= z - r)
    does not: its vector loop rounds differently and moves results by an
    ulp on most points."""
    z = np.asarray(z, dtype=complex)
    zr, zi = z.real.ravel(), z.imag.ravel()
    pr, pi = zr - roots[0].real, zi - roots[0].imag
    br, bi, t = np.empty_like(zr), np.empty_like(zr), np.empty_like(zr)
    for r in roots[1:]:
        np.subtract(zr, r.real, out=br)
        np.subtract(zi, r.imag, out=bi)
        np.multiply(pi, bi, out=t)
        bi *= pr
        pr *= br
        pr -= t          # pr*br - pi*bi
        pi *= br
        pi += bi         # pi*br + pr*bi
    out = np.empty(z.shape, dtype=complex)
    out.real, out.imag = pr.reshape(z.shape), pi.reshape(z.shape)
    return out[()]


@dataclass(frozen=True)
class SurfacePoint:
    lam: complex
    sheet: int = 1


def make_curve(branch_points, base=None) -> Curve:
    bp = np.asarray([complex(b) for b in branch_points], dtype=complex)
    if bp.size != 6:
        raise DuplicateBranchPoints(f"need 6 branch points, got {bp.size}")
    if not np.isfinite(bp).all():
        raise DomainError(f"branch points must be finite, got {bp}")
    d = np.abs(bp[:, None] - bp[None, :])
    np.fill_diagonal(d, np.inf)
    if d.min() < 1e-12 * max(1.0, float(np.abs(bp).max())):
        raise DuplicateBranchPoints("branch points are not pairwise distinct")
    center = complex(bp.mean())
    diameter = 2.0 * float(np.abs(bp - center).max())
    if base is None:
        base = center + 2j * diameter
    base = complex(base)
    if np.abs(bp - base).min() < 1e-10 * max(1.0, diameter):
        raise BaseOnBranchPoint(f"base point {base} is a branch point")
    y0 = complex(np.prod(np.sqrt(base - bp)))
    return Curve(branch_points=bp, base_point=base, base_sheet_value=y0)


def make_z5_curve(lambda1=0.0, r=1.0) -> Curve:
    """Curve with the order-5 symmetry lambda_k = lambda_1 + r^2 e^{2pi i(k-1)/5}."""
    lam1 = complex(lambda1)
    ks = np.arange(5)
    bp = np.concatenate([[lam1], lam1 + r ** 2 * np.exp(2j * np.pi * ks / 5)])
    return make_curve(bp)


# segments whose turn S stays below this take _continue_sqrt's sign rule
_TURN_BOUND = 0.9 * np.pi


def _segment_turn(roots, a, b):
    """(S, ratios) of the scalar segment [a, b]: the ratios (b - r) /
    (a - r), one per root r of the list roots, and _continue_sqrt's turn
    S = sum_r |Arg((b - r) / (a - r))|.  A start on a root has no ratio
    there (None) and an infinite turn."""
    try:
        ratios = [(b - r) / (a - r) for r in roots]
    except ZeroDivisionError:
        return math.inf, [(b - r) / (a - r) if r != a else None
                          for r in roots]
    return sum([abs(cmath.phase(w)) for w in ratios]), ratios


def _continue_sqrt(roots, a, b, val, targets, turn=None):
    """Analytic continuation of sqrt(prod(lambda - roots)) from (a, val)
    along the straight segment [a, b] to each target, which must lie on
    that segment, in closed form.

    Every returned value is +-exact(t), exact(t) = np.sqrt(np.prod(t -
    roots)); only the sign is decided, so no rounding of the decision
    reaches the result.  The targets may come in any order.

    val is y at a, one of +-sqrt(prod(a - roots)) up to rounding.

    The sign rule: as t runs from a to b, each arg(t - r) - arg(a - r)
    moves monotonically (t - r runs on a line) from 0 to
    Arg((b - r) / (a - r)).  So the continued arg of
    prod((t - r) / (a - r)) is bounded on the whole segment by the turn
    S = sum_r |Arg((b - r) / (a - r))|, one phase per root and segment,
    not per target.  When S < _TURN_BOUND = 0.9 pi, the continued square
    root of that product keeps an arg below 0.45 pi, so y(t), val times
    that root, keeps Re(y(t) * conj(val)) > 0:

        y(t) = sign(Re(exact(t) * conj(val))) * exact(t).

    That real part keeps cos(0.45 pi) |exact(t)| |val|, over 0.15 of the
    product of the moduli, away from zero, so the rounding of the one
    complex product that takes it never decides a sign.

    A segment with a larger or non-finite turn (it passes through a root
    or starts on one) takes the ratio product instead: each ratio
    (t - r) / (a - r) moves on a line that starts at 1 and reaches the
    principal cut (-inf, 0] only through r, so val * prod(sqrt((t - r) /
    (a - r))) is the continuation with principal square roots, and the
    sign of exact(t) nearest to it is returned.  Both decide the same
    sign wherever both apply.

    a, b and val may be arrays of segments, all of one shape Q; the
    targets then have shape (..., *Q), each continued along the segment
    it is aligned with on the trailing axes.  A call with arrays of
    starts equals the per-start scalar calls bit for bit: every segment
    takes its turn in scalar cmath (_segment_turn), or from the caller,
    one per segment (green.integrate_paths has it from the ratios of its
    through-root refusal).

    One segment, given as scalars (loop_nodes, the tree root, a pass of
    one row in green.integrate_paths) or as 1-element arrays, below the
    bound needs only exact, the sign rule and np.where.  A start on a
    root, or a turn at or past the bound, takes the array path.
    """
    targets = np.asarray(targets, dtype=complex)
    if np.isscalar(a) or a.size == 1:
        if not np.isscalar(a):
            a, b, val = a.item(), b.item(), val.item()
        a, b, val = complex(a), complex(b), complex(val)
        if turn is None:
            turn = _segment_turn(roots.tolist(), a, b)[0]
        if turn < _TURN_BOUND:
            exact = np.sqrt(_root_product(targets, roots))
            keep = (exact * val.conjugate()).real > 0
            return np.where(keep, exact, -exact)
    a, b, val = np.ravel(a), np.ravel(b), np.ravel(val)
    tgt = targets.reshape(-1, a.size)
    exact = np.sqrt(_root_product(tgt, roots))
    if turn is None:
        rs = roots.tolist()
        turn = [_segment_turn(rs, p, q)[0]
                for p, q in zip(a.tolist(), b.tolist())]
    # the sign rule on every column, Re(exact * conj(val)) > 0; the
    # columns past the turn bound are then overwritten
    keep = (exact * val.conj()).real > 0
    cols = ~(np.ravel(turn) < _TURN_BOUND)
    if cols.any():
        ex = exact[:, cols]
        diff = tgt[:, cols][..., None] - roots
        cont = val[cols] * np.prod(
            np.sqrt(diff / (a[cols, None] - roots)), axis=-1)
        keep[:, cols] = np.abs(cont - ex) < np.abs(cont + ex)
    return np.where(keep, exact, -exact).reshape(targets.shape)


# ---------------------------------------------------------------------------
# loop periods
# ---------------------------------------------------------------------------

def _angle_sorted(curve):
    bp = curve.branch_points
    center = bp.mean()
    order = np.argsort(np.angle(bp - center), kind="stable")
    return order


@lru_cache(maxsize=16)
def _loop_panels(panels):
    """(weights, sin theta, cos theta) of loop_nodes' rule: 10-point Gauss
    on each of panels equal panels of [-pi/2, pi/2], read-only."""
    xg, wg = gauss_legendre(10)
    edges = np.linspace(-np.pi / 2, np.pi / 2, panels + 1)
    thetas = np.concatenate(
        [(a + b) / 2 + (b - a) / 2 * xg for a, b in zip(edges[:-1], edges[1:])])
    weights = np.concatenate(
        [(b - a) / 2 * wg for a, b in zip(edges[:-1], edges[1:])])
    rule = weights, np.sin(thetas), np.cos(thetas)
    for a in rule:
        a.setflags(write=False)
    return rule


def loop_nodes(curve, i0, i1, panels=16):
    """Quadrature nodes along the segment between branch points (i0, i1)
    with the desingularizing substitution lambda = mid + halfgap*sin(theta).

    Returns (lams, w, y_plus): for any integrand G(lambda, y) the loop
    integral around the pair is sum(w * (G(lams, y_plus) - G(lams, -y_plus))),
    up to the loop's orientation sign.  y_plus is a continuous branch of y
    along the segment; w absorbs dlambda/dtheta and the panel weights.
    The panel rule (theta weights, sin theta, cos theta) is built once per
    panel count and kept, read-only, in a cache of 16 panel counts.
    """
    e0, e1 = curve.branch_points[i0], curve.branch_points[i1]
    rest = np.delete(curve.branch_points, [i0, i1])
    mid, half = (e0 + e1) / 2.0, (e1 - e0) / 2.0
    weights, sin, cos = _loop_panels(panels)
    lams = mid + half * sin
    # track the square-root product over the remaining four branch points
    g0 = cmath.sqrt(complex(np.prod(lams[0] - rest)))
    gs = _continue_sqrt(rest, lams[0], lams[-1], g0, lams)
    y_plus = 1j * half * cos * gs
    w = weights * half * cos
    return lams, w, y_plus


def _loop_integrals(curve, i0, i1, powers, panels=16):
    """Loop integrals of lambda^m dlambda / y around the branch pair
    (i0, i1), for all m in powers, up to one global sign."""

    def sweep(n_panels):
        lams, w, yp = loop_nodes(curve, i0, i1, panels=n_panels)
        return {m: 2.0 * np.sum(w * lams ** m / yp) for m in powers}

    coarse = sweep(panels)
    for _ in range(3):
        fine = sweep(2 * panels)
        scale = max(abs(fine[m]) for m in powers) or 1.0
        if all(abs(fine[m] - coarse[m]) <= 1e-10 * scale for m in powers):
            return fine
        coarse, panels = fine, 2 * panels
    raise NonConvergence(f"loop period over pair ({i0}, {i1}) did not stabilize")


@dataclass(frozen=True)
class PeriodData:
    """Periods of omega_1 = dlambda/y, omega_2 = lambda dlambda/y.

    A[alpha, beta] and B[alpha, beta] hold the a_beta / b_beta periods of
    omega_alpha; Bmat = C B with C = A^{-1} is the period matrix; Pi[m, beta]
    holds the a_beta period of lambda^m dlambda / y for m = 0..4.
    """

    curve: Curve
    cone_point: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Bmat: np.ndarray
    Pi: np.ndarray
    basis: str = "std"
    pairs: tuple = ()
    signs: tuple = ()
    bsign: int = 1

    @property
    def im_b_inverse(self):
        return np.linalg.inv(self.Bmat.imag)

    @property
    def area(self):
        """Metric area by Riemann's bilinear relation, Re sum (i/2)(a conj(b)
        - b conj(a)), a and b the a- and b-periods of (lambda - lambda_P)
        dlambda / y; ConsistencyFailure unless it is positive."""
        lam_p = self.curve.branch_points[self.cone_point]
        a = self.A[1] - lam_p * self.A[0]
        b = self.B[1] - lam_p * self.B[0]
        area = float(np.sum(0.5j * (a * b.conj() - b * a.conj())).real)
        if not area > 0:
            raise ConsistencyFailure(f"nonpositive area {area}")
        return area


_BASES = {
    # cycles as integer combinations of the consecutive-pair loops gamma_1..5
    "std": {"a": [(0,), (2,)], "b": [(1, 3), (3,)]},
    "alt": {"a": [(1,), (3,)], "b": [(2, 4), (4,)]},
}


def period_data(curve, cone_point, basis="std", panels=16) -> PeriodData:
    if not 0 <= cone_point < 6:
        raise NotABranchPoint(f"cone point index {cone_point} out of range")
    order = _angle_sorted(curve)
    pairs = [(order[i], order[(i + 1) % 6]) for i in range(6)]
    powers = list(range(5))
    loops = [_loop_integrals(curve, i0, i1, powers, panels=panels)
             for (i0, i1) in pairs[:5]]
    spec = _BASES[basis]

    def cycle_period(cycle_loops, signs, m):
        return sum(signs[i] * loops[i][m] for i in cycle_loops)

    chosen = None
    for code in range(16):
        signs = [1, 1 - 2 * ((code >> 0) & 1), 1 - 2 * ((code >> 1) & 1),
                 1 - 2 * ((code >> 2) & 1), 1]
        bsign = 1 - 2 * ((code >> 3) & 1)
        A = np.array([[cycle_period(c, signs, m) for c in spec["a"]]
                      for m in (0, 1)])
        B = bsign * np.array([[cycle_period(c, signs, m) for c in spec["b"]]
                              for m in (0, 1)])
        if np.linalg.cond(A) > 1e8:
            continue
        Bmat = np.linalg.solve(A, B)
        sym = np.abs(Bmat - Bmat.T).max()
        if sym > 1e-6 * max(1.0, np.abs(Bmat).max()):
            continue
        eig = np.linalg.eigvalsh((Bmat.imag + Bmat.imag.T) / 2)
        if eig.min() <= 0:
            continue
        chosen = (signs, bsign, A, B, Bmat)
        break
    if chosen is None:
        raise ConsistencyFailure(
            "no loop orientation yields a symmetric period matrix with "
            "positive definite imaginary part")
    signs, bsign, A, B, Bmat = chosen
    C = np.linalg.inv(A)
    Pi = np.array([[cycle_period(c, signs, m) for c in spec["a"]]
                   for m in powers])
    return PeriodData(curve=curve, cone_point=cone_point, A=A, B=B, C=C,
                      Bmat=Bmat, Pi=Pi, basis=basis,
                      pairs=tuple(pairs[:5]), signs=tuple(signs), bsign=bsign)


# points of metric_density evaluated together, so that _real_product's
# few real arrays of this length stay in cache
_DENSITY_ROWS = 8192


def metric_density(curve, lam_p, lam):
    """|omega / dlambda|^2 = |lambda - lambda_P|^2 / |prod(lambda - lambda_j)|,
    the density of the flat conical metric on either sheet, taken
    _DENSITY_ROWS points at a time."""
    lam = np.asarray(lam, dtype=complex)
    flat = lam.reshape(-1)
    out = np.empty(flat.size)
    for s in range(0, flat.size, _DENSITY_ROWS):
        z = flat[s:s + _DENSITY_ROWS]
        out[s:s + _DENSITY_ROWS] = np.abs(z - lam_p) ** 2 \
            / np.abs(curve.poly(z))
    return out.reshape(lam.shape)[()]


def metric_area(curve, cone_point, cfg: QuadratureConfig):
    """Area of the flat conical metric |omega|^2: the two-sheet integral
    of metric_density on the surface grid of cfg."""
    lam_p = curve.branch_points[cone_point]
    area = float(np.real(integrate_surface(
        lambda lam, sheet: 1.0, lambda lam: metric_density(curve, lam_p, lam),
        cfg, branch_points=curve.branch_points)))
    if area <= 0:
        raise ConsistencyFailure(f"nonpositive area {area}")
    return area


def cycle_integral(pd: PeriodData, kind, idx, integrand, panels=24):
    """Integral of integrand(lams, y) dlambda over the a- or b-cycle idx.

    The cycle is the signed combination of pair loops fixed when the
    period data was built, so results are directly comparable with the
    stored A and B matrices.
    """
    loops = _BASES[pd.basis][kind][idx]
    orient = pd.bsign if kind == "b" else 1
    total = 0.0 + 0.0j
    for i in loops:
        i0, i1 = pd.pairs[i]
        lams, w, yp = loop_nodes(pd.curve, i0, i1, panels=panels)
        vals = integrand(lams, yp) - integrand(lams, -yp)
        total += orient * pd.signs[i] * np.sum(w * vals)
    return total


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def curve_to_json(curve, cone_point):
    return {
        "branch_points": [[b.real, b.imag] for b in curve.branch_points],
        "cone_point": int(cone_point),
    }


def json_int(value, what):
    """A JSON entry that must be a whole number: an int, or a float with
    no fractional part, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not float(value).is_integer():
        raise DomainError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def json_complex(z):
    """A complex number as the JSON pair [re, im]."""
    z = complex(z)
    return [z.real, z.imag]


def curve_from_json(obj):
    """Accepts {"branch_points": ..., "cone_point": j} or {"z5": {...}}."""
    if "z5" in obj:
        z5 = obj["z5"]
        lam1 = complex(*z5.get("lambda1", [0.0, 0.0]))
        curve = make_z5_curve(lambda1=lam1, r=float(z5.get("r", 1.0)))
        return curve, json_int(obj.get("cone_point", 0), "cone_point")
    bp = [complex(re, im) for re, im in obj["branch_points"]]
    return make_curve(bp), json_int(obj["cone_point"], "cone_point")
