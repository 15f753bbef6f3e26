"""Numeric substrate: truncated power series, Gauss-Legendre rules,
two-sheet surface quadrature with desingularizing patches, Schwarzian
derivative of a jet, and the gamma function.

Everything here is geometry-agnostic; the curve modules supply integrands
and weights.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateJet,
    SingularityOnGrid,
)

_LEADING_TOL = 1e-13


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """Polynomial jet c0 + c1 t + ... + cN t^N with exact arithmetic
    through order N.

    Instances are immutable.  The constructor checks its input (a
    non-empty 1-d coefficient sequence, an order that is a whole number
    >= 0), and so does truncate, which takes an order; every other
    operation builds its result with _of, which does not.  Binary
    operations truncate to the smaller order; a non-series operand is a
    scalar.  unit_root, inverse, compose and reciprocal loop on arrays
    with the np.convolve and np.dot calls of the series operators, in
    their order: the CLI reports pinned in stagebench/reference need these
    bits.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        if order is None:
            order = c.size - 1
        elif not (isinstance(order, numbers.Integral) and order >= 0):
            raise ValueError(f"order must be a whole number >= 0, got "
                             f"{order!r}")
        self.order = int(order)
        self.coeffs = np.zeros(self.order + 1, dtype=complex)
        self.coeffs[: c.size] = c[: self.order + 1]
        self.coeffs.setflags(write=False)

    @classmethod
    def _of(cls, c):
        # the series with complex coefficient array c, frozen, unchecked
        s = cls.__new__(cls)
        c.setflags(write=False)
        s.coeffs, s.order = c, c.size - 1
        return s

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, coeffs={self.coeffs!r})"

    def _common(self, other):
        n = min(self.order, other.order)
        return self.coeffs[: n + 1], other.coeffs[: n + 1]

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            return self._of(np.add(*self._common(other)))
        c = self.coeffs.copy()
        c[0] += other
        return self._of(c)

    __radd__ = __add__

    def __neg__(self):
        return self._of(-self.coeffs)

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return self._of(np.subtract(*self._common(other)))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            a, b = self._common(other)
            # plain convolution; N <= 32 so no FFT needed
            return self._of(np.convolve(a, b)[: a.size])
        return self._of(self.coeffs * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def reciprocal(self):
        """Series 1/f; requires a leading coefficient away from zero."""
        return self._of(_reciprocal(self.coeffs))

    def derivative(self):
        c = self.coeffs[1:] * np.arange(1, self.order + 1)
        return self._of(c if c.size else np.zeros(1, complex))

    def integral(self):
        """Antiderivative vanishing at 0; order grows by one."""
        c = np.zeros(self.order + 2, dtype=complex)
        c[1:] = self.coeffs / np.arange(1, self.order + 2)
        return self._of(c)

    def compose(self, inner):
        """self(inner(t)); inner must vanish at 0."""
        if abs(inner.coeffs[0]) > _LEADING_TOL:
            raise ValueError("composition requires inner(0) = 0")
        n = min(self.order, inner.order)
        return self._of(
            _compose(self.coeffs[: n + 1], inner.coeffs[: n + 1]))

    def inverse(self):
        """Functional inverse g with self(g(t)) = t + O(t^{N+1}).

        Requires f(0) = 0 and f'(0) != 0.
        """
        f = self.coeffs
        if abs(f[0]) > _LEADING_TOL:
            raise ValueError("functional inverse requires f(0) = 0")
        if abs(f[1]) < _LEADING_TOL:
            raise DegenerateJet("functional inverse requires f'(0) != 0")
        g = np.zeros(self.order + 1, dtype=complex)
        g[1] = 1.0 / f[1]
        # solve f(g(t)) = t order by order; with g[m] still zero, the t^m
        # coefficient of f(g) misses f1*g[m]
        for m in range(2, self.order + 1):
            g[m] = -_compose(f[: m + 1], g[: m + 1])[m] / f[1]
        return self._of(g)

    def unit_root(self, k, branch=0):
        """k-th root of a series with nonzero constant term.

        branch selects among the k roots of the constant term.
        """
        c = self.coeffs
        if abs(c[0]) < _LEADING_TOL:
            raise DegenerateJet("unit_root requires a nonzero constant term")
        n = self.order
        one, r = np.zeros((2, n + 1), dtype=complex)
        one[0] = 1.0
        r[0] = c[0] ** (1.0 / k) * cmath.exp(2j * cmath.pi * branch / k)
        for _ in range(n + 2):  # Newton on r^k = self
            rk1 = one
            for _ in range(k - 1):
                rk1 = np.convolve(rk1, r)[: n + 1]
            step = np.convolve(rk1, r)[: n + 1] - c
            r = r - np.convolve(step, _reciprocal(rk1 * k))[: n + 1]
        return self._of(r)

    def evaluate(self, t):
        """Horner evaluation; t may be a scalar or ndarray."""
        t = np.asarray(t, dtype=complex)
        acc = np.full(t.shape, self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1]:
            acc = acc * t + c
        return acc if acc.ndim else complex(acc)

    def truncate(self, order):
        return TruncatedSeries(self.coeffs[: order + 1], min(order, self.order))

    def is_odd(self, tol=1e-10):
        even = self.coeffs[0::2]
        scale = max(np.abs(self.coeffs).max(), 1.0)
        return bool(np.all(np.abs(even) <= tol * scale))


def _reciprocal(a):
    a0 = a[0]
    if abs(a0) < _LEADING_TOL:
        raise DegenerateJet(
            f"reciprocal of series with leading coefficient {a0!r}")
    out = np.zeros(a.size, dtype=complex)
    out[0] = 1.0 / a0
    for k in range(1, a.size):
        out[k] = -np.dot(a[1 : k + 1], out[k - 1 :: -1]) / a0
    return out


def _compose(f, g):
    # f(g(t)) by Horner in series, for arrays of one length with g[0] = 0
    acc = np.zeros_like(f)
    acc[0] = f[-1]
    for k in range(f.size - 2, -1, -1):
        acc = np.convolve(acc, g)[: f.size]
        acc[0] += f[k]
    return acc


class BivariateSeries:
    """Jet sum_{a,b<=N} h_ab t1^a t2^b, stored as an (N+1)x(N+1) matrix."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("coefficient array must be square")
        self.coeffs = c
        self.coeffs.setflags(write=False)
        self.order = c.shape[0] - 1

    def evaluate(self, t1, t2):
        p1 = np.power.outer(np.asarray(t1, dtype=complex), np.arange(self.order + 1))
        p2 = np.power.outer(np.asarray(t2, dtype=complex), np.arange(self.order + 1))
        return np.einsum("...a,ab,...b->...", p1, self.coeffs, p2)

    def divide_by_diagonal_square(self):
        """Return H with (t1 - t2)^2 * H = self, as exact jets.

        Requires self to vanish to second order on the diagonal t1 = t2;
        of the overdetermined recurrence only the equations with a >= 2
        are solved, and the others are not checked.
        """
        k = self.coeffs
        n = self.order
        h = np.zeros((n + 1, n + 1), dtype=complex)
        # k[a,b] = h[a-2,b] - 2 h[a-1,b-1] + h[a,b-2]; along an
        # anti-diagonal of h (total degree d) h[a,b] depends on entries
        # with larger first index, so sweep a downwards
        for d in range(2 * n - 1):
            for a in range(min(n - 2, d), max(0, d - n) - 1, -1):
                b = d - a
                prev = 0.0 + 0.0j
                if b - 1 >= 0:
                    prev += -2.0 * h[a + 1, b - 1]
                if b - 2 >= 0:
                    prev += h[a + 2, b - 2]
                h[a, b] = k[a + 2, b] - prev
        return BivariateSeries(h)


# ---------------------------------------------------------------------------
# Schwarzian derivative of a jet
# ---------------------------------------------------------------------------

def schwarzian(f: TruncatedSeries) -> TruncatedSeries:
    """{f, t} = f'''/f' - (3/2)(f''/f')^2, as a series of order N-3."""
    if f.order < 3:
        raise DegenerateJet("schwarzian needs a jet of order >= 3")
    d1 = f.derivative()
    if abs(d1.coeffs[0]) < _LEADING_TOL:
        raise DegenerateJet("schwarzian requires f'(0) != 0")
    d2 = d1.derivative()
    d3 = d2.derivative()
    ratio2 = d2 / d1.truncate(d2.order)
    out = d3 / d1.truncate(d3.order) - 1.5 * (ratio2 * ratio2)
    return out.truncate(f.order - 3)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def gamma(x: float) -> float:
    """Gamma function for x > 0 (relative error well below 1e-12)."""
    if not x > 0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules and surface quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureConfig:
    # (radial points, angular points, truncation radius; None = auto)
    surface_grid: tuple = (24, 32, None)


@lru_cache(maxsize=None)
def gauss_legendre(n):
    # read-only: every caller shares the cached nodes and weights
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _smooth_step(t):
    """C^inf step: 0 for t<=0, 1 for t>=1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h0 = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        h1 = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return h0 / (h0 + h1)


class PolarPatch(NamedTuple):
    """The layout of one polar patch of a SurfaceGrid.

    Its radii.size * n_ang nodes are center + r e^{i theta}, radius-major,
    for r in radii and theta = 2 pi (j + shift) / n_ang, j < n_ang; on the
    inverted chart they are center + 1 / (r e^{i theta}) instead.
    """

    center: complex
    radii: np.ndarray
    n_ang: int
    shift: float
    inverted: bool

    @property
    def size(self):
        return self.radii.size * self.n_ang


@dataclass
class SurfaceGrid:
    """Deterministic quadrature nodes for the two-sheet surface.

    Nodes cover the lambda-plane by a smooth partition of unity: one polar
    disk per branch point, one polar disk of radius R around the centroid
    carrying the complementary bump, and an inverted chart for |lambda| > R.
    Weights include the partition factor and the flat area element of the
    chart (not the conformal weight of the metric, which callers multiply in).
    Node order is fixed, so reductions are bit-reproducible.  patches, when
    given, lays the nodes out: patch after patch, in that order, as each
    PolarPatch describes; a grid built node by node has none.
    """

    nodes: np.ndarray          # complex lambda values (one sheet's worth)
    weights: np.ndarray        # real, includes partition & chart Jacobian
    center: complex
    patches: tuple = ()        # PolarPatch per patch, in node order

    @property
    def n_nodes(self):
        return self.nodes.size


def _radii(r_lo, r_hi, n_rad):
    """Panelled 8-point Gauss radii on [r_lo, r_hi] and their weights
    times r (the polar area element)."""
    xg, wg = gauss_legendre(8)
    edges = np.linspace(r_lo, r_hi, max(1, n_rad // 8) + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    r = ((lo + hi) / 2 + (hi - lo) / 2 * xg).ravel()
    return r, r * ((hi - lo) / 2 * wg).ravel()


def _polar_patch(center, r, rw, n_ang, angle_shift, pts, w):
    """Midpoint-in-angle x radii r polar grid about center, written into
    and returned as pts (complex) and w (plain-area weights), each of
    r.size * n_ang entries, radius-major; rw is r times the radial
    weights."""
    th = 2 * np.pi * (np.arange(n_ang) + angle_shift) / n_ang
    wth = 2 * np.pi / n_ang
    grid = pts.reshape(r.size, n_ang)
    np.multiply.outer(r, np.exp(1j * th), out=grid)
    grid += center
    np.multiply.outer(rw, np.full(n_ang, wth), out=w.reshape(grid.shape))
    return pts, w


def build_surface_grid(branch_points, cfg: QuadratureConfig,
                       stagger=0.0) -> SurfaceGrid:
    """stagger shifts every angular node by that fraction of a cell, so two
    grids with different stagger share no nodes (used for double surface
    integrals with weakly singular kernels).

    Each patch is written in place into the one nodes and weights array
    of the grid, so a large grid holds no second copy of its nodes, and
    its layout is recorded in the grid's patches."""
    bp = np.asarray(branch_points, dtype=complex)
    shift = 0.5 + stagger
    n_rad, n_ang, radius = cfg.surface_grid
    center = complex(bp.mean())
    span = float(np.abs(bp - center).max())
    if radius is None:
        radius = span + 2.0
    if radius <= span + 1.0:
        raise ValueError(
            "truncation radius must exceed max|branch point - center| + 1")
    gaps = [abs(a - b) for i, a in enumerate(bp) for b in bp[i + 1:]]
    disk_r = min(gaps) / 3.0

    # (center, radii, radii times weights, angular count, inverted) of
    # each patch: the branch-point disks, the main disk and the exterior
    # chart, whose disk is built about 0 and inverted below
    patches = [(complex(b), *_radii(0.0, disk_r, n_rad), n_ang, False)
               for b in bp]
    patches.append((center, *_radii(0.0, radius, 2 * n_rad), 2 * n_ang,
                    False))
    patches.append((center, *_radii(0.0, 1.0 / radius, n_rad), n_ang, True))
    layout = tuple(PolarPatch(c, r, k, shift, inv)
                   for c, r, _, k, inv in patches)
    sizes = [p.size for p in layout]
    ends = np.cumsum(sizes)
    nodes = np.empty(ends[-1], dtype=complex)
    weights = np.empty(ends[-1])
    views = [(nodes[e - n:e], weights[e - n:e]) for n, e in zip(sizes, ends)]
    for (c, r, rw, k, inv), view in zip(patches, views):
        _polar_patch(0.0 if inv else c, r, rw, k, shift, *view)
    # smallest node distances to the branch points, for the check below
    near = []

    def bump_at(pts, j):
        """Indices of the points where the bump of disk j is not 0, and
        its values there: 1 inside disk_r/2, 0 outside disk_r, and the
        smooth step only in between.  Adds the points' smallest distance
        to branch point j to near (+inf for no points)."""
        r = np.abs(pts - bp[j])
        near.append(r.min() if r.size else np.inf)
        # the bump's argument (disk_r - r) / (disk_r / 2) is > 0 exactly
        # where r < disk_r
        inside = np.flatnonzero(r < disk_r)
        t = (disk_r - r[inside]) / (disk_r / 2.0)
        val = np.ones(inside.size)
        val[t < 1.0] = _smooth_step(t[t < 1.0])
        return inside, val

    # branch-point disks; disk j's nodes lie within disk_r = min(gaps) / 3
    # of branch point j and at least twice that from every other one, so
    # the distance to branch point j alone decides the check
    for j in range(bp.size):
        pts, w = views[j]
        inside, val = bump_at(pts, j)
        part = w[inside] * val
        w.fill(0.0)
        w[inside] = part

    # main disk with complementary partition factor; the bumps' supports
    # (r < disk_r) are disjoint, so each node takes at most one factor.
    # The disk is radius-major in 8-point radial panels (_radii), so it
    # splits into tiles of one panel at one angle.  Bump j is taken only
    # on the tiles whose bounding box, from the nodes themselves, comes
    # within disk_r of bp[j], widened by a margin far above the rounding
    # of the distances: no node within disk_r of bp[j] is left out
    pts, w = views[bp.size]
    k = layout[bp.size].n_ang
    tiles = pts.reshape(-1, 8, k)
    re_lo, re_hi = tiles.real.min(axis=1), tiles.real.max(axis=1)
    im_lo, im_hi = tiles.imag.min(axis=1), tiles.imag.max(axis=1)
    reach = disk_r + 1e-12 * (abs(center) + radius)
    down = k * np.arange(8)[:, None]
    for j, b in enumerate(bp.tolist()):
        panel, col = np.nonzero(
            (re_lo < b.real + reach) & (re_hi > b.real - reach)
            & (im_lo < b.imag + reach) & (im_hi > b.imag - reach))
        cand = (8 * k * panel + col + down).ravel()
        inside, val = bump_at(pts[cand], j)
        w[cand[inside]] *= 1.0 - val

    # exterior chart mu = 1/(lambda - center), area element |mu|^-4 dA_mu;
    # a radius set below span can bring its nodes near a branch point
    lam, w = views[-1]
    w /= np.abs(lam) ** 4
    np.divide(1.0, lam, out=lam)
    lam += center
    near.extend(np.abs(lam - b).min() for b in bp)

    if min(near) < 1e-12 * max(1.0, span):
        raise SingularityOnGrid("a quadrature node coincides with a branch point")
    return SurfaceGrid(nodes, weights, center, layout)


def integrate_surface(f, weight, cfg: QuadratureConfig, branch_points):
    """Two-sheet surface integral of f(lambda, sheet) * weight(lambda) on
    the surface grid that cfg sets for the branch points.

    weight is the conformal density |omega/dlambda|^2 (sheet-independent);
    f may depend on the sheet.  An f that returns the same scalar on both
    sheets is summed over the grid once and that sum added for each
    sheet, which gives the two-pass total bit for bit.  The weighted
    integrand is formed in one temporary, multiplied in place, so the
    product keeps vals * dens * w's order and bits.
    """
    grid = build_surface_grid(branch_points, cfg)
    lam, w = grid.nodes, grid.weights
    dens = weight(lam)
    total = 0.0 + 0.0j
    last = None
    for sheet in (+1, -1):
        vals = np.asarray(f(lam, sheet), dtype=complex)
        if vals.ndim or last is None or vals != last[0]:
            t = vals * dens
            t *= w
            last = vals, np.sum(t)
        total += last[1]
    if abs(total.imag) < 1e-12 * max(1.0, abs(total.real)):
        return total.real
    return total
