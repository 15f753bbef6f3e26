"""Canonical a-normalized bidifferential W on the hyperelliptic curve,
its regularized expansion H at the cone point in the distinguished
parameter xi, the Bergman reproducing kernel, and the Bergman/Schiffer
projective connections.

The raw kernel uses the classical closed form

    W0 = (F(lambda1, lambda2) + 2 y1 y2) / (4 y1 y2 (lambda1 - lambda2)^2)

with the symmetric bidegree-(3,3) polynomial F built from the curve
coefficients, F(l, l) = 2 f(l) and d1 F(l, l) = f'(l).  Subtracting the
exact derivative d2 [(y1 + y2) / (2 y1 (lambda1 - lambda2))] leaves a
residue N / (4 y1 y2 (lambda1 - lambda2)^2) whose numerator is divisible
by (lambda1 - lambda2)^2 as a polynomial, so all period corrections
reduce to the a-periods of lambda^m dlambda / y; no nested quadrature
appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curveperiods import Curve, PeriodData, SurfacePoint
from .errors import (
    ConsistencyFailure,
    DegenerateZero,
    DiagonalEvaluation,
    InsufficientOrder,
    NotABranchPoint,
    SingularNormalizationSystem,
)
from .numerics import BivariateSeries, TruncatedSeries, schwarzian


# ---------------------------------------------------------------------------
# closed-form polynomial data
# ---------------------------------------------------------------------------

def kleinian_coefficients(curve: Curve):
    """Coefficient matrices (F, Q) of the raw kernel and its a-period residue.

    F[a, b] is the coefficient of lambda1^a lambda2^b in the symmetric
    kernel polynomial; Q = (F(l1, l2) - 2 f(l2) - (l1 - l2) f'(l2)) / (l1 - l2)^2
    is an exact polynomial of bidegree at most (4, 4).
    """
    fc = np.poly(curve.branch_points)[::-1].astype(complex)  # f_0 .. f_6
    fpc = fc[1:] * np.arange(1, 7)
    fm = np.zeros((9, 9), dtype=complex)
    for i in range(4):
        fm[i, i] += 2.0 * fc[2 * i]
        if 2 * i + 1 <= 6:
            fm[i + 1, i] += fc[2 * i + 1]
            fm[i, i + 1] += fc[2 * i + 1]
    n = fm.copy()
    for k, c in enumerate(fc):
        n[0, k] -= 2.0 * c
    for k, c in enumerate(fpc):
        n[1, k] -= c
        n[0, k + 1] += c
    q = BivariateSeries(n).divide_by_diagonal_square().coeffs
    if np.abs(q[5:, :]).max() > 1e-9 or np.abs(q[:, 5:]).max() > 1e-9:
        raise SingularNormalizationSystem("kernel residue is not bidegree (4, 4)")
    return fm[:5, :5].copy(), q[:5, :5].copy()


def _raw_values(fm, lam1, y1, lam2, y2):
    """Raw bidifferential values (F(l1,l2) + 2 y1 y2) / (4 y1 y2 (l1-l2)^2).

    fm is the square coefficient matrix of the symmetric polynomial F.
    All point arguments broadcast together.
    """
    lam1 = np.asarray(lam1, dtype=complex)
    lam2 = np.asarray(lam2, dtype=complex)
    n = fm.shape[0]
    p1 = np.power.outer(lam1, np.arange(n))
    p2 = np.power.outer(lam2, np.arange(n))
    f = np.einsum("...a,ab,...b->...", p1, fm, p2)
    return (f + 2.0 * y1 * y2) / (4.0 * y1 * y2 * (lam1 - lam2) ** 2)


# ---------------------------------------------------------------------------
# distinguished frame at the cone point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistinguishedFrame:
    """Local frame xi at the cone point with xi^3 = int_0^zeta omega.

    zeta^2 = lambda - lambda_P is the standard double-cover parameter;
    eta picks among the three cube-root branches.
    """

    cone_point: int
    eta: int
    xi_of_zeta: TruncatedSeries
    zeta_of_xi: TruncatedSeries
    g_series: TruncatedSeries   # y = zeta * g(zeta), g even with g(0) != 0
    lam_p: complex
    rest: np.ndarray = field(compare=False, repr=False)  # other branch points

    def g_exact(self, zeta):
        """Continuous branch of y/zeta on small |zeta| (no series truncation).

        Uses the constant term of g_series so the branch agrees with the
        series data everywhere in the frame's disk.
        """
        zeta = np.asarray(zeta, dtype=complex)
        corr = np.prod(np.sqrt(1.0 + zeta[..., None] ** 2
                               / (self.lam_p - self.rest)), axis=-1)
        return self.g_series.coeffs[0] * corr

    def xi_chart(self, xi):
        """(zeta, lambda, y, dlambda/dxi) at the frame points xi: zeta =
        zeta_of_xi(xi), lambda = lambda_P + zeta^2, y = zeta g_exact(zeta)
        and dlambda/dxi = 2 zeta / xi'(zeta)."""
        zeta = self.zeta_of_xi.evaluate(xi)
        lam = self.lam_p + zeta ** 2
        y = zeta * self.g_exact(zeta)
        dxi_dzeta = self.xi_of_zeta.derivative().evaluate(zeta)
        return zeta, lam, y, 2.0 * zeta / dxi_dzeta


def distinguished_frame(curve: Curve, periods: PeriodData, cone_point: int,
                        order: int = 16, eta: int = 0) -> DistinguishedFrame:
    if not 0 <= cone_point < 6:
        raise NotABranchPoint(f"cone point index {cone_point} out of range")
    if order < 14:
        raise InsufficientOrder(f"frame order must be >= 14, got {order}")
    lam_p = complex(curve.branch_points[cone_point])
    rest = np.delete(curve.branch_points, cone_point)
    # h(zeta) = prod (zeta^2 + (lam_P - e_j)), even polynomial of degree 10
    hc2 = np.poly(-(lam_p - rest))[::-1].astype(complex)
    h = np.zeros(order + 3, dtype=complex)
    for k, c in enumerate(hc2):
        if 2 * k < h.size:
            h[2 * k] = c
    if abs(hc2[0]) < 1e-12 * curve.scale ** 5:
        raise DegenerateZero("omega's leading local coefficient vanishes")
    g = TruncatedSeries(h).unit_root(2)
    # omega/dzeta = 2 zeta^2 / g(zeta); xi^3 = int_0^zeta omega
    integral = (TruncatedSeries([0, 0, 2.0], order + 2) * g.reciprocal()).integral()
    u = TruncatedSeries(integral.coeffs[3:])          # integral / zeta^3, even
    xi = TruncatedSeries(np.concatenate([[0.0], u.unit_root(3, branch=eta).coeffs]))
    xi = xi.truncate(order)
    zeta_of_xi = xi.inverse()
    frame = DistinguishedFrame(cone_point=cone_point, eta=eta, xi_of_zeta=xi,
                               zeta_of_xi=zeta_of_xi, g_series=g, lam_p=lam_p,
                               rest=rest)
    if not xi.is_odd(tol=1e-9):
        raise ConsistencyFailure("xi(zeta) is not an odd series")
    cube = xi * xi * xi
    scale = np.abs(integral.coeffs).max()
    if np.abs(cube.coeffs - integral.coeffs[: cube.order + 1]).max() > 1e-9 * scale:
        raise ConsistencyFailure("xi^3 does not match the omega integral")
    return frame


# ---------------------------------------------------------------------------
# normalized model
# ---------------------------------------------------------------------------

@dataclass
class BidiffModel:
    """Normalized bidifferential W = W0 + sum c_ab v_a v_b with its jets.

    fm and q are kleinian_coefficients(curve): fm is the kernel polynomial
    of W0, which w_values evaluates, and q its a-period residue, which
    fixes c and the third-kind correction polynomial (green)."""

    curve: Curve
    periods: PeriodData
    fm: np.ndarray
    q: np.ndarray
    c: np.ndarray
    frame: DistinguishedFrame | None = None
    H: BivariateSeries | None = None
    jets: dict = field(default_factory=dict)

    def v_values(self, lam, y):
        """Normalized differentials v_alpha / dlambda, shape (..., 2)."""
        lam = np.asarray(lam, dtype=complex)
        basis = np.stack([np.ones_like(lam) / y, lam / y], axis=-1)
        return basis @ self.periods.C.T

    def w_values(self, lam1, y1, lam2, y2):
        """Normalized W / (dlambda1 dlambda2)."""
        v1 = self.v_values(np.asarray(lam1, complex), y1)
        v2 = self.v_values(np.asarray(lam2, complex), y2)
        return (_raw_values(self.fm, lam1, y1, lam2, y2)
                + np.einsum("...a,ab,...b->...", v1, self.c, v2))

    def w_value(self, x1: SurfacePoint, x2: SurfacePoint):
        tol = 1e-12 * self.curve.scale
        if abs(complex(x1.lam) - complex(x2.lam)) < tol and x1.sheet == x2.sheet:
            raise DiagonalEvaluation("W has a double pole on the diagonal")
        return complex(self.w_values(x1.lam, self.curve.y_of(x1),
                                     x2.lam, self.curve.y_of(x2)))


def normalize_bidifferential(curve: Curve,
                             periods: PeriodData) -> BidiffModel:
    """Fill the a-period correction c_ab in closed form.

    The a-periods of W0 reduce to (Q Pi); rows k >= 2 of that product must
    vanish (they would carry poles at infinity), and the remaining rows give
    c = -(1/4) Pi^T Q Pi, necessarily symmetric.
    """
    fm, q = kleinian_coefficients(curve)
    qpi = q @ periods.Pi
    scale = max(1.0, np.abs(qpi).max())
    if np.abs(qpi[2:]).max() > 1e-8 * scale:
        raise SingularNormalizationSystem(
            "a-periods of the raw kernel are not expressible in v")
    c = -0.25 * periods.Pi.T @ q @ periods.Pi
    if np.abs(c - c.T).max() > 1e-8 * max(1.0, np.abs(c).max()):
        raise SingularNormalizationSystem("correction matrix is not symmetric")
    c = (c + c.T) / 2.0
    return BidiffModel(curve=curve, periods=periods, fm=fm, q=q, c=c)


# ---------------------------------------------------------------------------
# H expansion at the cone point
# ---------------------------------------------------------------------------

def _fourier_coefficients(samples, r, offset2):
    """Taylor coefficients from samples on two offset circles of radius r."""
    n = samples.shape[0]
    # forward DFT carries e^{-i a theta}, which is what projects out xi^a
    coef = np.fft.fft2(samples) / n ** 2
    a = np.arange(n)
    coef = coef / np.outer(r ** a, r ** a * np.exp(1j * a * offset2))
    return coef


def _w_xi_samples(model, frame, r, n):
    """W / (dxi1 dxi2) on offset circles |xi| = r."""
    th = 2 * np.pi * np.arange(n) / n
    xi1 = r * np.exp(1j * th)
    xi2 = r * np.exp(1j * (th + np.pi / n))
    out = []
    for xi in (xi1, xi2):
        zeta, lam, y, dlam_dxi = frame.xi_chart(xi)
        # guard against series truncation: xi(zeta) must return the input
        resid = np.abs(frame.xi_of_zeta.evaluate(zeta) - xi).max()
        if resid > 1e-11 * r:
            raise InsufficientOrder(
                f"frame series do not close at radius {r:.3e} "
                f"(residual {resid:.3e}); reduce the sampling radius")
        out.append((xi, lam, y, dlam_dxi))
    (xi1, lam1, y1, d1), (xi2, lam2, y2, d2) = out
    w = model.w_values(lam1[:, None], y1[:, None], lam2[None, :], y2[None, :])
    return xi1, xi2, w * d1[:, None] * d2[None, :]


def _pick_radius(curve, frame):
    zeta_r = 0.2 * np.sqrt(curve.min_gap)
    return 0.9 * abs(complex(frame.xi_of_zeta.evaluate(zeta_r)))


def h_expansion(model: BidiffModel, frame: DistinguishedFrame,
                order: int = 16) -> BidiffModel:
    """Regularized expansion H(xi1, xi2) = W/(dxi1 dxi2) - 1/(xi1 - xi2)^2.

    Primary route divides the series of (xi1 - xi2)^2 W, sampled at 64
    points on each of two offset circles of radius _pick_radius, by the
    diagonal square exactly; a direct-subtraction route cross-checks the
    low-order jet.  Also fills the v-jets used by the scattering matrix.
    """
    if order < 4:
        raise InsufficientOrder("H expansion needs order >= 4")
    n_samples = 64
    r = _pick_radius(model.curve, frame)
    xi1, xi2, w = _w_xi_samples(model, frame, r, n_samples)
    k = (xi1[:, None] - xi2[None, :]) ** 2 * w
    kc = _fourier_coefficients(k, r, np.pi / n_samples)
    m = order + 3
    kc = kc[:m, :m]
    if abs(kc[0, 0] - 1.0) > 1e-8:
        raise ConsistencyFailure(
            f"biresidue of W is {kc[0, 0]!r}, expected 1")
    kc[0, 0] -= 1.0
    H = BivariateSeries(kc).divide_by_diagonal_square()
    H = BivariateSeries(H.coeffs[: order + 1, : order + 1])

    # second route: direct subtraction on the offset grids
    h_direct = _fourier_coefficients(
        w - 1.0 / (xi1[:, None] - xi2[None, :]) ** 2, r, np.pi / n_samples)
    # route 2 subtracts two near-equal large values close to the diagonal,
    # so only its low-order block is clean enough to compare
    block = 2
    scale = max(1.0, np.abs(H.coeffs[:block, :block]).max())
    mismatch = np.abs(H.coeffs[:block, :block] - h_direct[:block, :block]).max()
    if mismatch > 1e-6 * scale:
        raise ConsistencyFailure(
            f"H-jet routes disagree by {mismatch:.3e} (scale {scale:.3e})")

    # v series in xi: v/dxi = (C (1, lambda))^T dlambda/dxi / y
    zeta = frame.zeta_of_xi
    lam_series = zeta * zeta + frame.lam_p
    y_series = _compose_even(frame.g_series, zeta) * zeta
    dlam = lam_series.derivative()
    w1 = TruncatedSeries(dlam.coeffs[1:]) / TruncatedSeries(y_series.coeffs[1:])
    w2 = w1 * lam_series.truncate(w1.order)
    C = model.periods.C
    v_series = [C[a, 0] * w1 + C[a, 1] * w2 for a in range(2)]

    model.frame = frame
    model.H = H
    model.jets = {
        "h00": complex(H.coeffs[0, 0]),
        "h10": complex(H.coeffs[1, 0]),
        "h01": complex(H.coeffs[0, 1]),
        "h11": complex(H.coeffs[1, 1]),
        "v0": np.array([v.coeffs[0] for v in v_series]),
        "v1": np.array([v.coeffs[1] for v in v_series]),
        "radius": r,
    }
    return model


def _compose_even(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(t)) for f even in its argument: compose f~(s) = f(sqrt s) with g^2.

    The even part is zero-padded to g's order so no accuracy is lost in t.
    """
    even = TruncatedSeries(f.coeffs[0::2], g.order)
    return even.compose(g * g)


# ---------------------------------------------------------------------------
# Bergman kernel and projective connections
# ---------------------------------------------------------------------------

def bergman_kernel(model: BidiffModel, x: SurfacePoint | None = None,
                   y: SurfacePoint | None = None):
    """B(x, y-bar) = sum (Im Bmat)^{-1}_ab v_a(x) conj(v_b(y)).

    Defaults to the cone point in the distinguished frame (both slots);
    ordinary points are evaluated in the lambda frame.
    """
    imb = model.periods.im_b_inverse

    def v_of(p):
        if p is None:
            if "v0" not in model.jets:
                raise ConsistencyFailure("H expansion must run before "
                                         "cone-point kernel values")
            return model.jets["v0"]
        return model.v_values(np.asarray([p.lam], complex),
                              model.curve.y_of(p))[0]

    vx, vy = v_of(x), v_of(y)
    return complex(vx @ imb @ np.conj(vy))


def projective_connections(model: BidiffModel, rel_tol: float = 1e-8):
    """(S_B(0), S_Sch(0)) in the distinguished frame, with a cross-check.

    The second route expands W in the zeta frame and transports the
    resulting projective connection to xi by the Schwarzian rule
    S(xi) = S(zeta) (dzeta/dxi)^2 + {zeta, xi}.
    """
    if model.H is None or model.frame is None:
        raise ConsistencyFailure("run h_expansion first")
    frame = model.frame
    s_b = 6.0 * model.jets["h00"]

    # route 2: H in the zeta frame, then Schwarzian transport
    n = 64
    r_z = 0.2 * np.sqrt(model.curve.min_gap)
    th = 2 * np.pi * np.arange(n) / n
    z1 = r_z * np.exp(1j * th)
    z2 = r_z * np.exp(1j * (th + np.pi / n))
    lam1, lam2 = frame.lam_p + z1 ** 2, frame.lam_p + z2 ** 2
    y1, y2 = z1 * frame.g_exact(z1), z2 * frame.g_exact(z2)
    w = model.w_values(lam1[:, None], y1[:, None], lam2[None, :], y2[None, :])
    w = w * (2 * z1[:, None]) * (2 * z2[None, :])
    kz = _fourier_coefficients((z1[:, None] - z2[None, :]) ** 2 * w,
                               r_z, np.pi / n)[:8, :8]
    kz[0, 0] -= 1.0
    s_b_zeta = 6.0 * complex(
        BivariateSeries(kz).divide_by_diagonal_square().coeffs[0, 0])
    dzeta0 = frame.zeta_of_xi.coeffs[1]
    transported = s_b_zeta * dzeta0 ** 2 + complex(
        schwarzian(frame.zeta_of_xi).coeffs[0])
    scale = max(1.0, abs(s_b))
    if abs(transported - s_b) > rel_tol * scale:
        raise ConsistencyFailure(
            f"projective connection routes disagree: {s_b!r} (xi frame) vs "
            f"{transported!r} (zeta frame transported)")

    imb = model.periods.im_b_inverse
    v0 = model.jets["v0"]
    s_sch = s_b - 6.0 * np.pi * complex(v0 @ imb @ v0)
    model.jets["s_sch"] = complex(s_sch)
    return complex(s_b), complex(s_sch)
