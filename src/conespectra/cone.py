"""Closed-form analytics on the infinite model cone of angle 2*pi*B.

Covers fractional-order modified Bessel functions, the Mellin-transformed
Green kernel of the cone Laplacian, the model growing solutions Phi_nu,
and the lambda -> -infinity asymptotics of the scattering entries and
their determinant combinations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleEvaluation
from .numerics import gamma

# scattering-entry amplitudes entering s1 = -C1*(-lam)^(1/3),
# s2 = -C2*(-lam)^(2/3); their product is 27/(2 pi^2) by the gamma
# recurrences Gamma(4/3) = Gamma(1/3)/3 and Gamma(5/3) = (2/3) Gamma(2/3)
C1 = 2.0 ** (1.0 / 3.0) * math.sqrt(3.0) * gamma(2.0 / 3.0) / (math.pi * gamma(4.0 / 3.0))
C2 = 2.0 ** (-1.0 / 3.0) * math.sqrt(3.0) * gamma(1.0 / 3.0) / (math.pi * gamma(5.0 / 3.0))
DET_P_SLOPE = 27.0 / (2.0 * math.pi ** 2)


@dataclass(frozen=True)
class AsymptoticEntries:
    """Leading large-|lambda| behaviour of the scattering entries."""

    lam: float
    s1: float
    s2: float
    det_t: float
    det_p: float


def bessel_k(nu, x):
    """Modified Bessel function K_nu for fractional order nu in (0, 1)."""
    if not 0.0 < nu < 1.0:
        raise DomainError(f"order must lie in (0, 1), got {nu}")
    if not x > 0:
        raise DomainError(f"argument must be positive, got {x}")
    from scipy import special  # deferred: most of the package import time
    return float(special.kv(nu, x))


def bessel_i(nu, x):
    """Modified Bessel function I_nu for fractional order nu in (0, 1)."""
    if not 0.0 < nu < 1.0:
        raise DomainError(f"order must lie in (0, 1), got {nu}")
    if not x > 0:
        raise DomainError(f"argument must be positive, got {x}")
    from scipy import special
    return float(special.iv(nu, x))


def cone_green_kernel(B, mu, omega1, omega2):
    """Mellin Green kernel on the circle of circumference 2*pi*B.

    Gamma(omega1, omega2; mu) = (pi/mu) cosh(mu (pi B - d)) / sinh(pi B mu)
    with d the angular separation folded into [0, 2 pi B].  Normalized so
    the jump of the omega2-derivative across the diagonal is -2*pi.
    """
    if not B > 0:
        raise DomainError(f"cone parameter B must be positive, got {B}")
    mu = complex(mu)
    denom = 1.0 - cmath.exp(-2.0 * math.pi * B * mu)
    if abs(denom) < 1e-12:
        raise PoleEvaluation(f"mu = {mu} is within 1e-12 of a kernel pole")
    d = abs(omega1 - omega2) % (2.0 * math.pi * B)
    num = cmath.exp(-mu * d) + cmath.exp(mu * d) * cmath.exp(-2.0 * math.pi * B * mu)
    return (math.pi / mu) * num / denom


def phi_model(nu, lam, r, phi):
    """Growing model solution Phi_nu on the cone of angle 6*pi.

    A multiple of K_nu(sqrt(-lam) r) e^{-i nu phi}, normalized so that in
    the distinguished parameter zeta = r^{1/3} e^{i phi/3} the expansion
    starts with exactly 1/zeta^{3 nu}.
    """
    if abs(nu - 1.0 / 3.0) > 1e-12 and abs(nu - 2.0 / 3.0) > 1e-12:
        raise DomainError(f"order must be 1/3 or 2/3, got {nu}")
    if not lam < 0:
        raise DomainError(f"spectral parameter must be negative, got {lam}")
    if not r > 0:
        raise DomainError(f"radius must be positive, got {r}")
    s = math.sqrt(-lam)
    pref = 2.0 * 2.0 ** (-nu) * gamma(1.0 - nu) * math.sin(math.pi * nu) / math.pi
    return pref * s ** nu * bessel_k(nu, s * r) * cmath.exp(-1j * nu * phi)


def phi_expansion(nu, lam):
    """Exact first two expansion coefficients of phi_model.

    Returns (a, b) with Phi_nu = a / zeta^{3 nu} + b zeta-bar^{3 nu} + o(|zeta|^2);
    a = 1 by normalization and b follows from the small-argument form of K_nu.
    """
    if not lam < 0:
        raise DomainError(f"spectral parameter must be negative, got {lam}")
    b = -(2.0 ** (-2.0 * nu)) * gamma(1.0 - nu) / gamma(1.0 + nu) * (-lam) ** nu
    return 1.0, b


def asymptotic_entries(lam):
    """Leading scattering entries and determinants as lambda -> -infinity;
    DomainError unless lambda is finite and <= -1 and every entry a finite
    float (det_t, quadratic in lambda, overflows first, near -1e154)."""
    if not -math.inf < lam <= -1:
        raise DomainError(
            f"asymptotics require a finite lambda <= -1, got {lam}")
    s1 = -C1 * (-lam) ** (1.0 / 3.0)
    s2 = -C2 * (-lam) ** (2.0 / 3.0)
    try:
        det_t = DET_P_SLOPE ** 2 * lam ** 2
    except OverflowError:
        det_t = math.inf
    if not math.isfinite(det_t):
        raise DomainError(f"det_t overflows at lambda = {lam}")
    det_p = -DET_P_SLOPE * lam
    return AsymptoticEntries(lam=lam, s1=s1, s2=s2, det_t=det_t, det_p=det_p)


def asymptotic_t_matrix(lam):
    """Sparse 4x4 limit shape of T(lambda) for large negative lambda.

    Only the cross-conjugate entries (1,3), (2,4), (3,1), (4,2) survive,
    carrying s1 and s2.
    """
    e = asymptotic_entries(lam)
    t = np.zeros((4, 4))
    t[0, 2] = t[2, 0] = e.s1
    t[1, 3] = t[3, 1] = e.s2
    return t
