"""Scattering-matrix blocks T(0) and P(0) assembled from the cone-point
jets, determinant comparison ratios, and kernel-dimension diagnostics.

The rows of T(0) carry the coefficients of the decaying terms (xi, xi^2,
conj(xi), conj(xi)^2) of the special growing solutions; the columns carry
the prescribed singularities (1/xi, 1/xi^2, 1/conj(xi), 1/conj(xi)^2).
Only the cone-point value lambda = 0 is represented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bidiff import BidiffModel
from .curveperiods import json_complex
from .errors import MissingJet

DET_PREFACTOR = 2.0 * np.pi ** 2 / 27.0

_FIELDS = ("L", "H1", "H2", "A1", "A2", "c", "h1", "h2", "a1", "a2")


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Coefficient vector of a solution near the cone point.

    Capital entries multiply the growing terms (log, 1/xi, 1/xi^2 and
    conjugates), lowercase the bounded ones (constant, xi, xi^2 and
    conjugates); the Darboux normalization factors are baked in.
    """

    L: complex = 0.0
    H1: complex = 0.0
    H2: complex = 0.0
    A1: complex = 0.0
    A2: complex = 0.0
    c: complex = 0.0
    h1: complex = 0.0
    h2: complex = 0.0
    a1: complex = 0.0
    a2: complex = 0.0

    def vector(self):
        return np.array([getattr(self, f) for f in _FIELDS], dtype=complex)


def symplectic_pairing(a: ExpansionCoefficients,
                       b: ExpansionCoefficients) -> complex:
    """Symplectic form on the factor space of expansion coefficients."""
    j = np.zeros((10, 10), dtype=complex)
    j[:5, 5:] = -np.eye(5)
    j[5:, :5] = np.eye(5)
    return complex(a.vector() @ j @ b.vector())


@dataclass(frozen=True)
class SMatrixZero:
    T0: np.ndarray
    P0: np.ndarray
    detT0: complex
    detP0: complex

    @property
    def ratio_sing(self):
        return DET_PREFACTOR ** 2 * self.detT0

    @property
    def ratio_hol(self):
        return DET_PREFACTOR * self.detP0


def t_matrix_zero(model: BidiffModel) -> SMatrixZero:
    """Assemble T(0) from the distinguished-frame jets of W.

    Requires h_expansion and projective_connections to have run on the
    model; the conjugate half of the matrix follows from the block rule
    T0[0:2, 2:4] = conj(T0[2:4, 0:2]), T0[2:4, 2:4] = conj(T0[0:2, 0:2]).
    """
    jets = model.jets
    for key in ("h10", "h01", "h11", "v0", "v1", "s_sch"):
        if key not in jets:
            raise MissingJet(f"jet '{key}' missing; run h_expansion and "
                             f"projective_connections first")
    imb = model.periods.im_b_inverse
    v0, v1 = jets["v0"], jets["v1"]
    s_vv1 = v0 @ imb @ v1
    s_v1v1 = v1 @ imb @ v1
    s_vcv = v0 @ imb @ np.conj(v0)
    s_v1cv = v1 @ imb @ np.conj(v0)
    s_vcv1 = v0 @ imb @ np.conj(v1)
    s_v1cv1 = v1 @ imb @ np.conj(v1)

    t = np.zeros((4, 4), dtype=complex)
    t[0, 0] = -jets["s_sch"] / 6.0
    t[0, 1] = -jets["h10"] + np.pi * s_vv1
    t[1, 0] = -0.5 * jets["h01"] + 0.5 * np.pi * s_vv1
    t[1, 1] = -0.5 * jets["h11"] + 0.5 * np.pi * s_v1v1
    t[2, 0] = np.pi * s_vcv
    t[2, 1] = np.pi * s_v1cv
    t[3, 0] = 0.5 * np.pi * s_vcv1
    t[3, 1] = 0.5 * np.pi * s_v1cv1
    t[:2, 2:] = np.conj(t[2:, :2])
    t[2:, 2:] = np.conj(t[:2, :2])

    p = t[2:4, 0:2].copy()
    return SMatrixZero(T0=t, P0=p, detT0=complex(np.linalg.det(t)),
                       detP0=complex(np.linalg.det(p)))


def det_ratios(sm: SMatrixZero):
    """Comparison-theorem ratios; degenerate determinants are flagged,
    not raised."""
    flags = []
    if abs(sm.detT0) < 1e-14 * max(1.0, np.abs(sm.T0).max() ** 4):
        flags.append("comparison degenerate, kernel dimension > 1")
    return complex(sm.ratio_sing), complex(sm.ratio_hol), flags


def normalized_det(sm: SMatrixZero) -> float:
    """Scale-free |detT0| used for classification thresholds."""
    pb = abs(sm.T0[2, 0])           # pi B(0,0)
    unit = pb ** 2 * max(abs(sm.T0[1, 1]), pb / 2.0) ** 2
    if unit == 0.0:
        return float("inf")
    return abs(sm.detT0) / unit


def kernel_diagnostics(sm: SMatrixZero, tol: float = 1e-6) -> dict:
    """Classify the kernel dimensions of the singular and holomorphic
    extensions from the structure of T(0)."""
    scale = max(np.abs(sm.T0).max(), 1e-300)
    row2 = np.abs(sm.T0[1]).max() / scale
    row4 = np.abs(sm.T0[3]).max() / scale
    ndet = normalized_det(sm)
    pb = abs(sm.T0[2, 0])
    ndet_p = abs(sm.detP0) / max(pb ** 2, 1e-300)

    weierstrass = ndet_p < tol
    if row2 < tol and row4 < tol:
        classification = "dimension 3 signature"
    elif ndet < tol:
        classification = "degenerate: dim ker sing > 1"
    else:
        classification = "generic: dim ker sing = 1 (conjectural)"
    return {
        "classification": classification,
        "weierstrass": bool(weierstrass),
        "normalized_detT0": float(ndet),
        "normalized_detP0": float(ndet_p),
        "row2_residual": float(row2),
        "row4_residual": float(row4),
        "detT0_imag_residual": float(abs(sm.detT0.imag)
                                     / max(abs(sm.detT0), 1e-300)),
    }


def report(sm: SMatrixZero, tol: float = 1e-6) -> dict:
    """JSON-ready report of the assembled matrices and diagnostics."""
    diag = kernel_diagnostics(sm, tol)
    ratio_sing, ratio_hol, flags = det_ratios(sm)
    audit = {
        "T11": json_complex(sm.T0[0, 0]),
        "T12": json_complex(sm.T0[0, 1]),
        "T21": json_complex(sm.T0[1, 0]),
        "T22": json_complex(sm.T0[1, 1]),
        "T32": json_complex(sm.T0[2, 1]),
        "T41": json_complex(sm.T0[3, 0]),
        "T42": json_complex(sm.T0[3, 1]),
        "piB00": json_complex(sm.T0[2, 0]),
        "row2_residual": diag["row2_residual"],
        "row4_residual": diag["row4_residual"],
        "detT0_imag_residual": diag["detT0_imag_residual"],
    }
    return {
        "T0": [[json_complex(z) for z in row] for row in sm.T0],
        "P0": [[json_complex(z) for z in row] for row in sm.P0],
        "detT0": json_complex(sm.detT0),
        "detP0": json_complex(sm.detP0),
        "ratio_sing": json_complex(ratio_sing),
        "ratio_hol": json_complex(ratio_hol),
        "normalized_detT0": diag["normalized_detT0"],
        "normalized_detP0": diag["normalized_detP0"],
        "classification": diag["classification"],
        "weierstrass": diag["weierstrass"],
        "flags": flags,
        "audit": audit,
    }
