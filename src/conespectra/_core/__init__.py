"""Array kernels shared by the bidifferential and the Green-function
layers, in NumPy."""

import numpy as np

BACKEND = "python"


def bidiff_values(fm, lam1, y1, lam2, y2):
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


def third_kind_values(lam, y, lam_q, y_q, lam_y, y_y, pcoef):
    """Differential of the third kind Omega_{y-q} / dlambda at many points.

    Equals A(z,q) - A(z,y) + p(lambda_z)/y_z with the exact antiderivative
    A(z,t) = (y_z + y_t) / (2 y_z (lambda_z - lambda_t)) and a degree-4
    polynomial p carrying the holomorphic correction.
    """
    lam = np.asarray(lam, dtype=complex)
    y = np.asarray(y, dtype=complex)
    a_q = (y + y_q) / (2.0 * y * (lam - lam_q))
    a_y = (y + y_y) / (2.0 * y * (lam - lam_y))
    p = np.zeros_like(lam)
    for c in pcoef[::-1]:
        p = p * lam + c
    return a_q - a_y + p / y
