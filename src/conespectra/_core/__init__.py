"""The raw-bidifferential array kernel, in NumPy.

BACKEND names the array backend; the stage benchmark records it."""

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

