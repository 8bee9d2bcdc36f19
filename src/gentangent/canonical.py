"""The three canonical structures on the generalized fiber.

With u = X + xi and v = Y + eta:

* the neutral metric      G0(u, v) = (xi(Y) + eta(X)) / 2,
* the symplectic form  Omega0(u, v) = (xi(Y) - eta(X)) / 2,
* the paracomplex flip     F0(X + xi) = -X + xi.

Under the package's Gram convention, Omega0((1,0),(0,1)) = -1/2 and
Omega0((0,1),(1,0)) = +1/2 at n = 1.
"""

import numpy as np

from .core import SKEW, SYMMETRIC, BilinearForm, BlockOperator
from .errors import DimensionError


def _check_n(n: int) -> int:
    n = int(n)
    if n < 1:
        raise DimensionError("fiber dimension n must be at least 1")
    return n


def g0(n: int) -> BilinearForm:
    """Natural generalized metric, Gram [[0, I/2], [I/2, 0]], signature (n, n)."""
    n = _check_n(n)
    half = 0.5 * np.eye(n)
    zero = np.zeros((n, n))
    return BilinearForm(np.block([[zero, half], [half, zero]]), SYMMETRIC)


def omega0(n: int) -> BilinearForm:
    """Natural generalized symplectic form, Gram [[0, -I/2], [I/2, 0]]."""
    n = _check_n(n)
    half = 0.5 * np.eye(n)
    zero = np.zeros((n, n))
    return BilinearForm(np.block([[zero, -half], [half, zero]]), SKEW)


def f0(n: int) -> BlockOperator:
    """Natural generalized paracomplex structure diag(-I, I)."""
    n = _check_n(n)
    return BlockOperator.from_matrix(np.diag(np.repeat([-1.0, 1.0], n)))
