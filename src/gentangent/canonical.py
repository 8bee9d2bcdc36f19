"""The three canonical structures on the generalized fiber.

With u = X + xi and v = Y + eta:

* the neutral metric      G0(u, v) = (xi(Y) + eta(X)) / 2,
* the symplectic form  Omega0(u, v) = (xi(Y) - eta(X)) / 2,
* the paracomplex flip     F0(X + xi) = -X + xi.

Under the package's Gram convention, Omega0((1,0),(0,1)) = -1/2 and
Omega0((0,1),(1,0)) = +1/2 at n = 1.

G0 and Omega0 are built once per n and shared, so facts derived from them,
such as the signature of G0, are computed once as well.
"""

import functools

import numpy as np

from .core import SKEW, SYMMETRIC, BilinearForm, BlockOperator, _assemble
from .errors import DimensionError


def _check_n(n: int) -> int:
    # bool is an int subclass, but True is not a dimension
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DimensionError(f"fiber dimension n must be an integer, got {n!r}")
    if n < 1:
        raise DimensionError("fiber dimension n must be at least 1")
    return int(n)


def g0(n: int) -> BilinearForm:
    """Natural generalized metric, Gram [[0, I/2], [I/2, 0]], signature (n, n).

    Every call with this n returns the same form (read-only, like all forms).
    """
    return _canonical_form(_check_n(n), SYMMETRIC)


def omega0(n: int) -> BilinearForm:
    """Natural generalized symplectic form, Gram [[0, -I/2], [I/2, 0]].

    Every call with this n returns the same form (read-only, like all forms).
    """
    return _canonical_form(_check_n(n), SKEW)


@functools.lru_cache(maxsize=64)
def _canonical_form(n: int, kind: str) -> BilinearForm:
    half = 0.5 * np.eye(n)
    return BilinearForm(_assemble(0, half if kind == SYMMETRIC else -half, half, 0), kind)


def f0(n: int) -> BlockOperator:
    """Natural generalized paracomplex structure diag(-I, I)."""
    n = _check_n(n)
    return BlockOperator.from_matrix(np.diag(np.repeat([-1.0, 1.0], n)))
