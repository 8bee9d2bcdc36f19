"""Basis-fixed model of the generalized fiber V + V*.

Everything lives over a fixed basis e_1..e_n of V = R^n and its dual basis,
so vectors are length-2n coordinate columns (first n entries the V part,
last n the V* part) and all structures are real matrices.

Conventions used throughout the package:

* A bilinear form b is stored by its Gram matrix, ``b(u, v) = u.T @ gram @ v``
  with ``gram[i, j] = b(e_i, e_j)``.
* The flat map of a nondegenerate base form has coordinate matrix ``gram.T``:
  the dual coordinates of ``flat(X)`` are ``gram.T @ X``, so that
  ``flat(X)(Y) = b(X, Y)`` holds.  ``sharp`` is its inverse.
* The dual of a base endomorphism A (acting on dual coordinates) is ``A.T``,
  which realises ``(A* xi)(X) = xi(A X)``.
* An endomorphism of V + V* is a ``BlockOperator``: one read-only 2n x 2n
  matrix [[H, sigma], [tau, K]], whose four blocks are views into it.

Worked n=1 example: g = [2] gives flat = [2], sharp = [0.5], and
flat(1)(1) = 2 = g(1, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFormError, DimensionError

SYMMETRIC = "symmetric"
SKEW = "skew"
GENERAL = "general"


@dataclass(frozen=True)
class Tolerance:
    """Absolute / relative tolerances used by numerical predicates."""

    abs: float = 1e-9
    rel: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.abs) and np.isfinite(self.rel)):
            raise ValueError("tolerances must be finite")
        if self.abs < 0 or self.rel < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.abs == 0 and self.rel == 0:
            raise ValueError("at least one tolerance must be positive")


DEFAULT_TOL = Tolerance()


def _as_matrix(a, n=None) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if n is not None and m.shape[0] != n:
        raise DimensionError(f"expected a {n}x{n} matrix, got {m.shape[0]}x{m.shape[0]}")
    return m


def close(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Frobenius-norm closeness: ||a - b|| <= abs + rel * max(||a||, ||b||).

    Both sides are first multiplied by the power of two s that brings the
    largest entry into [0.5, 1).  That is exact, so the answer is unchanged,
    but on finite input the norms can no longer overflow, nor underflow to
    zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    peak = max(abs(a).max(initial=0.0), abs(b).max(initial=0.0))
    # the exponent is clamped so that s itself stays a finite double
    s = 2.0 ** -max(math.frexp(peak)[1], -1023)
    a, b = s * a, s * b
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    return np.linalg.norm(a - b) <= tol.abs * s + tol.rel * scale


@dataclass(frozen=True)
class GeneralizedVector:
    """An element X + xi of V + V*, stored as 2n coordinates."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float).reshape(-1)
        if c.size == 0 or c.size % 2 != 0:
            raise DimensionError(f"coordinate length must be a positive even number, got {c.size}")
        object.__setattr__(self, "coords", c)

    @classmethod
    def from_parts(cls, vector_part, covector_part) -> "GeneralizedVector":
        x = np.asarray(vector_part, dtype=float).reshape(-1)
        xi = np.asarray(covector_part, dtype=float).reshape(-1)
        if x.size != xi.size:
            raise DimensionError("vector and covector parts must have equal length")
        return cls(np.concatenate([x, xi]))

    @property
    def n(self) -> int:
        return self.coords.size // 2

    @property
    def vector_part(self) -> np.ndarray:
        return self.coords[: self.n]

    @property
    def covector_part(self) -> np.ndarray:
        return self.coords[self.n :]


def _block_view(row: int, col: int) -> property:
    """Read-only view of block (row, col) of a BlockOperator's matrix."""

    def view(op) -> np.ndarray:
        n = op.n
        return op.matrix[row * n : (row + 1) * n, col * n : (col + 1) * n]

    return property(view)


@dataclass(frozen=True, init=False, eq=False)
class BlockOperator:
    """An endomorphism of V + V* in block form [[H, sigma], [tau, K]].

    H maps V to V, sigma maps dual coordinates to V, tau maps V to dual
    coordinates and K acts on dual coordinates.  The operator is stored once,
    as the read-only 2n x 2n ``matrix``; H, sigma, tau and K are read-only
    views of its four n x n blocks, and composition, linear combination and
    application are dense matrix operations on it.
    """

    matrix: np.ndarray

    def __init__(self, H, sigma, tau, K):
        h = _as_matrix(H)
        n = h.shape[0]
        m = np.empty((2 * n, 2 * n))
        m[:n, :n] = h
        m[:n, n:] = _as_matrix(sigma, n)
        m[n:, :n] = _as_matrix(tau, n)
        m[n:, n:] = _as_matrix(K, n)
        self._freeze(m)

    def _freeze(self, m: np.ndarray) -> None:
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _of(cls, m: np.ndarray) -> "BlockOperator":
        """Wrap a freshly computed 2n x 2n matrix that nothing else holds."""
        op = cls.__new__(cls)
        op._freeze(m)
        return op

    @classmethod
    def from_matrix(cls, m) -> "BlockOperator":
        m = _as_matrix(np.array(m, dtype=float))
        if m.shape[0] % 2 != 0:
            raise DimensionError("assembled operator must be 2n x 2n")
        return cls._of(m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    H = _block_view(0, 0)
    sigma = _block_view(0, 1)
    tau = _block_view(1, 0)
    K = _block_view(1, 1)

    def assemble(self) -> np.ndarray:
        """The dense 2n x 2n matrix [[H, sigma], [tau, K]] (the stored one)."""
        return self.matrix

    def compose(self, other: "BlockOperator") -> "BlockOperator":
        """self after other."""
        if other.n != self.n:
            raise DimensionError("operator dimensions differ")
        return BlockOperator._of(self.matrix @ other.matrix)

    def scale(self, c: float) -> "BlockOperator":
        return BlockOperator._of(c * self.matrix)

    def add(self, other: "BlockOperator") -> "BlockOperator":
        if other.n != self.n:
            raise DimensionError("operator dimensions differ")
        return BlockOperator._of(self.matrix + other.matrix)

    def neg(self) -> "BlockOperator":
        return BlockOperator._of(-self.matrix)


@dataclass(frozen=True)
class BilinearForm:
    """A bilinear form on V + V*, stored by its 2n x 2n Gram matrix."""

    gram: np.ndarray
    kind: str = GENERAL

    def __post_init__(self):
        g = _as_matrix(self.gram)
        if g.shape[0] % 2 != 0:
            raise DimensionError("Gram matrix must be 2n x 2n")
        if self.kind not in (SYMMETRIC, SKEW, GENERAL):
            raise ValueError(f"unknown form kind {self.kind!r}")
        object.__setattr__(self, "gram", g)

    @property
    def n(self) -> int:
        return self.gram.shape[0] // 2

    def __call__(self, u: GeneralizedVector, v: GeneralizedVector) -> float:
        if u.n != self.n or v.n != self.n:
            raise DimensionError("form and vector dimensions differ")
        return float(u.coords @ self.gram @ v.coords)


@dataclass(frozen=True)
class BaseForm:
    """A bilinear form on the base fiber V, stored by its n x n Gram matrix."""

    gram: np.ndarray
    kind: str = SYMMETRIC

    def __post_init__(self):
        g = _as_matrix(self.gram)
        if self.kind not in (SYMMETRIC, SKEW):
            raise ValueError(f"base form kind must be symmetric or skew, got {self.kind!r}")
        object.__setattr__(self, "gram", g)

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    def __call__(self, x, y) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.size != self.n or y.size != self.n:
            raise DimensionError("form and vector dimensions differ")
        return float(x @ self.gram @ y)


def apply(op: BlockOperator, v: GeneralizedVector) -> GeneralizedVector:
    """Apply a block operator: (H X + sigma xi) + (tau X + K xi)."""
    if op.n != v.n:
        raise DimensionError("operator and vector dimensions differ")
    return GeneralizedVector(op.matrix @ v.coords)


def dual_map(a) -> np.ndarray:
    """Matrix of the dual endomorphism in the dual basis: the transpose."""
    return _as_matrix(a).T.copy()


def is_degenerate(gram: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Scale-invariant singularity test on the singular values."""
    sv = np.linalg.svd(gram, compute_uv=False)
    return sv.size == 0 or sv[-1] <= tol.abs * max(sv[0], 1.0)


def musicals(b: BaseForm, tol: Tolerance = DEFAULT_TOL):
    """Flat and sharp coordinate matrices of a nondegenerate base form.

    flat sends X-coordinates to the dual coordinates of flat(X), i.e.
    flat = gram.T; sharp is its inverse.
    """
    if is_degenerate(b.gram, tol):
        raise DegenerateFormError("base form is numerically degenerate")
    flat = b.gram.T.copy()
    sharp = np.linalg.inv(flat)
    return flat, sharp


def signature(f, tol: Tolerance = DEFAULT_TOL):
    """Counts (r, s) of positive/negative eigenvalues of a symmetric form."""
    if f.kind != SYMMETRIC:
        raise ValueError("signature is defined for symmetric forms only")
    eig = np.linalg.eigvalsh(0.5 * (f.gram + f.gram.T))
    if np.any(np.abs(eig) <= tol.abs):
        raise DegenerateFormError("eigenvalue within tolerance of zero")
    r = int(np.sum(eig > 0))
    return r, eig.size - r


@dataclass(frozen=True)
class PolynomialClass:
    """Result of classifying op^2 against +/- identity."""

    kind: str  # "complex", "product" or "neither"
    plus_dim: int | None = None
    minus_dim: int | None = None

    @property
    def alpha(self) -> int | None:
        if self.kind == "complex":
            return -1
        if self.kind == "product":
            return +1
        return None

    @property
    def is_paracomplex(self) -> bool:
        return self.kind == "product" and self.plus_dim == self.minus_dim


NEITHER = PolynomialClass("neither")


def polynomial_class(op: BlockOperator, tol: Tolerance = DEFAULT_TOL) -> PolynomialClass:
    """Classify a block operator as almost complex, almost product or neither.

    Almost product demands op != +/-Id even though those square to the
    identity; the structures of interest are proper.
    """
    m = op.assemble()
    sq = m @ m
    ident = np.eye(m.shape[0])
    nid = np.linalg.norm(ident)
    if np.linalg.norm(sq + ident) <= tol.rel * nid:
        return PolynomialClass("complex")
    if np.linalg.norm(sq - ident) <= tol.rel * nid:
        if np.linalg.norm(m - ident) <= tol.rel * nid or np.linalg.norm(m + ident) <= tol.rel * nid:
            return NEITHER
        eig = np.linalg.eigvals(m)
        plus = int(np.sum(np.abs(eig - 1.0) < np.abs(eig + 1.0)))
        return PolynomialClass("product", plus, eig.size - plus)
    return NEITHER
