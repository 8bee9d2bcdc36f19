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
* Forms are values: ``BaseForm`` and ``BilinearForm`` keep, read-only, their
  kind's part of the Gram they are given (``_own_gram``); facts derived from
  it (``musicals``, ``signature``) are kept on the form per tolerance.

Worked n=1 example: g = [2] gives flat = [2], sharp = [0.5], and
flat(1)(1) = 2 = g(1, 1).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateFormError, DimensionError

SYMMETRIC = "symmetric"
SKEW = "skew"
GENERAL = "general"


class _ReadOnly:
    """Read-only slotted base (no dataclass code generation at import)."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} objects are read-only")

    __delattr__ = __setattr__


class Tolerance(_ReadOnly):
    """One positive, finite tolerance t: ``_admits`` bounds a residual by
    t * s + t * scale.  Equal and hashed by value (a memo key)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 1e-9):
        if not (np.isfinite(value) and value > 0):
            raise ValueError("tolerance must be positive and finite")
        self._set(value=value)

    def __eq__(self, other):
        if type(other) is not Tolerance:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Tolerance({self.value!r})"

    def _admits(self, residual, s, scale):
        """The one verdict rule, elementwise: residual <= t * s + t * scale
        (two products: t * (s + scale) rounds differently at the bound)."""
        return residual <= self.value * s + self.value * scale


DEFAULT_TOL = Tolerance()


def _as_matrix(a, n=None) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if n is not None and m.shape[0] != n:
        raise DimensionError(f"expected a {n}x{n} matrix, got {m.shape[0]}x{m.shape[0]}")
    return m


def _finite(m):
    if not np.isfinite(m).all():
        raise ValueError("matrix has a NaN or infinite entry")
    return m


def close(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Frobenius-norm closeness: ||a - b|| <= t + t * max(||a||, ||b||).

    Both sides are first multiplied by the power of two s that brings the
    largest entry into [0.5, 1).  That is exact, so the answer is unchanged,
    but finite norms can no longer overflow, nor underflow to zero.  The
    verdict is ``Tolerance._admits`` at (s, scale) = (s, max(||sa||, ||sb||)).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    peaks = abs(a).max(initial=0.0), abs(b).max(initial=0.0)
    if not (math.isfinite(peaks[0]) and math.isfinite(peaks[1])):
        raise ValueError("matrix has a NaN or infinite entry")
    # the exponent is clamped so that s itself stays a finite double
    s = 2.0 ** -max(math.frexp(max(peaks))[1], -1023)
    a, b = s * a, s * b
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    return tol._admits(np.linalg.norm(a - b), s, scale)


class GeneralizedVector(_ReadOnly):
    """An element X + xi of V + V*, stored as 2n coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.asarray(coords, dtype=float).reshape(-1)
        if c.size == 0 or c.size % 2 != 0:
            raise DimensionError(f"coordinate length must be a positive even number, got {c.size}")
        self._set(coords=c)

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


def _assemble(h, sigma, tau, k) -> np.ndarray:
    """Fresh 2n x 2n array [[h, sigma], [tau, k]] of four n x n blocks.

    A block given as the scalar 0 stays zero; n is read from the first
    block that is not.  Every other block must be an n x n matrix.
    """
    blocks = [None if np.ndim(b) == 0 and b == 0 else b for b in (h, sigma, tau, k)]
    first = next((b for b in blocks if b is not None), None)
    if first is None:
        raise DimensionError("at least one block must be a matrix")
    n = _as_matrix(first).shape[0]
    m = np.zeros((2 * n, 2 * n))
    for i, b in enumerate(blocks):
        if b is not None:
            row, col = divmod(i, 2)
            m[row * n : (row + 1) * n, col * n : (col + 1) * n] = _as_matrix(b, n)
    return m


def _block_view(row: int, col: int) -> property:
    """Read-only view of block (row, col) of a BlockOperator's matrix."""

    def view(op) -> np.ndarray:
        n = op.n
        return op.matrix[row * n : (row + 1) * n, col * n : (col + 1) * n]

    return property(view)


class BlockOperator(_ReadOnly):
    """An endomorphism of V + V* in block form [[H, sigma], [tau, K]].

    H maps V to V, sigma maps dual coordinates to V, tau maps V to dual
    coordinates and K acts on dual coordinates.  The operator is stored once,
    as the read-only 2n x 2n ``matrix``; H, sigma, tau and K are read-only
    views of its four n x n blocks, and composition, linear combination and
    application are dense matrix operations on it.
    """

    __slots__ = ("matrix",)

    def __init__(self, H, sigma, tau, K):
        self._freeze(_assemble(H, sigma, tau, K))

    def _freeze(self, m: np.ndarray) -> None:
        _finite(m).flags.writeable = False
        self._set(matrix=m)

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


def _own_gram(form, gram, kind: str) -> np.ndarray:
    """Give a form its kind, an empty memo of facts and a read-only Gram: G/2 +
    G.T/2 (symmetric) or G/2 - G.T/2 (skew), exactly of that kind as addition
    commutes and negation is exact, or G (general).  NaN or inf: ValueError."""
    g = _finite(_as_matrix(np.array(gram, dtype=float)))
    if kind != GENERAL:
        g = 0.5 * g + (0.5 if kind == SYMMETRIC else -0.5) * g.T
    g.flags.writeable = False
    form._set(gram=g, kind=kind, _facts={})
    return g


class BilinearForm(_ReadOnly):
    """A bilinear form on V + V*, stored by its 2n x 2n Gram matrix."""

    __slots__ = ("gram", "kind", "_facts")

    def __init__(self, gram, kind: str = GENERAL):
        if kind not in (SYMMETRIC, SKEW, GENERAL):
            raise ValueError(f"unknown form kind {kind!r}")
        if _own_gram(self, gram, kind).shape[0] % 2 != 0:
            raise DimensionError("Gram matrix must be 2n x 2n")

    @property
    def n(self) -> int:
        return self.gram.shape[0] // 2

    def __call__(self, u: GeneralizedVector, v: GeneralizedVector) -> float:
        if u.n != self.n or v.n != self.n:
            raise DimensionError("form and vector dimensions differ")
        return float(u.coords @ self.gram @ v.coords)


class BaseForm(_ReadOnly):
    """A bilinear form on the base fiber V, stored by its n x n Gram matrix."""

    __slots__ = ("gram", "kind", "_facts")

    def __init__(self, gram, kind: str = SYMMETRIC):
        if kind not in (SYMMETRIC, SKEW):
            raise ValueError(f"base form kind must be symmetric or skew, got {kind!r}")
        _own_gram(self, gram, kind)

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
    """The rank test: ``_inverse_unless_degenerate`` gives None (a numpy.bool_)."""
    return np.bool_(_inverse_unless_degenerate(gram, tol) is None)


_UNIT_ROUNDOFF = 2.0**-53
# The certificate trusts LAPACK's singular values to within p(n) * u *
# sigma_max for p(n) up to 32 n; it runs only where tol.value >= 2 * 32 n u.
_SVD_SLACK = 64
# Sums of squares outside [2^-800, 2^800] may have lost bits to underflow or
# overflow; the certificate leaves such matrices to the SVD.
_SQUARES_RANGE = (2.0**-800, 2.0**800)


def _certifies_nondegenerate(a: np.ndarray, x: np.ndarray, tol: Tolerance) -> bool:
    """True only if the SVD rule finds a nondegenerate, judged from x ~ a^-1.

    Write u = 2^-53 and E = I - X A, exactly, for the computed X.  The
    computed product is within gamma_n |X||A| of X A, and each computed
    Frobenius norm (a dot product of n^2 squares) within a relative
    (n^2 + 2) u of its value.  delta = 2 (n^2 + n + 4) u is twice what these
    first-order terms need; the spare half covers the few roundings in the
    formulas below.  So, with norms as computed,

        r = (||fl(X A - I)||_F + delta ||X||_F ||A||_F) (1 + delta) >= ||E||_2.

    If r <= 1/2, then X A = I - E is invertible with smallest singular value
    at least 1 - r, and sigma_min(A) >= (1 - r) / ||X||_2 >= lower, where
    lower = (1 - r) / (||X||_F (1 + delta)); sigma_max(A) <= upper =
    ||A||_F (1 + delta).  LAPACK's singular values are off by at most
    e = p(n) u sigma_max <= (t / 2) M, for t = tol.value >= 2 p(n) u and
    M = max(upper, 1).  Acceptance, lower > 2 t M, forces t < 1/2 (as
    lower <= sigma_min <= M), and gives

        sigma_min_svd >= lower - e > 1.5 t M > t M (1 + t / 2)
                      >= t max(sigma_max_svd, 1),

    so the SVD finds A nondegenerate too.  Any other case, including a
    non-finite intermediate, proves nothing and returns False.
    """
    n = a.shape[0]
    if tol.value < _SVD_SLACK * n * _UNIT_ROUNDOFF:
        return False
    delta = 2 * (n * n + n + 4) * _UNIT_ROUNDOFF
    with np.errstate(all="ignore"):
        residual = (x @ a).ravel()
        residual[:: n + 1] -= 1.0
        a_flat, x_flat = a.ravel(), x.ravel()
        r_sq, a_sq, x_sq = residual.dot(residual), a_flat.dot(a_flat), x_flat.dot(x_flat)
    low, high = _SQUARES_RANGE
    if not (low <= a_sq <= high and low <= x_sq <= high):
        return False
    a_norm, x_norm = math.sqrt(a_sq), math.sqrt(x_sq)
    r = (math.sqrt(r_sq) + delta * x_norm * a_norm) * (1 + delta)
    if not r <= 0.5:
        return False
    lower = (1 - r) / (x_norm * (1 + delta))
    return lower > 2 * tol.value * max(a_norm * (1 + delta), 1.0)


def _inverse_unless_degenerate(a, tol: Tolerance):
    """The one rank routine: x = ``np.linalg.inv(a)``, computed once, or None
    where a is degenerate at tol: where LAPACK cannot invert a (an exact zero
    pivot: singular to within the roundoff of its LU factors), and else, unless
    ``_certifies_nondegenerate`` proves x good, where the SVD rule sigma_min <=
    tol.value * max(sigma_max, 1) holds.  A NaN or infinite entry: ValueError."""
    a = _finite(_as_matrix(a))
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None
    if _certifies_nondegenerate(a, x, tol):
        return x
    sv = np.linalg.svd(a, compute_uv=False)
    return None if sv.size == 0 or tol._admits(sv[-1], max(sv[0], 1.0), 0) else x


def musicals(b: BaseForm, tol: Tolerance = DEFAULT_TOL):
    """Flat and sharp coordinate matrices of a nondegenerate base form.

    flat sends X-coordinates to the dual coordinates of flat(X), i.e.
    flat = gram.T; sharp is its inverse.  Both are computed once per
    (form, tol), kept on the form and returned read-only.  sharp is
    ``_inverse_unless_degenerate`` of flat, the one inversion of a base form
    (``induced_metric`` and ``nannicini_metric`` read sharp.T from here); where
    it is None, ``DegenerateFormError`` is raised on every call.
    """
    key = ("musicals", tol)
    if key not in b._facts:
        flat = b.gram.T.copy()
        sharp = _inverse_unless_degenerate(flat, tol)
        if sharp is None:
            raise DegenerateFormError("base form is numerically degenerate")
        flat.flags.writeable = sharp.flags.writeable = False
        b._facts[key] = flat, sharp
    return b._facts[key]


def signature(f, tol: Tolerance = DEFAULT_TOL):
    """Counts (r, s) of positive/negative eigenvalues of a symmetric form.

    An eigenvalue within tol.value of zero, ``Tolerance._admits`` of |lambda| at
    (1, 0), raises ``DegenerateFormError``.  The counts are kept on the form
    per tol; errors are not kept, so each call with that tolerance raises again.
    """
    if f.kind != SYMMETRIC:
        raise ValueError("signature is defined for symmetric forms only")
    key = ("signature", tol)
    if key not in f._facts:
        eig = np.linalg.eigvalsh(f.gram)
        if np.any(tol._admits(np.abs(eig), 1, 0)):
            raise DegenerateFormError("eigenvalue within tolerance of zero")
        r = int(np.sum(eig > 0))
        f._facts[key] = r, eig.size - r
    return f._facts[key]


class PolynomialClass(NamedTuple):
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


def _square_sign(m: np.ndarray, tol: Tolerance) -> int | None:
    """alpha with m^2 = alpha I, -1 tried first: ``Tolerance._admits`` of
    ||m^2 - alpha I|| at (0, ||I||).  None where neither sign fits."""
    sq, ident = m @ m, np.eye(m.shape[0])
    nid = np.linalg.norm(ident)
    return next((s for s in (-1, 1) if tol._admits(np.linalg.norm(sq - s * ident), 0, nid)), None)


def _isometry_sign(m: np.ndarray, gram: np.ndarray, tol: Tolerance) -> int | None:
    """epsilon with m^T gram m = epsilon gram by ``close``.  None where neither
    sign fits, or where both do: then gram is within the tolerance of zero."""
    pulled = m.T @ gram @ m
    plus, minus = close(pulled, gram, tol), close(pulled, -gram, tol)
    return None if plus == minus else (1 if plus else -1)


def polynomial_class(op: BlockOperator, tol: Tolerance = DEFAULT_TOL) -> PolynomialClass:
    """Classify a block operator as almost complex, almost product or neither.

    The square sign is ``_square_sign``'s; as the structures of interest are
    proper, an almost product op must also differ from +/-Id, by
    ``Tolerance._admits`` at (0, ||I||).

    The +1 and -1 eigenspace dimensions of an almost product structure are
    counted from the trace, plus = round((2n + trace) / 2).  This is exact
    here: with eta = ||op^2 - I||_2, every eigenvalue lambda of op has
    |lambda^2 - 1| <= eta, so it lies within eta of the sign s = +/-1 of its
    real part (|lambda + s| >= 1).  The trace is then plus - minus up to at
    most 2n * eta, and the product test has bounded eta by tol.value * sqrt(2n),
    so the rounding is exact while tol.value * (2n)^(3/2) < 1: for every 2n
    below 10^6 at the default tolerance.  The count is the one the
    eigenvalues give, each assigned to the nearer of +1 and -1.  A looser
    tolerance takes that eigenvalue count itself, since the trace can then
    be off by a whole unit.
    """
    m = op.assemble()
    alpha = _square_sign(m, tol)
    if alpha != 1:
        return NEITHER if alpha is None else PolynomialClass("complex")
    ident = np.eye(m.shape[0])
    nid = np.linalg.norm(ident)
    if any(tol._admits(np.linalg.norm(m - sign * ident), 0, nid) for sign in (1, -1)):
        return NEITHER
    size = m.shape[0]
    if tol.value * size**1.5 < 1:
        plus = round((size + float(np.trace(m))) / 2)
    else:
        eig = np.linalg.eigvals(m)
        plus = int(np.sum(np.abs(eig - 1.0) < np.abs(eig + 1.0)))
    return PolynomialClass("product", plus, size - plus)
