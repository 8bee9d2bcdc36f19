"""Seeded generation of base-fiber data for the property suites.

All randomness flows through SplitMix64, a tiny counter-based 64-bit
generator with a fixed output sequence for a given seed, so fixtures are
bit-for-bit reproducible across runs and across language ports.  The
contract: state advances by 0x9E3779B97F4A7C15 per draw and each output is
the standard splitmix64 finalizer of the new state; uniforms map the top 53
bits into [0, 1).

Draws are vectorized: a block of outputs is computed at once on numpy
``uint64`` arrays, whose multiplications wrap modulo 2**64 exactly like the
scalar definition, so the stream is the same as drawing one value at a time.

The rejection loop's decision is memoized, not its matrix.  The checks
redraw from the same seeds many times, so ``_accepted_state`` runs the loop
once per (n, stream state, clamp) in a bounded ``lru_cache`` (128 keys, the
least recently used dropped first; a key that comes back after more than 128
others runs the loop again) and keeps the stream state just before the
accepted candidate.  ``random_invertible`` sets the stream there and draws
that candidate again, so every draw is a fresh array the caller may write.
``_model_pair`` caches its read-only matrices.

One test decides each candidate P at every n: the eigenvalues of P^T P are
the squared singular values, and P is accepted iff the largest is below
clamp^2 times the smallest, which is positive.  Forming P^T P moves each
eigenvalue by at most about n u sigma_max^2 (Weyl's bound; Higham, Accuracy
and Stability of Numerical Algorithms, section 10.1 and chapter 20), so the
decision is the SVD's except for candidates within about n u cond^2 of the
clamp.
"""

import functools

import numpy as np

from .ae_zoo import (
    HERMITIAN,
    INDEFINITE_HERMITIAN,
    KINDS,
    NORDEN,
    PARA_HERMITIAN,
    PRODUCT_RIEMANNIAN,
    AeManifoldData,
)
from .core import SKEW, SYMMETRIC, BaseForm, _assemble
from .errors import DimensionError

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF
_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_MIX2 = np.uint64(0x94D049BB133111EB)
_UNIT = 1.0 / (1 << 53)

MAX_CONDITION = 1.0e3
TRANSPORT_CONDITION = 50.0  # clamp of the basis change of random_ae_pair and random_kahler_data


class SplitMix64:
    """Deterministic 64-bit generator with a documented output sequence."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def _draw(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a uint64 array.

        Every product is taken on arrays, where numpy wraps uint64 overflow
        silently (uint64 scalars would warn).
        """
        z = np.arange(1, count + 1, dtype=np.uint64) * _U64_GOLDEN
        z += np.uint64(self._state)
        self._state = (self._state + count * _GOLDEN) & _MASK
        z ^= z >> 30
        z *= _U64_MIX1
        z ^= z >> 27
        z *= _U64_MIX2
        z ^= z >> 31
        return z

    def next_u64(self) -> int:
        return int(self._draw(1)[0])

    def uniform(self) -> float:
        """Uniform double in [0, 1), from the top 53 bits."""
        return (self.next_u64() >> 11) * _UNIT

    def symmetric_uniform(self) -> float:
        """Uniform double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        """Row-major matrix of symmetric uniforms."""
        u = (self._draw(rows * cols) >> 11).astype(np.float64) * _UNIT
        return (2.0 * u - 1.0).reshape(rows, cols)


# Highest clamp the eigenvalue test resolves: fl(P^T P) moves each eigenvalue
# by about n u sigma_max^2 (Weyl), a relative error of about n u cond^2 in
# sigma_min^2, below 1e-6 up to this clamp for n <= 64.
_MAX_CLAMP = 1.0e4


@functools.lru_cache(maxsize=128)
def _accepted_state(n: int, state: int, max_condition: float) -> int:
    """Stream state just before the first draw from ``state`` whose condition
    is below the clamp."""
    rng = SplitMix64(state)
    while True:
        start = rng._state
        p = rng.matrix(n, n)
        lam = np.linalg.eigvalsh(p.T @ p)
        if lam[0] > 0 and lam[-1] < max_condition**2 * lam[0]:
            return start


def random_invertible(n: int, rng: SplitMix64, max_condition: float = MAX_CONDITION) -> np.ndarray:
    """Random matrix with condition number below the clamp.

    Draws are rejected (consuming the stream deterministically) until
    cond < max_condition, decided from the eigenvalues of P^T P (the squared
    singular values).  At the default clamp a uniform entry matrix passes
    almost always at the sizes used here; at the transport clamp 50 most
    32 x 32 draws are rejected.  The clamp must lie in (1, 1e4]: no matrix
    has cond below 1, so a clamp of at most 1 would loop forever (one just
    above 1 still almost never accepts), and above 1e4 the rounding of
    P^T P blurs the decision.  The result is a fresh array, which no other
    caller holds.
    """
    if not 1.0 < max_condition <= _MAX_CLAMP:
        raise ValueError(f"max_condition must lie in (1, {_MAX_CLAMP:g}], not {max_condition!r}")
    rng._state = _accepted_state(n, rng._state, max_condition)
    return rng.matrix(n, n)


def fixture_dim(n: int, kind: str | None = None) -> int:
    """Dimension at which fixtures are drawn for a requested dimension n: the
    one that ``ae_zoo.KINDS`` fixes for the kind, if any, else n rounded up
    to even, as every fixture but a plain metric needs."""
    return (kind in KINDS and KINDS[kind].dim) or n + n % 2


def random_metric(n: int, r: int, s: int, seed: int) -> BaseForm:
    """Symmetric base form of signature (r, s): P.T diag(+1 x r, -1 x s) P."""
    if r < 0 or s < 0 or r + s != n:
        raise DimensionError(f"signature ({r}, {s}) does not fit dimension {n}")
    rng = SplitMix64(seed)
    p = random_invertible(n, rng)
    d = np.diag(np.concatenate([np.ones(r), -np.ones(s)]))
    return BaseForm(p.T @ d @ p, SYMMETRIC)


def random_symplectic(n: int, seed: int) -> BaseForm:
    """Skew nondegenerate base form P.T Omega_std P; n must be even."""
    if n % 2 != 0:
        raise DimensionError("no nondegenerate skew form exists in odd dimension")
    rng = SplitMix64(seed)
    p = random_invertible(n, rng)
    # the transpose, not the negation, keeps the zero blocks free of -0.0
    return BaseForm(p.T @ _standard_complex(n).T @ p, SKEW)


def _standard_complex(n: int) -> np.ndarray:
    """The standard complex structure [[0, -I], [I, 0]] on R^n, n even."""
    m = n // 2
    return _assemble(0, -np.eye(m), np.eye(m), 0)


def _frozen(j, g):
    """The model pair with its matrices marked read-only, for the cache."""
    j.flags.writeable = g.flags.writeable = False
    return j, g


@functools.lru_cache(maxsize=128)
def _model_pair(kind: str, n: int):
    """Exactly compatible (J, g) of a kind of ``ae_zoo.KINDS``, read-only."""
    m = n // 2
    if kind == HERMITIAN:
        if n % 2 != 0:
            raise DimensionError("Hermitian data needs even dimension")
        return _frozen(_standard_complex(n), np.eye(n))
    if kind == INDEFINITE_HERMITIAN:
        if n % 4 != 0:
            # the invariant metric splits J-stable planes, forcing even r and s
            raise DimensionError("indefinite Hermitian data needs dimension divisible by 4")
        a = np.diag([1.0 if i % 2 == 0 else -1.0 for i in range(m)])
        return _frozen(_standard_complex(n), _assemble(a, 0, 0, a))
    if kind == NORDEN:
        if n % 2 != 0:
            raise DimensionError("Norden data needs even dimension")
        return _frozen(_standard_complex(n), _assemble(np.eye(m), 0, 0, -np.eye(m)))
    if kind == PARA_HERMITIAN:
        if n % 2 != 0:
            raise DimensionError("para-Hermitian data needs even dimension")
        f = _assemble(np.eye(m), 0, 0, -np.eye(m))
        return _frozen(f, _assemble(0, np.eye(m), np.eye(m), 0))
    if kind == PRODUCT_RIEMANNIAN:
        if n < 2:
            raise DimensionError("product data needs dimension at least 2")
        f = np.diag(np.concatenate([np.ones(n - m), -np.ones(m)]))
        return _frozen(f, np.eye(n))
    raise ValueError(f"unknown kind {kind!r}; known: {tuple(KINDS)}")


def random_kahler_data(n: int, seed: int):
    """Seeded (b, g, J1, J2): skew b, SPD g and two g-isometric complex maps.

    g = P^T P is drawn at the tighter clamp ``TRANSPORT_CONDITION``, because
    the consumers conjugate through shears and inverses of this data.
    """
    from .triples import KahlerData  # imported here, so that ``build`` loads no triples

    if n % 2 != 0:
        raise DimensionError("complex structures need even dimension")
    rng = SplitMix64(seed)
    p = random_invertible(n, rng, TRANSPORT_CONDITION)
    g = BaseForm(p.T @ p, SYMMETRIC)
    j_model = _standard_complex(n)
    p_inv = np.linalg.inv(p)

    def iso_complex():
        # q orthogonal, so q.T j_model q is an isometry of the model metric;
        # transporting by p carries it to a g-isometry
        q, _ = np.linalg.qr(random_invertible(n, rng))
        return p_inv @ q.T @ j_model @ q @ p

    j1, j2 = iso_complex(), iso_complex()
    b = rng.matrix(n, n)
    return KahlerData(b - b.T, g, j1, j2)


def random_ae_pair(kind: str, n: int, seed: int) -> AeManifoldData:
    """Model pair on the standard fiber, transported by a random basis change.

    The transport g -> P.T g P, J -> P^-1 J P preserves both defining
    identities exactly, so compatibility holds by construction.  The
    transport condition is clamped at ``TRANSPORT_CONDITION``, well below the
    generic default: downstream identities square and invert the transported
    blocks, and the clamp keeps their roundoff comfortably under 1e-9.
    """
    j, g = _model_pair(kind, n)
    alpha, eps, _ = KINDS[kind]
    p = random_invertible(n, SplitMix64(seed), TRANSPORT_CONDITION)
    return AeManifoldData(np.linalg.inv(p) @ j @ p, BaseForm(p.T @ g @ p, SYMMETRIC), alpha, eps)


def random_base(kind: str, n: int, seed: int):
    """Seeded base data of a kind for a requested n: a positive definite metric
    (SYMMETRIC) at n, else a symplectic form or (J, g) data at fixture_dim."""
    if kind == SYMMETRIC:
        return random_metric(n, n, 0, seed)
    if kind == SKEW:
        return random_symplectic(fixture_dim(n), seed)
    return random_ae_pair(kind, fixture_dim(n, kind), seed)
