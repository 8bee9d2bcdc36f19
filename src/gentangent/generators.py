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
"""

import numpy as np

from .ae_zoo import AeManifoldData
from .core import SKEW, SYMMETRIC, BaseForm
from .errors import DimensionError

HERMITIAN_KIND = "Hermitian"
INDEFINITE_HERMITIAN_KIND = "IndefiniteHermitian"
NORDEN_KIND = "Norden"
PARA_HERMITIAN_KIND = "ParaHermitian"
PRODUCT_RIEMANNIAN_KIND = "ProductRiemannian"

AE_KINDS = (
    HERMITIAN_KIND,
    INDEFINITE_HERMITIAN_KIND,
    NORDEN_KIND,
    PARA_HERMITIAN_KIND,
    PRODUCT_RIEMANNIAN_KIND,
)

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF
_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_MIX2 = np.uint64(0x94D049BB133111EB)
_UNIT = 1.0 / (1 << 53)

MAX_CONDITION = 1.0e3


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


def random_invertible(n: int, rng: SplitMix64, max_condition: float = MAX_CONDITION) -> np.ndarray:
    """Random matrix with condition number below the clamp.

    Draws are rejected (consuming the stream deterministically) until the
    condition bound holds; a uniform entry matrix passes almost always at
    the sizes used here.
    """
    while True:
        p = rng.matrix(n, n)
        sv = np.linalg.svd(p, compute_uv=False)
        if sv[-1] > 0 and sv[0] / sv[-1] < max_condition:
            return p


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
    m = n // 2
    omega = np.block(
        [[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]]
    )
    return BaseForm(p.T @ omega @ p, SKEW)


def _model_pair(kind: str, n: int):
    """Exactly compatible (J, g, alpha, eps) on the standard fiber."""
    m = n // 2
    if kind == HERMITIAN_KIND:
        if n % 2 != 0:
            raise DimensionError("Hermitian data needs even dimension")
        j = np.block([[np.zeros((m, m)), -np.eye(m)], [np.eye(m), np.zeros((m, m))]])
        return j, np.eye(n), -1, +1
    if kind == INDEFINITE_HERMITIAN_KIND:
        if n % 4 != 0:
            # the invariant metric splits J-stable planes, forcing even r and s
            raise DimensionError("indefinite Hermitian data needs dimension divisible by 4")
        j = np.block([[np.zeros((m, m)), -np.eye(m)], [np.eye(m), np.zeros((m, m))]])
        a = np.diag([1.0 if i % 2 == 0 else -1.0 for i in range(m)])
        g = np.block([[a, np.zeros((m, m))], [np.zeros((m, m)), a]])
        return j, g, -1, +1
    if kind == NORDEN_KIND:
        if n % 2 != 0:
            raise DimensionError("Norden data needs even dimension")
        j = np.block([[np.zeros((m, m)), -np.eye(m)], [np.eye(m), np.zeros((m, m))]])
        g = np.block([[np.eye(m), np.zeros((m, m))], [np.zeros((m, m)), -np.eye(m)]])
        return j, g, -1, -1
    if kind == PARA_HERMITIAN_KIND:
        if n % 2 != 0:
            raise DimensionError("para-Hermitian data needs even dimension")
        f = np.block([[np.eye(m), np.zeros((m, m))], [np.zeros((m, m)), -np.eye(m)]])
        g = np.block([[np.zeros((m, m)), np.eye(m)], [np.eye(m), np.zeros((m, m))]])
        return f, g, +1, -1
    if kind == PRODUCT_RIEMANNIAN_KIND:
        if n < 2:
            raise DimensionError("product data needs dimension at least 2")
        q = n // 2
        f = np.diag(np.concatenate([np.ones(n - q), -np.ones(q)]))
        return f, np.eye(n), +1, +1
    raise ValueError(f"unknown kind {kind!r}; known: {AE_KINDS}")


def random_kahler_data(n: int, seed: int, max_condition: float = 50.0):
    """Seeded (b, g, J1, J2): skew b, SPD g and two g-isometric complex maps.

    The condition clamp is tighter than for plain metrics because the
    consumers conjugate through shears and inverses of this data.
    """
    from .triples import KahlerData  # local import to avoid a cycle

    if n % 2 != 0:
        raise DimensionError("complex structures need even dimension")
    rng = SplitMix64(seed)
    p = random_invertible(n, rng, max_condition)
    g = BaseForm(p.T @ p, SYMMETRIC)
    m = n // 2
    j_model = np.block(
        [[np.zeros((m, m)), -np.eye(m)], [np.eye(m), np.zeros((m, m))]]
    )
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
    transport condition is clamped well below the generic invertible
    default: downstream identities square and invert the transported
    blocks, and the clamp keeps their roundoff comfortably under 1e-9.
    """
    j, g, alpha, eps = _model_pair(kind, n)
    rng = SplitMix64(seed)
    p = random_invertible(n, rng, max_condition=50.0)
    p_inv = np.linalg.inv(p)
    return AeManifoldData(p_inv @ j @ p, BaseForm(p.T @ g @ p, SYMMETRIC), alpha, eps)
