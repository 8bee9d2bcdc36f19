"""Integer (J, g) fixtures whose defining identities hold exactly in double.

A shear I + c e_i e_j^T (i != j, c an integer) has determinant 1 and the
integer inverse I - c e_i e_j^T.  So a product P of shears is an integer
unimodular matrix, and P^-1 is the product of the inverse shears in reverse
order.  Transporting a kind's integer model pair (J0, G0) of
``generators._model_pair`` by P gives the integer matrices J = P^-1 J0 P and
g = P^T G0 P, with J^2 = alpha I and J^T g J = eps g exactly.

Every entry of P, P^-1, J, g and J^T g is kept below ``BOUND`` = 2^20.  Then
each product the library forms from them (J @ J, J.T @ g and its product with
J) sums at most n terms below 2^40: for n <= 8 every partial sum is an
integer below 2^53, so each product is exact in double whatever the order of
summation.  Scaling g by a power of two is exact too.

The shears are also the integer GL(V) maps that the symmetry tests can use.
"""

import numpy as np

from gentangent.generators import SplitMix64, _model_pair

BOUND = 2**20
MAX_COEFFICIENT = 3


def shear(n, i, j, c):
    """I + c e_i e_j^T as an int64 matrix, i != j."""
    s = np.eye(n, dtype=np.int64)
    s[i, j] = c
    return s


def _draw_shear(n, rng):
    """(i, j, c) with i != j and c in +-[1, MAX_COEFFICIENT]."""
    i, j = divmod(rng.next_u64() % (n * (n - 1)), n - 1)
    c = 1 + rng.next_u64() % MAX_COEFFICIENT
    return i, j + (j >= i), -c if rng.next_u64() % 2 else c


def _largest_entry(*matrices):
    return max(int(np.abs(m).max()) for m in matrices)


def transported_pair(kind, n, seed, shears):
    """(J, g, P) as float arrays: the kind's model pair transported by P, a
    product of at most ``shears`` shears drawn from SplitMix64(seed).  It
    stops early at the first shear that would take an entry of P, P^-1, J, g
    or J^T g to ``BOUND``."""
    j0, g0 = (m.astype(np.int64) for m in _model_pair(kind, n))
    p = p_inv = np.eye(n, dtype=np.int64)
    rng = SplitMix64(seed)
    for _ in range(shears):
        i, j, c = _draw_shear(n, rng)
        p_next, p_inv_next = p @ shear(n, i, j, c), shear(n, i, j, -c) @ p_inv
        j_next, g_next = p_inv_next @ j0 @ p_next, p_next.T @ g0 @ p_next
        if _largest_entry(p_next, p_inv_next, j_next, g_next, j_next.T @ g_next) >= BOUND:
            break
        p, p_inv = p_next, p_inv_next
    return (p_inv @ j0 @ p).astype(float), (p.T @ g0 @ p).astype(float), p.astype(float)
