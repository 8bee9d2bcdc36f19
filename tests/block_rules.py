"""Block rules for [[H, sigma], [tau, K]] operators.

The library composes, combines and applies operators as dense 2n x 2n
matrices, and decides commutation with the flip F0 from dense products.
These functions redo the same work block by block, so the tests can check
the dense path against an independent reference.
"""

import numpy as np

from gentangent.triples import ANTI_COMMUTES, COMMUTES, NEITHER_COMMUTATION


def compose_by_blocks(a, b) -> np.ndarray:
    """Matrix of a after b, from the four block products."""
    return np.block([
        [a.H @ b.H + a.sigma @ b.tau, a.H @ b.sigma + a.sigma @ b.K],
        [a.tau @ b.H + a.K @ b.tau, a.tau @ b.sigma + a.K @ b.K],
    ])


def combine_by_blocks(a, ca, b, cb) -> np.ndarray:
    """Matrix of ca a + cb b, block by block."""
    return np.block([
        [ca * a.H + cb * b.H, ca * a.sigma + cb * b.sigma],
        [ca * a.tau + cb * b.tau, ca * a.K + cb * b.K],
    ])


def apply_by_blocks(op, coords) -> np.ndarray:
    """Coordinates of op (X + xi) = (H X + sigma xi) + (tau X + K xi)."""
    n = op.n
    x, xi = coords[:n], coords[n:]
    return np.concatenate([op.H @ x + op.sigma @ xi, op.tau @ x + op.K @ xi])


def f0_commutation_by_blocks(op) -> str:
    """The paper's block criterion, exactly: op commutes with F0 = diag(-I, I)
    iff sigma = tau = 0 and anti-commutes iff H = K = 0; the zero operator
    commutes."""
    if not op.sigma.any() and not op.tau.any():
        return COMMUTES
    if not op.H.any() and not op.K.any():
        return ANTI_COMMUTES
    return NEITHER_COMMUTATION
