"""Block multiplication rules for [[H, sigma], [tau, K]] operators.

The library composes, combines and applies operators as dense 2n x 2n
matrices.  These functions redo the same arithmetic block by block, so the
tests can check the dense path against an independent reference.
"""

import numpy as np


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
