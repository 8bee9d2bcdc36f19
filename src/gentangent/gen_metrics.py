"""Generalized metrics and symplectic forms via inducing endomorphisms.

A block operator K induces the bilinear form G(u, v) = G0(K u, v); with the
Gram convention that is ``gram = assemble(K).T @ gram(G0)``.  The form is a
generalized metric exactly when the K-block equals the dual of the H-block,
tau and sigma are symmetric matrices and the assembled operator is
invertible; for a symplectic form the dual relation and the symmetries flip
sign.

Worked n=2 example for the tau condition: (tau X)(Y) = X.T @ tau.T @ Y, so
(tau X)(Y) = (tau Y)(X) for all X, Y exactly when tau = tau.T as a matrix.
"""

from typing import NamedTuple

import numpy as np

from .canonical import g0
from .core import (
    GENERAL,
    SKEW,
    SYMMETRIC,
    BaseForm,
    BilinearForm,
    BlockOperator,
    DEFAULT_TOL,
    Tolerance,
    _assemble,
    _inverse_unless_degenerate,
    _square_sign,
    close,
    dual_map,
    is_degenerate,
    musicals,
)
from .errors import DegenerateFormError, NotComplexError, NotInjectiveError

NOT_INJECTIVE = "NotInjective"
K_BLOCK_NOT_H_DUAL = "KBlockNotHDual"
TAU_NOT_SYMMETRIC = "TauNotSymmetric"
SIGMA_NOT_SYMMETRIC = "SigmaNotSymmetric"
TAU_NOT_SKEW = "TauNotSkew"
SIGMA_NOT_SKEW = "SigmaNotSkew"


class MetricInducerReport(NamedTuple):
    """Named condition failures of a candidate inducing endomorphism."""

    violations: tuple = ()

    @property
    def valid(self) -> bool:
        return not self.violations


def _form_from_endomorphism(op, sign, kind, tau_violation, sigma_violation, tol):
    """Form u, v -> G0(op u, v), valid of the given kind when K = sign H*,
    tau = sign tau.T, sigma = sign sigma.T and op is injective."""
    conditions = (
        (op.K, dual_map(op.H), K_BLOCK_NOT_H_DUAL),
        (op.tau, op.tau.T, tau_violation),
        (op.sigma, op.sigma.T, sigma_violation),
    )
    violations = [name for block, other, name in conditions
                  if not close(block, sign * other, tol)]
    if is_degenerate(op.matrix, tol):
        violations.append(NOT_INJECTIVE)
    report = MetricInducerReport(tuple(violations))
    gram = op.matrix.T @ g0(op.n).gram
    return BilinearForm(gram, kind if report.valid else GENERAL), report


def metric_from_endomorphism(op: BlockOperator, tol: Tolerance = DEFAULT_TOL):
    """Form u, v -> G0(op u, v) plus a validity report for the metric case."""
    return _form_from_endomorphism(
        op, +1, SYMMETRIC, TAU_NOT_SYMMETRIC, SIGMA_NOT_SYMMETRIC, tol)


def symplectic_from_endomorphism(op: BlockOperator, tol: Tolerance = DEFAULT_TOL):
    """Form u, v -> G0(op u, v) plus a validity report for the symplectic case."""
    return _form_from_endomorphism(op, -1, SKEW, TAU_NOT_SKEW, SIGMA_NOT_SKEW, tol)


def endomorphism_from_metric(form: BilinearForm, tol: Tolerance = DEFAULT_TOL) -> BlockOperator:
    """Read off the inducing endomorphism of a symmetric nondegenerate form.

    Blocks come from (tau X)(Y) = 2 G(X, Y), eta(sigma xi) = 2 G(xi, eta)
    and xi(H X) = 2 G(X, xi).
    """
    if form.kind != SYMMETRIC:
        raise ValueError("expected a symmetric form")
    if is_degenerate(form.gram, tol):
        raise DegenerateFormError("form is numerically degenerate")
    n = form.n
    a = form.gram[:n, :n]
    b = form.gram[:n, n:]
    d = form.gram[n:, n:]
    return BlockOperator(2.0 * b.T, 2.0 * d, 2.0 * a, 2.0 * b)


def diagonal_inducer(h, lam: int) -> BlockOperator:
    """The diagonal endomorphism [[H, 0], [0, lam H*]] for invertible H."""
    h = np.asarray(h, dtype=float)
    if lam not in (+1, -1):
        raise ValueError("lam must be +1 or -1")
    if is_degenerate(h):
        raise NotInjectiveError("H block is singular")
    return _diagonal(h, lam)


def _diagonal(h, lam: int) -> BlockOperator:
    """[[H, 0], [0, lam H*]], the one construction behind ``diagonal_inducer``
    and ``ae_zoo.build_diagonal``; each checks its own preconditions first."""
    return BlockOperator(h, 0, 0, lam * dual_map(h))


def induced_metric(g: BaseForm, tol: Tolerance = DEFAULT_TOL) -> BilinearForm:
    """Generalized metric induced by a base metric: Gram [[G, 0], [0, G^-1]].

    A degenerate G (``is_degenerate``) raises ``DegenerateFormError``; the
    rank test reads the G^-1 that the Gram needs anyway.
    """
    if g.kind != SYMMETRIC:
        raise ValueError("expected a symmetric base form")
    inverse = _inverse_unless_degenerate(g.gram, tol)
    if inverse is None:
        raise DegenerateFormError("base metric is numerically degenerate")
    return BilinearForm(_assemble(g.gram, 0, 0, inverse), SYMMETRIC)


def nannicini_metric(j, g: BaseForm, tol: Tolerance = DEFAULT_TOL) -> BilinearForm:
    """Metric of a Norden-style pair (J, g): Gram [[g, J.T / 2], [J / 2, sharp.T]].

    The closed form of the summands g(X, Y), g(JX, sharp eta) / 2,
    g(sharp xi, JY) / 2 and g(sharp xi, sharp eta), as g sharp = I.  It is,
    bit for bit, the form induced by [[J, 2 sharp], [2 flat, J*]]: each entry
    of that Gram is one entry of the endomorphism times the 1/2 of G0.
    """
    j = np.asarray(j, dtype=float)
    if _square_sign(j, tol) != -1:
        raise NotComplexError("J does not square to -I")
    _, sharp = musicals(g, tol)
    return BilinearForm(_assemble(g.gram, 0.5 * j.T, 0.5 * j, sharp.T), SYMMETRIC)
