"""Builders and classifiers for (alpha, epsilon)-structures on the fiber.

alpha is the square sign of the polynomial structure (op^2 = alpha Id) and
epsilon the isometry sign against the chosen metric (G(op u, op v) =
epsilon G(u, v)).  The four sign pairs name the product / para-Hermitian /
Hermitian / Norden families.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .canonical import g0, omega0
from .core import (
    SKEW,
    SYMMETRIC,
    BaseForm,
    BilinearForm,
    BlockOperator,
    DEFAULT_TOL,
    Tolerance,
    _assemble,
    _inverse_unless_degenerate,
    close,
    dual_map,
    musicals,
    polynomial_class,
    signature,
)
from .errors import (
    DimensionError,
    IncompatiblePairError,
    NotPolynomialError,
    ProjectionSingularError,
    UnknownFamilyError,
)
from .gen_metrics import _diagonal, induced_metric

PRODUCT_RIEMANNIAN = "ProductRiemannian"
PRODUCT_PSEUDO_RIEMANNIAN = "ProductPseudoRiemannian"
PARA_NORDEN = "ParaNorden"
PARA_HERMITIAN = "ParaHermitian"
HERMITIAN = "Hermitian"
INDEFINITE_HERMITIAN = "IndefiniteHermitian"
NORDEN = "Norden"
INCOMPATIBLE = "Incompatible"

TWIN_METRIC = "TwinMetric"
FUNDAMENTAL_SYMPLECTIC = "FundamentalSymplectic"


@dataclass(frozen=True)
class StructureClass:
    name: str
    alpha: int | None = None
    epsilon: int | None = None
    signature: tuple | None = None


@dataclass(frozen=True)
class FundamentalTensor:
    form: BilinearForm
    kind: str


@dataclass(frozen=True)
class AeManifoldData:
    """A base-fiber pair (J, g) with J^2 = alpha I and g(J., J.) = epsilon g."""

    J: np.ndarray
    g: BaseForm
    alpha: int
    epsilon: int

    def __post_init__(self):
        j = np.asarray(self.J, dtype=float)
        object.__setattr__(self, "J", j)
        if j.shape != (self.g.n, self.g.n):
            raise DimensionError("J and g dimensions differ")
        if self.alpha not in (+1, -1) or self.epsilon not in (+1, -1):
            raise ValueError("alpha and epsilon must be +1 or -1")

    @property
    def n(self) -> int:
        return self.g.n

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        ident = np.eye(self.n)
        gm = self.g.gram
        return close(self.J @ self.J, self.alpha * ident, tol) and close(
            self.J.T @ gm @ self.J, self.epsilon * gm, tol
        )


def base_fundamental(data: AeManifoldData) -> BaseForm:
    """The fiber-level tensor phi(X, Y) = g(J X, Y)."""
    kind = SYMMETRIC if data.alpha * data.epsilon == +1 else SKEW
    return BaseForm(data.J.T @ data.g.gram, kind)


def isometry_sign(op: BlockOperator, metric: BilinearForm, tol: Tolerance = DEFAULT_TOL):
    """epsilon with M.T Gram M = epsilon Gram, or None if it is not determined.

    None means that neither sign fits, or that both do: then Gram itself is
    within the tolerance of zero and the sign cannot be told apart.
    """
    m = op.assemble()
    pulled = m.T @ metric.gram @ m
    plus = close(pulled, metric.gram, tol)
    minus = close(pulled, -metric.gram, tol)
    if plus == minus:
        return None
    return +1 if plus else -1


def classify_pair(op: BlockOperator, metric: BilinearForm, tol: Tolerance = DEFAULT_TOL) -> StructureClass:
    """Classify (op, metric) into the (alpha, epsilon) family table."""
    pc = polynomial_class(op, tol)
    if pc.kind == "neither":
        return StructureClass(INCOMPATIBLE)
    eps = isometry_sign(op, metric, tol)
    if eps is None:
        return StructureClass(INCOMPATIBLE)
    if metric.kind != SYMMETRIC:
        raise ValueError("the (alpha, epsilon) table needs a symmetric metric, "
                         f"not a {metric.kind} one")
    sig = signature(metric, tol)
    riemannian = sig[1] == 0
    alpha = pc.alpha
    if alpha == -1:
        if eps == -1:
            name = NORDEN
        else:
            name = HERMITIAN if riemannian else INDEFINITE_HERMITIAN
    else:
        if eps == -1:
            name = PARA_HERMITIAN
        elif riemannian:
            name = PARA_NORDEN if pc.is_paracomplex else PRODUCT_RIEMANNIAN
        else:
            name = PRODUCT_PSEUDO_RIEMANNIAN
    return StructureClass(name, alpha, eps, sig)


def fundamental_tensor(op: BlockOperator, metric: BilinearForm, tol: Tolerance = DEFAULT_TOL) -> FundamentalTensor:
    """The form u, v -> G(op u, v) of a compatible pair."""
    cls = classify_pair(op, metric, tol)
    if cls.name == INCOMPATIBLE:
        raise IncompatiblePairError("pair is not an (alpha, epsilon)-structure")
    gram = op.assemble().T @ metric.gram
    kind = TWIN_METRIC if cls.alpha * cls.epsilon == +1 else FUNDAMENTAL_SYMPLECTIC
    form_kind = SYMMETRIC if kind == TWIN_METRIC else SKEW
    return FundamentalTensor(BilinearForm(gram, form_kind), kind)


def check_flat_sharp_identities(data: AeManifoldData, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Matrix identities linking the musical maps of g, phi and J.

    flat_phi = flat_g J = alpha eps J* flat_g and
    eps sharp_phi = sharp_g J* = alpha eps J sharp_g.
    """
    phi = base_fundamental(data)
    flat_phi, sharp_phi = musicals(phi, tol)
    flat_g, sharp_g = musicals(data.g, tol)
    ae = data.alpha * data.epsilon
    j, jd = data.J, dual_map(data.J)
    ok = close(flat_phi, flat_g @ j, tol)
    ok = ok and close(flat_phi, ae * jd @ flat_g, tol)
    ok = ok and close(data.epsilon * sharp_phi, sharp_g @ jd, tol)
    ok = ok and close(data.epsilon * sharp_phi, ae * j @ sharp_g, tol)
    return ok


def build_musical(b: BaseForm, sign: int, tol: Tolerance = DEFAULT_TOL) -> BlockOperator:
    """Anti-diagonal structure [[0, sign*sharp], [flat, 0]].

    sign = -1 squares to -I (complex), sign = +1 to +I (paracomplex), for
    symmetric and skew base forms alike.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    flat, sharp = musicals(b, tol)
    return BlockOperator(0, sign * sharp, flat, 0)


def build_diagonal(a, lam: int, tol: Tolerance = DEFAULT_TOL) -> BlockOperator:
    """Diagonal structure [[A, 0], [0, lam A*]] for a polynomial base matrix."""
    a = np.asarray(a, dtype=float)
    if lam not in (+1, -1):
        raise ValueError("lam must be +1 or -1")
    sq = a @ a
    ident = np.eye(a.shape[0])
    if not (close(sq, ident, tol) or close(sq, -ident, tol)):
        raise NotPolynomialError("A squares to neither +I nor -I")
    return _diagonal(a, lam)


FLAT = "Flat"
SHARP = "Sharp"


def build_triangular(data: AeManifoldData, variant: str, tol: Tolerance = DEFAULT_TOL) -> BlockOperator:
    """Triangular structure with the musical map in the off-diagonal corner.

    For alpha = -1 the dual block is eps J*, for alpha = +1 it is -eps F*;
    either way the result squares to alpha Id.
    """
    if variant not in (FLAT, SHARP):
        raise ValueError("variant must be Flat or Sharp")
    flat, sharp = musicals(data.g, tol)
    dual = data.epsilon * dual_map(data.J)
    if data.alpha == +1:
        dual = -dual
    if variant == FLAT:
        return BlockOperator(data.J, 0, flat, dual)
    return BlockOperator(data.J, sharp, 0, dual)


def build_mixed(data: AeManifoldData, tol: Tolerance = DEFAULT_TOL) -> BlockOperator:
    """Mixed structure with sqrt(2)-scaled musical maps; squares to -alpha Id.

    alpha = -1 gives the paracomplex [[J, s2 sharp], [s2 flat, eps J*]];
    alpha = +1 gives the complex [[F, -s2 sharp], [s2 flat, -eps F*]].
    """
    flat, sharp = musicals(data.g, tol)
    s2 = sqrt(2.0)
    if data.alpha == -1:
        return BlockOperator(data.J, s2 * sharp, s2 * flat, data.epsilon * dual_map(data.J))
    return BlockOperator(data.J, -s2 * sharp, s2 * flat, -data.epsilon * dual_map(data.J))


# ---------------------------------------------------------------------------
# Closed-form fundamental tensors, assembled independently from base data.

# Default base data of each family: a lone metric or symplectic form for the
# musical families, otherwise the kind of (alpha, eps) pair to draw, whose
# alpha is the one the family needs.
FAMILY_BASE_KIND = {
    "Jg": "metric", "Fg": "metric", "Jom": "symplectic", "Fom": "symplectic",
    "JlamJ+": HERMITIAN, "JlamJ-": HERMITIAN,
    "FlamF+": PARA_HERMITIAN, "FlamF-": PARA_HERMITIAN,
    "JJgFlat": HERMITIAN, "JJgSharp": HERMITIAN,
    "FFgFlat": PARA_HERMITIAN, "FFgSharp": PARA_HERMITIAN,
    "FJg": HERMITIAN, "JFg": PARA_HERMITIAN,
}

FAMILY_IDS = tuple(FAMILY_BASE_KIND)

# alpha of the (J, g) data a J-dependent family needs, by its base kind
_BASE_KIND_ALPHA = {HERMITIAN: -1, PARA_HERMITIAN: +1}


def build_family(family: str, data, tol: Tolerance = DEFAULT_TOL) -> BlockOperator:
    """Build a named operator family from base data.

    data is a BaseForm for the musical families, symmetric for Jg/Fg (or
    AeManifoldData, whose g they use) and skew for Jom/Fom, and an
    AeManifoldData for the J-dependent families.
    """
    kind = FAMILY_BASE_KIND.get(family)
    if kind in ("metric", "symplectic"):
        b = data.g if isinstance(data, AeManifoldData) else data
        want = SYMMETRIC if kind == "metric" else SKEW
        if b.kind != want:
            raise UnknownFamilyError(
                f"family {family!r} needs a {want} base form, not a {b.kind} one")
        return build_musical(b, -1 if family[0] == "J" else +1, tol)
    if not isinstance(data, AeManifoldData):
        raise UnknownFamilyError(f"family {family!r} needs (J, g) base data")
    if kind is None:
        raise UnknownFamilyError(f"unknown family {family!r}")
    want_alpha = _BASE_KIND_ALPHA[kind]
    if data.alpha != want_alpha:
        raise UnknownFamilyError(f"family {family!r} needs alpha = {want_alpha}")
    if "lam" in family:
        return build_diagonal(data.J, +1 if family.endswith("+") else -1, tol)
    if family.endswith(FLAT):
        return build_triangular(data, FLAT, tol)
    if family.endswith(SHARP):
        return build_triangular(data, SHARP, tol)
    return build_mixed(data, tol)


def _g0_conjugated(j: np.ndarray, lam: float = 1.0) -> np.ndarray:
    """Gram of (u, v) -> G0(J X + xi, lam J Y + eta)."""
    return _assemble(0, 0.5 * j.T, 0.5 * lam * j, 0)


def _closed_form_gram(family: str, with_metric: str, data, tol: Tolerance) -> np.ndarray:
    """Independent closed form of the fundamental tensor, from base blocks."""
    n = data.n
    if isinstance(data, AeManifoldData):
        g = data.g
        j = data.J
    else:
        g = data
        j = None
    gm = g.gram
    if with_metric == "G0":
        if family in ("Jg", "Fg", "Jom", "Fom"):
            _, sharp = musicals(g, tol)
            # (g(X, Y) + s g(sharp xi, sharp eta)) / 2; the sign of the dual
            # term flips between a metric and a symplectic g
            s = -1.0 if family in ("Jg", "Fom") else +1.0
            return _assemble(0.5 * gm, 0, 0, 0.5 * s * sharp.T @ gm @ sharp)
        if family in ("JlamJ+", "JlamJ-", "FlamF+", "FlamF-"):
            return _g0_conjugated(j, +1.0 if family.endswith("+") else -1.0)
        if family in ("JJgFlat", "FFgFlat"):
            return _g0_conjugated(j) + _assemble(0.5 * gm, 0, 0, 0)
        if family in ("JJgSharp", "FFgSharp"):
            _, sharp = musicals(g, tol)
            return _g0_conjugated(j) + _assemble(0, 0, 0, 0.5 * sharp.T @ gm @ sharp)
        if family in ("FJg", "JFg"):
            _, sharp = musicals(g, tol)
            half = sqrt(2.0) / 2.0
            s = half if family == "FJg" else -half
            return _g0_conjugated(j) + _assemble(half * gm, 0, 0, s * sharp.T @ gm @ sharp)
    elif with_metric == "Gg":
        if family == "Jg":
            return -2.0 * omega0(n).gram
        if family == "Fg":
            return 2.0 * g0(n).gram
        if family in ("Jphi", "Fphi"):
            # -eps xi(J Y) + eta(J X) and eps xi(J Y) + eta(J X)
            eps = float(data.epsilon)
            return 2.0 * _g0_conjugated(j, -eps if family == "Jphi" else eps)
        if family in ("JlamJ+", "JlamJ-", "FlamF+", "FlamF-", "FJg", "JFg"):
            phi = base_fundamental(data)
            _, sharp_phi = musicals(phi, tol)
            dual = sharp_phi.T @ phi.gram @ sharp_phi
            if family == "FJg":
                return 2.0 * sqrt(2.0) * g0(n).gram + _assemble(phi.gram, 0, 0, dual)
            if family == "JFg":
                return -2.0 * sqrt(2.0) * omega0(n).gram + _assemble(phi.gram, 0, 0, dual)
            lam = +1.0 if family.endswith("+") else -1.0
            return _assemble(phi.gram, 0, 0, (-lam if family[0] == "J" else lam) * dual)
    raise UnknownFamilyError(f"no closed form registered for {family!r} with {with_metric!r}")


TWIN_FORMULA_FAMILIES = (
    "Jg@G0", "Fg@G0", "Jom@G0", "Fom@G0",
    "JlamJ+@G0", "JlamJ-@G0", "FlamF+@G0", "FlamF-@G0",
    "JJgFlat@G0", "JJgSharp@G0", "FFgFlat@G0", "FFgSharp@G0",
    "FJg@G0", "JFg@G0",
    "Jg@Gg", "Fg@Gg", "Jphi@Gg", "Fphi@Gg",
    "JlamJ+@Gg", "JlamJ-@Gg", "FlamF+@Gg", "FlamF-@Gg",
    "FJg@Gg", "JFg@Gg",
)


def twin_formula_check(family: str, data, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Compare fundamental_tensor output against the closed-form expression.

    family is "<op>@<metric>" with metric G0 or Gg, e.g. "Fg@Gg"; Jphi/Fphi
    denote the musical structures built from the base fundamental tensor.
    A built pair that is not an (alpha, epsilon)-structure within tol fails
    the check rather than raising.
    """
    if family not in TWIN_FORMULA_FAMILIES:
        raise UnknownFamilyError(f"unknown twin-formula family {family!r}")
    op_id, metric_id = family.split("@")
    if metric_id == "G0":
        metric = g0(data.n)
    else:
        metric = induced_metric(data.g if isinstance(data, AeManifoldData) else data, tol)
    if op_id in ("Jphi", "Fphi"):
        phi = base_fundamental(data)
        op = build_musical(phi, -1 if op_id == "Jphi" else +1, tol)
    else:
        op = build_family(op_id, data, tol)
    try:
        tensor = fundamental_tensor(op, metric, tol)
    except IncompatiblePairError:
        return False
    expected = _closed_form_gram(op_id, metric_id, data, tol)
    return close(tensor.form.gram, expected, tol)


# ---------------------------------------------------------------------------
# Recovering a base complex structure from a G0-isometric complex operator.


def extract_base_complex(op: BlockOperator, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Base matrix J with J^2 = -I from a G0-isometric complex operator.

    With M the operator's matrix, Q = I + M^T M is positive definite and,
    like G0, M-invariant (M^T Q M = Q as M^2 = -I).  So Q^-1 G0 commutes with
    M, and its positive eigenspace is M-stable, G0-positive and n-dimensional.
    One symmetric eigenproblem gives it: with Q = L L^T, it is L^-T times the
    eigenvectors of the n positive eigenvalues of L^-1 G0 L^-T.  M on that
    subspace is conjugated through the anchor projection pi(X + xi) = X,
    injective there since G0(u, u) = xi(X) > 0 for u != 0; a numerically
    singular projection raises ``ProjectionSingularError``.
    """
    cls = classify_pair(op, g0(op.n), tol)
    if cls.alpha != -1 or cls.epsilon != +1:
        raise IncompatiblePairError("operator is not G0-isometric almost complex")
    n = op.n
    m = op.matrix
    low_inv = np.linalg.inv(np.linalg.cholesky(np.eye(2 * n) + m.T @ m))
    c = low_inv @ g0(n).gram @ low_inv.T
    _, vecs = np.linalg.eigh(0.5 * (c + c.T))
    # eigh sorts ascending: the last n eigenvalues are the positive ones
    basis = low_inv.T @ vecs[:, n:]
    top = basis[:n, :]
    top_inv = _inverse_unless_degenerate(top, tol)
    if top_inv is None:
        raise ProjectionSingularError("anchor projection singular")
    # op restricted to the subspace, in the chosen basis
    coeff = np.linalg.lstsq(basis, m @ basis, rcond=None)[0]
    return top @ coeff @ top_inv
