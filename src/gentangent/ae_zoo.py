"""Builders and classifiers for (alpha, epsilon)-structures on the fiber.

alpha is the square sign of the polynomial structure (op^2 = alpha Id) and
epsilon the isometry sign against the chosen metric (G(op u, op v) =
epsilon G(u, v)).  The four sign pairs name the product / para-Hermitian /
Hermitian / Norden families.
"""

from math import sqrt
from typing import NamedTuple

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
    _ReadOnly,
    _assemble,
    _inverse_unless_degenerate,
    _isometry_sign,
    _square_sign,
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


class StructureClass(NamedTuple):
    name: str
    alpha: int | None = None
    epsilon: int | None = None
    signature: tuple | None = None


class FundamentalTensor(NamedTuple):
    form: BilinearForm
    kind: str


class AeManifoldData(_ReadOnly):
    """A base-fiber pair (J, g) with J^2 = alpha I and g(J., J.) = epsilon g."""

    __slots__ = ("J", "g", "alpha", "epsilon")

    def __init__(self, J, g: BaseForm, alpha: int, epsilon: int):
        j = np.asarray(J, dtype=float)
        if j.shape != (g.n, g.n):
            raise DimensionError("J and g dimensions differ")
        if alpha not in (+1, -1) or epsilon not in (+1, -1):
            raise ValueError("alpha and epsilon must be +1 or -1")
        self._set(J=j, g=g, alpha=alpha, epsilon=epsilon)

    @property
    def n(self) -> int:
        return self.g.n

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return (_square_sign(self.J, tol) == self.alpha
                and _isometry_sign(self.J, self.g.gram, tol) == self.epsilon)


def base_fundamental(data: AeManifoldData) -> BaseForm:
    """The fiber-level tensor phi(X, Y) = g(J X, Y)."""
    kind = SYMMETRIC if data.alpha * data.epsilon == +1 else SKEW
    return BaseForm(data.J.T @ data.g.gram, kind)


def isometry_sign(op: BlockOperator, metric: BilinearForm, tol: Tolerance = DEFAULT_TOL):
    """epsilon with M.T Gram M = epsilon Gram, or None if it is not determined:
    ``core._isometry_sign`` of the operator's matrix and the metric's Gram."""
    return _isometry_sign(op.assemble(), metric.gram, tol)


def classify_pair(op: BlockOperator, metric: BilinearForm, tol: Tolerance = DEFAULT_TOL) -> StructureClass:
    """Classify (op, metric) into the (alpha, epsilon) family table."""
    if metric.kind != SYMMETRIC:
        raise ValueError("the (alpha, epsilon) table needs a symmetric metric, "
                         f"not a {metric.kind} one")
    pc = polynomial_class(op, tol)
    if pc.kind == "neither":
        return StructureClass(INCOMPATIBLE)
    eps = isometry_sign(op, metric, tol)
    if eps is None:
        return StructureClass(INCOMPATIBLE)
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
    if _square_sign(a, tol) is None:
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
# The kind table: each fact about a kind of (J, g) base data, stated once.


class _Kind(NamedTuple):
    """J^2 = alpha I and J^T g J = epsilon g; dim is the one dimension the
    kind's fixtures are drawn at, or None for the requested one."""

    alpha: int
    epsilon: int
    dim: int | None


# in the order the registry's case seeds follow
KINDS = {
    HERMITIAN: _Kind(-1, +1, None),
    INDEFINITE_HERMITIAN: _Kind(-1, +1, 4),  # the least dimension it exists in
    NORDEN: _Kind(-1, -1, None),
    PARA_HERMITIAN: _Kind(+1, -1, None),
    PRODUCT_RIEMANNIAN: _Kind(+1, +1, None),
}


# ---------------------------------------------------------------------------
# The family table: each fact about an operator family, stated once.

MUSICAL, DIAGONAL, TRIANGULAR, MIXED = "musical", "diagonal", "triangular", "mixed"


class _Family(NamedTuple):
    """One operator family: how it is built, its closed forms and its classes."""

    shape: str  # MUSICAL, DIAGONAL, TRIANGULAR or MIXED
    param: object  # the musical sign, the diagonal lam or the triangular variant
    base_kind: str  # SYMMETRIC or SKEW for a lone form, else the default (J, g) kind
    g0: tuple | None = None  # closed-form tensor against G0, see _closed_form_gram
    gg: tuple | None = None  # and against Gg
    on_g0: tuple = ()  # class against G0 on each kind of (J, g) data of its alpha
    on_gg: tuple = ()  # and against Gg, both in KINDS order

    @property
    def alpha(self):
        """alpha of the family's default (J, g) data; None for a lone form."""
        return KINDS[self.base_kind].alpha if self.base_kind in KINDS else None

    def classes(self, metric_id: str) -> dict:
        """{kind of (J, g) data: class} against "G0" or "Gg"."""
        kinds = [k for k, row in KINDS.items() if row.alpha == self.alpha]
        return dict(zip(kinds, self.on_g0 if metric_id == "G0" else self.on_gg))


# The classes follow from the blocks of M = [[H, S], [T, K]] on data with
# J^2 = alpha I and J^T g J = eps g, hence J g^-1 J^T = eps g^-1 and
# J^T g = alpha eps g J:
#   2 M^T G0 M = [[H^T T + T^T H, H^T K + T^T S], [., S^T K + K^T S]]
#   M^T Gg M = [[H^T g H + T^T g^-1 T, H^T g S + T^T g^-1 K], [., S^T g S + K^T g^-1 K]]
# G0 has signature (n, n), so no class against it is Riemannian; Gg =
# [[g, 0], [0, g^-1]] is Riemannian on Hermitian and ProductRiemannian data.
_HALF_R2 = sqrt(2.0) / 2.0
_TWO_R2 = 2.0 * sqrt(2.0)

FAMILIES = {
    # musical [[0, sign sharp], [flat, 0]] of a metric, a symplectic form or phi
    "Jg": _Family(MUSICAL, -1, SYMMETRIC, (0.5, 0, -0.5), (0, -2.0, 0, 0)),
    "Fg": _Family(MUSICAL, +1, SYMMETRIC, (0.5, 0, 0.5), (2.0, 0, 0, 0)),
    "Jom": _Family(MUSICAL, -1, SKEW, (0.5, 0, 0.5)),
    "Fom": _Family(MUSICAL, +1, SKEW, (0.5, 0, -0.5)),
    "Jphi": _Family(MUSICAL, -1, HERMITIAN, gg=(0, 0, -1, 0)),
    "Fphi": _Family(MUSICAL, +1, PARA_HERMITIAN, gg=(0, 0, +1, 0)),
    # diag(J, lam J^T): M^2 = alpha I.  G0: H^T K = lam alpha I, so eps = lam
    # alpha on every kind.  Gg: M^T Gg M = eps Gg, the data's own class, but
    # ParaNorden on ProductRiemannian data, whose F has n/2 eigenvalues +1 and
    # n/2 eigenvalues -1, so that diag(F, +-F^T) has n of each.
    "JlamJ+": _Family(DIAGONAL, +1, HERMITIAN, (0, +1, 0), (0, 0, 0, -1),
                      (NORDEN,) * 3, (HERMITIAN, INDEFINITE_HERMITIAN, NORDEN)),
    "JlamJ-": _Family(DIAGONAL, -1, HERMITIAN, (0, -1, 0), (0, 0, 0, +1),
                      (INDEFINITE_HERMITIAN,) * 3, (HERMITIAN, INDEFINITE_HERMITIAN, NORDEN)),
    "FlamF+": _Family(DIAGONAL, +1, PARA_HERMITIAN, (0, +1, 0), (0, 0, 0, +1),
                      (PRODUCT_PSEUDO_RIEMANNIAN,) * 2, (PARA_HERMITIAN, PARA_NORDEN)),
    "FlamF-": _Family(DIAGONAL, -1, PARA_HERMITIAN, (0, -1, 0), (0, 0, 0, -1),
                      (PARA_HERMITIAN,) * 2, (PARA_HERMITIAN, PARA_NORDEN)),
    # [[J, 0], [flat, K]] or [[J, sharp], [0, K]], K = -alpha eps J^T: M^2 =
    # alpha I.  G0: H^T T + T^T H = (1 + alpha eps) g J, or S^T K + K^T S =
    # -alpha eps (1 + alpha eps) g^-1 J^T, vanishes iff alpha eps = -1, where
    # H^T K = -eps I.  Gg: T^T g^-1 K = -alpha eps J^T or H^T g S = J^T != 0.
    "JJgFlat": _Family(TRIANGULAR, FLAT, HERMITIAN, (0.5, 1, 0), None,
                       (NORDEN, NORDEN, INCOMPATIBLE), (INCOMPATIBLE,) * 3),
    "JJgSharp": _Family(TRIANGULAR, SHARP, HERMITIAN, (0, 1, 0.5), None,
                        (NORDEN, NORDEN, INCOMPATIBLE), (INCOMPATIBLE,) * 3),
    "FFgFlat": _Family(TRIANGULAR, FLAT, PARA_HERMITIAN, (0.5, 1, 0), None,
                       (PRODUCT_PSEUDO_RIEMANNIAN, INCOMPATIBLE), (INCOMPATIBLE,) * 2),
    "FFgSharp": _Family(TRIANGULAR, SHARP, PARA_HERMITIAN, (0, 1, 0.5), None,
                        (PRODUCT_PSEUDO_RIEMANNIAN, INCOMPATIBLE), (INCOMPATIBLE,) * 2),
    # [[J, r sharp], [r flat, eps J^T]], r^2 = 2, alpha = -1: M^2 = I.  G0: H^T T +
    # T^T H = r (1 - eps) g J, so eps = +1, where H^T K + T^T S = I.  Gg: the
    # corner r (1 + eps) J^T, so eps = -1, where M^T Gg M = Gg, g is neutral.
    "FJg": _Family(MIXED, None, HERMITIAN, (_HALF_R2, 1, _HALF_R2), (_TWO_R2, 0, 0, 1),
                   (PRODUCT_PSEUDO_RIEMANNIAN,) * 2 + (INCOMPATIBLE,),
                   (INCOMPATIBLE,) * 2 + (PRODUCT_PSEUDO_RIEMANNIAN,)),
    # [[F, -r sharp], [r flat, -eps F^T]], alpha = +1: M^2 = -I.  G0: H^T T +
    # T^T H = r (1 + eps) g F, so eps = -1, where H^T K + T^T S = -I.  Gg: the
    # corner -r (1 + eps) F^T, so eps = -1, where M^T Gg M = Gg, g is neutral.
    "JFg": _Family(MIXED, None, PARA_HERMITIAN, (_HALF_R2, 1, -_HALF_R2), (0, -_TWO_R2, 0, 1),
                   (NORDEN, INCOMPATIBLE), (INDEFINITE_HERMITIAN, INCOMPATIBLE)),
}

# the CLI's families: all but Jphi and Fphi
FAMILY_IDS = tuple(f for f, row in FAMILIES.items()
                   if row.shape != MUSICAL or row.base_kind in (SYMMETRIC, SKEW))

TWIN_FORMULA_FAMILIES = (tuple(f"{f}@G0" for f, row in FAMILIES.items() if row.g0)
                         + tuple(f"{f}@Gg" for f, row in FAMILIES.items() if row.gg))


def build_family(family: str, data, tol: Tolerance = DEFAULT_TOL) -> BlockOperator:
    """Build a named operator family from base data.

    data is a BaseForm for the musical families, symmetric for Jg/Fg (or
    AeManifoldData, whose g they use) and skew for Jom/Fom, and an
    AeManifoldData for the others.  Jphi and Fphi take data of either alpha.
    """
    row = FAMILIES.get(family)
    if row is None:
        raise UnknownFamilyError(f"unknown family {family!r}")
    if row.base_kind in (SYMMETRIC, SKEW):
        b = data.g if isinstance(data, AeManifoldData) else data
        if b.kind != row.base_kind:
            raise UnknownFamilyError(
                f"family {family!r} needs a {row.base_kind} base form, not a {b.kind} one")
        return build_musical(b, row.param, tol)
    if not isinstance(data, AeManifoldData):
        raise UnknownFamilyError(f"family {family!r} needs (J, g) base data")
    if row.shape == MUSICAL:
        return build_musical(base_fundamental(data), row.param, tol)
    if data.alpha != row.alpha:
        raise UnknownFamilyError(f"family {family!r} needs alpha = {row.alpha}")
    if row.shape == DIAGONAL:
        return build_diagonal(data.J, row.param, tol)
    if row.shape == TRIANGULAR:
        return build_triangular(data, row.param, tol)
    return build_mixed(data, tol)


def _closed_form_gram(family: str, metric_id: str, data, tol: Tolerance) -> np.ndarray:
    """The family's closed-form fundamental tensor u, v -> G(op u, v).

    From the base form g, J and phi = g(J., .), leaving out the terms of a 0:
      G0: [[a g, J^T / 2], [c J / 2, d sharp^T g sharp]] for g0 = (a, c, d)
      Gg: x G0 + y Omega0 + [[0, J^T], [q eps J, 0]]
          + [[phi, 0], [0, k sharp_phi^T phi sharp_phi]] for gg = (x, y, q, k)
    """
    row = FAMILIES[family]
    if metric_id == "G0":
        a, c, d = row.g0
        g = data.g if isinstance(data, AeManifoldData) else data
        dual = 0
        if d:
            _, sharp = musicals(g, tol)
            dual = d * sharp.T @ g.gram @ sharp
        j_blocks = (0.5 * data.J.T, 0.5 * c * data.J) if c else (0, 0)
        return _assemble(a * g.gram, *j_blocks, dual)
    x, y, q, k = row.gg
    gram = x * g0(data.n).gram + y * omega0(data.n).gram
    if q:
        gram = gram + _assemble(0, data.J.T, q * data.epsilon * data.J, 0)
    if k:
        phi = base_fundamental(data)
        _, sharp_phi = musicals(phi, tol)
        gram = gram + _assemble(phi.gram, 0, 0, k * sharp_phi.T @ phi.gram @ sharp_phi)
    return gram


def twin_formula_check(family: str, data, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Compare fundamental_tensor output against the closed-form expression.

    family is "<op>@<metric>" with metric G0 or Gg, e.g. "Fg@Gg".  A built
    pair that is not an (alpha, epsilon)-structure within tol fails the check
    rather than raising.
    """
    if family not in TWIN_FORMULA_FAMILIES:
        raise UnknownFamilyError(f"unknown twin-formula family {family!r}")
    op_id, metric_id = family.split("@")
    if metric_id == "G0":
        metric = g0(data.n)
    else:
        metric = induced_metric(data.g if isinstance(data, AeManifoldData) else data, tol)
    op = build_family(op_id, data, tol)
    try:
        tensor = fundamental_tensor(op, metric, tol)
    except IncompatiblePairError:
        return False
    return close(tensor.form.gram, _closed_form_gram(op_id, metric_id, data, tol), tol)


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
