"""Commutation analysis, triple structures and the almost-Kahler round trip."""

from typing import NamedTuple

import numpy as np

from .ae_zoo import AeManifoldData, build_diagonal, build_family, isometry_sign
from .canonical import f0, g0
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
    _isometry_sign,
    _square_sign,
    close,
    dual_map,
    musicals,
    polynomial_class,
    signature,
)
from .errors import (
    DegenerateFormError,
    DimensionError,
    IncompatiblePairError,
    InvalidKahlerDataError,
    NotAnticommutingError,
    UnknownFamilyError,
    WrongAlphaError,
)
from .gen_metrics import endomorphism_from_metric, metric_from_endomorphism

HYPERCOMPLEX = "Hypercomplex"
BICOMPLEX = "Bicomplex"
BIPARACOMPLEX = "Biparacomplex"
HYPERPRODUCT = "Hyperproduct"
NO_TRIPLE = "None"

COMMUTES = "Commutes"
ANTI_COMMUTES = "AntiCommutes"
NEITHER_COMMUTATION = "Neither"


class TripleReport(NamedTuple):
    kind: str
    commutation_sign: int | None = None  # JF = sign * FJ
    product: BlockOperator | None = None  # K = FJ


def _commutation(a: np.ndarray, b: np.ndarray, tol: Tolerance) -> int | None:
    """+1 if a b = b a, -1 if a b = -b a, else None; commuting wins where both fit."""
    ab, ba = a @ b, b @ a
    if close(ab, ba, tol):
        return +1
    if close(ab, -ba, tol):
        return -1
    return None


def f0_commutation(op: BlockOperator, tol: Tolerance = DEFAULT_TOL) -> str:
    """Commutation of op with the paracomplex flip F0 = diag(-I, I).

    Both products are exact, so F0 M - M F0 = 2 [[0, -sigma], [tau, 0]] and
    F0 M + M F0 = 2 [[-H, 0], [0, K]] bit for bit: the commutator test is the
    block criterion (commutes iff sigma = tau = 0, anti-commutes iff H = K =
    0), measured against ||M||.
    """
    sign = _commutation(f0(op.n).assemble(), op.assemble(), tol)
    return {+1: COMMUTES, -1: ANTI_COMMUTES, None: NEITHER_COMMUTATION}[sign]


def classify_triple(first: BlockOperator, second: BlockOperator, tol: Tolerance = DEFAULT_TOL) -> TripleReport:
    """Classify (F, J, K = FJ) into the four triple kinds."""
    if first.n != second.n:
        raise DimensionError("operator dimensions differ")
    pc_f = polynomial_class(first, tol)
    pc_j = polynomial_class(second, tol)
    if pc_f.kind == "neither" or pc_j.kind == "neither":
        return TripleReport(NO_TRIPLE)
    lam = _commutation(second.assemble(), first.assemble(), tol)
    if lam is None:
        return TripleReport(NO_TRIPLE)
    product = first.compose(second)
    if pc_f.kind == "complex" and pc_j.kind == "complex":
        kind = HYPERCOMPLEX if lam == -1 else BICOMPLEX
    elif pc_f.kind == "product" and pc_j.kind == "product":
        kind = BIPARACOMPLEX if lam == -1 else HYPERPRODUCT
    else:
        # mixed square signs never close into a triple of the four kinds
        return TripleReport(NO_TRIPLE)
    return TripleReport(kind, lam, product)


# name -> (required alpha, member recipe); a member is a family of
# ae_zoo.FAMILIES built from (J, g), or the diagonal structure with
# lambda = +/-eps; a leading "-" negates it.
_TRIPLE_RECIPES = {
    "hyperC": (-1, ("Jg", "diag+", "Jphi"), HYPERCOMPLEX),
    "biC-phi": (-1, ("Jg", "diag-", "Fphi"), BICOMPLEX),
    "biC-Fg": (-1, ("Jphi", "diag-", "-Fg"), BICOMPLEX),
    "biparaC": (-1, ("Fg", "Fphi", "diag+"), BIPARACOMPLEX),
    "hyperP": (+1, ("Fg", "diag+", "Fphi"), HYPERPRODUCT),
    "biparaP-1": (+1, ("Fg", "diag-", "Jphi"), BIPARACOMPLEX),
    "biparaP-2": (+1, ("Fphi", "diag-", "Jg"), BIPARACOMPLEX),
    "biC-product": (+1, ("Jg", "Jphi", "-diag+"), BICOMPLEX),
}

TRIPLE_NAMES = tuple(_TRIPLE_RECIPES)


def _triple_member(token: str, data: AeManifoldData, tol: Tolerance) -> BlockOperator:
    negate = token.startswith("-")
    token = token.removeprefix("-")
    if token in ("diag+", "diag-"):
        lam = data.epsilon if token == "diag+" else -data.epsilon
        op = build_diagonal(data.J, lam, tol)
    else:
        op = build_family(token, data, tol)
    return op.neg() if negate else op


def canonical_triple(name: str, data: AeManifoldData, tol: Tolerance = DEFAULT_TOL):
    """Build one of the eight named triples from (alpha, eps) base data."""
    if name not in _TRIPLE_RECIPES:
        raise UnknownFamilyError(f"unknown triple name {name!r}; known: {TRIPLE_NAMES}")
    want_alpha, tokens, _ = _TRIPLE_RECIPES[name]
    if data.alpha != want_alpha:
        raise WrongAlphaError(f"triple {name!r} needs base data with alpha = {want_alpha}")
    return tuple(_triple_member(t, data, tol) for t in tokens)


def expected_triple_kind(name: str) -> str:
    return _TRIPLE_RECIPES[name][2]


def combine(a: float, b: float, c: float, triple, tol: Tolerance = DEFAULT_TOL):
    """Linear combination a F + b F' + c J of an anti-commuting triple.

    It squares to q Id, q = a^2 + b^2 - c^2; its class, that of the unscaled
    combination, is "product" at q = 1, "complex" at q = -1, else "neither".
    """
    first, second, third = triple
    if classify_triple(first, second, tol).kind != BIPARACOMPLEX:
        raise NotAnticommutingError("triple is not pairwise anti-commuting")
    if polynomial_class(third, tol).kind != "complex":
        raise NotAnticommutingError("third member must be almost complex")
    tm = third.assemble()
    if any(_commutation(other.assemble(), tm, tol) != -1 for other in (first, second)):
        raise NotAnticommutingError("triple is not pairwise anti-commuting")
    combo = first.scale(a).add(second.scale(b)).add(third.scale(c))
    return combo, polynomial_class(combo, tol)


def triple_epsilon_product(first: BlockOperator, second: BlockOperator, metric: BilinearForm, tol: Tolerance = DEFAULT_TOL):
    """Isometry signs of F, J and the product law for K = FJ."""
    eps1 = isometry_sign(first, metric, tol)
    eps2 = isometry_sign(second, metric, tol)
    if eps1 is None or eps2 is None:
        raise IncompatiblePairError("an operator is neither isometric nor anti-isometric")
    eps_k = isometry_sign(first.compose(second), metric, tol)
    return eps1, eps2, eps_k == eps1 * eps2


def _positive_definite(form, tol: Tolerance) -> bool:
    """``signature``'s verdict: symmetric with every eigenvalue above tol.abs."""
    try:
        return form.kind == SYMMETRIC and signature(form, tol)[1] == 0
    except DegenerateFormError:
        return False


def is_almost_kahler(j1: BlockOperator, j2: BlockOperator, tol: Tolerance = DEFAULT_TOL):
    """Almost-Kahler test for a pair of generalized complex structures.

    True iff both are almost complex, G0-isometric, commute, and the form
    G0(-(j1 j2) u, v) is symmetric positive definite; returns that metric
    when true.  Integrability is never checked.
    """
    if j1.n != j2.n:
        raise DimensionError("operator dimensions differ")
    metric0 = g0(j1.n)
    if polynomial_class(j1, tol).kind != "complex" or polynomial_class(j2, tol).kind != "complex":
        return False, None
    if isometry_sign(j1, metric0, tol) != +1 or isometry_sign(j2, metric0, tol) != +1:
        return False, None
    m1, m2 = j1.assemble(), j2.assemble()
    if _commutation(m1, m2, tol) != +1:
        return False, None
    inducer = BlockOperator.from_matrix(-(m1 @ m2))
    form, report = metric_from_endomorphism(inducer, tol)
    if not (report.valid and _positive_definite(form, tol)):
        return False, None
    return True, form


class KahlerData(_ReadOnly):
    """Base data (b, g, J1, J2): a 2-form, a Riemannian metric and two
    g-isometric almost complex structures."""

    __slots__ = ("b", "g", "J1", "J2")

    def __init__(self, b, g: BaseForm, J1, J2):
        self._set(b=np.asarray(b, dtype=float), g=g,
                  J1=np.asarray(J1, dtype=float), J2=np.asarray(J2, dtype=float))
        for name in ("b", "J1", "J2"):
            if getattr(self, name).shape != (g.n, g.n):
                raise DimensionError(f"{name} and g dimensions differ")

    @property
    def n(self) -> int:
        return self.g.n

    def validate(self, tol: Tolerance = DEFAULT_TOL):
        if not close(self.b, -self.b.T, tol):
            raise InvalidKahlerDataError("b is not skew-symmetric")
        if not _positive_definite(self.g, tol):
            raise InvalidKahlerDataError("g is not symmetric positive definite")
        for name in ("J1", "J2"):
            j = getattr(self, name)
            if _square_sign(j, tol) != -1:
                raise InvalidKahlerDataError(f"{name} does not square to -I")
            if _isometry_sign(j, self.g.gram, tol) != 1:
                raise InvalidKahlerDataError(f"{name} is not a g-isometry")
        return True


def _shear(sigma: np.ndarray) -> np.ndarray:
    ident = np.eye(sigma.shape[0])
    return _assemble(ident, 0, sigma, ident)


def kahler_from_data(kd: KahlerData, tol: Tolerance = DEFAULT_TOL):
    """The two commuting complex structures determined by (b, g, J1, J2).

    Assembled as half the b-shear conjugate of the sum/difference block
    matrix of J1, J2 and their fundamental-form musical maps.  With b = 0
    and J1 = J2 = J this reduces to the diagonal structure [[J, 0], [0, -J*]]
    and the musical structure of phi = g(J., .).
    """
    kd.validate(tol)
    gm = kd.g.gram
    flats, sharps = [], []
    for j in (kd.J1, kd.J2):
        phi = BaseForm(j.T @ gm, SKEW)
        fl, sh = musicals(phi, tol)
        flats.append(fl)
        sharps.append(sh)
    # (sigma X)(Y) = b(X, Y), so sigma = b_gram.T as a coordinate map
    sigma = dual_map(kd.b)
    shear = _shear(sigma)
    unshear = _shear(-sigma)
    out = []
    for sign in (+1, -1):
        core = _assemble(
            kd.J1 + sign * kd.J2,
            -(sharps[0] - sign * sharps[1]),
            flats[0] - sign * flats[1],
            -(dual_map(kd.J1) + sign * dual_map(kd.J2)),
        )
        out.append(BlockOperator.from_matrix(0.5 * shear @ core @ unshear))
    return out[0], out[1]


def kahler_roundtrip(kd: KahlerData, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Build the structure pair from kd, then invert the construction.

    Recovery: the product of the two structures induces the Riemannian
    metric, whose inducing endomorphism is the sheared musical structure of
    g; its blocks give g and b back, and shearing the pair back isolates
    J1, J2 on the diagonal.
    """
    j1, j2 = kahler_from_data(kd, tol)
    ok, form = is_almost_kahler(j1, j2, tol)
    if not ok:
        return False
    inducer = endomorphism_from_metric(form, tol)
    # inducer = shear @ [[0, sharp_g], [flat_g, 0]] @ unshear, so the sigma
    # block is sharp_g and the H block is -sharp_g @ sigma
    g_rec = np.linalg.inv(inducer.sigma)
    sigma_rec = -g_rec @ inducer.H
    b_rec = sigma_rec.T
    unshear = _shear(-sigma_rec)
    shear = _shear(sigma_rec)
    a1 = unshear @ j1.assemble() @ shear
    a2 = unshear @ j2.assemble() @ shear
    n = kd.n
    j1_rec = (a1 + a2)[:n, :n]
    j2_rec = (a1 - a2)[:n, :n]
    return (
        close(g_rec, kd.g.gram, tol)
        and close(b_rec, kd.b, tol)
        and close(j1_rec, kd.J1, tol)
        and close(j2_rec, kd.J2, tol)
    )
