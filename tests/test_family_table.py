"""The family table of ``ae_zoo``: its 50 compatibility cells, pinned by hand,
the tables derived from it, and the rule that no other code names a family.

Notation for the derivations.  Base data (J, g) has J^2 = alpha I and
J^T g J = eps g, hence J g^-1 J^T = eps g^-1 and J^T g = alpha eps g J.  For
M = [[H, S], [T, K]]:

    2 M^T G0 M = [[H^T T + T^T H, H^T K + T^T S], [S^T T + K^T H, S^T K + K^T S]]
    M^T Gg M = [[H^T g H + T^T g^-1 T, H^T g S + T^T g^-1 K],
                [S^T g H + K^T g^-1 T, S^T g S + K^T g^-1 K]]

with 2 G0 = [[0, I], [I, 0]] and Gg = [[g, 0], [0, g^-1]].  At dimension n,
G0 has signature (n, n); Gg has (2n, 0) on Hermitian and ProductRiemannian
data, whose g is positive definite, and (n, n) on the other three kinds, whose
g is neutral.  The names: alpha = -1 is Norden for eps = -1, else Hermitian on a
Riemannian metric and IndefiniteHermitian otherwise; alpha = +1 is
ParaHermitian for eps = -1, else ParaNorden (equal +1 and -1 eigenspaces) or
ProductRiemannian on a Riemannian metric and ProductPseudoRiemannian otherwise.
"""

import ast
from pathlib import Path

import pytest

import gentangent as gt
from gentangent import registry
from gentangent.ae_zoo import FAMILIES, FAMILY_IDS, MIXED, TRIANGULAR, TWIN_FORMULA_FAMILIES
from gentangent.generators import fixture_dim

H, IH, N, PH, PR = ("Hermitian", "IndefiniteHermitian", "Norden", "ParaHermitian",
                    "ProductRiemannian")
X = ("Incompatible", None, None, None)
# the signatures at dimension m: (2m, 0) and (m, m)
RIEMANNIAN, NEUTRAL = "Riemannian", "neutral"
DIMS = (2, 4, 6, 8, 16, 32)

# (family, kind of (J, g) data) -> (class against G0, class against Gg)
PINS = {
    # diag(J, lam J^T), lam = +1, alpha = -1: M^2 = -I.  G0: H^T K = lam (J^2)^T
    # = -I, so eps = -1 on every kind.  Gg: M^T Gg M = diag(J^T g J, J g^-1 J^T)
    # = eps Gg, so the data's own (alpha, eps).
    ("JlamJ+", H): (("Norden", -1, -1, NEUTRAL), ("Hermitian", -1, 1, RIEMANNIAN)),
    ("JlamJ+", IH): (("Norden", -1, -1, NEUTRAL), ("IndefiniteHermitian", -1, 1, NEUTRAL)),
    ("JlamJ+", N): (("Norden", -1, -1, NEUTRAL), ("Norden", -1, -1, NEUTRAL)),
    # lam = -1: G0: H^T K = +I, eps = +1 on a neutral metric.  Gg: as for lam = +1.
    ("JlamJ-", H): (("IndefiniteHermitian", -1, 1, NEUTRAL), ("Hermitian", -1, 1, RIEMANNIAN)),
    ("JlamJ-", IH): (("IndefiniteHermitian", -1, 1, NEUTRAL),
                     ("IndefiniteHermitian", -1, 1, NEUTRAL)),
    ("JlamJ-", N): (("IndefiniteHermitian", -1, 1, NEUTRAL), ("Norden", -1, -1, NEUTRAL)),
    # diag(F, lam F^T), alpha = +1: M^2 = I.  G0: eps = lam alpha = lam.  Gg:
    # eps is the data's.  ProductRiemannian data is drawn with F of n/2
    # eigenvalues +1 and n/2 eigenvalues -1, so diag(F, +-F^T) has n of each:
    # ParaNorden.
    ("FlamF+", PH): (("ProductPseudoRiemannian", 1, 1, NEUTRAL), ("ParaHermitian", 1, -1, NEUTRAL)),
    ("FlamF+", PR): (("ProductPseudoRiemannian", 1, 1, NEUTRAL), ("ParaNorden", 1, 1, RIEMANNIAN)),
    ("FlamF-", PH): (("ParaHermitian", 1, -1, NEUTRAL), ("ParaHermitian", 1, -1, NEUTRAL)),
    ("FlamF-", PR): (("ParaHermitian", 1, -1, NEUTRAL), ("ParaNorden", 1, 1, RIEMANNIAN)),
    # [[J, 0], [flat, K]], K = -alpha eps J^T = eps J^T: M^2 = -I, the corner
    # g J + K g = g J - alpha eps J^T g = 0.  G0: H^T T + T^T H = (1 + alpha eps)
    # g J = (1 - eps) g J vanishes iff eps = +1, and then H^T K = -eps I = -I:
    # Norden; Norden data (eps = -1) is Incompatible.  Gg: the corner
    # T^T g^-1 K = -alpha eps J^T is never 0: Incompatible on every kind.
    ("JJgFlat", H): (("Norden", -1, -1, NEUTRAL), X),
    ("JJgFlat", IH): (("Norden", -1, -1, NEUTRAL), X),
    ("JJgFlat", N): (X, X),
    # [[J, sharp], [0, K]]: M^2 = -I.  G0: S^T K + K^T S = -alpha eps (1 + alpha
    # eps) g^-1 J^T vanishes iff eps = +1, and H^T K = -I.  Gg: H^T g S = J^T.
    ("JJgSharp", H): (("Norden", -1, -1, NEUTRAL), X),
    ("JJgSharp", IH): (("Norden", -1, -1, NEUTRAL), X),
    ("JJgSharp", N): (X, X),
    # the same with alpha = +1, K = -eps F^T: M^2 = I.  G0: 1 + alpha eps = 0
    # iff eps = -1 (ParaHermitian data), and then H^T K = -eps I = I on a
    # neutral metric: ProductPseudoRiemannian.  Gg: the corner is never 0.
    ("FFgFlat", PH): (("ProductPseudoRiemannian", 1, 1, NEUTRAL), X),
    ("FFgFlat", PR): (X, X),
    ("FFgSharp", PH): (("ProductPseudoRiemannian", 1, 1, NEUTRAL), X),
    ("FFgSharp", PR): (X, X),
    # [[J, r sharp], [r flat, eps J^T]], r^2 = 2, alpha = -1: M^2 = [[J^2 + 2I,
    # r (J g^-1 + eps g^-1 J^T)], ...] = I.  G0: H^T T + T^T H = r (1 - eps) g J
    # vanishes iff eps = +1, where H^T K + T^T S = -eps I + 2 I = I: eps = +1 on
    # a neutral metric.  Gg: the corner H^T g S + T^T g^-1 K = r (1 + eps) J^T
    # vanishes iff eps = -1 (Norden data), where the diagonal is (2 + eps)
    # (g, g^-1) = Gg: eps = +1, and Norden data has a neutral g.
    ("FJg", H): (("ProductPseudoRiemannian", 1, 1, NEUTRAL), X),
    ("FJg", IH): (("ProductPseudoRiemannian", 1, 1, NEUTRAL), X),
    ("FJg", N): (X, ("ProductPseudoRiemannian", 1, 1, NEUTRAL)),
    # [[F, -r sharp], [r flat, -eps F^T]], alpha = +1: M^2 = [[F^2 - 2I, ...],
    # ...] = -I.  G0: H^T T + T^T H = r (1 + eps) g F vanishes iff eps = -1,
    # where H^T K + T^T S = -eps I - 2 I = -I: Norden.  Gg: the corner
    # -r (1 + eps) F^T vanishes iff eps = -1, where M^T Gg M = (2 + eps) Gg = Gg:
    # eps = +1 with alpha = -1 on the neutral g of ParaHermitian data.
    ("JFg", PH): (("Norden", -1, -1, NEUTRAL), ("IndefiniteHermitian", -1, 1, NEUTRAL)),
    ("JFg", PR): (X, X),
}


def test_pins_cover_fifty_cells():
    assert 2 * len(PINS) == 50
    assert {f for f, _ in PINS} == {f for f, row in FAMILIES.items() if row.on_g0}


def _at(pin, m):
    """A pinned class with its signature at dimension m."""
    signature = {RIEMANNIAN: (2 * m, 0), NEUTRAL: (m, m), None: None}[pin[3]]
    return (*pin[:3], signature)


# each cell at every dimension its kind's fixtures are drawn at; the n = 4
# cases, the dimension of the derivations above, keep the plain cell id
CELLS = sorted({(family, kind, fixture_dim(n, kind)) for family, kind in PINS for n in DIMS})


@pytest.mark.parametrize("family, kind, n", [
    pytest.param(f, k, n, id=f"{f}-{k}" if n == 4 else f"{f}-{k}-n{n}") for f, k, n in CELLS])
def test_cell_classifies_as_pinned(family, kind, n):
    on_g0, on_gg = PINS[family, kind]
    for seed in range(10):
        data = gt.random_ae_pair(kind, n, seed)
        op = gt.build_family(family, data)
        assert tuple(gt.classify_pair(op, gt.g0(n))) == _at(on_g0, n)
        assert tuple(gt.classify_pair(op, gt.induced_metric(data.g))) == _at(on_gg, n)


def test_table_states_the_pinned_classes():
    table = {(f, kind): (cls, row.classes("Gg")[kind])
             for f, row in FAMILIES.items() for kind, cls in row.classes("G0").items()}
    assert table == {cell: (on_g0[0], on_gg[0]) for cell, (on_g0, on_gg) in PINS.items()}


def test_derived_tables_keep_their_order():
    # the order fixes each registry case's seed, so these are the tables the
    # registry and the CLI were written against
    assert FAMILY_IDS == ("Jg", "Fg", "Jom", "Fom", "JlamJ+", "JlamJ-", "FlamF+", "FlamF-",
                          "JJgFlat", "JJgSharp", "FFgFlat", "FFgSharp", "FJg", "JFg")
    assert TWIN_FORMULA_FAMILIES == (
        *(f"{f}@G0" for f in FAMILY_IDS),
        "Jg@Gg", "Fg@Gg", "Jphi@Gg", "Fphi@Gg",
        "JlamJ+@Gg", "JlamJ-@Gg", "FlamF+@Gg", "FlamF-@Gg", "FJg@Gg", "JFg@Gg")
    assert registry._iff_cells(TRIANGULAR, "G0") == [
        ("JJgFlat", H, N), ("JJgSharp", H, N), ("FFgFlat", PH, PR), ("FFgSharp", PH, PR)]
    assert registry._iff_cells(TRIANGULAR, "Gg") == []
    assert registry._iff_cells(MIXED, "G0") == [("FJg", H, N), ("JFg", PH, PR)]
    assert registry._iff_cells(MIXED, "Gg") == [("FJg", N, H), ("JFg", PH, PR)]
    kinds = {metric: {f: registry._fitting_kind(f, metric) for f in FAMILIES}
             for metric in ("G0", "Gg")}
    base = {"Jg": gt.SYMMETRIC, "Fg": gt.SYMMETRIC, "Jom": gt.SKEW, "Fom": gt.SKEW,
            "Jphi": H, "Fphi": PH, "JlamJ+": H, "JlamJ-": H, "FlamF+": PH, "FlamF-": PH,
            "JJgFlat": H, "JJgSharp": H, "FFgFlat": PH, "FFgSharp": PH, "FJg": H, "JFg": PH}
    assert kinds == {"G0": base, "Gg": dict(base, FJg=N)}


def test_each_family_fits_its_metric_on_at_most_one_kind_but_its_default():
    # the rule behind _fitting_kind: where the default kind does not fit, one
    # kind does, or none
    for family, row in FAMILIES.items():
        for metric in ("G0", "Gg"):
            fits = [k for k, c in row.classes(metric).items() if c != "Incompatible"]
            assert row.base_kind in fits or len(fits) <= 1, (family, metric)


def test_jphi_and_fphi_are_built_but_not_cli_families():
    for kind in (H, PH):
        data = gt.random_ae_pair(kind, 4, seed=3)
        phi = gt.base_fundamental(data)
        for family, sign in (("Jphi", -1), ("Fphi", +1)):
            assert family not in FAMILY_IDS
            built = gt.build_family(family, data).assemble()
            assert (built == gt.build_musical(phi, sign).assemble()).all()
            with pytest.raises(gt.UnknownFamilyError, match="needs \\(J, g\\) base data"):
                gt.build_family(family, data.g)


SRC = Path(gt.__file__).resolve().parent

# Where a family id may be written: the table and the named constants beside
# it, and the triple recipes.
EXEMPT = {"ae_zoo.py": "FAMILIES", "triples.py": "_TRIPLE_RECIPES"}


def _family_literals(path):
    """(line, literal) of each str constant that names a family outside the
    exempt assignment of its module."""
    ids = set(FAMILIES)
    names = ids | {f"-{f}" for f in ids} | {f"{f}@{m}" for f in ids for m in ("G0", "Gg")}
    tree = ast.parse(path.read_text())
    skipped = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
        named_constant = path.name == "ae_zoo.py" and isinstance(node.value, ast.Constant)
        if EXEMPT.get(path.name) in targets or named_constant:
            skipped.update(id(n) for n in ast.walk(node))
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in names
                  and id(node) not in skipped)


def test_no_family_literal_outside_the_table():
    found = {path.name: lits for path in sorted(SRC.glob("*.py"))
             if (lits := _family_literals(path))}
    assert found == {}
