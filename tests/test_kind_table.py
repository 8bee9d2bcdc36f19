"""The kind table of ``ae_zoo``: each row holds exactly on its model pair,
every kind is drawn through ``generators.random_base`` at its fixture
dimension, the lists derived from the table keep the order the registry was
written against, and no other code lists the kinds or writes a kind's alpha
or epsilon.

The model pairs have integer entries, so J^2 = alpha I and J^T g J = eps g
are checked in integer arithmetic, with no tolerance.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import gentangent as gt
from gentangent import ae_zoo, generators, registry
from gentangent.ae_zoo import KINDS
from gentangent.generators import fixture_dim, random_base

H, IH, N, PH, PR = ("Hermitian", "IndefiniteHermitian", "Norden", "ParaHermitian",
                    "ProductRiemannian")


def test_table_rows_in_order():
    # the order fixes the registry's case seeds and the fixture files
    assert list(KINDS.items()) == [(H, (-1, 1, None)), (IH, (-1, 1, 4)), (N, (-1, -1, None)),
                                   (PH, (1, -1, None)), (PR, (1, 1, None))]


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("kind", list(KINDS))
def test_row_holds_exactly_on_its_model_pair(kind, n):
    j, g = generators._model_pair(kind, n)
    ji, gi = j.astype(np.int64), g.astype(np.int64)
    assert np.array_equal(ji, j) and np.array_equal(gi, g)
    row = KINDS[kind]
    assert np.array_equal(ji @ ji, row.alpha * np.eye(n, dtype=np.int64))
    assert np.array_equal(ji.T @ gi @ ji, row.epsilon * gi)
    data = gt.random_ae_pair(kind, n, seed=1)
    assert (data.alpha, data.epsilon) == (row.alpha, row.epsilon)


@pytest.mark.parametrize("n", [1, 3, 5, 6, 8])
def test_random_base_draws_each_kind_at_its_fixture_dim(n):
    even = n + n % 2
    metric = random_base(gt.SYMMETRIC, n, 1)
    assert metric.n == n
    assert np.array_equal(metric.gram, gt.random_metric(n, n, 0, 1).gram)
    symplectic = random_base(gt.SKEW, n, 1)
    assert symplectic.n == fixture_dim(n) == even
    assert np.array_equal(symplectic.gram, gt.random_symplectic(even, 1).gram)
    for kind, row in KINDS.items():
        data = random_base(kind, n, 1)
        assert data.n == fixture_dim(n, kind) == (row.dim or even), kind
        direct = gt.random_ae_pair(kind, data.n, 1)
        assert np.array_equal(data.J, direct.J) and np.array_equal(data.g.gram, direct.g.gram)
        assert data.validate()


def test_random_base_names_the_kinds_for_an_unknown_one():
    with pytest.raises(ValueError, match="known: \\('Hermitian', 'IndefiniteHermitian'"):
        random_base("Kahler", 4, 1)


def test_registry_draws_the_derived_kinds_in_their_order(monkeypatch):
    drawn = []

    def recording(kind, n, seed):
        drawn.append(kind)
        return random_base(kind, n, seed)

    monkeypatch.setattr(registry, "random_base", recording)
    # P2.flat-sharp: the kinds drawn at n, then the one of a fixed dimension;
    # P5.triple-MJG/MFG: the kinds of their alpha drawn at n; P5.canonical-
    # triples: the first kind of each triple's alpha
    for pid, trials, want in (("P2.flat-sharp", 10, [H, N, PH, PR, IH] * 2),
                              ("P5.triple-MJG", 4, [H, N] * 2),
                              ("P5.triple-MFG", 4, [PH, PR] * 2),
                              ("P5.canonical-triples", 1, [H] * 4 + [PH] * 4)):
        drawn.clear()
        assert registry.run_check(pid, 4, trials, seed=1).passed
        assert drawn == want, pid


SRC = Path(gt.__file__).resolve().parent
KIND_NAMES = {name for name, value in vars(ae_zoo).items()
              if isinstance(value, str) and value in KINDS}

# Where kinds may be listed: the kind table, and the family table, whose
# class cells hold class names that are also kind names.
EXEMPT = {"ae_zoo.py": {"KINDS", "FAMILIES"}}


def _names_kind(node):
    if isinstance(node, ast.Name):
        return node.id in KIND_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in KIND_NAMES
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in KINDS


def _has_sign(nodes):
    """Whether an int literal 1, so +1 or -1, is written in any of the nodes."""
    return any(isinstance(n, ast.Constant) and type(n.value) is int and n.value == 1
               for node in nodes for n in ast.walk(node))


def _kind_facts(path):
    """(line, fact) of each list of two or more kinds, and of each sign
    written for a kind (a dict entry, or a branch on a kind test), outside
    the exempt assignments of the module."""
    tree = ast.parse(path.read_text())
    skipped = set()
    for node in tree.body:
        targets = {t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)}
        if targets & EXEMPT.get(path.name, set()):
            skipped.update(id(n) for n in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        items = node.keys if isinstance(node, ast.Dict) else getattr(node, "elts", ())
        kinds = [item for item in items if item is not None and _names_kind(item)]
        if len(kinds) >= 2 and isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            found.append((node.lineno, "kinds listed"))
        if isinstance(node, ast.Dict) and kinds and _has_sign(node.values):
            found.append((node.lineno, "sign of a kind"))
        if isinstance(node, (ast.If, ast.IfExp)) and any(map(_names_kind, ast.walk(node.test))):
            body = node.body if isinstance(node, ast.If) else [node.body, node.orelse]
            if _has_sign(body):
                found.append((node.lineno, "sign of a kind"))
    return sorted(found)


def test_no_kind_fact_outside_the_table():
    found = {path.name: facts for path in sorted(SRC.glob("*.py"))
             if (facts := _kind_facts(path))}
    assert found == {}
