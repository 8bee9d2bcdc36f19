"""Forms own their kind.

A symmetric form keeps the symmetric part of the Gram it is given, 0.5 G +
0.5 G^T, and a skew form the skew part, 0.5 G - 0.5 G^T.  Both are exactly
of their kind, as floating-point addition commutes and negation is exact, so
no reader symmetrizes a Gram or compares it with its transpose again:
``core._own_gram`` is the one place that makes a form of its kind.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import gentangent as gt
from gentangent import canonical, cli, core, registry
from gentangent.ae_zoo import FAMILY_IDS

from test_input_mutants import output_digest

SRC = Path(gt.__file__).resolve().parent
SIGN = {gt.SYMMETRIC: +1, gt.SKEW: -1}


def test_a_symmetric_form_keeps_the_symmetric_part():
    b = gt.BaseForm([[1, 2], [3, 4]])
    assert np.array_equal(b.gram, [[1.0, 2.5], [2.5, 4.0]])
    assert gt.signature(b) == (1, 1)
    induced = gt.induced_metric(b).gram
    assert np.array_equal(induced, induced.T)


def test_a_skew_form_keeps_the_skew_part_and_a_general_one_its_gram():
    assert np.array_equal(gt.BaseForm([[1, 2], [0, 4]], gt.SKEW).gram, [[0.0, 1.0], [-1.0, 0.0]])
    m = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(gt.BilinearForm(m).gram, m)
    assert np.array_equal(gt.BilinearForm(m, gt.SKEW).gram, 0.5 * (m - m.T))


def test_a_gram_of_its_kind_is_kept_bit_for_bit():
    a = np.random.default_rng(1).standard_normal((6, 6))
    for kind, m in ((gt.SYMMETRIC, a + a.T), (gt.SKEW, a - a.T)):
        assert np.array_equal(gt.BilinearForm(m, kind).gram, m)
        assert np.array_equal(gt.BaseForm(m, kind).gram, m)


def test_the_projection_does_not_overflow():
    # 0.5 G +- 0.5 G^T, not 0.5 (G +- G^T): warnings are errors in this suite
    huge = np.array([[1e308, 1e308], [-1e308, 1e308]])
    assert np.array_equal(gt.BaseForm(huge, gt.SKEW).gram, [[0.0, 1e308], [-1e308, 0.0]])
    assert np.array_equal(gt.BaseForm(huge).gram, np.diag([1e308, 1e308]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_nan_or_infinite_gram_is_refused(bad):
    for kind in (gt.SYMMETRIC, gt.SKEW):
        with pytest.raises(ValueError, match="NaN or infinite entry"):
            gt.BaseForm([[1.0, bad], [0.0, 1.0]], kind)
    for kind in (gt.SYMMETRIC, gt.SKEW, gt.GENERAL):
        m = np.eye(4)
        m[3, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite entry"):
            gt.BilinearForm(m, kind)


@pytest.fixture
def forms(monkeypatch):
    """Every form built while the test runs, G0 and Omega0 included."""
    built, real = [], core._own_gram
    monkeypatch.setattr(canonical, "_canonical_form", canonical._canonical_form.__wrapped__)

    def spy(form, *args):
        got = real(form, *args)
        built.append(form)
        return got

    monkeypatch.setattr(core, "_own_gram", spy)
    return built


def _assert_of_their_kind(forms):
    met = {kind: 0 for kind in SIGN}
    for f in forms:
        if f.kind in SIGN:
            met[f.kind] += 1
            assert np.array_equal(f.gram, SIGN[f.kind] * f.gram.T), (type(f).__name__, f.kind)
    assert all(met.values()), met


def test_registry_traffic_builds_every_form_exactly_of_its_kind(forms):
    registry.run_all(8, 5, seed=1)
    _assert_of_their_kind(forms)


def test_pipe_traffic_builds_every_form_exactly_of_its_kind(forms):
    for family in FAMILY_IDS:
        code, doc, _ = output_digest.run(cli.main, ["build", family, "--dim", "8", "--seed", "1"])
        assert code == 0, family
        code, _, err = output_digest.run(cli.main, ["classify", "-"], stdin=doc)
        assert code == 0, (family, err)
    _assert_of_their_kind(forms)


# No reader makes a Gram of its kind again: no expression adds a Gram to its
# own transpose, subtracts one from the other, or hands both to one call or
# comparison (``close(g, -g.T)``, ``g == g.T``).  A Gram is a ``.gram``, or
# a name that a function binds to one (``gm = self.g.gram``).  ``_own_gram``
# projects a matrix before it is a form's Gram, so it has no such expression.

def _terms(node):
    """The summands and factors of a +, -, * or unary minus expression."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
        return _terms(node.left) + _terms(node.right)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _terms(node.operand)
    return [node]


def _operands(node):
    if isinstance(node, ast.BinOp):
        return _terms(node)
    if isinstance(node, ast.Call):
        return [t for arg in node.args for t in _terms(arg)]
    if isinstance(node, ast.Compare):
        return [t for side in (node.left, *node.comparators) for t in _terms(side)]
    return []


def _gram_against_its_transpose(source):
    """(function, line, expression) of each Gram met with its own transpose."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        aliases = set()

        def is_gram(node):
            return ((isinstance(node, ast.Attribute) and node.attr == "gram")
                    or (isinstance(node, ast.Name) and node.id in aliases))

        for node in ast.walk(func):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name) and is_gram(node.value)):
                aliases.add(node.targets[0].id)
        for node in ast.walk(func):
            terms = _operands(node)
            grams = {ast.unparse(t) for t in terms if is_gram(t)}
            transposed = {ast.unparse(t.value) for t in terms
                          if isinstance(t, ast.Attribute) and t.attr == "T" and is_gram(t.value)}
            if grams & transposed:
                found.add((func.name, node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("source", [
    "def f(g):\n    return np.linalg.eigvalsh(0.5 * (g.gram + g.gram.T))",
    "def f(form, tol):\n    return close(form.gram, -form.gram.T, tol)",
    "def f(form):\n    return _residual(form.gram, -form.gram.T)",
    "def f(self, tol):\n    gm = self.g.gram\n    return close(gm, gm.T, tol) and ok",
    "def f(b):\n    return bool(np.all(b.gram == b.gram.T))",
])
def test_the_guard_finds_a_gram_met_with_its_transpose(source):
    assert _gram_against_its_transpose(source)


@pytest.mark.parametrize("source", [
    "def f(form, op):\n    return _residual(form.gram, op.matrix.T @ g0(n).gram)",
    "def f(phi, g, j):\n    return _residual(phi.gram.T, g.gram.T @ j)",
    "def f(gram, sign, tol):\n    return close(gram, sign * gram.T, tol)",
])
def test_the_guard_passes_other_transposes(source):
    assert _gram_against_its_transpose(source) == []


def test_no_reader_makes_a_gram_of_its_kind_again():
    found = [(path.name, *site) for path in sorted(SRC.glob("*.py"))
             for site in _gram_against_its_transpose(path.read_text())]
    assert found == []
