"""``is_degenerate`` is the one rank test, and it answers as the SVD does.

It inverts the matrix, reads "nondegenerate" from that inverse where
``_certifies_nondegenerate`` can, and runs the SVD only where the
certificate is silent.  The oracle here is the SVD rule itself, written out:
sigma_min <= tol.abs * max(sigma_max, 1).
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import gentangent as gt
from gentangent import cli, core, gen_metrics, registry
from gentangent.ae_zoo import FAMILY_IDS
from gentangent.core import _certifies_nondegenerate, _inverse_unless_degenerate, is_degenerate

from test_input_mutants import output_digest

SRC = Path(__file__).resolve().parent.parent / "src" / "gentangent"
SUB_FLOOR = gt.Tolerance(1e-20, 1e-9)
_SVD = np.linalg.svd  # the oracle's own, never counted


def svd_oracle(a, tol):
    sv = _SVD(np.asarray(a, dtype=float), compute_uv=False)
    return sv.size == 0 or sv[-1] <= tol.abs * max(sv[0], 1.0)


def certificate_is_silent(a, tol):
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return True
    return not _certifies_nondegenerate(a, x, tol)


@pytest.fixture
def svd_calls(monkeypatch):
    """A list that grows by one at every ``np.linalg.svd`` call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return _SVD(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.fixture
def asked(monkeypatch, svd_calls):
    """(matrix, tol, answer, SVDs run) of every ``is_degenerate`` call,
    whether from ``core`` itself or from ``gen_metrics``."""
    seen, real = [], core.is_degenerate

    def spy(gram, tol=core.DEFAULT_TOL, **private):
        before = len(svd_calls)
        got = real(gram, tol, **private)
        seen.append((np.array(gram, dtype=float), tol, got, len(svd_calls) - before))
        return got

    for module in (core, gen_metrics):
        monkeypatch.setattr(module, "is_degenerate", spy)
    return seen


def _assert_svd_answers(seen):
    for a, tol, got, svds in seen:
        want = svd_oracle(a, tol)
        assert got == want and type(got) is type(want), (a.shape, tol)
        # the SVD runs exactly where the certificate cannot decide
        assert svds == int(certificate_is_silent(a, tol)), (a.shape, tol)


@pytest.mark.parametrize("n, trials", [(3, 20), (8, 3), (32, 3)])
def test_registry_traffic_gets_the_svd_answer(asked, n, trials):
    registry.run_all(n, trials, seed=1)
    assert len(asked) > trials
    _assert_svd_answers(asked)


@pytest.mark.parametrize("n", [2, 8, 32])
def test_pipe_traffic_gets_the_svd_answer(asked, n):
    for family in FAMILY_IDS:
        code, doc, _ = output_digest.run(cli.main, ["build", family, "--dim", str(n), "--seed", "1"])
        assert code == 0, family
        code, _, err = output_digest.run(cli.main, ["classify", "-"], stdin=doc)
        assert code == 0, (family, err)
    assert asked
    _assert_svd_answers(asked)


def test_certificate_hands_a_residual_above_one_half_to_the_svd(svd_calls):
    # singular values (1, ..., 1, 1e-16): the computed inverse is so far off
    # that ||XA - I||_F is above 1/2, and the certificate proves nothing
    q1, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((6, 6)))
    q2, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((6, 6)))
    clear = q1 @ q2
    near = (q1 * [1, 1, 1, 1, 1, 1e-16]) @ q2
    x = np.linalg.inv(near)
    assert 0.5 < np.linalg.norm(x @ near - np.eye(6)) < 4.4
    assert not _certifies_nondegenerate(near, x, gt.DEFAULT_TOL)
    # the certificate decides the clear matrix alone, and the SVD the other
    assert is_degenerate(clear) == np.False_ and svd_calls == []
    assert is_degenerate(near) == svd_oracle(near, gt.DEFAULT_TOL) == np.True_
    assert len(svd_calls) == 1
    assert _inverse_unless_degenerate(near, gt.DEFAULT_TOL) is None


def _singular_but_not_below_the_floor():
    """A rank-2 integer 4x4 matrix that ``np.linalg.inv`` refuses while its
    roundoff sigma_min is above 1e-20 * sigma_max."""
    a = np.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 2], [1, 3, 4, 6]], dtype=float)
    assert np.linalg.matrix_rank(a) == 2
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(a)
    assert not svd_oracle(a, SUB_FLOOR)
    return a


def test_below_the_certificate_floor_the_svd_answers_uninvertible_input():
    # tol.abs < 64 n u: the certificate is never asked, and a matrix that
    # inv refuses still gets the SVD rule's answer, "nondegenerate" (the
    # absolute floor of the rule, ROADMAP item 1)
    a = _singular_but_not_below_the_floor()
    assert SUB_FLOOR.abs < 64 * 4 * 2.0**-53
    got = is_degenerate(a, SUB_FLOOR)
    assert got == np.False_ and type(got) is np.bool_
    op = gt.BlockOperator.from_matrix(a)
    _, report = gt.metric_from_endomorphism(op, SUB_FLOOR)
    assert gen_metrics.NOT_INJECTIVE not in report.violations
    assert gt.endomorphism_from_metric(gt.BilinearForm(a, gt.SYMMETRIC), SUB_FLOOR).n == 2
    with pytest.raises(np.linalg.LinAlgError):
        _inverse_unless_degenerate(a, SUB_FLOOR)


def test_run_all_at_n32_runs_no_svd(svd_calls):
    registry.run_all(32, 3, seed=1)
    assert svd_calls == []


class _Uses(ast.NodeVisitor):
    """The innermost enclosing function of each use of a name in a module:
    ``np.linalg.<name>``, a bare ``<name>``, or an import of it."""

    def __init__(self, name):
        self.name, self.where, self.found = name, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if node.attr == self.name:
            self.found.append(self.where[-1])
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == self.name:
            self.found.append(self.where[-1])

    def visit_ImportFrom(self, node):
        self.found.extend(self.where[-1] for alias in node.names if alias.name == self.name)


def _uses(name):
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Uses(name)
        visitor.visit(ast.parse(path.read_text()))
        found += [(path.name, where) for where in visitor.found]
    return found


def test_only_is_degenerate_runs_the_svd_or_the_certificate():
    assert _uses("svd") == [("core.py", "is_degenerate")]
    assert _uses("_certifies_nondegenerate") == [("core.py", "is_degenerate")]
