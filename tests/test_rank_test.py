"""``_inverse_unless_degenerate`` is the one rank routine, and
``is_degenerate`` reads its answer.

Only ``is_degenerate``, ``musicals`` and ``extract_base_complex`` call it.
A base form is inverted once per tolerance, as flat = gram.T, by
``musicals``; ``induced_metric`` and ``nannicini_metric`` read sharp.T from
it, so the two agree on every form.  The routine refuses a NaN or infinite
entry with ``ValueError``, and inverts any other matrix once.  A matrix that
LAPACK cannot invert (an exact zero pivot) is degenerate at every tolerance.
Otherwise the routine reads "nondegenerate" from that inverse where
``_certifies_nondegenerate`` can, and runs the SVD only where the
certificate is silent.  The oracle here is the SVD rule itself, written out:
sigma_min <= tol.value * max(sigma_max, 1).  On all registry and pipe traffic
it agrees with LAPACK's refusals; below the certificate's floor (tol.value <
64 n u) it calls some exactly singular matrices nondegenerate, and there
the refusal decides.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import gentangent as gt
from gentangent import ae_zoo, cli, core, gen_metrics, registry
from gentangent.ae_zoo import FAMILY_IDS
from gentangent.core import _certifies_nondegenerate, _inverse_unless_degenerate, is_degenerate

from test_input_mutants import output_digest

SRC = Path(__file__).resolve().parent.parent / "src" / "gentangent"
SUB_FLOOR = gt.Tolerance(1e-20)
_SVD, _INV = np.linalg.svd, np.linalg.inv  # the oracle's own, never counted


def svd_oracle(a, tol):
    sv = _SVD(np.asarray(a, dtype=float), compute_uv=False)
    return sv.size == 0 or sv[-1] <= tol.value * max(sv[0], 1.0)


def svd_runs(a, tol):
    """Whether the routine needs the SVD: LAPACK inverts a, and the
    certificate is silent."""
    try:
        x = _INV(a)
    except np.linalg.LinAlgError:
        return False
    return not _certifies_nondegenerate(a, x, tol)


def _counted(monkeypatch, name):
    """A list that grows by one at every ``np.linalg.<name>`` call."""
    calls, real = [], getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    return _counted(monkeypatch, "svd")


@pytest.fixture
def asked(monkeypatch, svd_calls):
    """(matrix, tol, answer, inversions, SVDs) of every rank question: each
    call of ``_inverse_unless_degenerate``, whether from ``core`` itself
    (``is_degenerate``, ``musicals``) or ``ae_zoo``."""
    seen, real, inv_calls = [], core._inverse_unless_degenerate, _counted(monkeypatch, "inv")

    def spy(a, tol):
        invs, svds = len(inv_calls), len(svd_calls)
        got = real(a, tol)
        seen.append((np.array(a, dtype=float), tol, got,
                     len(inv_calls) - invs, len(svd_calls) - svds))
        return got

    for module in (core, ae_zoo):
        monkeypatch.setattr(module, "_inverse_unless_degenerate", spy)
    return seen


def _assert_svd_answers(seen):
    for a, tol, got, invs, svds in seen:
        assert (got is None) == svd_oracle(a, tol), (a.shape, tol)
        # one inversion per question, and its bits are the answer
        assert invs == 1, (a.shape, tol)
        assert got is None or np.array_equal(got, _INV(a)), (a.shape, tol)
        # the SVD runs exactly where the certificate cannot decide
        assert svds == int(svd_runs(a, tol)), (a.shape, tol)


# rank questions that registry.run_all(n, trials, seed=1) asks, keyed by n
_REGISTRY_QUESTIONS = {3: 1627, 8: 267, 32: 267}


@pytest.mark.parametrize("n, trials", [(3, 20), (8, 3), (32, 3)])
def test_registry_traffic_gets_the_svd_answer(asked, n, trials):
    registry.run_all(n, trials, seed=1)
    # is_degenerate answers 21 of the 267 at n = 32; musicals (for
    # induced_metric too) and extract_base_complex ask the routine itself
    assert len(asked) == _REGISTRY_QUESTIONS[n]
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
    """A rank-2 integer 4x4 matrix a, and the symmetric a a^T, that
    ``np.linalg.inv`` refuses while their roundoff sigma_min is above 1e-20 *
    sigma_max."""
    a = np.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 2], [1, 3, 4, 6]], dtype=float)
    for m in (a, a @ a.T):
        assert np.linalg.matrix_rank(m) == 2
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(m)
        assert not svd_oracle(m, SUB_FLOOR)
    return a, a @ a.T


def _assert_degenerate_everywhere(a, tol):
    """Each construction that needs a's inverse refuses a with a library
    error, or reports it not injective; none raises a ``LinAlgError``."""
    assert _inverse_unless_degenerate(a, tol) is None
    got = is_degenerate(a, tol)
    assert got == np.True_ and type(got) is np.bool_
    _, report = gt.metric_from_endomorphism(gt.BlockOperator.from_matrix(a), tol)
    assert gen_metrics.NOT_INJECTIVE in report.violations


def _assert_every_form_degenerate(s, tol):
    """The same for the forms whose Gram is s.  A symmetric form keeps the
    symmetric part of the matrix it is given, so s must be symmetric: the
    symmetric part of a singular matrix need not be singular."""
    assert np.array_equal(s, s.T)
    # both invert flat = gram.T, through musicals
    with pytest.raises(gt.DegenerateFormError):
        gt.musicals(gt.BaseForm(s), tol)
    with pytest.raises(gt.DegenerateFormError):
        gt.induced_metric(gt.BaseForm(s), tol)
    with pytest.raises(gt.DegenerateFormError):
        gt.endomorphism_from_metric(gt.BilinearForm(s, gt.SYMMETRIC), tol)


def test_below_the_certificate_floor_an_uninvertible_matrix_is_degenerate(svd_calls):
    # tol.value < 64 n u: the certificate is never asked, and the SVD rule
    # would call these exactly singular matrices nondegenerate (the absolute
    # floor of the rule, ROADMAP item 1); LAPACK's refusal decides first
    a, s = _singular_but_not_below_the_floor()
    assert SUB_FLOOR.value < 64 * 4 * 2.0**-53
    for m in (a, s):
        _assert_degenerate_everywhere(m, SUB_FLOOR)
    _assert_every_form_degenerate(s, SUB_FLOOR)
    assert svd_calls == []


def test_a_non_square_matrix_is_refused_not_called_degenerate():
    # np.linalg.inv refuses it too, but that says nothing about its rank
    with pytest.raises(gt.DimensionError):
        is_degenerate(np.ones((2, 3)))
    with pytest.raises(gt.DimensionError):
        gt.diagonal_inducer(np.ones((2, 3)), +1)


def _uninvertible_products(symmetric=False):
    """Of 2,000 draws of integer 4x2 and 2x4 factors p, q with entries in
    [-3, 3], the products p q, or the symmetric p p^T, that
    ``np.linalg.inv`` refuses.  Each has rank at most 2, exactly."""
    rng = np.random.default_rng(0)
    products = []
    for _ in range(2000):
        p, q = rng.integers(-3, 4, (4, 2)), rng.integers(-3, 4, (2, 4))
        a = (p @ (p.T if symmetric else q)).astype(float)
        try:
            np.linalg.inv(a)
        except np.linalg.LinAlgError:
            products.append(a)
    return products


def test_every_matrix_lapack_cannot_invert_is_degenerate():
    products, symmetric = _uninvertible_products(), _uninvertible_products(symmetric=True)
    for chosen in (products, symmetric):
        # most of them: the SVD rule alone calls most of these nondegenerate
        # at SUB_FLOOR, so this is not a handful of easy cases
        assert len(chosen) > 1500
        assert sum(not svd_oracle(a, SUB_FLOOR) for a in chosen) > 1000
    for tol in (SUB_FLOOR, gt.DEFAULT_TOL):
        for a in products:
            _assert_degenerate_everywhere(a, tol)
        # the forms are built from the symmetric products (see above)
        for s in symmetric:
            _assert_every_form_degenerate(s, tol)


def test_musicals_and_induced_metric_agree_on_every_uninvertible_product():
    # both raise or both return, on a fresh form each: induced_metric reads
    # sharp.T from musicals, so a base form is inverted in one place only
    for a in _uninvertible_products():
        for tol in (SUB_FLOOR, gt.DEFAULT_TOL):
            outcomes = []
            for build in (gt.musicals, gt.induced_metric):
                try:
                    build(gt.BaseForm(a), tol)
                except gt.DegenerateFormError:
                    outcomes.append("degenerate")
                else:
                    outcomes.append("returned")
            assert outcomes[0] == outcomes[1], (a.tolist(), tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_nan_or_infinite_entry_is_refused_by_every_rank_question(bad):
    # before any inversion: no LinAlgError and no answer read from it
    a = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="NaN or infinite entry"):
        is_degenerate(a)
    with pytest.raises(ValueError, match="NaN or infinite entry"):
        gt.musicals(gt.BaseForm(a))
    with pytest.raises(ValueError, match="NaN or infinite entry"):
        gt.induced_metric(gt.BaseForm(a))


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


def test_only_the_rank_routine_runs_the_svd_or_the_certificate():
    routine = ("core.py", "_inverse_unless_degenerate")
    assert _uses("svd") == [routine]
    assert _uses("_certifies_nondegenerate") == [routine]
    # and core inverts nowhere else
    assert [use for use in _uses("inv") if use[0] == "core.py"] == [routine]


def test_only_musicals_is_degenerate_and_extract_base_complex_ask_the_routine():
    # every base form is inverted by musicals, induced_metric included
    assert _uses("_inverse_unless_degenerate") == [
        ("ae_zoo.py", "<module>"), ("ae_zoo.py", "extract_base_complex"),
        ("core.py", "is_degenerate"), ("core.py", "musicals")]
