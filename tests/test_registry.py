import pytest

import gentangent as gt
from gentangent import registry, triples

# Cases each check yields at trials = 2: one per trial, per table row, or per
# trial and table cell.  The counts do not depend on the dimension.
CASES_AT_TWO_TRIALS = {
    "P2.flat-sharp": 2,
    "P3.metric-char": 2,
    "P3.symplectic-char": 2,
    "P3.signature": 27,
    "P4.canonical-pair": 6,
    "P4.Jg-G0-norden": 2,
    "P4.triangular-iff": 16,
    "P4.mixed-iff": 16,
    "P4.twin-metrics": 48,
    "P5.f0-commutation": 6,
    "P5.canonical-triples": 16,
    "P5.triple-MJG": 2,
    "P5.triple-MFG": 2,
    "P5.combine-law": 2,
    "P5.kahler-example": 4,
    "T5.kahler-roundtrip": 2,
    "T5.base-extraction": 4,
}


@pytest.mark.parametrize("n", [3, 8])
def test_case_counts_and_failures_are_pinned(n):
    reports = registry.run_all(n, 2, seed=1)
    assert {r.id: r.trials for r in reports} == CASES_AT_TWO_TRIALS
    assert {r.id: r.failures for r in reports} == dict.fromkeys(CASES_AT_TWO_TRIALS, 0)
    for r in reports:
        assert type(r.trials) is int and type(r.failures) is int
        assert type(r.max_residual) is float


def test_known_defect_kahler_roundtrip_fails_once():
    # one false NotInjective at trial 67 (see the strict xfail in test_triples)
    assert registry.run_check("T5.kahler-roundtrip", 3, 100, 2036071567).failures == 1


def test_run_check_counts_cases_failures_and_worst_residual(monkeypatch):
    def check(n, trials, seed, tol):
        yield 0, 0.5
        yield 2, 0.25
        yield 1, 3.0
    monkeypatch.setitem(registry._REGISTRY, "X.fake", ("a fake check", check))
    report = registry.run_check("X.fake", 3, 1, 1)
    assert (report.trials, report.failures, report.max_residual) == (3, 3, 3.0)
    assert not report.passed


@pytest.mark.parametrize("error", [gt.NotPolynomialError, gt.NotAnticommutingError,
                                   gt.IncompatiblePairError])
def test_run_check_counts_a_refused_case_as_one_failure_and_ends_the_check(monkeypatch, error):
    def check(n, trials, seed, tol):
        yield 0, 0.5
        raise error("refused")
        yield 0, 9.0  # never reached

    monkeypatch.setitem(registry._REGISTRY, "X.fake", ("a fake check", check))
    report = registry.run_check("X.fake", 3, 1, 1)
    assert (report.trials, report.failures, report.max_residual) == (2, 1, 0.5)


def test_run_check_lets_a_rank_error_through(monkeypatch):
    def check(n, trials, seed, tol):
        raise gt.DegenerateFormError("singular")
        yield

    monkeypatch.setitem(registry._REGISTRY, "X.fake", ("a fake check", check))
    with pytest.raises(gt.DegenerateFormError):
        registry.run_check("X.fake", 3, 1, 1)


def test_canonical_triples_case_with_no_triple_is_one_failure():
    tol = gt.Tolerance(1e-13)
    report = registry.run_check("P5.canonical-triples", 3, 3, 5, tol)
    assert (report.trials, report.failures) == (24, 1)


def test_canonical_triples_no_triple_adds_no_residual(monkeypatch):
    monkeypatch.setattr(triples, "classify_triple",
                        lambda first, second, tol: triples.TripleReport(triples.NO_TRIPLE))
    report = registry.run_check("P5.canonical-triples", 2, 2, 1)
    assert (report.trials, report.failures, report.max_residual) == (16, 16, 0.0)


def test_run_check_refuses_an_unknown_id():
    with pytest.raises(gt.UnknownFamilyError, match="unknown proposition id 'P9.nope'"):
        registry.run_check("P9.nope")
