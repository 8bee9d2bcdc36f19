"""Known defects, one replay key each, run as strict xfails.

Each case asserts the right answer, so it fails while its defect stands and
turns the run red once a fix lands; the fix then removes its xfail mark and
the case stays as a plain test.  Each defect names the ROADMAP item that
mends it: item 1's condition-aware margin for all but one, and item 5's
fixtures for a registry draw that no tolerance rule can judge.
"""

import io
import json

import pytest

import gentangent as gt
from gentangent import cli

# replay key: (ROADMAP item, the defect).  ("pipe", *build args) classifies
# the build output; ("verify", *args) runs the check; ("scale", family, kind,
# n, seed, *k) classifies the family built from the kind's g against 10^k G0.
CORPUS = {
    ("pipe", "Fg", "--dim", "8", "--seed", "100"):
        (1, "NotInjective: the rank test sees cond(op), about cond(g) = 2.5e5-9.8e5"),
    ("pipe", "Jg", "--dim", "8", "--seed", "100"):
        (1, "NotInjective: the rank test sees cond(op), about cond(g) = 2.5e5-9.8e5"),
    ("verify", "P5.canonical-triples", "--dim", "3", "--trials", "3", "--seed", "5",
     "--tol", "1e-13"):
        (1, "1 failure: the roundoff of J F grows with |J| |F|, not with |J F|"),
    ("verify", "T5.kahler-roundtrip", "--dim", "3", "--trials", "20", "--tol", "1e-6"):
        (1, "4 failures: the rank threshold of -J1 J2 grows with the tolerance"),
    ("verify", "P5.combine-law", "--dim", "3", "--trials", "20", "--seed", "1",
     "--tol", "1e-13"):
        (1, "1 failure: trial 15's Fg squares to I within 2.84e-13, above t |I| ="
            " 2.83e-13; that roundoff grows with |Fg|^2, and |Fg| = 751"),
    ("verify", "T5.base-extraction", "--dim", "3", "--trials", "20", "--seed", "39",
     "--tol", "1e-13"):
        (1, "1 failure: trial 8's J squares to -I within 2.08e-13, above t |I| ="
            " 2e-13; that roundoff grows with |J|^2, and |J| = 44"),
    ("scale", "Jg", "Hermitian", "4", "7", "0", "12", "-9", "-10"):
        (1, "Norden at k = 0 and 12, DegenerateFormError at -9, Incompatible at -10"),
    ("verify", "P3.signature", "--seed", "2090621492"):
        (5, "exit 2, 'base form is numerically degenerate': the n = 1 case draws"
            " random_metric(1, 1, 0, seed) with p = 2e-5, which passes the cond clamp"
            " as every 1x1 matrix does, so g = p^2 = 3.9e-10 and its induced metric"
            " has cond 6.6e18"),
}


def _outcome(call):
    try:
        return call().name
    except gt.GentangentError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("key", [
    pytest.param(key, id=" ".join(key),
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                         reason=f"ROADMAP item {item}: {defect}"))
    for key, (item, defect) in CORPUS.items()])
def test_defect_corpus(key, capsys, monkeypatch):
    kind, *args = key
    if kind == "pipe":
        assert cli.main(["build", *args]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        assert cli.main(["classify", "-", "--format", "json"]) == 0
        inducer = json.loads(capsys.readouterr().out)["inducer"]
        # the operator squares to -I or I, so it is injective
        assert "NotInjective" not in inducer["metric_violations"] + inducer["symplectic_violations"]
    elif kind == "verify":
        assert cli.main(["verify", *args]) == 0, capsys.readouterr().out
    else:
        family, base_kind, n, seed, *powers = args
        op = gt.build_family(family, gt.random_ae_pair(base_kind, int(n), int(seed)).g)
        g0 = gt.g0(int(n)).gram
        classes = {k: _outcome(lambda: gt.classify_pair(
            op, gt.BilinearForm(10.0 ** int(k) * g0, gt.SYMMETRIC))) for k in powers}
        assert len(set(classes.values())) == 1, classes
