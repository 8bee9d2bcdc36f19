"""Known defects, one replay key each, run as strict xfails.

Each case asserts the right answer, so it fails while its defect stands and
turns the run red once a fix lands; the fix then removes its xfail mark and
the case stays as a plain test.  Every defect here is one of ROADMAP item 1's.
"""

import io
import json

import pytest

import gentangent as gt
from gentangent import cli

# replay key: the defect.  ("pipe", *build args) classifies the build output;
# ("verify", *args) runs the check; ("scale", family, kind, n, seed, *k)
# classifies the family built from the kind's g against 10^k G0.
CORPUS = {
    ("pipe", "Fg", "--dim", "8", "--seed", "100"):
        "NotInjective: the rank test sees cond(op), about cond(g) = 2.5e5-9.8e5",
    ("pipe", "Jg", "--dim", "8", "--seed", "100"):
        "NotInjective: the rank test sees cond(op), about cond(g) = 2.5e5-9.8e5",
    ("verify", "P5.canonical-triples", "--dim", "3", "--trials", "3", "--seed", "5",
     "--tol", "1e-13"):
        "1 failure: the roundoff of J F grows with |J| |F|, not with |J F|",
    ("verify", "T5.kahler-roundtrip", "--dim", "3", "--trials", "20", "--tol", "1e-6"):
        "4 failures: the rank threshold of -J1 J2 grows with the tolerance",
    ("scale", "Jg", "Hermitian", "4", "7", "0", "12", "-9", "-10"):
        "Norden at k = 0 and 12, DegenerateFormError at -9, Incompatible at -10",
}


def _outcome(call):
    try:
        return call().name
    except gt.GentangentError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("key", [
    pytest.param(key, id=" ".join(key),
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                         reason=f"ROADMAP item 1: {defect}"))
    for key, defect in CORPUS.items()])
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
