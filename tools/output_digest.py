"""One sha256 per group of gentangent outputs, to show that a change keeps them.

Run it from the repository root once per source tree and compare the lines:

    PYTHONPATH=src python3 tools/output_digest.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/output_digest.py

Every command runs in this process through ``gentangent.cli.main``; each
digest covers the exit code, stdout and stderr of every run in its group:

- ``verify all --format json`` at seeds 1-8, for ``--dim 3 --trials 100``,
  ``--dim 8 --trials 5`` and ``--dim 32 --trials 3``, with each report's
  ``elapsed`` removed; then ``--dim 5`` and ``--dim 6`` at ``--trials 5``,
  where the fixture dimension is rounded up (5) and where the indefinite
  Hermitian kind is drawn at 4 and every other kind at 6; and, the same
  way, two runs that fail checks:
  ``--dim 3 --trials 100 --seed 2036071567`` and
  ``--dim 3 --trials 3 --seed 5 --tol 1e-13``
- ``build <family> --dim {2,8,32} --seed {1,2,3}`` over every family, and the
  ``classify - --format json`` of each build's output; then both again at
  ``--dim {1,4,5}``
- ``classify - --format json`` of an operator + operator2 document for each
  ordered pair of members of the eight named triples, built by
  ``canonical_triple`` from Hermitian or para-Hermitian data at n in {2, 4}
  and seeds 1-3
- the files that ``fixtures --dim {1,2,3,5,8} --seed {1,2}`` writes, by name
  and content (the paths it prints name a temporary directory)

The ``draws`` group calls the library instead: the bytes of
``random_invertible(n, SplitMix64(seed), clamp)`` and the ``next_u64()`` after
it, for n in {1, 2, 3, 4, 8, 16, 32}, clamp in {50, 100, 1e3} and seeds 1-50.

The ``tolerances`` group runs the rule at tolerances other than the default.
The CLI sets abs = rel, so it also calls the library with the two apart, where
a rule that swapped them would answer differently:

- ``verify all --dim 3 --trials 20`` and, for every family, ``build --dim 4``
  and the ``classify -`` of its output, at ``--tol 1e-6`` and ``--tol 1e-12``
  and once at ``GENTANGENT_TOL=1e-6``
- ``close``, ``is_degenerate``, ``polynomial_class`` and ``classify_pair``
  at ``Tolerance(1e-3, 1e-12)`` and ``Tolerance(1e-12, 1e-3)``, on each
  family's operator of the ``build --dim 4`` seed, on that operator plus
  1e-6 in every entry and on it with its first column scaled by 1e-6;
  ``classify_pair`` and ``signature`` against G0 and against G0 with one
  eigenvalue pair moved to +/-5e-5

The ``inputs`` group runs documents with one key changed (see ``mutants``):
``classify -`` of every mutant of ``build <family> --dim 2 --seed 3`` for
every family and of every file of ``fixtures --dim 2 --seed 1``, then
``build Jg --input -`` of every mutant of the ``metric`` fixture.

The ``signs`` group reads (J, g) pairs near the edge of the two sign tests:
each kind's ``random_ae_pair(kind, 4, seed)`` at seeds 1-3, as drawn, with
J[0, 0] raised by 1e-7, 1e-6 and 1e-5, and with g = 0.  On each it records
``AeManifoldData.validate`` with the kind's alpha and epsilon, ``build_diagonal``
at lam = +1 and -1 and, for alpha = -1 kinds, ``nannicini_metric``, each at
``Tolerance(1e-6, 1e-6)``, ``Tolerance(1e-12, 1e-12)``, ``Tolerance(1e-3,
1e-12)`` and ``Tolerance(1e-12, 1e-3)``; then ``classify - --format json`` of
a ``JlamJ+`` (alpha = -1) or ``FlamF+`` (alpha = +1) document on that base
against G0, at ``--tol 1e-6`` and ``--tol 1e-12``.  Each record names its
case, so printing the records of two trees lists the verdicts that differ.

Only the standard library and gentangent are used.  The verify groups take
most of the run, about half a minute.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

VERIFY_RUNS = ((3, 100), (8, 5), (32, 3))
FIXTURE_DIM_RUNS = ((5, 5), (6, 5))
SEEDS = range(1, 9)
FAILING_VERIFY_RUNS = (("--dim", "3", "--trials", "100", "--seed", "2036071567"),
                       ("--dim", "3", "--trials", "3", "--seed", "5", "--tol", "1e-13"))
BUILD_DIMS = (2, 8, 32)
MORE_BUILD_DIMS = (1, 4, 5)
BUILD_SEEDS = (1, 2, 3)
TRIPLE_DIMS = (2, 4)
TRIPLE_SEEDS = (1, 2, 3)
FIXTURE_DIMS = (1, 2, 3, 5, 8)
FIXTURE_SEEDS = (1, 2)
DRAW_DIMS = (1, 2, 3, 4, 8, 16, 32)
DRAW_CLAMPS = (50.0, 100.0, 1e3)
DRAW_SEEDS = range(1, 51)
TOLERANCE_VALUES = ("1e-6", "1e-12")
TOLERANCE_NUDGE = 1e-6
SIGN_SEEDS = (1, 2, 3)
SIGN_NUDGES = (1e-7, 1e-6, 1e-5)
MUTANT_SEED = 3
MUTANT_FIXTURE_ARGS = ("--dim", "2", "--seed", "1")
UNKNOWN_KEY = "extra"


def _eye(n):
    return [[float(i == j) for j in range(n)] for i in range(n)]


# each key that excludes another: (that partner, a valid value of it at n)
PARTNERS = {
    "g": ("omega", lambda n: [[float((j > i) - (j < i)) for j in range(n)] for i in range(n)]),
    "omega": ("g", _eye),
    "metric": ("operator2", lambda n: {"H": _eye(n), "sigma": [[0.0] * n] * n,
                                       "tau": [[0.0] * n] * n, "K": _eye(n)}),
    "operator2": ("metric", lambda n: {"gram": [[0.5 * (abs(i - j) == n) for j in range(2 * n)]
                                                for i in range(2 * n)], "kind": "symmetric"}),
}


def run(main, args, stdin=""):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def without_elapsed(text):
    try:
        reports = json.loads(text)
    except json.JSONDecodeError:
        return text
    for report in reports:
        report.pop("elapsed", None)
    return json.dumps(reports)


def digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def verify(main, args):
    code, out, err = run(main, ["verify", "all", "--format", "json", *args])
    return code, without_elapsed(out), err


def build_and_classify(main, family_ids, dims):
    built, classified = [], []
    for family in family_ids:
        for dim in dims:
            for seed in BUILD_SEEDS:
                result = run(main, ["build", family, "--dim", str(dim), "--seed", str(seed)])
                built.append(result)
                classified.append(run(main, ["classify", "-", "--format", "json"],
                                      stdin=result[1]))
    return built, classified


def triple_documents():
    """operator + operator2 documents for every ordered pair of triple members."""
    from gentangent.errors import WrongAlphaError
    from gentangent.generators import random_ae_pair
    from gentangent.triples import TRIPLE_NAMES, canonical_triple

    def blocks(op):
        return {"H": op.H.tolist(), "sigma": op.sigma.tolist(),
                "tau": op.tau.tolist(), "K": op.K.tolist()}

    for name in TRIPLE_NAMES:
        for n in TRIPLE_DIMS:
            for seed in TRIPLE_SEEDS:
                try:
                    members = canonical_triple(name, random_ae_pair("Hermitian", n, seed))
                except WrongAlphaError:
                    members = canonical_triple(name, random_ae_pair("ParaHermitian", n, seed))
                for first in members:
                    for second in members:
                        yield json.dumps({"n": n, "operator": blocks(first),
                                          "operator2": blocks(second)})


def mutants(doc):
    """(change, object, key, mutant) for each one-key change of a CLI document.

    The objects are the top level (``None``) and each object in it.  Each
    gets the key ``UNKNOWN_KEY``, loses each of its keys in turn, and gets the
    excluded partner of each key that has one (``PARTNERS``).
    """
    n = doc["n"]
    for where, obj in [(None, doc), *((k, v) for k, v in doc.items() if isinstance(v, dict))]:
        def put(changed):
            return changed if where is None else {**doc, where: changed}

        yield "add", where, UNKNOWN_KEY, put({**obj, UNKNOWN_KEY: 1})
        for key in obj:
            yield "drop", where, key, put({k: v for k, v in obj.items() if k != key})
        for key in obj:
            partner, value = PARTNERS.get(key, (None, None))
            if partner is not None and partner not in obj:
                yield "add", where, partner, put({**obj, partner: value(n)})


def input_documents(main, family_ids, dims, out_dir):
    """{name: document}: build output for each family and dimension, then fixture files."""
    docs = {}
    for family in family_ids:
        for dim in dims:
            _, out, _ = run(main, ["build", family, "--dim", str(dim), "--seed", str(MUTANT_SEED)])
            docs[f"build {family} --dim {dim}"] = json.loads(out)
    run(main, ["fixtures", *MUTANT_FIXTURE_ARGS, "--out", out_dir])
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name)) as fh:
            docs[name] = json.load(fh)
    return docs


def input_runs(main, family_ids):
    """classify of every mutant at n = 2, then build --input of the metric fixture's."""
    with tempfile.TemporaryDirectory() as tmp:
        docs = input_documents(main, family_ids, (2,), tmp)
    for doc in docs.values():
        for *_, mutant in mutants(doc):
            yield run(main, ["classify", "-", "--format", "json"], stdin=json.dumps(mutant))
    for *_, mutant in mutants(docs["metric.json"]):
        yield run(main, ["build", "Jg", "--input", "-"], stdin=json.dumps(mutant))


def draws():
    from gentangent.generators import SplitMix64, random_invertible

    for n in DRAW_DIMS:
        for clamp in DRAW_CLAMPS:
            for seed in DRAW_SEEDS:
                rng = SplitMix64(seed)
                p = random_invertible(n, rng, clamp)
                yield p.tobytes().hex(), rng.next_u64()


def tolerance_runs(main, family_ids):
    """CLI runs at --tol 1e-6 and 1e-12, then at GENTANGENT_TOL=1e-6."""
    settings = [(["--tol", value], None) for value in TOLERANCE_VALUES]
    settings.append(([], TOLERANCE_VALUES[0]))
    saved = os.environ.pop("GENTANGENT_TOL", None)
    try:
        for tol_args, env in settings:
            if env is not None:
                os.environ["GENTANGENT_TOL"] = env
            yield verify(main, ["--dim", "3", "--trials", "20", *tol_args])
            for family in family_ids:
                built = run(main, ["build", family, "--dim", "4", *tol_args])
                yield built
                yield run(main, ["classify", "-", "--format", "json", *tol_args],
                          stdin=built[1])
    finally:
        os.environ.pop("GENTANGENT_TOL", None)
        if saved is not None:
            os.environ["GENTANGENT_TOL"] = saved


def tolerance_calls(family_ids):
    """Library predicates at tolerances whose abs and rel differ."""
    import numpy as np

    from gentangent.ae_zoo import FAMILIES, build_family, classify_pair
    from gentangent.canonical import g0
    from gentangent.core import (SYMMETRIC, BilinearForm, BlockOperator, Tolerance, close,
                                 is_degenerate, polynomial_class, signature)
    from gentangent.errors import GentangentError
    from gentangent.generators import random_base

    def outcome(call, *args):
        try:
            return repr(call(*args))
        except (GentangentError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"

    n = 4
    ident = np.eye(2 * n)
    # G0 with its eigenvalue pair +/-1/2 on span(e_1, f_1) moved to +/-5e-5
    squeeze = np.ones(2 * n)
    squeeze[[0, n]] = 1e-2
    metrics = (g0(n), BilinearForm(squeeze[:, None] * g0(n).gram * squeeze, SYMMETRIC))
    column = np.ones(2 * n)
    column[0] = TOLERANCE_NUDGE
    for tol in (Tolerance(1e-3, 1e-12), Tolerance(1e-12, 1e-3)):
        for family in family_ids:
            op = build_family(family, random_base(FAMILIES[family].base_kind, n, 42), tol)
            for m in (op.matrix, op.matrix + TOLERANCE_NUDGE, op.matrix * column):
                moved, sq = BlockOperator.from_matrix(m), m @ m
                yield (family, repr(tol), outcome(close, sq, ident, tol),
                       outcome(close, sq, -ident, tol), outcome(is_degenerate, m, tol),
                       outcome(polynomial_class, moved, tol),
                       *(outcome(classify_pair, moved, metric, tol) for metric in metrics))
        yield repr(tol), *(outcome(signature, metric, tol) for metric in metrics)


def sign_bases():
    """(kind, seed, change, J, g) for each kind's n = 4 draw and its changes."""
    import numpy as np

    from gentangent.ae_zoo import KINDS
    from gentangent.generators import random_ae_pair

    for kind in KINDS:
        for seed in SIGN_SEEDS:
            data = random_ae_pair(kind, 4, seed)
            yield kind, seed, "as drawn", data.J, data.g.gram
            for nudge in SIGN_NUDGES:
                j = data.J.copy()
                j[0, 0] += nudge
                yield kind, seed, f"J[0, 0] + {nudge:g}", j, data.g.gram
            yield kind, seed, "g = 0", data.J, np.zeros((4, 4))


def sign_runs(main):
    """Verdicts of the sign tests' callers on each of ``sign_bases``."""
    from gentangent.ae_zoo import KINDS, AeManifoldData, build_diagonal
    from gentangent.canonical import g0
    from gentangent.core import SYMMETRIC, BaseForm, BilinearForm, BlockOperator, Tolerance
    from gentangent.errors import GentangentError
    from gentangent.gen_metrics import nannicini_metric

    def outcome(call, *args):
        try:
            result = call(*args)
        except (GentangentError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return "built" if isinstance(result, (BilinearForm, BlockOperator)) else bool(result)

    tols = [Tolerance(float(v), float(v)) for v in TOLERANCE_VALUES]
    tols += [Tolerance(1e-3, 1e-12), Tolerance(1e-12, 1e-3)]
    metric = {"gram": g0(4).gram.tolist(), "kind": SYMMETRIC}
    for kind, seed, change, j, gram in sign_bases():
        alpha, epsilon, _ = KINDS[kind]
        g = BaseForm(gram, SYMMETRIC)
        case = (kind, seed, change)
        for tol in tols:
            yield (*case, repr(tol), "validate",
                   outcome(AeManifoldData(j, g, alpha, epsilon).validate, tol))
            for lam in (1, -1):
                yield (*case, repr(tol), f"build_diagonal lam={lam}",
                       outcome(build_diagonal, j, lam, tol))
            if alpha == -1:
                yield *case, repr(tol), "nannicini_metric", outcome(nannicini_metric, j, g, tol)
        doc = json.dumps({"n": 4, "family": "JlamJ+" if alpha == -1 else "FlamF+",
                          "base": {"g": gram.tolist(), "J": j.tolist()}, "metric": metric})
        for value in TOLERANCE_VALUES:
            yield (*case, f"--tol {value}", "classify",
                   *run(main, ["classify", "-", "--format", "json", "--tol", value], stdin=doc))


def groups(main, family_ids):
    """(group name, records) in a fixed order."""
    for dim, trials in VERIFY_RUNS:
        records = [verify(main, ["--dim", str(dim), "--trials", str(trials),
                                 "--seed", str(seed)]) for seed in SEEDS]
        yield f"verify --dim {dim} --trials {trials}", records
    records = [verify(main, ["--dim", str(dim), "--trials", str(trials), "--seed", str(seed)])
               for dim, trials in FIXTURE_DIM_RUNS for seed in SEEDS]
    yield "verify --dim 5,6 --trials 5", records
    yield "verify, failing runs", [verify(main, args) for args in FAILING_VERIFY_RUNS]
    built, classified = build_and_classify(main, family_ids, BUILD_DIMS)
    yield "build", built
    yield "build | classify", classified
    built, classified = build_and_classify(main, family_ids, MORE_BUILD_DIMS)
    yield "build --dim 1,4,5", built
    yield "build --dim 1,4,5 | classify", classified
    yield "classify triples", [run(main, ["classify", "-", "--format", "json"], stdin=doc)
                               for doc in triple_documents()]
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for dim in FIXTURE_DIMS:
            for seed in FIXTURE_SEEDS:
                out_dir = os.path.join(tmp, f"d{dim}s{seed}")
                code, _, err = run(main, ["fixtures", "--dim", str(dim), "--seed",
                                          str(seed), "--out", out_dir])
                files = []
                for name in sorted(os.listdir(out_dir)):
                    with open(os.path.join(out_dir, name)) as fh:
                        files.append((name, fh.read()))
                records.append((code, err, files))
    yield "fixtures", records
    yield "draws", list(draws())
    yield "tolerances", [*tolerance_runs(main, family_ids), *tolerance_calls(family_ids)]
    yield "inputs", list(input_runs(main, family_ids))
    yield "signs", list(sign_runs(main))


def main():
    import gentangent
    from gentangent.ae_zoo import FAMILY_IDS
    from gentangent.cli import main as cli_main

    print(f"# gentangent from {os.path.dirname(gentangent.__file__)}")
    for name, records in groups(cli_main, FAMILY_IDS):
        print(f"{digest(records)}  {name} ({len(records)} runs)")


if __name__ == "__main__":
    main()
