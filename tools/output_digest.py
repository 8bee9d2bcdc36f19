"""One sha256 per group of gentangent outputs, to show that a change keeps them.

Run it from the repository root once per source tree and compare the lines:

    PYTHONPATH=src python3 tools/output_digest.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/output_digest.py

``--cases [GROUP ...]`` prints one tab-separated line per run of each named
group (default: all) instead: the group, the case key (the argv, or the key
of a library record), the exit code, and the sha256 of stdout and of
stderr, so that comparing the lines of two trees names each changed case.
The digests of every group, and the case lines of ``CASE_GROUPS``, are
committed under ``tests/`` (``GROUPS``, ``CASES``): ``--check`` recomputes
every group and prints each line that differs from them (exit 1), and
``--write`` rewrites them from this tree.  ``tests/test_output_digest.py``
checks the quicker groups in the test suite.

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

The ``tolerances`` group runs the rule, residual <= t * s + t * scale, at
tolerances t other than the default:

- ``verify all --dim 3 --trials 20`` and, for every family, ``build --dim 4``
  and the ``classify -`` of its output, at ``--tol 1e-6`` and ``--tol 1e-12``
  and once at ``GENTANGENT_TOL=1e-6``
- ``close``, ``is_degenerate``, ``polynomial_class`` and ``classify_pair``
  at ``Tolerance(1e-3)`` and ``Tolerance(1e-12)``, on each family's operator
  of the ``build --dim 4`` seed, on that operator plus 1e-6 in every entry
  and on it with its first column scaled by 1e-6; ``classify_pair`` and
  ``signature`` against G0 and against G0 with one eigenvalue pair moved to
  +/-5e-5

The ``inputs`` group runs documents with one key changed (see ``mutants``)
through each of their ``readers``: ``classify -`` and, for a document with a
base, ``build <its family> --input -``, of every mutant of ``build <family>
--dim 2 --seed 3`` for every family and of every file of ``fixtures --dim 2
--seed 1``.

The ``signs`` group reads (J, g) pairs near the edge of the two sign tests:
each kind's ``random_ae_pair(kind, 4, seed)`` at seeds 1-3, as drawn, with
J[0, 0] raised by 1e-7, 1e-6 and 1e-5, and with g = 0.  On each it records
``AeManifoldData.validate`` with the kind's alpha and epsilon, ``build_diagonal``
at lam = +1 and -1 and, for alpha = -1 kinds, ``nannicini_metric``, each at
``Tolerance(1e-6)`` and ``Tolerance(1e-12)``; then ``classify - --format json`` of
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
# the committed digests of every group, and the cases of CASE_GROUPS
TESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
GROUPS = os.path.join(TESTS, "output_groups.txt")
CASES = os.path.join(TESTS, "output_cases.txt")
CASE_GROUPS = ("fixtures", "inputs")


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
    """(case key, record) of one ``verify all --format json`` run, without elapsed."""
    argv = ["verify", "all", "--format", "json", *args]
    code, out, err = run(main, argv)
    return " ".join(argv), (code, without_elapsed(out), err)


def build_and_classify(main, family_ids, dims):
    built, classified = [], []
    for family in family_ids:
        for dim in dims:
            for seed in BUILD_SEEDS:
                argv = ["build", family, "--dim", str(dim), "--seed", str(seed)]
                result = run(main, argv)
                built.append((" ".join(argv), result))
                classified.append((f"{' '.join(argv)} | classify - --format json",
                                   run(main, ["classify", "-", "--format", "json"],
                                       stdin=result[1])))
    return built, classified


def triple_documents():
    """(name, operator + operator2 document) for every ordered pair of triple members."""
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
                for i, first in enumerate(members):
                    for j, second in enumerate(members):
                        yield (f"{name} n={n} seed={seed} members {i},{j}",
                               json.dumps({"n": n, "operator": blocks(first),
                                           "operator2": blocks(second)}))


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


def readers(doc):
    """The argv of each command that reads a document: classify, and beside a base
    ``build --input`` of the family the document names (else Jg)."""
    yield ["classify", "-", "--format", "json"]
    if "base" in doc:
        yield ["build", doc.get("family", "Jg"), "--input", "-"]


def input_runs(main, family_ids):
    """(case key, run) of each reader of every mutant at n = 2."""
    with tempfile.TemporaryDirectory() as tmp:
        docs = input_documents(main, family_ids, (2,), tmp)
    for name, doc in docs.items():
        for argv in readers(doc):
            for change, where, key, mutant in mutants(doc):
                path = key if where is None else f"{where}.{key}"
                yield (f"{' '.join(argv)} < {name}: {change} {path}",
                       run(main, argv, stdin=json.dumps(mutant)))


def draws():
    from gentangent.generators import SplitMix64, random_invertible

    for n in DRAW_DIMS:
        for clamp in DRAW_CLAMPS:
            for seed in DRAW_SEEDS:
                rng = SplitMix64(seed)
                p = random_invertible(n, rng, clamp)
                yield (f"random_invertible n={n} clamp={clamp:g} seed={seed}",
                       (p.tobytes().hex(), rng.next_u64()))


def tolerance_runs(main, family_ids):
    """(case key, run) at --tol 1e-6 and 1e-12, then at GENTANGENT_TOL=1e-6."""
    settings = [(["--tol", value], None) for value in TOLERANCE_VALUES]
    settings.append(([], TOLERANCE_VALUES[0]))
    saved = os.environ.pop("GENTANGENT_TOL", None)
    try:
        for tol_args, env in settings:
            prefix = "" if env is None else f"GENTANGENT_TOL={env} "
            if env is not None:
                os.environ["GENTANGENT_TOL"] = env
            key, record = verify(main, ["--dim", "3", "--trials", "20", *tol_args])
            yield prefix + key, record
            for family in family_ids:
                argv = ["build", family, "--dim", "4", *tol_args]
                built = run(main, argv)
                yield prefix + " ".join(argv), built
                classify = ["classify", "-", "--format", "json", *tol_args]
                yield (f"{prefix}{' '.join(argv)} | {' '.join(classify)}",
                       run(main, classify, stdin=built[1]))
    finally:
        os.environ.pop("GENTANGENT_TOL", None)
        if saved is not None:
            os.environ["GENTANGENT_TOL"] = saved


def tolerance_calls(family_ids):
    """(case key, outcomes) of library predicates at two tolerances other than the default."""
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
    for tol in (Tolerance(1e-3), Tolerance(1e-12)):
        for family in family_ids:
            op = build_family(family, random_base(FAMILIES[family].base_kind, n, 42), tol)
            changed = {"as built": op.matrix,
                       f"+ {TOLERANCE_NUDGE:g}": op.matrix + TOLERANCE_NUDGE,
                       f"column 0 x {TOLERANCE_NUDGE:g}": op.matrix * column}
            for change, m in changed.items():
                moved, sq = BlockOperator.from_matrix(m), m @ m
                yield f"{family} {tol!r} {change}", (
                    family, repr(tol), outcome(close, sq, ident, tol),
                    outcome(close, sq, -ident, tol), outcome(is_degenerate, m, tol),
                    outcome(polynomial_class, moved, tol),
                    *(outcome(classify_pair, moved, metric, tol) for metric in metrics))
        yield (f"signature {tol!r}",
               (repr(tol), *(outcome(signature, metric, tol) for metric in metrics)))


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
    """(case key, record) of the sign tests' callers on each of ``sign_bases``; the
    record starts with the case key's parts."""
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

    def keyed(*record):
        # (kind, seed, change, tolerance, caller), then what the caller gave
        return "; ".join(map(str, record[:5])), record

    tols = [Tolerance(float(v)) for v in TOLERANCE_VALUES]
    metric = {"gram": g0(4).gram.tolist(), "kind": SYMMETRIC}
    for kind, seed, change, j, gram in sign_bases():
        alpha, epsilon, _ = KINDS[kind]
        g = BaseForm(gram, SYMMETRIC)
        case = (kind, seed, change)
        for tol in tols:
            yield keyed(*case, repr(tol), "validate",
                        outcome(AeManifoldData(j, g, alpha, epsilon).validate, tol))
            for lam in (1, -1):
                yield keyed(*case, repr(tol), f"build_diagonal lam={lam}",
                            outcome(build_diagonal, j, lam, tol))
            if alpha == -1:
                yield keyed(*case, repr(tol), "nannicini_metric",
                            outcome(nannicini_metric, j, g, tol))
        doc = json.dumps({"n": 4, "family": "JlamJ+" if alpha == -1 else "FlamF+",
                          "base": {"g": gram.tolist(), "J": j.tolist()}, "metric": metric})
        for value in TOLERANCE_VALUES:
            yield keyed(*case, f"--tol {value}", "classify",
                        *run(main, ["classify", "-", "--format", "json", "--tol", value],
                             stdin=doc))


def fixture_runs(main):
    """(case key, (exit code, stderr, [(file name, content)])) of each fixtures run."""
    with tempfile.TemporaryDirectory() as tmp:
        for dim in FIXTURE_DIMS:
            for seed in FIXTURE_SEEDS:
                out_dir = os.path.join(tmp, f"d{dim}s{seed}")
                args = ["fixtures", "--dim", str(dim), "--seed", str(seed)]
                code, _, err = run(main, [*args, "--out", out_dir])
                files = []
                for name in sorted(os.listdir(out_dir)):
                    with open(os.path.join(out_dir, name)) as fh:
                        files.append((name, fh.read()))
                yield " ".join(args), (code, err, files)


def groups(main, family_ids, names=None):
    """(group name, [(case key, record)]) for every group, or for each of names,
    in a fixed order; the group's digest covers its records."""
    piped = {}

    def build_runs(dims, which):
        if dims not in piped:
            piped[dims] = build_and_classify(main, family_ids, dims)
        return piped[dims][which]

    def verify_runs(settings):
        return [verify(main, ["--dim", str(dim), "--trials", str(trials), "--seed", str(seed)])
                for dim, trials in settings for seed in SEEDS]

    makers = {f"verify --dim {dim} --trials {trials}":
              lambda setting=(dim, trials): verify_runs([setting])
              for dim, trials in VERIFY_RUNS}
    makers.update({
        "verify --dim 5,6 --trials 5": lambda: verify_runs(FIXTURE_DIM_RUNS),
        "verify, failing runs": lambda: [verify(main, args) for args in FAILING_VERIFY_RUNS],
        "build": lambda: build_runs(BUILD_DIMS, 0),
        "build | classify": lambda: build_runs(BUILD_DIMS, 1),
        "build --dim 1,4,5": lambda: build_runs(MORE_BUILD_DIMS, 0),
        "build --dim 1,4,5 | classify": lambda: build_runs(MORE_BUILD_DIMS, 1),
        "classify triples": lambda: [
            (f"classify - --format json < {name}",
             run(main, ["classify", "-", "--format", "json"], stdin=doc))
            for name, doc in triple_documents()],
        "fixtures": lambda: list(fixture_runs(main)),
        "draws": lambda: list(draws()),
        "tolerances": lambda: [*tolerance_runs(main, family_ids), *tolerance_calls(family_ids)],
        "inputs": lambda: list(input_runs(main, family_ids)),
        "signs": lambda: list(sign_runs(main)),
    })
    unknown = [name for name in names or () if name not in makers]
    if unknown:
        raise ValueError(f"unknown group {unknown[0]!r}; groups: {', '.join(map(repr, makers))}")
    for name in makers if names is None else names:
        yield name, makers[name]()


def group_line(name, cases):
    return f"{digest([record for _, record in cases])}  {name} ({len(cases)} runs)"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def case_lines(name, cases):
    """One tab-separated line per run: the group, the case key, the exit code and
    the sha256 of stdout and of stderr.  A fixtures run gives one line per file it
    writes, with the file's sha256 for stdout's.  A library record has no exit
    code ("-"), and the sha256 of its JSON stands for stdout's."""
    for key, record in cases:
        if name == "fixtures":
            code, err, files = record
            rows = [(f"{key} > {file}", code, text, err) for file, text in files]
        elif len(record) >= 3 and isinstance(record[-3], int) and \
                all(isinstance(x, str) for x in record[-2:]):
            rows = [(key, *record[-3:])]  # a record that ends with a CLI run
        else:
            rows = [(key, "-", json.dumps(record), "")]
        for case, code, out, err in rows:
            yield f"{name}\t{case}\t{code}\t{_sha(out)}\t{_sha(err)}"


def committed(path):
    with open(path) as fh:
        return fh.read().splitlines()


def changes(main, family_ids, names=None):
    """Each line that differs from the committed files, for every group or each of
    names: a changed group's digest line, and each case of a group in CASES that
    is changed, added (+) or gone (-)."""
    was_groups = {line.split("  ", 1)[1].rsplit(" (", 1)[0]: line for line in committed(GROUPS)}
    was_cases = {}
    for line in committed(CASES):
        group, key, _ = line.split("\t", 2)
        was_cases.setdefault(group, {})[key] = line
    found = []
    for name, cases in groups(main, family_ids, names):
        line = group_line(name, cases)
        if was_groups.get(name) != line:
            found.append(f"group {name}: {was_groups.get(name)} -> {line}"
                         + ("" if name in was_cases else
                            f" (compare --cases {name!r} on both trees to name the cases)"))
        if name in was_cases:
            now = {line.split("\t")[1]: line for line in case_lines(name, cases)}
            was = was_cases[name]
            for key in [*now, *(k for k in was if k not in now)]:
                if was.get(key) != now.get(key):
                    found.extend(f"{sign} {text}" for sign, text in
                                 (("-", was.get(key)), ("+", now.get(key))) if text)
    return found


def main():
    import argparse

    import gentangent
    from gentangent.ae_zoo import FAMILY_IDS
    from gentangent.cli import main as cli_main

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--cases", nargs="*", metavar="GROUP",
                      help="print one line per run of each group (default: all)")
    mode.add_argument("--check", action="store_true",
                      help="compare every group with the committed files; exit 1 on a change")
    mode.add_argument("--write", action="store_true",
                      help="rewrite the committed files from this tree")
    args = parser.parse_args()
    if args.check:
        found = changes(cli_main, FAMILY_IDS)
        print("\n".join(found) if found else "every group matches the committed files")
        return 1 if found else 0
    if args.cases is not None:
        try:
            for name, cases in groups(cli_main, FAMILY_IDS, args.cases or None):
                for line in case_lines(name, cases):
                    print(line)
        except ValueError as exc:
            parser.error(str(exc))
        return 0
    lines, cases = [], []
    for name, group in groups(cli_main, FAMILY_IDS):
        lines.append(group_line(name, group))
        if name in CASE_GROUPS:
            cases.extend(case_lines(name, group))
    if args.write:
        for path, text in ((GROUPS, lines), (CASES, cases)):
            with open(path, "w") as fh:
                fh.write("".join(f"{line}\n" for line in text))
        return 0
    print(f"# gentangent from {os.path.dirname(gentangent.__file__)}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
