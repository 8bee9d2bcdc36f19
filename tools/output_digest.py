"""One sha256 per group of gentangent outputs, to show that a change keeps them.

Run it from the repository root once per source tree and compare the lines:

    PYTHONPATH=src python3 tools/output_digest.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/output_digest.py

Every command runs in this process through ``gentangent.cli.main``; each
digest covers the exit code, stdout and stderr of every run in its group:

- ``verify all --format json`` at seeds 1-8, for ``--dim 3 --trials 100``,
  ``--dim 8 --trials 5`` and ``--dim 32 --trials 3``, with each report's
  ``elapsed`` removed
- ``build <family> --dim {2,8,32} --seed {1,2,3}`` over every family, and the
  ``classify - --format json`` of each build's output
- the files that ``fixtures --dim {1,2,3,5,8} --seed {1,2}`` writes, by name
  and content (the paths it prints name a temporary directory)

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
SEEDS = range(1, 9)
BUILD_DIMS = (2, 8, 32)
BUILD_SEEDS = (1, 2, 3)
FIXTURE_DIMS = (1, 2, 3, 5, 8)
FIXTURE_SEEDS = (1, 2)


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


def groups(main, family_ids):
    """(group name, records) in a fixed order."""
    for dim, trials in VERIFY_RUNS:
        records = []
        for seed in SEEDS:
            code, out, err = run(main, ["verify", "all", "--format", "json", "--dim",
                                        str(dim), "--trials", str(trials),
                                        "--seed", str(seed)])
            records.append((code, without_elapsed(out), err))
        yield f"verify --dim {dim} --trials {trials}", records
    built, classified = [], []
    for family in family_ids:
        for dim in BUILD_DIMS:
            for seed in BUILD_SEEDS:
                result = run(main, ["build", family, "--dim", str(dim), "--seed", str(seed)])
                built.append(result)
                classified.append(run(main, ["classify", "-", "--format", "json"],
                                      stdin=result[1]))
    yield "build", built
    yield "build | classify", classified
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


def main():
    import gentangent
    from gentangent.ae_zoo import FAMILY_IDS
    from gentangent.cli import main as cli_main

    print(f"# gentangent from {os.path.dirname(gentangent.__file__)}")
    for name, records in groups(cli_main, FAMILY_IDS):
        print(f"{digest(records)}  {name} ({len(records)} runs)")


if __name__ == "__main__":
    main()
