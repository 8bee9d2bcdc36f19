"""Run the benchmark over many seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --out perfbench/baseline

Each of two sets runs every workload in BENCHMARK.json once per seed for
run_seconds (set k uses seeds 10*k+1 .. 10*k+10), interleaving the
workloads; then one traced run per workload gives the per-layer baseline.
For every end-to-end metric and workload the report gives each set's median and its spread, the distance
between the first and third quartile over the median, and how far the later
set's median moved from the first, against the bound in BENCHMARK.json.
``results.json`` keeps every run's result line and details.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n"
                           f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]),
            "detail": json.loads(lines[-2])["detail"]}


def spread(values):
    """Interquartile distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(metric, before, after):
    """Share by which the later median is worse than the earlier one."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def report(bench, runs):
    lines = ["# Steadiness of the end-to-end metrics", "",
             f"{SETS} sets of runs of the same code; each set runs every "
             "workload once per seed.  Spread is (Q3 - Q1) / median over a "
             "set's runs; worse is how far the last set's median is worse "
             "than the first's.  Both are shares of the median.  Within "
             "bound: every spread (setup_s exempt) and worse are at most "
             "the bound.", ""]
    prov = runs[0]["detail"]["provenance"]
    lines += [f"Machine: {prov['cpu_model']}, nproc {prov['nproc']}, Python "
              f"{prov['python']}, numpy {prov['numpy']} ({prov['blas']}); "
              f"source {prov['git_commit'] or prov['src_sha256']}; "
              f"{prov['seconds']} s per run.", ""]
    header = "| workload | metric | bound |" + "".join(
        f" set {k} median | set {k} spread |" for k in range(SETS)) + \
        " worse | within bound | spread < bound/3 |"
    lines += [header, "|" + "---|" * (header.count("|") - 1)]
    for w in bench["workloads"]:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            cols, medians, spreads = [], [], []
            for k in range(SETS):
                values = [r["result"]["metrics"][name]["value"] for r in runs
                          if r["workload"] == w["name"] and r["set"] == k
                          and r["trace"] == 0]
                spreads.append(spread(values))
                medians.append(statistics.median(values))
                cols.append(f" {medians[-1]:.4g} | {spreads[-1]:.3f} |")
            worse = worsening(metric, medians[0], medians[-1])
            bound = metric["bound"]
            # set-up time is exempt from the spread rule, not from the drift one
            exempt = name == "setup_s" and max(spreads) > bound
            within = worse <= bound and (exempt or max(spreads) <= bound)
            steady = max(spreads) < bound / 3
            lines.append(f"| {w['name']} | {name} | {bound} |"
                         + "".join(cols) + f" {worse:+.3f} |"
                         f" {'yes' if within else 'NO'}"
                         f"{' (spread exempt)' if exempt else ''} |"
                         f" {'yes' if steady else 'NO'} |")
    lines += ["", "## Operations and failures", "",
              "| workload | trace | runs | attempted | failed | runs not correct |",
              "|---|---|---|---|---|---|"]
    for w in bench["workloads"]:
        for trace in (0, 1):
            sel = [r for r in runs if r["workload"] == w["name"] and r["trace"] == trace]
            lines.append(
                f"| {w['name']} | {trace} | {len(sel)} | "
                f"{sum(r['result']['attempted'] for r in sel)} | "
                f"{sum(r['result']['failed'] for r in sel)} | "
                f"{sum(not r['result']['correct'] for r in sel)} |")
    failures = [f"- {r['workload']} seed {r['seed']} trace {r['trace']}: {f}"
                for r in runs for f in r["detail"]["failures"]]
    if failures:
        lines += ["", "Failed operations:", ""] + failures
    lines += ["", "## Traced run, per layer (means per operation)", ""]
    traced = [r for r in runs if r["trace"] == 1]
    lines += ["| metric | " + " | ".join(r["workload"] for r in traced) + " |",
              "|---|" + "---|" * len(traced)]
    for metric in bench["per_layer"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in traced]
        lines.append(f"| {metric['name']} ({metric['unit']}) | "
                     + " | ".join(f"{v:.4g}" for v in values) + " |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    runs = []
    for k in range(SETS):
        for i in range(RUNS):
            for w in names:
                run = run_once(w, k * RUNS + i + 1, seconds, 0)
                runs.append(dict(run, set=k))
                print(w, run["seed"], json.dumps(run["result"]["metrics"]),
                      file=sys.stderr, flush=True)
    for w in names:
        runs.append(dict(run_once(w, 1, seconds, 1), set=None))
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.json").write_text(json.dumps(runs, indent=1) + "\n")
    (args.out / "STEADINESS.md").write_text(report(bench, runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
