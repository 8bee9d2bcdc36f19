"""Outside-in benchmark of the gentangent CLI.

    python3 perfbench/run.py --workload verify-n3 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``.
With ``--trace 0`` every operation runs as real ``gentangent`` processes, one
at a time (a closed loop with one client), and the end-to-end metrics are
printed.  With ``--trace 1`` the same operations run in this process through
``gentangent.cli.main``, each once untraced and once with every public
function wrapped (see tracing.py), and the per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details: provenance, sample counts and the failures seen.
"""

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYERS, OUTSIDE, Tracer, draws_under, self_nested, summarize
from workloads import REGISTRY_IDS, WORKLOADS, check, operations

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".bench_out"

# The console-script entry point of gentangent, run from the source tree.
GENTANGENT = ("-c", "import sys; from gentangent.cli import main; sys.exit(main())")
SETUP_REPEATS = 21
OP_TIMEOUT_S = 30.0
OP_LIST_LENGTH = 10_000  # more operations than any run gets through
TAIL_BEYOND = 10  # samples above latency_tail_s
TAIL_BLOCKS = 5  # the run's tail is the median of this many blocks' tails
MIN_OPS = TAIL_BLOCKS * (TAIL_BEYOND // TAIL_BLOCKS + 1)
# How long a run may go on past --seconds to reach MIN_OPS operations; with
# OP_TIMEOUT_S it keeps a 55 s run well under 180 s.
EXTRA_S = 60.0

# Single-threaded BLAS for gentangent: at matrix sizes up to 64 x 64 a second
# thread only spins, which makes timings follow the load of other tenants,
# and the two processes of a pipe would otherwise ask 2 CPUs for 4 threads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

END_TO_END = ("setup_s", "latency_p50_s", "latency_tail_s", "cpu_p50_s",
              "peak_rss_mb")

CORE_FUNCTIONS = ("assemble", "compose", "close", "polynomial_class",
                  "signature", "is_degenerate", "musicals")
AE_ZOO_FUNCTIONS = ("build_family", "classify_pair", "isometry_sign",
                    "twin_formula_check")
TRIPLES_FUNCTIONS = ("classify_triple", "f0_commutation", "kahler_roundtrip")


class SetupError(Exception):
    """The program cannot be run from this directory."""


# ---------------------------------------------------------------- processes

@dataclass
class Executed:
    exit_codes: list
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def _drain(files, deadline):
    """Read every file to end of file; raises TimeoutError at the deadline."""
    chunks = {f: [] for f in files}
    with selectors.DefaultSelector() as selector:
        for f in files:
            selector.register(f, selectors.EVENT_READ)
        while selector.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError
            for key, _ in selector.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
    return {f: b"".join(c).decode(errors="replace") for f, c in chunks.items()}


def _reap(proc):
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return usage


def execute(stages, env, timeout=OP_TIMEOUT_S) -> Executed:
    """Run gentangent command lines as a pipe; time it until all have exited.

    CPU time and peak RSS come from each child's wait4 resource usage.  A
    pipe still running at the timeout is killed and reports exit -9.
    """
    procs = []
    upstream = subprocess.DEVNULL
    start = time.perf_counter()
    try:
        for args in stages:
            proc = subprocess.Popen(
                [sys.executable, *GENTANGENT, *args], stdin=upstream,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                cwd=ROOT)
            if upstream is not subprocess.DEVNULL:
                upstream.close()
            upstream = proc.stdout
            procs.append(proc)
        last = procs[-1].stdout
        try:
            text = _drain([last] + [p.stderr for p in procs], start + timeout)
        except TimeoutError:
            for proc in procs:
                proc.kill()
            text = {last: "", procs[0].stderr: "timed out"}
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        usages = [_reap(proc) for proc in procs]
    wall = time.perf_counter() - start
    return Executed(
        [proc.returncode for proc in procs], text[last],
        "".join(text.get(p.stderr, "") for p in procs), wall,
        sum(u.ru_utime + u.ru_stime for u in usages),
        max(u.ru_maxrss for u in usages) / 1024.0)


def tail(values):
    """(value, percentile) of latencies in the order they were measured.

    The percentile is the highest with TAIL_BEYOND samples above it.  It is
    taken in each of TAIL_BLOCKS consecutive blocks of the run, with
    TAIL_BEYOND / TAIL_BLOCKS samples above it in each, and the median over
    the blocks is returned: a slow spell of a shared host that covers one or
    two blocks then does not set the run's tail.  With fewer than MIN_OPS
    samples the maximum is returned as percentile 100.
    """
    n = len(values)
    if n < MIN_OPS:
        return max(values), 100.0
    above = TAIL_BEYOND // TAIL_BLOCKS
    cuts = [n * b // TAIL_BLOCKS for b in range(TAIL_BLOCKS + 1)]
    highs = [sorted(values[lo:hi])[hi - lo - above - 1]
             for lo, hi in zip(cuts, cuts[1:])]
    return statistics.median(highs), 100.0 * (n - TAIL_BEYOND) / n


def _start_once(env):
    """Wall time of one `gentangent --help`: import, argparse and exit."""
    ran = execute((("--help",),), env)
    if ran.exit_codes != [0]:
        raise SetupError(f"gentangent --help failed: {ran.stderr.strip()}")
    return ran.wall_s


def run_processes(workload, seed, seconds):
    """End-to-end run: (metrics, attempted, failures, detail).

    Operations run until ``seconds`` have passed and at least MIN_OPS have
    run, so that latency_tail_s is defined, or until EXTRA_S more seconds
    have passed.  The set-up samples are spread evenly over the run, so they see the same
    machine as the operations do.
    """
    env = _child_env()
    _start_once(env)  # writes the bytecode cache, which later starts reuse
    setup, done, failures = [], [], []
    start = time.perf_counter()
    for op in operations(workload, seed, OP_LIST_LENGTH):
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(done) >= MIN_OPS
                                   or elapsed >= seconds + EXTRA_S):
            break
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(_start_once(env))
        ran = execute(op.stages, env)
        done.append(ran)
        problem = check(op, ran.exit_codes, ran.stdout)
        if problem is not None:
            failures.append(f"{' | '.join(' '.join(s) for s in op.stages)}: "
                            f"{problem} {ran.stderr.strip()[-300:]}")
    setup += [_start_once(env) for _ in range(SETUP_REPEATS - len(setup))]
    latencies = [r.wall_s for r in done]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "cpu_p50_s": (statistics.median(r.cpu_s for r in done), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in done), "MB"),
    }
    detail = {
        "samples": dict({"setup_s": len(setup)},
                        **{m: len(done) for m in END_TO_END[1:]}),
        "latency_tail_percentile": tail_pct,
        "error_rate": len(failures) / len(done),
        "latencies_s": latencies,
        "setup_samples_s": setup,
    }
    return metrics, len(done), failures, detail


# ---------------------------------------------------------------- traced run

class OpTimeout(BaseException):
    """An in-process operation ran past OP_TIMEOUT_S.

    A BaseException, so that no handler in the program under test takes it.
    """


def _raise_timeout(signum, frame):
    raise OpTimeout


def run_in_process(main, op):
    """Run an operation's stages through cli.main: (codes, stdout, in, out).

    A stage still running after OP_TIMEOUT_S is interrupted and reports
    exit -14.
    """
    codes, text, bytes_in, bytes_out = [], "", 0, 0
    for args in op.stages:
        stdin, stdout = io.StringIO(text), io.StringIO()
        saved, sys.stdin = sys.stdin, stdin
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except OpTimeout:
            code = -signal.SIGALRM
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            sys.stdin = saved
        text = stdout.getvalue()
        # gentangent writes ASCII JSON, so characters are bytes
        bytes_in += stdin.tell()
        bytes_out += len(text)
        codes.append(code)
    return codes, text, bytes_in, bytes_out


def _layer_metrics(table, ops, draws, checks, io_bytes, traced_s, plain_s):
    """Per-operation means of the traced quantities, with units."""
    def calls(name):
        return table.get(name, (0, 0.0))[0] / ops

    def self_s(name):
        return table.get(name, (0, 0.0))[1] / ops

    def layer(prefix):
        rows = [v for k, v in table.items() if k.startswith(prefix + ".")]
        return sum(r[0] for r in rows) / ops, sum(r[1] for r in rows) / ops

    out = {}
    for name in LAYERS:
        count, busy = layer(name)
        out[f"{name}.calls"] = (count, "count")
        out[f"{name}.self_s"] = (busy, "s")
    out["generators.matrix_draws"] = (draws / ops, "count")
    out["generators.accept_ratio"] = (
        calls("generators.random_invertible") / (draws / ops) if draws else 0.0,
        "ratio")
    for module, names in (("core", CORE_FUNCTIONS), ("ae_zoo", AE_ZOO_FUNCTIONS),
                          ("triples", TRIPLES_FUNCTIONS)):
        for fn in names:
            out[f"{module}.{fn}.calls"] = (calls(f"{module}.{fn}"), "count")
            out[f"{module}.{fn}.self_s"] = (self_s(f"{module}.{fn}"), "s")
    for pid in REGISTRY_IDS:
        seconds, cases, _ = checks.get(pid, (0.0, 0, 0))
        out[f"registry.{pid}.s"] = (seconds / ops, "s")
        out[f"registry.{pid}.cases"] = (cases / ops, "count")
    out["registry.failures"] = (sum(c[2] for c in checks.values()) / ops, "count")
    out["cli.bytes_in"] = (io_bytes[0] / ops, "bytes")
    out["cli.bytes_out"] = (io_bytes[1] / ops, "bytes")
    out["trace.op_s"] = (statistics.fmean(traced_s), "s")
    out["trace.untraced_op_s"] = (statistics.fmean(plain_s), "s")
    out["trace.overhead_s"] = (out["trace.op_s"][0] - out["trace.untraced_op_s"][0], "s")
    out["trace.outside_s"] = (self_s(OUTSIDE), "s")
    return out


def _write_spans(path, op, spans):
    SPAN_DIR.mkdir(exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump({"op": op.stages, "fields": ["name", "start", "end", "parent"],
                   "spans": spans}, fh)


def run_traced(workload, seed, seconds):
    """Traced run: (metrics, attempted, failures, detail)."""
    sys.path.insert(0, str(ROOT / "src"))
    from gentangent import cli

    ops = operations(workload, seed, OP_LIST_LENGTH)
    run_in_process(cli.main, ops[0])  # warm-up: first calls and lazy imports
    tracer = Tracer()
    table, checks = {}, {}
    draws, io_bytes = 0, [0, 0]
    plain_s, traced_s, failures, nested = [], [], [], set()
    span_file = SPAN_DIR / f"spans-{workload}-seed{seed}.json.gz"
    start = time.perf_counter()
    for op in ops[1:]:
        if traced_s and time.perf_counter() - start >= seconds:
            break
        began = time.perf_counter()
        codes, text, _, _ = run_in_process(cli.main, op)
        plain_s.append(time.perf_counter() - began)
        results = [(codes, text)]
        tracer.install()
        try:
            with tracer.operation():
                codes, text, b_in, b_out = run_in_process(cli.main, op)
        finally:
            tracer.restore()
        results.append((codes, text))
        for codes, text in results:
            problem = check(op, codes, text)
            if problem is not None:
                failures.append(f"{op.stages}: {problem}")
        spans = tracer.spans
        nested.update(self_nested(spans))
        traced_s.append(spans[0][2] - spans[0][1])
        for name, (count, busy) in summarize(spans).items():
            entry = table.setdefault(name, [0, 0.0])
            entry[0] += count
            entry[1] += busy
        draws += draws_under(spans, "generators.matrix", "generators.random_invertible")
        for index, pid, report in tracer.checks:
            spent, cases, failed = checks.get(pid, (0.0, 0, 0))
            checks[pid] = (spent + spans[index][2] - spans[index][1],
                           cases + report.trials, failed + report.failures)
        io_bytes[0] += b_in
        io_bytes[1] += b_out
        if len(traced_s) == 1:
            _write_spans(span_file, op, spans)
        tracer.clear()
    ops_done = len(traced_s)
    metrics = _layer_metrics(table, ops_done, draws, checks, io_bytes,
                             traced_s, plain_s)
    detail = {
        "samples": {"traced_ops": ops_done, "untraced_ops": len(plain_s)},
        # spans directly under a span of their own name: a double wrap
        "double_wrapped": sorted(nested),
        "spans_file": str(span_file.relative_to(ROOT)),
    }
    return metrics, 2 * ops_done, failures, detail


# ---------------------------------------------------------------- provenance

def _blas():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gentangent").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args):
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(), "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gentangent" / "cli.py").is_file():
        print(f"error: no gentangent source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy loads, here or in a child
    runner = run_traced if args.trace else run_processes
    try:
        metrics, attempted, failures, detail = runner(
            args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    detail.update(provenance=provenance(args), failures=failures[:20])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures and not detail.get("double_wrapped"),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
