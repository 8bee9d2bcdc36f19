"""Tests of the benchmark itself:  python3 -m pytest -q perfbench/selftest.py"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, check, operations  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run_benchmark(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)
    return done


def test_benchmark_json_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCH["workloads"]} <= set(workloads.WORKLOADS)
    # 4 + 22 runs per workload, each with up to about 8 s beyond run_seconds,
    # must fit in 3420 s
    runs = 4 + 22 * len(BENCH["workloads"])
    assert runs * (BENCH["run_seconds"] + 8) <= 3420
    assert {m["name"] for m in BENCH["end_to_end"]} == set(run.END_TO_END)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_same_seed_same_operations():
    for workload in workloads.WORKLOADS:
        assert operations(workload, 7, 40) == operations(workload, 7, 40)
        assert operations(workload, 7, 40) != operations(workload, 8, 40)
        assert operations(workload, 7, 40)[:5] == operations(workload, 7, 5)


def test_pipe_operations_cover_families_and_dims():
    ops = operations("pipe-classify", 3, 400)
    assert {op.family for op in ops} == set(workloads.PIPE_FAMILIES)
    assert {op.n for op in ops} == set(workloads.PIPE_DIMS)
    assert len(workloads.FAMILY_IDS) == 14
    assert set(workloads.FAMILY_IDS) - set(workloads.PIPE_FAMILIES) == {"Jg", "Fg"}


@pytest.mark.xfail(strict=True, reason="known defect: build Jg/Fg draws base "
                   "metrics that classify calls NotInjective")
def test_known_defect_ill_conditioned_pipe():
    # The families and size pipe-classify leaves out.  When this passes, the
    # defect is fixed and PIPE_FAMILIES and PIPE_DIMS can take them back.
    from gentangent import cli

    wrong = []
    for family in sorted(workloads.DEFECT_FAMILIES):
        for seed in range(300):
            op = Op((("build", family, "--dim", "2", "--seed", str(seed)),
                     ("classify", "-", "--format", "json")), family, 2)
            codes, text, _, _ = run.run_in_process(cli.main, op)
            wrong += [problem] if (problem := check(op, codes, text)) else []
    assert wrong == []


def _shrink(stage):
    stage = list(stage)
    if "--trials" in stage:
        stage[stage.index("--trials") + 1] = "1"
    return tuple(stage)


@pytest.fixture
def tiny(monkeypatch):
    """Each workload's own operations, cut to one trial per check."""
    real = run.operations

    def operations_(workload, seed, count):
        return [Op(tuple(_shrink(s) for s in op.stages), op.family, op.n)
                for op in real(workload, seed, count)]

    monkeypatch.setattr(run, "operations", operations_)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(tiny, workload):
    metrics, attempted, failures, detail = run.run_processes(workload, 1, 0)
    assert (attempted, failures) == (run.MIN_OPS, [])
    assert {n: u for n, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v > 0 for v, _ in metrics.values())
    assert detail["samples"]["setup_s"] == run.SETUP_REPEATS
    assert detail["latency_tail_percentile"] == pytest.approx(100 / 3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced(tiny, workload):
    metrics, attempted, failures, detail = run.run_traced(workload, 1, 0)
    assert (attempted, failures) == (2, [])
    assert {n: u for n, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert detail["double_wrapped"] == []
    assert (ROOT / detail["spans_file"]).is_file()
    if workload.startswith("verify"):
        assert metrics["registry.failures"][0] == 0
        assert all(metrics[f"registry.{pid}.cases"][0] >= 1
                   for pid in workloads.REGISTRY_IDS)


def test_command_prints_result_last():
    done = _run_benchmark("--workload", "pipe-classify", "--seed", "1",
                          "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    prov = json.loads(lines[-2])["detail"]["provenance"]
    assert (prov["workload"], prov["seed"]) == ("pipe-classify", 1)
    assert {"numpy", "blas", "blas_threads", "python", "nproc", "cpu_model",
            "git_commit", "src_sha256"} <= set(prov)


def test_without_source_exits_nonzero_and_prints_nothing():
    bare = ROOT / ".bench_out" / "no-source"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run_benchmark("--workload", "pipe-classify", "--seed", "1",
                              "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""


def _repeated_op(monkeypatch, op):
    monkeypatch.setattr(run, "operations",
                        lambda workload, seed, count: [op] * count)
    return run.run_processes("pipe-classify", 1, 0)


def test_injected_wrong_verdict_raises_error_rate(monkeypatch):
    # Jom induces a symplectic form; labelling it Jg makes the oracle expect
    # a metric, as a wrong verdict from the program would.
    right = Op((("build", "Jom", "--dim", "2", "--seed", "5"),
                ("classify", "-", "--format", "json")), "Jom", 2)
    _, attempted, failures, detail = _repeated_op(monkeypatch, right)
    assert (failures, detail["error_rate"]) == ([], 0.0)
    wrong = Op(right.stages, "Jg", 2)
    _, attempted, failures, detail = _repeated_op(monkeypatch, wrong)
    assert (len(failures), detail["error_rate"]) == (attempted, 1.0)
    assert "expected (True, False)" in failures[0]


def test_injected_bad_exit_raises_error_rate(monkeypatch):
    bad = Op((("verify", "no-such-check", "--format", "json"),))
    _, attempted, failures, detail = _repeated_op(monkeypatch, bad)
    assert (len(failures), detail["error_rate"]) == (attempted, 1.0)
    assert "exit codes [2]" in failures[0]


def test_oracle_rejects_failed_reports_and_non_finite_json():
    op = operations("verify-n3", 1, 1)[0]
    reports = [{"id": pid, "trials": 3, "failures": 0, "passed": True,
                "max_residual": 0.0} for pid in workloads.REGISTRY_IDS]
    assert check(op, [0], json.dumps(reports)) is None
    assert check(op, [1], json.dumps(reports)) is not None
    failing = [dict(r) for r in reports]
    failing[4].update(failures=2, passed=False)
    assert "2 failures" in check(op, [0], json.dumps(failing))
    assert "non-finite" in check(op, [0], json.dumps(reports).replace(
        '"max_residual": 0.0', '"max_residual": NaN', 1))
    assert check(op, [0], json.dumps(reports[:-1])) is not None


def test_tail_percentile():
    # five blocks of four; each block's tail has two samples above it
    values = [float(v) for v in range(1, 21)]
    assert run.tail(values) == (10.0, 50.0)
    # a slow spell over one block does not move the median of the blocks
    assert run.tail(values[:16] + [10 * v for v in values[16:]]) == (10.0, 50.0)
    assert run.tail(values[:15]) == (7.0, pytest.approx(100 / 3))
    assert run.tail(values[:14]) == (14.0, 100.0)


def test_wrappers_rebound_then_restored():
    import gentangent
    from gentangent import ae_zoo, cli, core, generators, registry

    originals = {
        "close": core.close, "build_family": ae_zoo.build_family,
        "main": cli.main, "run_check": registry.run_check,
        "assemble": vars(core.BlockOperator)["assemble"],
        "matrix": vars(generators.SplitMix64)["matrix"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert core.close is not originals["close"]
        assert gentangent.close is core.close
        assert registry.build_family is ae_zoo.build_family
        assert cli.build_family is ae_zoo.build_family
        assert ae_zoo.build_family is not originals["build_family"]
        op = operations("pipe-classify", 2, 1)[0]
        with tracer.operation():
            codes, text, _, _ = run.run_in_process(cli.main, op)
        assert check(op, codes, text) is None
    finally:
        tracer.restore()
    assert core.close is originals["close"]
    assert gentangent.close is originals["close"]
    assert gentangent.core.close is originals["close"]
    assert registry.build_family is originals["build_family"]
    assert cli.build_family is originals["build_family"]
    assert cli.main is originals["main"]
    assert registry.run_check is originals["run_check"]
    assert vars(core.BlockOperator)["assemble"] is originals["assemble"]
    assert vars(generators.SplitMix64)["matrix"] is originals["matrix"]

    table = tracing.summarize(tracer.spans)
    root = tracer.spans[0]
    assert root[0] == tracing.OUTSIDE
    assert sum(busy for _, busy in table.values()) == pytest.approx(
        root[2] - root[1], rel=1e-9)
    assert table["cli.main"][0] == 2
    assert table["ae_zoo.build_family"][0] >= 1


def test_double_wrap_is_caught_and_undone(tiny, monkeypatch):
    from gentangent import core

    original = core.close
    install = tracing.Tracer.install

    def install_twice(self):
        install(self)
        first, self._saved = self._saved, []
        install(self)  # wraps the wrappers
        self._saved = first + self._saved

    monkeypatch.setattr(tracing.Tracer, "install", install_twice)
    metrics, attempted, failures, detail = run.run_traced("verify-n32", 1, 0)
    assert "core.close" in detail["double_wrapped"]
    assert core.close is original


def test_process_past_timeout_is_killed_and_fails():
    # about 15 s: random_invertible's rejection loop rarely accepts at n = 64
    op = Op((("verify", "P4.twin-metrics", "--dim", "64", "--trials", "1"),))
    ran = run.execute(op.stages, run._child_env(), timeout=2.0)
    assert ran.exit_codes == [-9]
    assert check(op, ran.exit_codes, ran.stdout) is not None


def test_hung_in_process_stage_is_interrupted(monkeypatch):
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.05)

    def stuck(argv):
        while True:
            pass

    codes, _, _, _ = run.run_in_process(stuck, Op((("verify", "all"),)))
    assert codes == [-14]
