"""What a fresh interpreter loads for ``import gentangent`` and each command,
and what the CLI leaves for the interpreter's exit.

Each case runs in its own process, because this test process has long since
imported everything; it asserts which modules load, not how long they take.
"""

import atexit
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gentangent

SRC = str(Path(gentangent.__file__).resolve().parent.parent)

# Imports the package and, given CLI arguments after the output path, runs
# the CLI on them; the names in sys.modules go to the output path either way.
PROBE = """\
import json, sys
import gentangent
try:
    if sys.argv[2:]:
        from gentangent.cli import main
        sys.exit(main(sys.argv[2:]))
finally:
    with open(sys.argv[1], "w") as fh:
        json.dump(sorted(sys.modules), fh)
"""


def _loaded(tmp_path, *args, stdin="", code=0):
    out = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    ran = subprocess.run([sys.executable, "-c", PROBE, str(out), *args], input=stdin,
                         capture_output=True, text=True, env=env, timeout=60)
    assert ran.returncode == code, ran.stderr
    return set(json.loads(out.read_text()))


def _submodules(modules):
    return {m for m in modules if m.startswith("gentangent.")}


def test_import_loads_no_submodule_and_no_numpy(tmp_path):
    modules = _loaded(tmp_path)
    assert "gentangent" in modules
    assert _submodules(modules) == set()
    assert not {"numpy", "dataclasses"} & modules


@pytest.mark.parametrize("args, code", [(("--help",), 0), (("verify",), 2)])
def test_help_and_usage_errors_load_no_numpy(tmp_path, args, code):
    modules = _loaded(tmp_path, *args, code=code)
    assert _submodules(modules) == {"gentangent.cli", "gentangent.errors"}
    assert not {"numpy", "dataclasses"} & modules


def test_build_loads_neither_registry_nor_triples(tmp_path):
    modules = _loaded(tmp_path, "build", "Jom", "--dim", "4")
    assert {"gentangent.ae_zoo", "gentangent.generators"} <= modules
    assert not {"gentangent.registry", "gentangent.triples", "dataclasses"} & modules


def test_classify_of_an_operator_loads_no_registry_generators_or_triples(tmp_path):
    op = gentangent.f0(2)
    doc = {"n": 2, "operator": {"H": op.H.tolist(), "sigma": op.sigma.tolist(),
                                "tau": op.tau.tolist(), "K": op.K.tolist()}}
    modules = _loaded(tmp_path, "classify", "-", "--format", "json",
                      stdin=json.dumps(doc))
    assert {"gentangent.core", "gentangent.gen_metrics", "gentangent.ae_zoo"} <= modules
    assert not {"gentangent.registry", "gentangent.generators",
                "gentangent.triples", "dataclasses"} & modules


@pytest.mark.parametrize("args, module", [
    (("verify", "all", "--dim", "3", "--trials", "1"), "gentangent.registry"),
    (("fixtures", "--dim", "3", "--out", "{tmp}"), "gentangent.canonical"),
])
def test_verify_and_fixtures_load_no_dataclasses(tmp_path, args, module):
    modules = _loaded(tmp_path, *(a.format(tmp=tmp_path / "fx") for a in args))
    assert module in modules and "dataclasses" not in modules


# Registers its handler before the CLI does; handlers run last in, first out,
# so it runs after the CLI's and reports what that one left behind.
LATE_HANDLER = """\
import atexit, gc, json, sys
atexit.register(lambda: print(json.dumps({"freeze_count": gc.get_freeze_count()})))
from gentangent.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_cli_process_freezes_the_heap_at_exit_and_keeps_its_output(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    ran = subprocess.run([sys.executable, "-c", LATE_HANDLER, "build", "Jom", "--dim", "32"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert ran.returncode == 0, ran.stderr
    built, late = ran.stdout.splitlines()
    doc = json.loads(built)
    assert doc["n"] == 32 and len(doc["operator"]["K"]) == 32
    assert json.loads(late)["freeze_count"] > 0


def test_in_process_main_leaves_the_collector_as_it_was(capsys):
    from gentangent.cli import main

    before = (gc.get_freeze_count(), gc.isenabled(), atexit._ncallbacks())
    for _ in range(2):
        assert main(["build", "Jom", "--dim", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 4
    assert (gc.get_freeze_count(), gc.isenabled(), atexit._ncallbacks()) == before
