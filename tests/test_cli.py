import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gentangent as gt
from gentangent import cli

SRC = str(Path(gt.__file__).resolve().parent.parent)


def run_cli(capsys, monkeypatch, args, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _op_doc(op):
    return {"H": op.H.tolist(), "sigma": op.sigma.tolist(),
            "tau": op.tau.tolist(), "K": op.K.tolist()}


def test_classify_canonical_pair(capsys, monkeypatch):
    doc = {"n": 2, "operator": _op_doc(gt.f0(2)),
           "metric": {"gram": gt.g0(2).gram.tolist(), "kind": "symmetric"}}
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["classify", "--format", "json"], json.dumps(doc))
    assert code == 0
    result = json.loads(out)
    assert result["class"] == "ParaHermitian"
    assert result["alpha"] == 1
    assert result["epsilon"] == -1
    assert result["signature"] == [2, 2]


def test_classify_musical_hermitian(capsys, monkeypatch):
    g = gt.BaseForm(np.eye(2), gt.SYMMETRIC)
    doc = {"n": 2, "family": "Jg", "base": {"g": np.eye(2).tolist()},
           "metric": {"gram": gt.induced_metric(g).gram.tolist(),
                      "kind": "symmetric"}}
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["classify", "--format", "json"], json.dumps(doc))
    assert code == 0
    assert json.loads(out)["class"] == "Hermitian"


def test_classify_output_reingests_identically(capsys, monkeypatch):
    doc = {"n": 2, "operator": _op_doc(gt.f0(2)),
           "metric": {"gram": gt.g0(2).gram.tolist(), "kind": "symmetric"}}
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["classify", "--format", "json"], json.dumps(doc))
    assert code == 0
    code2, out2, _ = run_cli(capsys, monkeypatch,
                             ["classify", "--format", "json"], out)
    assert code2 == 0
    assert json.loads(out) == json.loads(out2)


def test_classify_operator_pair(capsys, monkeypatch):
    data = gt.random_ae_pair("Hermitian", 2, seed=3)
    first, second, _ = gt.canonical_triple("hyperC", data)
    doc = {"n": 2, "operator": _op_doc(first), "operator2": _op_doc(second)}
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["classify", "--format", "json"], json.dumps(doc))
    assert code == 0
    assert json.loads(out)["triple"]["kind"] == "Hypercomplex"


def test_classify_lone_operator(capsys, monkeypatch):
    n = 2
    eye, zero = np.eye(n).tolist(), np.zeros((n, n)).tolist()
    doc = {"n": n, "operator": {"H": eye, "sigma": zero, "tau": zero, "K": eye}}
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["classify", "--format", "json"], json.dumps(doc))
    assert code == 0
    inducer = json.loads(out)["inducer"]
    assert inducer["metric_valid"]
    assert not inducer["symplectic_valid"]
    assert "KBlockNotHDual" in inducer["symplectic_violations"]


def test_classify_empty_operator_exits_2(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["classify"],
                           json.dumps({"n": 2, "operator": {}}))
    assert code == 2
    assert "operator" in err


def test_classify_malformed_json_exits_2_with_position(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["classify"], "{\n  bad\n}")
    assert code == 2
    assert "line" in err and "column" in err


def test_classify_wrong_shape_exits_2(capsys, monkeypatch):
    doc = {"n": 2, "operator": {"H": [[1.0]], "sigma": [[0.0]],
                                "tau": [[0.0]], "K": [[1.0]]}}
    code, _, err = run_cli(capsys, monkeypatch, ["classify"], json.dumps(doc))
    assert code == 2
    assert "2x2" in err


def test_verify_single_proposition(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["verify", "P5.f0-commutation", "--dim", "3",
                            "--trials", "50", "--seed", "7"])
    assert code == 0
    assert "pass" in out


def test_verify_json_format(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["verify", "T5.kahler-roundtrip", "--dim", "2",
                            "--trials", "10", "--format", "json"])
    assert code == 0
    [report] = json.loads(out)
    assert report["failures"] == 0 and report["passed"]


def test_verify_unknown_id_exits_2_listing_registry(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["verify", "bogus.id"])
    assert code == 2
    assert "P3.metric-char" in err


def test_verify_all(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["verify", "all", "--dim", "2", "--trials", "5"])
    assert code == 0
    from gentangent.registry import REGISTRY_IDS
    for pid in REGISTRY_IDS:
        assert pid in out


def test_build_with_random_base(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["build", "FJg", "--dim", "2", "--seed", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "FJg"
    op = np.block([[np.array(doc["operator"]["H"]), np.array(doc["operator"]["sigma"])],
                   [np.array(doc["operator"]["tau"]), np.array(doc["operator"]["K"])]])
    assert np.allclose(op @ op, np.eye(2 * doc["n"]))


def test_build_output_classifies(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["build", "Fg", "--dim", "3", "--seed", "1"])
    assert code == 0
    doc = json.loads(out)
    doc["metric"] = {"gram": gt.g0(doc["n"]).gram.tolist(), "kind": "symmetric"}
    code2, out2, _ = run_cli(capsys, monkeypatch,
                             ["classify", "--format", "json"], json.dumps(doc))
    assert code2 == 0
    assert json.loads(out2)["class"] != "Incompatible"


def test_build_from_explicit_base(capsys, monkeypatch):
    doc = {"n": 2, "base": {"g": np.eye(2).tolist()}}
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["build", "Jg", "--input", "-"], json.dumps(doc))
    assert code == 0
    built = json.loads(out)
    m = np.block([[np.array(built["operator"]["H"]), np.array(built["operator"]["sigma"])],
                  [np.array(built["operator"]["tau"]), np.array(built["operator"]["K"])]])
    assert np.allclose(m @ m, -np.eye(4))


def test_build_unknown_family_exits_2(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["build", "nope"])
    assert code == 2
    assert "Jg" in err
    # the musical structures of phi are families of the table, not of the CLI
    code, _, err = run_cli(capsys, monkeypatch, ["build", "Jphi"])
    assert code == 2 and "unknown family 'Jphi'" in err


def test_fixtures_dump(tmp_path, capsys, monkeypatch):
    out_dir = str(tmp_path / "fixtures")
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["fixtures", "--dim", "2", "--seed", "9",
                            "--out", out_dir])
    assert code == 0
    paths = out.strip().splitlines()
    assert len(paths) >= 7
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["seed"] == 9
        assert "n" in doc


def test_fixture_ae_documents_classify(tmp_path, capsys, monkeypatch):
    out_dir = str(tmp_path / "fx")
    run_cli(capsys, monkeypatch,
            ["fixtures", "--dim", "2", "--seed", "4", "--out", out_dir])
    path = f"{out_dir}/ae-hermitian.json"
    with open(path) as fh:
        doc = json.load(fh)
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["classify", path, "--format", "json"])
    assert code == 0
    assert json.loads(out)["class"] != "Incompatible"


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GENTANGENT_TOL", "not-a-number")
    code, _, err = run_cli(capsys, monkeypatch,
                           ["verify", "P3.signature", "--trials", "1"])
    assert code == 2
    # the variable is read even where --tol overrides it
    assert run_cli(capsys, monkeypatch, ["verify", "P3.signature", "--tol", "1e-6"]) == (
        2, "", "error: GENTANGENT_TOL is not a number: 'not-a-number'\n")
    monkeypatch.setenv("GENTANGENT_TOL", "1e-6")
    code, _, _ = run_cli(capsys, monkeypatch,
                         ["verify", "P3.signature", "--trials", "1"])
    assert code == 0


def test_tol_flag_must_be_positive(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch,
                           ["verify", "P3.signature", "--tol", "-1"])
    assert code == 2


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_tolerance_that_is_not_positive_and_finite_exits_2(capsys, monkeypatch, value):
    # Tolerance itself refuses these values; the CLI passes its message on
    args = ["verify", "P2.flat-sharp", "--trials", "1"]
    want = (2, "", "error: tolerance must be positive and finite\n")
    assert run_cli(capsys, monkeypatch, args + ["--tol", value]) == want
    monkeypatch.setenv("GENTANGENT_TOL", value)
    assert run_cli(capsys, monkeypatch, args) == want


@pytest.mark.parametrize("args, flag", [
    (["verify", "all", "--trials", "0"], "--trials"),
    (["verify", "all", "--trials", "-5"], "--trials"),
    (["verify", "all", "--dim", "0"], "--dim"),
    (["build", "Jg", "--dim", "0"], "--dim"),
    (["fixtures", "--dim", "-1"], "--dim"),
])
def test_nonpositive_counts_exit_2(capsys, monkeypatch, args, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, monkeypatch, args)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    (["build", "Jg"], ["--format", "table"]),
    (["fixtures"], ["--format", "table"]),
    (["fixtures"], ["--tol", "0.5"]),
])
def test_option_the_command_does_not_use_exits_2(tmp_path, capsys, monkeypatch,
                                                  command, option):
    # build always prints JSON, and fixtures builds at the default tolerance
    out = ["--out", str(tmp_path)] if command == ["fixtures"] else []
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, monkeypatch, command + out + option)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(option) in capsys.readouterr().err


def _lone_operator_text(h, n="1"):
    return ('{"n": %s, "operator": {"H": [[%s]], "sigma": [[0]], '
            '"tau": [[0]], "K": [[1]]}}' % (n, h))


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
def test_classify_non_finite_entry_exits_2(capsys, monkeypatch, value):
    code, out, err = run_cli(capsys, monkeypatch, ["classify"],
                             _lone_operator_text(value))
    assert code == 2
    assert out == ""
    assert "'H'" in err and "infinite" in err


def test_classify_bool_n_exits_2(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["classify"],
                           _lone_operator_text("1", n="true"))
    assert code == 2
    assert "n must be a positive integer" in err


def test_build_bool_n_exits_2(capsys, monkeypatch):
    doc = {"n": True, "base": {"g": [[1.0]]}}
    code, _, err = run_cli(capsys, monkeypatch,
                           ["build", "Jg", "--input", "-"], json.dumps(doc))
    assert code == 2
    assert "n must be a positive integer" in err



@pytest.mark.parametrize("entry", ['"1e0"', "true", "false", "null"])
def test_classify_non_number_entry_exits_2(capsys, monkeypatch, entry):
    code, out, err = run_cli(capsys, monkeypatch, ["classify"],
                             _lone_operator_text(entry))
    assert code == 2
    assert out == ""
    assert "'H'" in err and "not a number" in err


def test_classify_int_beyond_double_range_exits_2(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch, ["classify"],
                             _lone_operator_text("1" + "0" * 400))
    assert code == 2
    assert out == ""
    assert "'H'" in err and "too large" in err


def test_classify_huge_entries_do_not_overflow(capsys, monkeypatch):
    text = ('{"n": 1, "operator": {"H": [[1e308]], "sigma": [[1e308]], '
            '"tau": [[1e308]], "K": [[1]]}}')
    code, out, err = run_cli(capsys, monkeypatch,
                             ["classify", "--format", "json"], text)
    assert code == 0
    assert err == ""
    inducer = json.loads(out)["inducer"]
    assert inducer["metric_violations"] == ["KBlockNotHDual"]
    assert inducer["symplectic_violations"] == [
        "KBlockNotHDual", "TauNotSkew", "SigmaNotSkew"]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_classify_operator_pair_that_is_no_triple(capsys, monkeypatch, fmt):
    # Jg and Fg of one metric anti-commute but square to -I and +I
    g = gt.random_metric(2, 2, 0, 5)
    doc = {"n": 2, "operator": _op_doc(gt.build_family("Jg", g)),
           "operator2": _op_doc(gt.build_family("Fg", g))}
    code, out, err = run_cli(capsys, monkeypatch,
                             ["classify", "--format", fmt], json.dumps(doc))
    assert code == 0, err
    assert json.loads(out.splitlines()[-1])["triple"] == {
        "kind": "None", "commutation": None, "product": None}
    if fmt == "table":
        assert out.splitlines()[0].split() == ["triple", "kind", "None"]


def test_fixtures_out_below_a_file_exits_2(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    code, out, err = run_cli(capsys, monkeypatch,
                             ["fixtures", "--dim", "2",
                              "--out", str(blocker / "sub")])
    assert code == 2
    assert err.startswith("error:") and "sub" in err
    assert out == ""


def test_classify_deeply_nested_json_exits_2(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["classify"], "[" * 100_000)
    assert code == 2
    assert err.startswith("error:") and "nested too deeply" in err


def test_classify_singular_base_metric_exits_2(capsys, monkeypatch):
    doc = {"n": 2, "family": "Jg", "base": {"g": [[1.0, 1.0], [1.0, 1.0]]}}
    code, _, err = run_cli(capsys, monkeypatch, ["classify"], json.dumps(doc))
    assert code == 2
    assert err == "error: base form is numerically degenerate\n"


@pytest.mark.parametrize("command", [["build", "Jg", "--input", "-"], ["classify", "-"]])
def test_singular_base_below_the_certificate_floor_exits_2(capsys, monkeypatch, command):
    # at --tol 1e-20 the SVD's roundoff sigma_min is above the threshold, but
    # LAPACK cannot invert the Gram, so it is degenerate: no numpy message
    doc = {"n": 2, "family": "Jg", "base": {"g": [[1, 2], [2, 4]]}}
    code, out, err = run_cli(capsys, monkeypatch, [*command, "--tol", "1e-20"],
                             json.dumps(doc))
    assert code == 2 and out == ""
    assert err == "error: base form is numerically degenerate\n"


def _metric_doc(h, gram, kind):
    return json.dumps({"n": 1, "operator": {"H": [[h]], "sigma": [[0]], "tau": [[0]],
                                            "K": [[1]]},
                       "metric": {"gram": gram, "kind": kind}})


@pytest.mark.parametrize("kind", [[1], {"a": 1}, "hermitian", None])
def test_classify_metric_kind_not_a_known_name_exits_2(capsys, monkeypatch, kind):
    code, out, err = run_cli(capsys, monkeypatch, ["classify", "-"],
                             _metric_doc(1, [[0, 1], [1, 0]], kind))
    assert code == 2
    assert "metric: unknown kind" in err
    assert out == ""


@pytest.mark.parametrize("kind, gram", [("symmetric", [[0, 1], [5, 0]]),
                                        ("skew", [[0, 1], [1, 0]]),
                                        ("skew", [[1, 1], [-1, 0]])])
def test_classify_metric_gram_not_of_its_declared_kind_exits_2(capsys, monkeypatch,
                                                               kind, gram):
    code, out, err = run_cli(capsys, monkeypatch, ["classify", "-"],
                             _metric_doc(-1, gram, kind))
    assert code == 2
    assert f"gram declared {kind} is not {kind}" in err
    assert out == ""


def test_classify_metric_gram_of_its_declared_kind_is_read(capsys, monkeypatch):
    for kind, gram in (("symmetric", [[0, 1], [1, 0]]), ("skew", [[0, 1], [-1, 0]]),
                       ("general", [[0, 1], [5, 0]])):
        metric = cli._read_metric({"gram": gram, "kind": kind}, 1, gt.DEFAULT_TOL)
        assert (metric.gram.tolist(), metric.kind) == (gram, kind)
    # the identity operator is no structure, so the pair comes out Incompatible
    code, out, _ = run_cli(capsys, monkeypatch, ["classify", "-", "--format", "json"],
                           _metric_doc(1, [[0, 1], [1, 0]], "symmetric"))
    assert code == 0
    assert json.loads(out)["metric"] == {"gram": [[0, 1], [1, 0]], "kind": "symmetric"}


@pytest.mark.parametrize("kind, gram", [("skew", [[0, 1], [-1, 0]]),
                                        ("general", [[0, 1], [5, 0]])])
def test_classify_structure_against_non_symmetric_metric_exits_2(capsys, monkeypatch,
                                                                 kind, gram):
    # diag(-1, 1) is an almost product structure, isometric or anti-isometric
    # for both Grams, but the (alpha, epsilon) table is read off a signature
    code, out, err = run_cli(capsys, monkeypatch, ["classify", "-"],
                             _metric_doc(-1, gram, kind))
    assert code == 2
    assert err == ("error: the (alpha, epsilon) table needs a symmetric metric, "
                   f"not a {kind} one\n")
    assert out == ""


@pytest.mark.parametrize("operator", [
    {"H": [[1]], "sigma": [[2]], "tau": [[3]], "K": [[4]]},
    {"H": [[1]], "sigma": [[0]], "tau": [[0]], "K": [[1]]},
    {"H": [[0]], "sigma": [[1]], "tau": [[-1]], "K": [[0]]},
])
def test_classify_any_operator_against_skew_metric_exits_2(capsys, monkeypatch, operator):
    # no structure, the identity and an almost complex structure get one answer
    doc = {"n": 1, "operator": operator,
           "metric": {"gram": [[0, -0.5], [0.5, 0]], "kind": "skew"}}
    code, out, err = run_cli(capsys, monkeypatch, ["classify", "-"], json.dumps(doc))
    assert (code, out) == (2, "")
    assert err == "error: the (alpha, epsilon) table needs a symmetric metric, not a skew one\n"


def test_verify_case_with_no_triple_fails_without_traceback(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["verify", "P5.canonical-triples", "--dim", "3", "--trials",
                              "3", "--seed", "5", "--tol", "1e-13", "--format", "json"])
    assert code == 1
    assert "Traceback" not in err
    [report] = json.loads(out)
    assert (report["trials"], report["failures"]) == (24, 1)


def test_verify_library_error_names_the_check(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["verify", "all", "--dim", "3", "--trials", "3",
                              "--seed", "5", "--tol", "1e300"])
    assert code == 2
    assert err == "error: P2.flat-sharp: base form is numerically degenerate\n"
    assert out == ""


def test_verify_twin_pair_missing_the_tolerance_is_a_failed_case(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["verify", "all", "--dim", "3", "--trials", "3",
                              "--seed", "5", "--tol", "1e-13", "--format", "json"])
    assert code == 1
    assert err == ""
    reports = {r["id"]: (r["trials"], r["failures"]) for r in json.loads(out)}
    assert len(reports) == 17
    assert reports["P4.twin-metrics"] == (72, 3)
    assert {pid: f for pid, (_, f) in reports.items() if f} == {
        "P4.mixed-iff": 2, "P4.twin-metrics": 3, "P5.canonical-triples": 1}


@pytest.mark.parametrize("family, base, want, given", [
    ("Jom", {"g": [[1.0, 0.0], [0.0, 1.0]]}, "skew", "symmetric"),
    ("Fom", {"g": [[2.0, 0.0], [0.0, 1.0]]}, "skew", "symmetric"),
    ("Jg", {"omega": [[0.0, 1.0], [-1.0, 0.0]]}, "symmetric", "skew"),
    ("Fg", {"omega": [[0.0, 1.0], [-1.0, 0.0]]}, "symmetric", "skew"),
])
def test_musical_family_from_base_of_the_wrong_kind_exits_2(
        capsys, monkeypatch, family, base, want, given):
    message = f"error: family {family!r} needs a {want} base form, not a {given} one\n"
    code, out, err = run_cli(capsys, monkeypatch, ["build", family, "--input", "-"],
                             json.dumps({"n": 2, "base": base}))
    assert (code, out, err) == (2, "", message)
    code, out, err = run_cli(capsys, monkeypatch, ["classify", "-"],
                             json.dumps({"n": 2, "family": family, "base": base}))
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("family, base, message", [
    ("Jg", {"g": [[0.0, 1.0], [-1.0, 0.0]]}, "base: g is not symmetric"),
    ("Fg", {"g": [[1.0, 3.0], [0.0, 1.0]]}, "base: g is not symmetric"),
    ("JJgFlat", {"g": [[1.0, 3.0], [0.0, 1.0]], "J": [[0.0, -1.0], [1.0, 0.0]]},
     "base: g is not symmetric"),
    ("Jom", {"omega": [[1.0, 0.0], [0.0, 1.0]]}, "base: omega is not skew"),
    ("Fom", {"omega": [[0.0, 1.0], [2.0, 0.0]]}, "base: omega is not skew"),
])
def test_base_form_not_of_its_kind_exits_2(capsys, monkeypatch, family, base, message):
    code, out, err = run_cli(capsys, monkeypatch, ["build", family, "--input", "-"],
                             json.dumps({"n": 2, "base": base}))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, err = run_cli(capsys, monkeypatch, ["classify", "-"],
                             json.dumps({"n": 2, "family": family, "base": base}))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_base_with_both_g_and_omega_exits_2(capsys, monkeypatch):
    # reading one and dropping the other would answer a question not asked
    base = {"g": [[2.0, 0.0], [0.0, 2.0]], "omega": [[0.0, 1.0], [-1.0, 0.0]]}
    message = "error: base: unexpected key 'g' (reads omega)\n"
    for family in ("Jg", "Jom"):
        code, out, err = run_cli(capsys, monkeypatch, ["build", family, "--input", "-"],
                                 json.dumps({"n": 2, "base": base}))
        assert (code, out, err) == (2, "", message)
        code, out, err = run_cli(capsys, monkeypatch, ["classify", "-"],
                                 json.dumps({"n": 2, "family": family, "base": base}))
        assert (code, out, err) == (2, "", message)


def test_base_with_j_and_no_g_exits_2(capsys, monkeypatch):
    # J is read only beside g: next to omega it would be dropped
    base = {"omega": [[0.0, 1.0], [-1.0, 0.0]], "J": [[0.0, -1.0], [1.0, 0.0]]}
    message = "error: base: unexpected key 'J' (reads omega)\n"
    for family in ("Jom", "JlamJ+"):
        code, out, err = run_cli(capsys, monkeypatch, ["build", family, "--input", "-"],
                                 json.dumps({"n": 2, "base": base}))
        assert (code, out, err) == (2, "", message)
        code, out, err = run_cli(capsys, monkeypatch, ["classify", "-"],
                                 json.dumps({"n": 2, "family": family, "base": base}))
        assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("where, key, message", [
    (None, "bogus", "top level: unexpected key 'bogus' (reads n, family, base, operator, metric)"),
    ("metric", "extra", "metric: unexpected key 'extra' (reads gram, kind)"),
    ("operator", "L", "operator: unexpected key 'L' (reads H, sigma, tau, K)"),
    ("base", "b", "base: unexpected key 'b' (reads g, J)"),
], ids=["top-level", "metric", "operator", "base-b"])
def test_key_no_reader_reads_exits_2_naming_it(capsys, monkeypatch, where, key, message):
    # the family id, base and operator that build writes, and a metric
    code, out, _ = run_cli(capsys, monkeypatch, ["build", "JJgFlat", "--dim", "2", "--seed", "3"])
    doc = json.loads(out)
    doc["metric"] = {"gram": gt.g0(2).gram.tolist(), "kind": "symmetric"}
    code, out, _ = run_cli(capsys, monkeypatch, ["classify", "-"], json.dumps(doc))
    assert code == 0
    (doc if where is None else doc[where])[key] = 3
    code, out, err = run_cli(capsys, monkeypatch, ["classify", "-"], json.dumps(doc))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unknown_key_in_operator2_exits_2(capsys, monkeypatch):
    block = {"H": [[0]], "sigma": [[-1]], "tau": [[1]], "K": [[0]]}
    doc = {"n": 1, "operator": block, "operator2": {**block, "sigma2": [[0]]}}
    code, out, err = run_cli(capsys, monkeypatch, ["classify", "-"], json.dumps(doc))
    assert (code, out) == (2, "")
    assert err == "error: operator2: unexpected key 'sigma2' (reads H, sigma, tau, K)\n"


def test_classify_output_and_fixture_seed_read_back(capsys, monkeypatch):
    # the fields classify writes and the seed fixtures writes are accepted unread
    block = {"H": [[0]], "sigma": [[-1]], "tau": [[1]], "K": [[0]]}
    for doc in ({"n": 1, "seed": 7, "operator": block},
                {"n": 1, "operator": block, "operator2": block}):
        code, out, _ = run_cli(capsys, monkeypatch, ["classify", "-", "--format", "json"],
                               json.dumps(doc))
        assert code == 0 and ("inducer" in out or "triple" in out)
        code, again, _ = run_cli(capsys, monkeypatch, ["classify", "-", "--format", "json"], out)
        assert (code, again) == (0, out)
    code, out, _ = run_cli(capsys, monkeypatch, ["build", "Jg", "--input", "-"],
                           json.dumps({"n": 1, "seed": 7, "base": {"g": [[1]]}}))
    assert code == 0


@pytest.mark.parametrize("option", [["--dim", "5"], ["--seed", "3"], ["--dim", "2", "--seed", "1"]])
def test_build_input_excludes_dim_and_seed(capsys, monkeypatch, option):
    # the dimension and the draw come from the document: an option beside it
    # was dropped without a word
    doc = {"n": 2, "base": {"g": [[1, 0], [0, 1]]}}
    code, out, err = run_cli(capsys, monkeypatch, ["build", "Jg", "--input", "-", *option],
                             json.dumps(doc))
    assert (code, out, err) == (2, "", "error: --input excludes --dim and --seed\n")


def test_classify_operator2_with_metric_exits_2_naming_both(capsys, monkeypatch):
    # a triple report and a pair class answer different documents; answering
    # one would drop the other key without a word
    doc = {"n": 1, "operator": {"H": [[0]], "sigma": [[-1]], "tau": [[1]], "K": [[0]]},
           "operator2": {"H": [[-1]], "sigma": [[0]], "tau": [[0]], "K": [[1]]},
           "metric": {"gram": [[0, 0.5], [0.5, 0]], "kind": "symmetric"}}
    code, out, err = run_cli(capsys, monkeypatch,
                             ["classify", "-", "--format", "json"], json.dumps(doc))
    assert (code, out) == (2, "")
    assert "operator2" in err and "metric" in err
    del doc["metric"]
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["classify", "-", "--format", "json"], json.dumps(doc))
    assert code == 0 and "triple" in json.loads(out)


@pytest.mark.parametrize("beside", [{}, {"operator": {"H": [[0]], "sigma": [[-1]],
                                                       "tau": [[1]], "K": [[0]]}}],
                         ids=["alone", "beside-operator"])
def test_classify_base_without_family_exits_2_naming_family(capsys, monkeypatch, beside):
    # base data was refused as an unexpected key, as if classify had no use for it
    doc = {"n": 1, "base": {"g": [[1]]}, **beside}
    code, out, err = run_cli(capsys, monkeypatch, ["classify", "-"], json.dumps(doc))
    assert (code, out, err) == (2, "", "error: base data needs a family id\n")
    # and its mirror: a family id without base data
    doc = {"n": 1, "family": gt.FAMILY_IDS[0], **beside}
    code, out, err = run_cli(capsys, monkeypatch, ["classify", "-"], json.dumps(doc))
    assert (code, out, err) == (2, "", "error: a family id needs base data\n")


def test_classify_operator_next_to_family_and_base_must_match(capsys, monkeypatch):
    # a family built from base data that disagrees with the blocks beside it
    # was dropped without a word, and the blocks classified
    doc = {"n": 1, "operator": {"H": [[0]], "sigma": [[-1]], "tau": [[1]], "K": [[0]]},
           "family": "Fg", "base": {"g": [[1]]},
           "metric": {"gram": [[0, 0.5], [0.5, 0]], "kind": "symmetric"}}
    code, out, err = run_cli(capsys, monkeypatch,
                             ["classify", "-", "--format", "json"], json.dumps(doc))
    assert (code, out) == (2, "")
    assert "operator" in err and "family 'Fg'" in err
    # the blocks next to a family id are what build writes: they must agree
    doc["family"] = "Jg"
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["classify", "-", "--format", "json"], json.dumps(doc))
    assert code == 0 and json.loads(out)["class"] == "Norden"
    for key in ("family", "base"):
        partial = {k: v for k, v in doc.items() if k != key}
        code, out, err = run_cli(capsys, monkeypatch, ["classify", "-"], json.dumps(partial))
        assert (code, out) == (2, "") and "base" in err


@pytest.mark.parametrize("family", ["Jom", "JJgFlat", "FJg"])
def test_build_output_with_family_and_base_classifies(capsys, monkeypatch, family):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["build", family, "--dim", "4", "--seed", "3"])
    assert code == 0
    doc = json.loads(out)
    code, out, _ = run_cli(capsys, monkeypatch, ["classify", "-", "--format", "json"], out)
    assert code == 0 and json.loads(out)["operator"] == doc["operator"]


def test_closed_stdout_exits_141_without_a_traceback():
    # 165 kB of output, past a pipe's buffer: the writer meets the closed pipe
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    with subprocess.Popen(
            [sys.executable, "-c", "import sys; from gentangent.cli import main; sys.exit(main())",
             "build", "Jom", "--dim", "48", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = proc.stdout.read(50)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
    assert head.startswith(b'{"n": 48')
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_in_process_main_with_a_stringio_stdout_returns_its_code():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["build", "Jom", "--dim", "4", "--seed", "1"]) == 0
    assert json.loads(out.getvalue())["n"] == 4


def test_verify_case_a_structure_test_refuses_is_a_failed_case(capsys, monkeypatch):
    # at 1e-13 the combine-law triple of trial 15 is refused as not
    # anti-commuting: one failed case, which ends that check, and every
    # check still reports
    code, out, err = run_cli(capsys, monkeypatch,
                             ["verify", "all", "--dim", "3", "--trials", "20",
                              "--seed", "1", "--tol", "1e-13", "--format", "json"])
    assert (code, err) == (1, "")
    reports = {r["id"]: (r["trials"], r["failures"]) for r in json.loads(out)}
    assert len(reports) == 17
    assert reports["P5.combine-law"] == (16, 1)
    assert {pid: f for pid, (_, f) in reports.items() if f} == {
        "P2.flat-sharp": 1, "P4.triangular-iff": 7, "P4.mixed-iff": 10,
        "P4.twin-metrics": 19, "P5.canonical-triples": 1, "P5.combine-law": 1}


G0_METRIC = {"gram": gt.g0(2).gram.tolist(), "kind": "symmetric"}
NOT_A_PAIR = "error: base: (J, g) is not an (alpha, epsilon) pair\n"


def test_base_whose_square_sign_is_undetermined_exits_2(capsys, monkeypatch):
    # J^2 = -I to 2.3e-6, above 1e-6 ||I||: the square test that refuses
    # diag(J, J^T) as "neither" refuses J as well
    base = {"g": [[1.0, 0.0], [0.0, 1.0]], "J": [[1.6e-6, -1.0], [1.0, 0.0]]}
    doc = {"n": 2, "family": "JlamJ+", "base": base, "metric": G0_METRIC}
    assert run_cli(capsys, monkeypatch, ["classify", "-", "--tol", "1e-6"],
                   json.dumps(doc)) == (2, "", NOT_A_PAIR)
    assert run_cli(capsys, monkeypatch, ["build", "JlamJ+", "--input", "-", "--tol", "1e-6"],
                   json.dumps({"n": 2, "base": base})) == (2, "", NOT_A_PAIR)


def test_base_with_zero_g_has_no_isometry_sign_and_exits_2(capsys, monkeypatch):
    base = {"g": [[0.0, 0.0], [0.0, 0.0]], "J": [[0.0, -1.0], [1.0, 0.0]]}
    doc = {"n": 2, "family": "JlamJ+", "base": base, "metric": G0_METRIC}
    assert run_cli(capsys, monkeypatch, ["classify", "-"], json.dumps(doc)) == (2, "", NOT_A_PAIR)
