"""Every document the CLI writes reads back through each reader that needs
what it holds.

``build`` writes the family document (n, family, base, operator); each file
of ``fixtures`` is such a document with its seed, and the ``ae-*`` files a G0
metric, the Kähler file the rest of its data, beside it.  Each of them
classifies, and ``build --input`` of every family of its base's kind keeps
the base byte for byte; of its own family, it writes the family document
back unchanged, so ``classify`` answers as for that ``build`` output.  What
``classify`` writes classifies again to the same output.
"""

import json

import pytest

from gentangent import cli
from gentangent.ae_zoo import FAMILIES, FAMILY_IDS

from test_input_mutants import output_digest

DIMS = (1, 2, 4)
FIXTURE_SEEDS = (1, 2)
BUILT = ("n", "family", "base", "operator")
CLASSIFY = ["classify", "-", "--format", "json"]


def run(args, doc):
    return output_digest.run(cli.main, args, stdin=doc if isinstance(doc, str) else json.dumps(doc))


def of_the_base_kind(family):
    """The families that take the base data of family's kind: the same lone
    form, or (J, g) data of the same alpha."""
    row = FAMILIES[family]
    return [f for f in FAMILY_IDS if FAMILIES[f].base_kind == row.base_kind
            or row.alpha is not None and FAMILIES[f].alpha == row.alpha]


def built_documents():
    for family in FAMILY_IDS:
        for dim in DIMS:
            code, out, err = run(["build", family, "--dim", str(dim), "--seed", "1"], "")
            assert (code, err) == (0, ""), family
            yield f"build {family} --dim {dim}", out


def fixture_documents(tmp_path):
    for dim in DIMS:
        for seed in FIXTURE_SEEDS:
            out_dir = tmp_path / f"d{dim}s{seed}"
            code, out, _ = run(["fixtures", "--dim", str(dim), "--seed", str(seed),
                                "--out", str(out_dir)], "")
            assert code == 0
            assert sorted(p.name for p in out_dir.iterdir()) == sorted(
                ["metric.json", "symplectic.json", "kahler.json",
                 *(f"ae-{kind}.json" for kind in ("hermitian", "indefinitehermitian", "norden",
                                                   "parahermitian", "productriemannian"))])
            for path in sorted(out_dir.iterdir()):
                yield f"fixtures --dim {dim} --seed {seed} > {path.name}", path.read_text()


def _read_back(name, text):
    doc = json.loads(text)
    code, answer, err = run(CLASSIFY, text)
    assert (code, err) == (0, ""), name
    # the classify output reads back to itself
    assert run(CLASSIFY, answer) == (0, answer, ""), name
    family = doc["family"]
    written = json.dumps({key: doc[key] for key in BUILT}) + "\n"
    code, out, err = run(["build", family, "--input", "-"], text)
    assert (code, out, err) == (0, written, ""), name
    # classify answers as for the build output of that family and base
    assert run(CLASSIFY, {**doc, **json.loads(out)})[:2] == (0, answer), name
    for kin in of_the_base_kind(family):
        code, out, err = run(["build", kin, "--input", "-"], text)
        assert (code, err) == (0, ""), (name, kin)
        assert json.dumps(json.loads(out)["base"]) == json.dumps(doc["base"]), (name, kin)


def test_every_build_output_reads_back():
    for name, text in built_documents():
        _read_back(name, text)


def test_every_fixture_file_reads_back(tmp_path):
    for name, text in fixture_documents(tmp_path):
        _read_back(name, text)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("seed", FIXTURE_SEEDS)
def test_metric_and_symplectic_fixtures_are_build_documents(tmp_path, dim, seed):
    # without the seed, each is what build writes for the complex musical
    # family of its form at the same dimension and seed
    run(["fixtures", "--dim", str(dim), "--seed", str(seed), "--out", str(tmp_path)], "")
    for name, family in (("metric", "Jg"), ("symplectic", "Jom")):
        doc = json.loads((tmp_path / f"{name}.json").read_text())
        assert doc.pop("seed") == seed
        built = run(["build", family, "--dim", str(dim), "--seed", str(seed)], "")
        assert built == (0, json.dumps(doc) + "\n", "")


def test_fixture_files_write_each_fact_once(tmp_path):
    # the Kähler file's base is (g, J1); its kahler object holds only the rest
    run(["fixtures", "--dim", "2", "--seed", "1", "--out", str(tmp_path)], "")
    doc = json.loads((tmp_path / "kahler.json").read_text())
    assert list(doc) == ["n", "seed", *BUILT[1:], "kahler"]
    assert sorted(doc["base"]) == ["J", "g"] and sorted(doc["kahler"]) == ["J2", "b"]
    for path in tmp_path.iterdir():
        doc = json.loads(path.read_text())
        extra = {"metric"} if path.name.startswith("ae-") else {"kahler"} if "kahler" in doc else set()
        assert list(doc)[:2] == ["n", "seed"] and set(doc) == {"seed", *BUILT, *extra}, path.name
