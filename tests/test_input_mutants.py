"""Every key of a CLI input document is read or refused.

Each one-key change of a document that ``build`` or ``fixtures`` writes (an
unknown key added to an object, a key dropped, a key's excluded partner added
beside it) must exit 2 or classify differently.  Only the drop of a key that a
reader may go without leaves the answer as it was.  The mutants come from
``tools/output_digest.py``, whose ``inputs`` group digests the same runs.
"""

import importlib.util
import json
from pathlib import Path

from gentangent import cli
from gentangent.ae_zoo import FAMILY_IDS

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _TOOL)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)

DIMS = (1, 2, 4)


def _optional(doc, change, where, key):
    """A drop that the reader may take: the operator that build writes beside
    family and base, the provenance seed, a metric's kind."""
    return change == "drop" and (
        (where, key) in ((None, "seed"), ("metric", "kind"))
        or (where, key) == (None, "operator") and "family" in doc and "base" in doc)


def test_every_one_key_mutant_exits_2_or_classifies_differently(tmp_path):
    seen = silent = 0
    for name, doc in output_digest.input_documents(cli.main, FAMILY_IDS, DIMS,
                                                   str(tmp_path)).items():
        want = output_digest.run(cli.main, ["classify", "-", "--format", "json"],
                                 stdin=json.dumps(doc))
        for change, where, key, mutant in output_digest.mutants(doc):
            code, out, err = output_digest.run(cli.main, ["classify", "-", "--format", "json"],
                                               stdin=json.dumps(mutant))
            case = (name, change, where, key)
            seen += 1
            if _optional(doc, change, where, key):
                silent += want[0] == 0
                assert (code, out) == want[:2], case
            else:
                assert code == 2 or (code, out) != want[:2], case
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, case
            if change == "add" and key == output_digest.UNKNOWN_KEY and want[0] == 0:
                assert code == 2 and repr(key) in err, case
    # 14 families at 3 dimensions and 9 fixture files; 57 optional drops of
    # documents that classify
    assert (seen, silent) == (706, 57)

