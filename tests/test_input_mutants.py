"""Every key of a CLI input document is read or refused.

Each one-key change of a document that ``build`` or ``fixtures`` writes (an
unknown key added to an object, a key dropped, a key's excluded partner added
beside it) must exit 2 or read differently, through ``classify`` and, beside a
base, through ``build --input``.  Only a change that a reader may take leaves
the answer as it was: the drop of a key it may go without, or any change to a
key it accepts unread.  The mutants come from ``tools/output_digest.py``,
whose ``inputs`` group digests the same runs.
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
# top-level keys each reader accepts unread: the provenance seed and the rest
# of the Kähler data that fixtures writes beside a base; build --input also the
# family, operator and metric written beside the base it reads
UNREAD = {"classify": ("seed", "kahler"),
          "build": ("seed", "kahler", "family", "operator", "metric")}


def _optional(doc, reader, change, where, key):
    """A change that the reader may take: any change to a key it accepts unread,
    and the drop of the operator that build writes beside family and base, or of
    a metric's kind."""
    if where in UNREAD[reader] or change == "drop" and where is None and key in UNREAD[reader]:
        return True
    return change == "drop" and (
        (where, key) == ("metric", "kind")
        or (where, key) == (None, "operator") and "family" in doc and "base" in doc)


def test_every_one_key_mutant_exits_2_or_classifies_differently(tmp_path):
    seen = silent = 0
    for name, doc in output_digest.input_documents(cli.main, FAMILY_IDS, DIMS,
                                                   str(tmp_path)).items():
        for argv in output_digest.readers(doc):
            reader = argv[0]
            want = output_digest.run(cli.main, argv, stdin=json.dumps(doc))
            assert want[0] == 0, (name, argv)
            for change, where, key, mutant in output_digest.mutants(doc):
                code, out, err = output_digest.run(cli.main, argv, stdin=json.dumps(mutant))
                case = (name, reader, change, where, key)
                seen += 1
                if _optional(doc, reader, change, where, key):
                    silent += 1
                    assert (code, out) == want[:2], case
                else:
                    assert code == 2 or (code, out) != want[:2], case
                if code == 2:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, case
                if change == "add" and key == output_digest.UNKNOWN_KEY and \
                        where not in UNREAD[reader]:
                    assert code == 2 and repr(key) in err, case
    # 14 families at 3 dimensions and the 8 fixture files, each read by classify
    # (723 mutants, 67 silent) and, all of them having a base, by build --input
    # (723, 382 silent: 268 of them inside its unread operator and metric)
    assert (seen, silent) == (1446, 449)
