"""The committed outputs of ``tools/output_digest.py`` still hold.

``tests/output_groups.txt`` holds the digest of every group, and
``tests/output_cases.txt`` one line per run of the ``fixtures`` and ``inputs``
groups.  This recomputes the groups that take about a second, among them
``tolerances``, which asks the rank test at tolerances whose abs and rel
differ, and the outputs of both benchmark workloads: ``build | classify``
and ``verify`` at ``--dim 8 --trials 5`` and ``--dim 32 --trials 3``, seeds
1-8.  ``python3 tools/output_digest.py --check`` recomputes all of them.  A change that
alters an output rewrites both files (``--write``) in the same commit, and
names the changed cases (the lines this test prints) in CHANGES.md.
"""

from gentangent import cli
from gentangent.ae_zoo import FAMILY_IDS

from test_input_mutants import output_digest

GROUPS = ("fixtures", "inputs", "build", "build | classify", "signs", "tolerances",
          "verify --dim 8 --trials 5", "verify --dim 32 --trials 3")


def test_quick_groups_match_the_committed_outputs():
    found = output_digest.changes(cli.main, FAMILY_IDS, GROUPS)
    assert not found, "changed outputs:\n" + "\n".join(found)


def test_committed_files_name_every_group_and_each_case_once():
    groups = [line.split("  ", 1)[1] for line in output_digest.committed(output_digest.GROUPS)]
    assert len(groups) == 15
    keys = [tuple(line.split("\t")[:2]) for line in output_digest.committed(output_digest.CASES)]
    assert len(keys) == len(set(keys))
    assert {group for group, _ in keys} == set(output_digest.CASE_GROUPS)
