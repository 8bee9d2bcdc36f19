"""One verdict rule: every comparison of a residual with a tolerance in
``src/`` goes through ``Tolerance._admits``.

The test reads the source, not the behaviour.  Outside the allowed sites
below it fails on two things:

- a read of the tolerance's one field (``Tolerance.__slots__``), which is
  how a rule of its own would read a tolerance
- a float literal in (0, 1e-3], which is how a rule of its own would write
  a fixed tolerance

A site is a top-level function or class of a module, either whole or one
statement of it, written as ``ast.unparse`` prints it (for an ``if``, its
condition).
"""

import ast
from pathlib import Path

import pytest

import gentangent as gt

SRC = Path(gt.__file__).resolve().parent

ALLOWED = {
    ("core.py", "Tolerance", None):
        "the rule itself, and the one field it reads",
    ("core.py", "_certifies_nondegenerate", None):
        "its proof that the SVD would agree reads tol.value; it decides no verdict of its own",
    ("core.py", "polynomial_class", "tol.value * size ** 1.5 < 1"):
        "the precondition under which the trace count is exact, not a verdict",
    ("registry.py", "<module>", "_RECOVERY_FLOOR = Tolerance(1e-08)"):
        "the one named floor of the two T5 recovery checks",
    ("registry.py", "_check_kahler_roundtrip",
     "eff = Tolerance(max(tol.value, _RECOVERY_FLOOR.value))"):
        "floors the caller's tolerance at that constant",
}
(FIELD,) = gt.Tolerance.__slots__


def _is_tolerance_read(node):
    return isinstance(node, ast.Attribute) and node.attr == FIELD


def _is_literal_tolerance(node):
    return (isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < node.value <= 1e-3)


def _sites(name, source):
    """(site, line, source) of each tolerance read or literal in a module."""
    tree = ast.parse(source)
    found = []
    for top in tree.body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        statements = [s for s in ast.walk(top) if isinstance(s, ast.stmt)]
        for stmt in statements:
            # the nodes of this statement that no inner statement holds
            inner = {id(n) for s in ast.iter_child_nodes(stmt) if isinstance(s, ast.stmt)
                     for n in ast.walk(s)}
            header = stmt.test if isinstance(stmt, (ast.If, ast.While)) else stmt
            for node in ast.walk(stmt):
                if id(node) in inner or not (_is_tolerance_read(node)
                                             or _is_literal_tolerance(node)):
                    continue
                text = ast.unparse(header)
                site = ((name, scope, None) if (name, scope, None) in ALLOWED
                        else (name, scope, text))
                found.append((site, node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("source", [
    f"def f(a, b, tol):\n    return norm(a - b) <= tol.{FIELD} * norm(a)",
    f"def f(sv, tol):\n    if sv[-1] <= tol.{FIELD}:\n        return None",
    f"FLOOR = DEFAULT_TOL.{FIELD}",
    "def f(a, b):\n    return norm(a - b) <= 1e-9",
])
def test_the_guard_finds_a_rule_of_its_own(source):
    assert _sites("new.py", source)


@pytest.mark.parametrize("source", [
    "def f(a, b, tol):\n    return tol._admits(norm(a - b), 1, norm(a))",
    "def f(a):\n    return np.abs(a).max() > 0.5",
    "def f(args):\n    return args.tol",
])
def test_the_guard_passes_the_rule_and_other_reads(source):
    assert _sites("new.py", source) == []


def test_every_tolerance_comparison_goes_through_the_rule():
    found = [f for path in sorted(SRC.glob("*.py")) for f in _sites(path.name, path.read_text())]
    outside = [f"{site[0]}:{line} in {site[1]}: {source}"
               for site, line, source in found if site not in ALLOWED]
    assert outside == []
    # every allowed site is still in use, so the list cannot go stale
    assert {site for site, _, _ in found} == set(ALLOWED)
