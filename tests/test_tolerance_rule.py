"""One verdict rule: every comparison of a residual with a tolerance in
``src/`` goes through ``Tolerance._admits``.

The test reads the source, not the behaviour.  Outside the allowed sites
below it fails on two things:

- an attribute ``.abs`` or ``.rel`` read off anything but ``np``, which is
  how a rule of its own would read a tolerance
- a float literal in (0, 1e-3], which is how a rule of its own would write
  a fixed tolerance

A site is a top-level function or class of a module, either whole or one
statement of it, written as ``ast.unparse`` prints it (for an ``if``, its
condition).
"""

import ast
from pathlib import Path

import gentangent as gt

SRC = Path(gt.__file__).resolve().parent

ALLOWED = {
    ("core.py", "Tolerance", None):
        "the rule itself, and the two fields it reads",
    ("core.py", "_certifies_nondegenerate", None):
        "its proof that the SVD would agree reads tol.abs; it decides no verdict of its own",
    ("core.py", "polynomial_class", "tol.rel * size ** 1.5 < 1"):
        "the precondition under which the trace count is exact, not a verdict",
    ("registry.py", "<module>", "_RECOVERY_FLOOR = Tolerance(1e-08, 1e-08)"):
        "the one named floor of the two T5 recovery checks",
    ("registry.py", "_check_kahler_roundtrip",
     "eff = Tolerance(max(tol.abs, _RECOVERY_FLOOR.abs), max(tol.rel, _RECOVERY_FLOOR.rel))"):
        "floors the caller's tolerance at that constant",
}


def _is_tolerance_read(node):
    return (isinstance(node, ast.Attribute) and node.attr in ("abs", "rel")
            and not (isinstance(node.value, ast.Name) and node.value.id == "np"))


def _is_literal_tolerance(node):
    return (isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < node.value <= 1e-3)


def _sites(path):
    """(site, line, source) of each tolerance read or literal in a module."""
    tree = ast.parse(path.read_text())
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
                site = ((path.name, scope, None) if (path.name, scope, None) in ALLOWED
                        else (path.name, scope, text))
                found.append((site, node.lineno, ast.unparse(node)))
    return found


def test_every_tolerance_comparison_goes_through_the_rule():
    found = [f for path in sorted(SRC.glob("*.py")) for f in _sites(path)]
    outside = [f"{site[0]}:{line} in {site[1]}: {source}"
               for site, line, source in found if site not in ALLOWED]
    assert outside == []
    # every allowed site is still in use, so the list cannot go stale
    assert {site for site, _, _ in found} == set(ALLOWED)
