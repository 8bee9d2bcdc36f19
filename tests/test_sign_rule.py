"""One square test and one isometry test: every decision of alpha or epsilon
in ``src/`` goes through ``core._square_sign`` or ``core._isometry_sign``.

The test reads the source.  It fails if any function other than those two
hands ``close`` or ``Tolerance._admits`` one of these comparisons:

- the square of one expression, ``X @ X``, with +-I
- a pullback ``X.T @ G @ X`` with +-G

A comparison is the first two arguments of ``close``, or the two sides of a
``+`` or ``-`` inside an argument of ``_admits``.  Names assigned in the
function are read through their values, so ``sq = m @ m`` followed by
``close(sq, ident)`` counts.  +-I is ``np.eye(...)``, and +-Y is Y negated or
multiplied by a name, an attribute or a number (a sign).  A product of two
different matrices, as in ``triples._commutation``, is no square, and the
registry's residuals are not handed to ``close`` or ``_admits`` as a
comparison, so neither is caught.
"""

import ast
from pathlib import Path

import gentangent as gt

SRC = Path(gt.__file__).resolve().parent
SIGN_TESTS = {("core.py", "_square_sign"), ("core.py", "_isometry_sign")}


def _local_values(func):
    """{name: value} of the simple assignments in a function, tuples unpacked."""
    values = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = ([(target, value)] if isinstance(target, ast.Name)
                     else zip(target.elts, value.elts)
                     if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                     else [])
            values.update((t.id, v) for t, v in pairs if isinstance(t, ast.Name))
    return values


def _expand(node, values, depth=0):
    """node with each local name replaced by its value, recursively."""
    if depth > 8:
        return node

    class Inline(ast.NodeTransformer):
        def visit_Name(self, name):
            if name.id in values and isinstance(name.ctx, ast.Load):
                return _expand(values[name.id], values, depth + 1)
            return name

    return Inline().visit(ast.parse(ast.unparse(node), mode="eval").body)


def _unsigned(node):
    """node without a leading negation or a sign factor."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _unsigned(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        for sign, rest in ((node.left, node.right), (node.right, node.left)):
            if isinstance(sign, (ast.Name, ast.Attribute, ast.Constant, ast.UnaryOp)):
                return _unsigned(rest)
    return node


def _is_identity(node):
    node = _unsigned(node)
    return (isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "eye")


def _is_square(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and ast.dump(node.left) == ast.dump(node.right))


def _pullback_gram(node):
    """G of a pullback X.T @ G @ X, else None."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.MatMult)):
        return None
    left = node.left.left
    if (isinstance(left, ast.Attribute) and left.attr == "T"
            and ast.dump(left.value) == ast.dump(node.right)):
        return node.left.right
    return None


def _is_sign_comparison(a, b):
    for x, y in ((a, b), (b, a)):
        if _is_square(x) and _is_identity(y):
            return True
        gram = _pullback_gram(x)
        if gram is not None and ast.dump(_unsigned(y)) == ast.dump(gram):
            return True
    return False


def _comparisons(call, values):
    """The (lhs, rhs) pairs a close or _admits call is handed."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "close" and len(call.args) >= 2:
        return [tuple(_expand(arg, values) for arg in call.args[:2])]
    if isinstance(func, ast.Attribute) and func.attr == "_admits":
        return [(node.left, node.right) for arg in call.args
                for node in ast.walk(_expand(arg, values))
                if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))]
    return []


def _sign_decisions(tree, module):
    """(function, line, call) of each sign comparison outside the sign tests."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or (module, func.name) in SIGN_TESTS:
            continue
        values = _local_values(func)
        for call in ast.walk(func):
            if isinstance(call, ast.Call) and any(
                    _is_sign_comparison(a, b) for a, b in _comparisons(call, values)):
                found.append((func.name, call.lineno, ast.unparse(call)))
    return found


def test_every_sign_decision_goes_through_the_two_sign_tests():
    found = {path.name: hits for path in sorted(SRC.glob("*.py"))
             if (hits := _sign_decisions(ast.parse(path.read_text()), path.name))}
    assert found == {}


SAMPLE = """
def square_inline(m, tol):
    return close(m @ m, -np.eye(4), tol)

def square_by_name(op, tol):
    m = op.assemble()
    sq, ident = m @ m, np.eye(m.shape[0])
    return tol._admits(np.linalg.norm(sq + ident), 0, 2.0)

def pullback(self, tol):
    gm = self.g.gram
    return close(self.J.T @ gm @ self.J, self.epsilon * gm, tol)

def commutation(a, b, tol):
    ab, ba = a @ b, b @ a
    return close(ab, -ba, tol)

def residual(m, a, tol):
    res = _residual(m @ m, -np.eye(4))
    return tol._admits(res, 1, 0) and close(m @ m, (a * a - 1) * np.eye(4), tol)
"""


def test_the_guard_catches_each_form_it_names_and_no_other():
    hits = [name for name, _, _ in _sign_decisions(ast.parse(SAMPLE), "sample.py")]
    assert hits == ["square_inline", "square_by_name", "pullback"]
