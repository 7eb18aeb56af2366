"""The type rule has one owner: `linalg._instance` refuses a value of the
wrong type with a `ValueError` naming the argument. No other `if not
isinstance(...)` in ptqsim raises, bar the two that own a message of their
own: `gates._gates`, which names a circuit that is not an iterable of Gates,
and `gates.parse_circuit`, whose refusals are `CircuitParseError`s.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for path in (ROOT / "src" / "ptqsim").glob("*.py") if path.name != "linalg.py")
ALLOWED = {("gates.py", "_gates"), ("gates.py", "parse_circuit")}


def is_refusal(node: ast.AST) -> bool:
    """An `if not isinstance(...)` whose body raises."""
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.UnaryOp)
        and isinstance(node.test.op, ast.Not)
        and isinstance(node.test.operand, ast.Call)
        and getattr(node.test.operand.func, "id", None) == "isinstance"
        and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))
    )


def refusals(source: str) -> list[tuple[str, int]]:
    """(innermost enclosing function or class, line) of each hand-rolled refusal."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if is_refusal(child):
                found.append((owner, child.lineno))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, child.name if named else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_refusals_are_found():
    source = (
        "def f(x):\n"
        "    if not isinstance(x, int):\n"
        "        raise ValueError\n"
        "    if not isinstance(x, str):\n"
        "        return x\n"
        "    if not (isinstance(x, int) and x):\n"
        "        raise ValueError\n"
        "class C:\n"
        "    def g(self):\n"
        "        if x:\n"
        "            pass\n"
        "        elif not isinstance(x, int):\n"
        "            if x:\n"
        "                raise TypeError\n"
    )
    assert refusals(source) == [("f", 2), ("g", 12)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_hand_rolled_type_refusal(path):
    hits = [(owner, line) for owner, line in refusals(path.read_text(encoding="utf-8"))
            if (path.name, owner) not in ALLOWED]
    assert hits == [], f"{path.name}: route these through linalg._instance"
