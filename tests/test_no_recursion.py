"""No function in retlab calls itself, so no valid input can end in a
RecursionError however deep its search goes."""

import ast
from pathlib import Path

import retlab


def _self_calls(tree):
    """(function name, line) for every call of a function, or of a method
    through self/cls, inside its own body (nested functions included)."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            direct = isinstance(f, ast.Name) and f.id == node.name
            method = (
                isinstance(f, ast.Attribute)
                and f.attr == node.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            )
            if direct or method:
                yield node.name, call.lineno


def test_no_function_calls_itself():
    package = Path(retlab.__file__).parent
    found = [
        (path.name, name, line)
        for path in sorted(package.glob("*.py"))
        for name, line in _self_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_check_sees_recursion():
    tree = ast.parse(
        "def outer():\n"
        "    def rec(i):\n"
        "        return rec(i + 1)\n"
        "    return rec(0)\n"
        "class A:\n"
        "    def walk(self):\n"
        "        return self.walk()\n"
    )
    assert sorted(name for name, _ in _self_calls(tree)) == ["rec", "walk"]
