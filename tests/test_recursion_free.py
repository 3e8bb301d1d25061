"""No function in the package calls itself by name.

A verdict must not depend on the input's size through Python's recursion
limit, so every walk over a graph or a tree is iterative.  This parses
the package source and fails on any function, nested ones included,
whose body calls its own name (or self.<name> in a method).
"""

import ast
from pathlib import Path

import ltsim

SOURCES = sorted(Path(ltsim.__file__).parent.glob("*.py"))


def self_calls(tree: ast.AST) -> list[str]:
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name):
                name = callee.id
            elif isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                name = callee.attr if callee.value.id in ("self", "cls") else None
            else:
                name = None  # e.g. super().__init__(...) calls another class's method
            if name == func.name:
                found.append(f"{func.name} (line {node.lineno})")
    return found


def test_the_guard_sees_nested_recursion():
    tree = ast.parse(
        "def outer():\n    def index(n):\n        index(n - 1)\n    index(3)\n"
        "class C:\n    def walk(self):\n        self.walk()\n"
        "    def __init__(self):\n        super().__init__()\n"
    )
    assert self_calls(tree) == ["index (line 3)", "walk (line 7)"]


def test_no_function_in_the_package_calls_itself():
    assert SOURCES
    offenders = {
        path.name: calls for path in SOURCES if (calls := self_calls(ast.parse(path.read_text())))
    }
    assert offenders == {}
