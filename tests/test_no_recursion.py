"""No function of the typer, the formulas, the terms, the printer, the
rewrite rules, the strategy or the checkers calls itself, directly or
through other functions of its module: their walks over terms and formulas
run on explicit stacks, so no nesting depth exhausts the interpreter's
recursion limit.
"""

import ast
from pathlib import Path

import pytest

import lax

MODULES = (
    "typecheck.py", "formulas.py", "terms.py", "printer.py", "rewrite.py",
    "strategy.py", "analysis.py",
)


def _cycles(source: str) -> list[list[str]]:
    """Each call cycle among the functions source defines, as the names on
    it from the first one called; a call counts when it names the function
    bare."""
    defined = {
        node.name: node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    calls = {
        name: sorted({
            n.func.id for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id in defined
        })
        for name, node in defined.items()
    }
    found = []
    for start in sorted(defined):
        todo = [[start]]
        while todo:
            path = todo.pop()
            for callee in calls[path[-1]]:
                if callee == start:
                    found.append(path)
                elif callee not in path and callee > start:
                    todo.append(path + [callee])
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_function_of_the_module_recurses(module):
    source = (Path(lax.__file__).parent / module).read_text(encoding="utf-8")
    assert _cycles(source) == []


def test_the_scan_sees_a_function_call_itself_directly_or_through_another():
    source = (
        "def down(n):\n    return down(n - 1) if n else 0\n\n"
        "def even(n):\n    return n == 0 or odd(n - 1)\n\n"
        "def odd(n):\n    return n != 0 and even(n - 1)\n\n"
        "def leaf(n):\n    return down(n)\n"
    )
    assert _cycles(source) == [["down"], ["even", "odd"]]
