"""No function of the parser, the typer, the formulas, the axioms, the
terms, the printer, the rewrite rules, the strategy, the checkers or the
command line calls itself, directly or through other functions of its
module: their walks over text, terms and formulas run on explicit stacks,
so no nesting depth exhausts the interpreter's recursion limit.

The module left out still recurses: generator.py draws terms by their
types, through methods, and never deeper than its size bound.
"""

import ast
from pathlib import Path

import pytest

import lax

MODULES = (
    "parser.py", "typecheck.py", "formulas.py", "axioms.py", "terms.py",
    "printer.py", "rewrite.py", "strategy.py", "analysis.py", "cli.py",
)


def _callee(call: ast.Call):
    """The name a call gives its function when it names it bare or as a
    method of self, else None."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if (
        isinstance(f, ast.Attribute)
        and isinstance(f.value, ast.Name)
        and f.value.id == "self"
    ):
        return f.attr
    return None


def _cycles(source: str) -> list[list[str]]:
    """Each call cycle among the functions source defines, as the names on
    it from the first one called; a call counts when it names the function
    bare or as a method of self."""
    defined = {
        node.name: node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    calls = {
        name: sorted({
            _callee(n) for n in ast.walk(node)
            if isinstance(n, ast.Call) and _callee(n) in defined
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


def test_the_scan_sees_methods_call_each_other_through_self():
    source = (
        "class Parser:\n"
        "    def term(self):\n        return self.atom()\n\n"
        "    def atom(self):\n        return self.term() if self.more() else 0\n\n"
        "    def more(self):\n        return False\n"
    )
    assert _cycles(source) == [["atom", "term"]]


@pytest.mark.parametrize("module", ["generator.py"])
def test_the_scan_sees_the_modules_left_out_recurse(module):
    source = (Path(lax.__file__).parent / module).read_text(encoding="utf-8")
    assert _cycles(source) != []
