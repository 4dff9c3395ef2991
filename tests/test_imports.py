"""Every module of the package imports at module level, never inside a
function: what a module depends on shows at its top, and a call never
loads a module."""

import ast
from pathlib import Path

import indexify

PACKAGE = Path(indexify.__file__).parent


def test_no_module_imports_inside_a_function():
    late = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late += [f"{path.relative_to(PACKAGE)}:{node.lineno} in {fn.name}"
                         for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert late == []
