"""Every name a module of the package imports is used in that module, and the exact
kernel imports no second canonicaliser."""

import ast
from pathlib import Path

import noetherkit

PACKAGE = Path(noetherkit.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_detected():
    assert unused_imports("import os\nfrom typing import Optional, Sequence\nSequence\n") == [
        "os (line 1)", "Optional (line 2)"]


def test_no_unused_imports():
    found = [f"{path.name}: {name}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for name in unused_imports(path.read_text())]
    assert found == []


def imported_modules(source: str) -> set[str]:
    tree = ast.parse(source)
    return ({alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
            | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)})


def test_kernel_has_one_canonicaliser():
    """normal.py reduces trig and exp products in its own ring, with no sympy.simplify rewrite."""
    assert "sympy.simplify.fu" in imported_modules("from sympy.simplify.fu import TR8\n")
    found = [m for m in imported_modules((PACKAGE / "normal.py").read_text())
             if m == "sympy.simplify" or m.startswith("sympy.simplify.")]
    assert found == []
