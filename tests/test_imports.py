"""Every name a module of the package imports is used in that module, and the exact
kernel imports no second canonicaliser."""

import ast
import os
import subprocess
import sys
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


def test_geometry_imports_nothing_from_the_solver():
    """The solver builds on geometry's monomials and sizing bound, not the other way round."""
    assert "solver" in imported_modules("from .solver import MAX_UNKNOWNS\n")
    assert not {"solver", "noetherkit.solver"} & imported_modules(
        (PACKAGE / "geometry.py").read_text())


def test_only_the_kernel_builds_matrices():
    """Every QQ matrix is built by normal._Ring.matrix."""
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if any(m.startswith("sympy.polys.matrices")
                    for m in imported_modules(path.read_text()))]
    assert found == ["normal.py"]


def names_used(source: str) -> set[str]:
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_no_lambdify():
    """Floats are evaluated through code that normal.MATH_PRINTER or NumPyPrinter prints."""
    assert "lambdify" in names_used("import sympy as sp\nsp.lambdify(x, x)\n")
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "lambdify" in names_used(path.read_text())]
    assert found == []


def sympy_names(source: str) -> set[str]:
    """The names a module takes from sympy: attributes of ``sp`` or ``sympy``, and names
    imported from a sympy module."""
    tree = ast.parse(source)
    return ({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in {"sp", "sympy"}}
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "sympy" for alias in node.names})


def test_one_route_per_answer():
    """symbolic_drift expands M^-1 by a Neumann series, with no series fallback or
    together/cancel pass, check_homothetic decides in the ring, with no cancel, and
    recover_boundary_terms finds f in the ring, with no sympy integrator, no
    cancel/together pass and no printability gate from the parser."""
    assert {"series", "together"} <= names_used("import sympy as sp\nsp.series(sp.together(e))\n")
    assert not {"series", "together"} & names_used((PACKAGE / "conservation.py").read_text())
    assert "cancel" not in names_used((PACKAGE / "geometry.py").read_text())
    assert {"integrate"} == sympy_names("import sympy as sp\nsp.integrate(e, t)\n") \
        == sympy_names("from sympy import integrate\n")
    # the RK4 integrator dynamics.integrate is the package's own name, not sympy's
    assert "integrate" not in sympy_names("from .dynamics import integrate\nintegrate(L)\n")
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "integrate" in sympy_names(path.read_text())]
    assert found == []
    conditions = (PACKAGE / "conditions.py").read_text()
    assert not {"cancel", "together"} & names_used(conditions)
    assert "parsing" not in imported_modules(conditions)


def test_no_lapack():
    """The drift fit is exact in fractions, so no run initialises LAPACK or a BLAS."""
    assert "linalg" in names_used("import numpy as np\nnp.linalg.lstsq(a, b)\n")
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if {"polyfit", "linalg"} & names_used(path.read_text())]
    assert found == []


def test_no_numpy():
    """The laws are evaluated in the RK4 kernel's scalar code, so no module names numpy."""
    assert "numpy" in imported_modules("from numpy import isfinite\n")
    assert "numpy" in names_used("import sympy as sp\nsp.printing.numpy.NumPyPrinter\n")
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "numpy" in {m.split(".")[0] for m in imported_modules(path.read_text())}
             | names_used(path.read_text())]
    assert found == []


def test_import_leaves_numpy_out():
    """No command loads numpy: the command line's import and a simulate run leave it out."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import contextlib, io, sys, noetherkit, noetherkit.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = noetherkit.cli.main(['simulate', sys.argv[1], '--epsilon', '0.1'])\n"
            "print(noetherkit.__file__)\n"
            "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    oscillator = PACKAGE / "fixtures" / "oscillator.json"
    out = subprocess.run([sys.executable, "-c", code, str(oscillator)], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert Path(out[0]).parent == PACKAGE
    assert out[1] == "0 []"


def test_no_tolerance_option():
    from noetherkit.cli import build_parser
    options = {s for action in build_parser()._actions for s in action.option_strings}
    assert "--seed" in options
    assert not any(s.startswith("--tol") for s in options)
