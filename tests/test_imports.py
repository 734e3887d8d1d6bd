"""The package needs nothing beyond the standard library at run time, and
its lattice maps are integer matrices, not rationals."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_imports_neither_fractions_nor_networkx():
    found = [(path.name, mod) for path in sorted((SRC / "spinpoly").glob("*.py"))
             for mod in _imported_modules(path)
             if mod.split(".")[0] in ("fractions", "networkx")]
    assert found == []


def test_runs_without_networkx():
    code = (
        "import sys; sys.modules['networkx'] = None\n"
        "import spinpoly.catp, spinpoly.cli\n"
        "from spinpoly.polytopes import interval\n"
        "from spinpoly.termorders import initial_complex_maximal_faces, "
        "sigma2_lex_order\n"
        "print(len(initial_complex_maximal_faces(interval(3), "
        "sigma2_lex_order(), 3)))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "3"


def test_src_has_no_unread_imports():
    # every name that an import statement binds in a module is read there
    unread = []
    for path in sorted((SRC / "spinpoly").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {(a.asname or a.name).split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for a in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(path.name, name) for name in sorted(bound - read)]
    assert unread == []
