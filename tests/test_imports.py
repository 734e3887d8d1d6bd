"""The package needs nothing beyond the standard library at run time, its
lattice maps are integer matrices, not rationals, every definition in it
is reached from a command, a script or the benchmark, and every record
field it declares is read in it."""

import ast
import importlib
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
        "import spinpoly.catp, spinpoly.cli, spinpoly.errors, spinpoly.graphs\n"
        "import spinpoly.polytopes, spinpoly.termorders, spinpoly.toric\n"
        "from spinpoly.polytopes import GradedPolytope\n"
        "from spinpoly.termorders import sigma2_lex_order\n"
        "from spinpoly.toric import quadratic_squarefree_gb\n"
        "interval = GradedPolytope(1, (((-1,), 0), ((1,), 3)), ())\n"
        "chk = quadratic_squarefree_gb(interval, sigma2_lex_order(), 3)\n"
        "print(chk.witness['relations'])\n")
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


def _bindings(tree, pkg):
    """What each spinpoly import in `tree` binds: a local name -> the module
    name it binds, "" for the package itself, or (module, name) for a
    definition."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((a.asname, "") for a in node.names
                       if a.name == "spinpoly" and a.asname)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level == 0:
                if mod.split(".")[0] != "spinpoly":
                    continue
                mod = mod[len("spinpoly."):]
            for a in node.names:
                if mod:
                    out[a.asname or a.name] = (mod, a.name)
                elif (pkg / f"{a.name}.py").exists():
                    out[a.asname or a.name] = a.name
                else:
                    out[a.asname or a.name] = ("__init__", a.name)
    return out


def _reads(node, names):
    """The (module, name) definitions that `node` reads, as a bound name,
    as module.name or as package.module.name."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(names.get(n.id), tuple):
            out.add(names[n.id])
        elif isinstance(n, ast.Attribute):
            v = n.value
            if isinstance(v, ast.Name) and names.get(v.id):
                out.add((names[v.id], n.attr))
            elif (isinstance(v, ast.Attribute) and isinstance(v.value, ast.Name)
                  and names.get(v.value.id) == ""):
                out.add((v.attr, n.attr))
    return out


def traced(root):
    """perfbench/tracing.py's TRACED, module -> traced names, read from its
    source."""
    tree = ast.parse((root / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and "TRACED" in [
                getattr(t, "id", None) for t in node.targets]:
            return ast.literal_eval(node.value)
    return {}


def unreached_definitions(root):
    """The top-level definitions of `root`'s src/spinpoly that nothing
    reaches from `cli.main`, `cli.run`, the names that scripts/ imports or
    reads, and perfbench's `sp.<module>.<name>` reads and TRACED names.
    Only the sources are read; nothing is imported."""
    pkg = root / "src" / "spinpoly"
    uses = {}
    for path in pkg.glob("*.py"):
        tree = ast.parse(path.read_text())
        top = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top[node.name] = node
            elif isinstance(node, ast.Assign):
                top.update((t.id, node) for t in node.targets
                           if isinstance(t, ast.Name))
        names = {**_bindings(tree, pkg), **{n: (path.stem, n) for n in top}}
        for name, node in top.items():
            uses[path.stem, name] = _reads(node, names)
    roots = {("cli", "main"), ("cli", "run")}
    for path in (root / "scripts").glob("*.py"):
        tree = ast.parse(path.read_text())
        names = _bindings(tree, pkg)
        roots |= _reads(tree, names)
        roots |= {v for v in names.values() if isinstance(v, tuple)}
    for path in (root / "perfbench").glob("*.py"):
        roots |= _reads(ast.parse(path.read_text()), {"sp": ""})
    roots |= {(m, f) for m, fs in traced(root).items() for f in fs}
    seen, todo = set(), [r for r in roots if r in uses]
    while todo:
        d = todo.pop()
        if d not in seen:
            seen.add(d)
            todo += [u for u in uses[d] if u in uses]
    return sorted(set(uses) - seen)


def test_src_holds_only_reached_definitions():
    # a definition that no command, script or benchmark reaches belongs in
    # tests/helpers.py, or nowhere
    assert unreached_definitions(SRC.parent) == []


def test_every_traced_name_is_defined():
    # perfbench marks a metric absent when its traced function is gone, and
    # `record_bench.py guard` then fails; a deletion fails here first.  As
    # in the tracer, `transform_point` is a GradedPolytope method.
    names = traced(SRC.parent)
    assert names
    missing = []
    for mod, fs in names.items():
        home = importlib.import_module(f"spinpoly.{mod}")
        for f in fs:
            where = home.GradedPolytope.__dict__ if f == "transform_point" \
                else vars(home)
            if not callable(where.get(f)):
                missing.append(f"{mod}.{f}")
    assert missing == []


def unread_fields(root):
    """(module, class, field) for each field of a dataclass declared in
    `root`'s src/spinpoly that no `.field` attribute read in src/spinpoly
    names.  Reads match by name, whatever object they are read from.  Only
    the sources are read; nothing is imported."""
    pkg = root / "src" / "spinpoly"
    declared, read = [], set()
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d)
                    for d in node.decorator_list):
                declared += [(path.stem, node.name, f.target.id)
                             for f in node.body
                             if isinstance(f, ast.AnnAssign)]
    return [d for d in declared if d[2] not in read]


def test_every_record_field_has_a_reader():
    # a field that nothing in src/ reads belongs in tests/helpers.py, or
    # nowhere
    assert unread_fields(SRC.parent) == []
