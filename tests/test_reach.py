"""Reach guard: every top-level definition of ``src/gearlab`` serves a command.

`unreached` parses each module of the package with `ast`, resolves names
through the module's relative imports (``from .graphs import X`` and
``from . import io as gio`` alike, at module level or inside a function),
and walks the references from ``cli.main``.  A name bound in a function's
own scope (a parameter, an assignment, a nested def) is local there, so a
nested ``evaluate`` in one module never reaches ``evaluate`` in another.
Reaching a module runs its bare top-level statements.  Reaching a class
reaches its bases, its class-level statements, its dunder methods and its
properties; any other method of it is reached only when reached code reads
an attribute of that name (``x.name``).  The type of ``x`` is unknown, so
that is a name match, and it errs toward "reached".

A top-level definition (function, class or assigned name, private ones
included), or a method of a reached class, that no command reaches must
be listed in UNREACHED, with the ROADMAP item that will wire it into a
command or remove it.  The test fails on an unreached definition that is
not listed, and on a stale entry: one that a command now reaches, or that
no longer exists.

`unused_imports` is the linter's unused-import check on the same parse:
every name that an import binds must be read in its module.
"""

from __future__ import annotations

import ast
import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "gearlab"
ROOT = ("cli", "main")

# definition -> "item N: why it stays until then"
UNREACHED = {
    # the paper's transplantation: the per-eigenvalue rows of certify's
    # quantum section
    "transplant.TransplantError": "item 3: certify's quantum rows raise it",
    "transplant.TransplantMap": "item 3: certify's quantum rows; its assignment goes",
    "transplant.gear_edge_split": "item 3: certify's quantum rows check the gear layout",
    "transplant._gear_size": "item 3: certify's quantum rows check the gear layout",
    "transplant._rule": "item 3: the rule is the bond intertwiner's block",
    "transplant.transplant": "item 3: certify's quantum rows transplant each basis",
    "transplant.inverse_transplant": "item 3: certify's quantum rows, inverse round trip",
    "transplant.check_isometry": "item 3: certify's quantum rows, isometry error",
    "transplant.transplant_report": "item 3: builds certify's quantum rows",
    "spectral.Eigenfunction": "item 3: certify's quantum rows hold eigenfunctions",
    "spectral.NotAnEigenvalue": "item 3: certify's quantum rows raise it",
    "spectral.secular_matrix": "item 3: vertex_residual's independent check",
    "spectral.eigenfunction_basis": "item 3: certify's quantum rows, one basis per root",
    "spectral.weighted_inner": "item 3: certify's quantum rows, isometry error",
    "spectral.vertex_residual": "item 3: certify's quantum rows, vertex residual",
    # the benchmark's calls
    "spectral.compare_first": "item 1: PR c's one comparison deletes it",
    "spectral.suggest_k_max": "item 2: only the benchmark's scan ceiling; moves to bench/",
    "markov.markov_spectrum": "item 2: the walk verdict uses markov_eigenvalues; delete",
    "polynomials.SparsePolynomial.substitute": "item 2: only the benchmark's symbolic slots",
    "polynomials.SparsePolynomial.evaluate": "item 2: only the benchmark's symbolic slots",
    "graphs.MetricGraph.total_length": "item 2: only suggest_k_max, which moves to bench/",
    "io.write_graph": "item 2: only the benchmark writes files; moves to bench/",
    "io.write_digraph": "item 2: only the benchmark writes files; moves to bench/",
    # the walk <-> quantum cross-check
    "markov.crosscheck_quantum": "item 18: step 3 puts it in certify's walk section",
    "markov.predicted_wavenumbers": "item 18: step 3, through crosscheck_quantum",
    "markov._cluster": "item 18: step 3, through predicted_wavenumbers",
}


def _module_scope(tree, module):
    """name -> ("def", module, name) for the top-level definitions of
    ``module`` and -> its import target for its top-level imports; with
    the definition nodes and the bare top-level statements."""
    scope, nodes, bare = {}, {}, []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and not n.id.startswith("__")]
        elif isinstance(stmt, ast.ImportFrom):
            scope.update(_imports(stmt))
            continue
        else:
            names = []
        if names:
            for name in names:
                scope[name], nodes[name] = ("def", module, name), stmt
        elif not isinstance(stmt, ast.Import):
            bare.append(stmt)
    return scope, nodes, bare


def _imports(node: ast.ImportFrom):
    """Local name -> ("def", module, name) or ("module", module) for one
    relative import (or one of ``gearlab.``); {} for any other package."""
    if node.level == 1:
        package = node.module
    elif node.level == 0 and node.module and node.module.split(".")[0] == "gearlab":
        package = node.module.partition(".")[2] or None
    else:
        return {}
    out = {}
    for alias in node.names:
        local = alias.asname or alias.name
        out[local] = ("module", alias.name) if package is None else ("def", package, alias.name)
    return out


def _own_scope(fn, enclosing):
    """The names visible in function or lambda ``fn``: ``enclosing`` with
    every name that fn's own scope binds made local (None), or bound to its
    import target."""
    scope = dict(enclosing)
    for arg in ast.walk(fn.args):
        if isinstance(arg, ast.arg):
            scope[arg.arg] = None
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope[node.name] = None
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            scope[node.id] = None
        elif isinstance(node, ast.ExceptHandler) and node.name:
            scope[node.name] = None
        elif isinstance(node, ast.ImportFrom):
            scope.update({name: None for name in
                          (a.asname or a.name for a in node.names)} | _imports(node))
        elif isinstance(node, ast.Import):
            scope.update({(a.asname or a.name).split(".")[0]: None for a in node.names})
        stack.extend(ast.iter_child_nodes(node))
    return scope


def _with_class(fn) -> bool:
    """Whether reaching a class reaches its method ``fn``: a dunder or a property."""
    return fn.name.startswith("__") and fn.name.endswith("__") or any(
        isinstance(d, ast.Name) and d.id == "property"
        or isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter")
        for d in fn.decorator_list)


def _methods(cls):
    """The methods of class ``cls`` that reaching it does not reach."""
    return [stmt for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _with_class(stmt)]


def _references(node, scope, out):
    """Add to ``out`` the import or definition targets that ``node``'s code
    names: ("def", module, name) and, for ``alias.attr`` of a module alias,
    ("def", module, attr); and ("attr", None, attr) for every attribute it
    reads.  A class's `_methods` are left out."""
    # annotations are strings under `from __future__ import annotations`
    if isinstance(node, ast.AnnAssign):
        node = ast.Assign([node.target], node.value or ast.Constant(None))
    if isinstance(node, ast.ClassDef):
        methods = _methods(node)
        for child in ast.iter_child_nodes(node):
            if child not in methods:
                _references(child, scope, out)
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        for child in [*getattr(node, "decorator_list", ()), *node.args.defaults,
                      *(d for d in node.args.kw_defaults if d is not None)]:
            _references(child, scope, out)
        inner = _own_scope(node, scope)
        for child in (node.body if isinstance(node.body, list) else [node.body]):
            _references(child, inner, out)
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        target = scope.get(node.id)
        if target and target[0] == "def":
            out.add(target)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        out.add(("attr", None, node.attr))
        target = isinstance(node.value, ast.Name) and scope.get(node.value.id)
        if target and target[0] == "module":
            out.add(("def", target[1], node.attr))
    for child in ast.iter_child_nodes(node):
        _references(child, scope, out)


def unreached(package=PACKAGE, root=ROOT) -> dict:
    """"module.name" -> source lines, for each top-level definition of the
    package at ``package`` that the references from ``root`` never reach,
    and "module.Class.method" -> source lines for each such method of a
    reached class."""
    modules = {}
    for path in sorted(pathlib.Path(package).glob("*.py")):
        modules[path.stem] = _module_scope(ast.parse(path.read_text(encoding="utf-8")),
                                           path.stem)
    reached, entered, read = set(), set(), set()
    waiting = {}        # method name -> [(module, class, def), ...] until it is read
    todo = [("def", *root)]
    if "__init__" in modules:       # importing any module runs the package's statements
        todo += [("stmt", "__init__", stmt) for stmt in modules["__init__"][2]]
    while todo:
        kind, module, what = todo.pop()
        if kind == "attr":
            read.add(what)
            todo += [("stmt", module, fn) for module, _, fn in waiting.pop(what, [])]
            continue
        if module not in modules:
            continue
        scope, nodes, bare = modules[module]
        if kind == "def":
            if (module, what) in reached:
                continue
            reached.add((module, what))
            if module not in entered:
                entered.add(module)
                todo += [("stmt", module, stmt) for stmt in bare]
            if what not in nodes:
                if scope.get(what, ("",))[0] == "def":      # a re-export: follow it
                    todo.append(scope[what])
                continue
            what = nodes[what]
            if isinstance(what, ast.ClassDef):
                for fn in _methods(what):
                    if fn.name in read:
                        todo.append(("stmt", module, fn))
                    else:
                        waiting.setdefault(fn.name, []).append((module, what.name, fn))
        found = set()
        _references(what, scope, found)
        todo += found
    return {**{f"{module}.{name}": _lines(node)
               for module, (_, nodes, _) in modules.items()
               for name, node in nodes.items() if (module, name) not in reached},
            **{f"{module}.{cls}.{fn.name}": _lines(fn)
               for methods in waiting.values() for module, cls, fn in methods}}


def unused_imports(package=PACKAGE) -> list:
    """"module.name", sorted, for each name that an import statement of the
    package at ``package`` binds, at any depth, and that its module never
    reads: no Name load of it, bare or as the base of an attribute
    (``np`` in ``np.linalg``).  ``from __future__`` imports are exempt."""
    unused = []
    for path in sorted(pathlib.Path(package).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.stem}.{name}" for name in bound if name not in read]
    return sorted(unused)


def _lines(node) -> int:
    """Lines from the def, class or assignment line to the end, decorators not counted."""
    return node.end_lineno - node.lineno + 1


# ---------------------------------------------------------------------------

def test_every_unreached_definition_is_listed():
    missing = sorted(set(unreached()) - set(UNREACHED))
    assert not missing, (f"no command reaches {missing}: wire each into a command, move it "
                         "into tests/, or list it in UNREACHED with its ROADMAP item")


def test_no_listed_definition_is_reached_or_gone():
    stale = sorted(set(UNREACHED) - set(unreached()))
    assert not stale, f"stale UNREACHED entries (now reached, or no longer defined): {stale}"


def test_every_listed_definition_names_its_roadmap_item():
    vague = [name for name, why in UNREACHED.items()
             if not re.match(r"item (1|2|3|11|18): \S", why)]
    assert not vague


def test_every_import_is_read():
    assert unused_imports() == []


def test_unused_imports_are_found(tmp_path):
    """A toy package: module and function-level imports, dotted ones and
    aliases, read bare or as an attribute's base, pass; an import whose
    name its module never reads is found, also when another module reads
    that name."""
    files = {
        "a.py": ("from __future__ import annotations\nimport math\nimport os.path\n"
                 "import numpy as np\nfrom . import io as gio\nfrom .b import helper, unused\n"
                 "def f():\n    from fractions import Fraction\n    import json\n"
                 "    return os.path.sep, np.zeros, helper(), Fraction(1)\n"),
        "b.py": "import math\ndef helper():\n    return math.pi\ndef unused():\n    return gio\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert unused_imports(tmp_path) == ["a.gio", "a.json", "a.math", "a.unused"]


def test_reach_follows_relative_imports_and_respects_local_names(tmp_path):
    """A toy package: aliased module imports, lazy imports, re-exports,
    module statements, a class's dunders and properties, and a method whose
    name is read reach; a local name that equals another module's
    definition, a shadowed top-level name, and a method that nothing reads
    do not."""
    files = {
        "__init__.py": "import os\nLIMIT = 3\nif os.sep:\n    print(LIMIT)\n",
        "cli.py": ("from . import io as gio\nfrom .core import Thing\n"
                   "def main():\n    from .lazy import run\n"
                   "    return run(gio.read(), Thing().method())\n"
                   "def _dead():\n    return gio.write()\n"
                   "if __name__ == '__main__':\n    main()\n"),
        "io.py": "def read():\n    return 1\ndef write():\n    return 2\n",
        "core.py": ("from .base import helper, LIMIT, size\nclass Thing:\n"
                    "    def __init__(self):\n        self.limit = LIMIT\n"
                    "    @property\n    def size(self):\n        return size()\n"
                    "    def method(self):\n        return helper()\n"
                    "    def unused(self):\n        return 0\n"
                    "def evaluate():\n    return 0\n"),
        "base.py": ("def helper():\n    return 1\nUNUSED = helper()\nLIMIT = 2\n"
                    "def size():\n    return 3\n"),
        "lazy.py": ("from .core import Thing as Reexported\n"
                    "def run(x, y):\n    def evaluate(p):\n        return p\n"
                    "    shadow = 1\n    return evaluate(x) + shadow\n"
                    "def shadow():\n    return 0\n"),
        "other.py": "from .lazy import Reexported\ndef user():\n    return Reexported\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert unreached(tmp_path) == {"cli._dead": 2, "io.write": 2, "core.evaluate": 2,
                                   "core.Thing.unused": 2, "base.UNUSED": 1,
                                   "lazy.shadow": 2, "other.user": 2}
