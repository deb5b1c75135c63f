"""Source hygiene: no module in the package imports a name it never uses,
defines a private name that nothing references or takes a parameter that its
function never reads, imports numpy when it is itself imported, or imports a
package module from inside a function or from a layer above its own, and every
function the benchmark tracer wraps still exists, as does every name a module's
``__all__`` lists or ``__init__.py`` imports, and no module but ``numerics``
names ``safeguarded_newton``, which only the tracer still wraps.

A stdlib ``ast`` check standing in for a linter.  A name counts as used when
it is read anywhere in the module (including inside annotations, quoted or
not) or listed in ``__all__``; ``__init__.py`` is skipped because its imports
are the package's re-exports.
"""
import ast
import importlib
import importlib.util
import pathlib

import pytest

import u2metrics

PACKAGE = pathlib.Path(u2metrics.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _imported(tree) -> dict:
    """name bound by an import -> line number, for every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as -> "ExpPoly"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return sorted(f"{path.name}:{line}: {name}" for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_checker_flags_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from typing import Optional, Sequence\n"
        "import math\n"
        "__all__ = ['f']\n"
        "def f(x: 'Optional[int]'):\n"
        "    return x\n"
    )
    assert unused_imports(src) == ["mod.py:1: Sequence", "mod.py:2: math"]


def unused_parameters(path: pathlib.Path) -> list:
    """``module:line: function(parameter)`` for each parameter that its function
    body never reads (nested functions count as the body).  ``self`` and
    ``cls`` are exempt, as are dunder methods and the CLI's ``_cmd_*``
    handlers, which argparse calls with ``args``: their signatures are fixed
    by their callers."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        if path.name == "cli.py" and node.name.startswith("_cmd_"):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {
            n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out += [
            f"{path.name}:{node.lineno}: {node.name}({p.arg})"
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls")
        ]
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path) == []


def test_checker_flags_an_unused_parameter(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def f(a, b, *args, c=1, **kw):\n"
        "    def g(d):\n"
        "        return a + c\n"
        "    b = 2\n"
        "    return g\n"
        "class K:\n"
        "    def __init__(self, unused):\n"
        "        pass\n"
        "    def m(self, x):\n"
        "        return 0\n"
    )
    assert unused_parameters(src) == [
        "mod.py:1: f(args)",
        "mod.py:1: f(b)",
        "mod.py:1: f(kw)",
        "mod.py:2: g(d)",
        "mod.py:9: m(x)",
    ]


def _private_definitions(tree) -> dict:
    """Module-level private function, class or constant name -> index of the
    top-level statement that defines it (dunder names are not private)."""
    out = {}
    for i, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out.update((n, i) for n in names if n.startswith("_") and not n.startswith("__"))
    return out


def _references(node) -> set:
    """Names a statement reads: plain names, attribute names and imported names."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def dead_private_names(paths) -> list:
    """``module:name`` for each module-level private name that no statement
    other than its own definition references, anywhere in ``paths``."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    refs = {(p, i): _references(node) for p, tree in trees.items() for i, node in enumerate(tree.body)}
    dead = []
    for p, tree in trees.items():
        for name, i in _private_definitions(tree).items():
            if not any(name in names for key, names in refs.items() if key != (p, i)):
                dead.append(f"{p.name}:{name}")
    return sorted(dead)


def test_no_dead_private_names():
    assert dead_private_names(sorted(PACKAGE.glob("*.py"))) == []


def test_checker_flags_a_dead_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_USED = 1\n"
        "_DEAD = 2\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else _USED\n"
        "def _imported():\n"
        "    return 0\n"
        "class _Dead:\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import _imported\n")
    assert dead_private_names([tmp_path / "a.py", tmp_path / "b.py"]) == [
        "a.py:_DEAD",
        "a.py:_Dead",
        "a.py:_recursive",
    ]


def import_time_imports(path: pathlib.Path, module: str) -> list:
    """``module:line`` for each import of ``module`` that runs when the module
    at ``path`` is imported: every one outside a function body and outside an
    ``if TYPE_CHECKING:`` block."""
    out = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module] if isinstance(node, ast.ImportFrom) and not node.level else []
            if any(name.split(".")[0] == module for name in names):
                out.append(f"{path.name}:{node.lineno}")
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(path.read_text(), filename=str(path)).body)
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_not_imported_at_module_level(path):
    # numpy is imported inside the functions that make an array, so the
    # commands that make none start without it
    assert import_time_imports(path, "numpy") == []


def test_checker_flags_an_import_time_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "if TYPE_CHECKING:\n"
        "    import numpy\n"
        "else:\n"
        "    from numpy import linalg\n"
        "try:\n"
        "    import numpy.random\n"
        "except ImportError:\n"
        "    pass\n"
        "class K:\n"
        "    import numpy\n"
        "    def m(self):\n"
        "        import numpy\n"
        "def f():\n"
        "    import numpy\n"
        "    return numpy\n"
    )
    assert import_time_imports(src, "numpy") == ["mod.py:2", "mod.py:6", "mod.py:8", "mod.py:12"]


# each module imports only modules before it here, so the package has no import cycle
LAYERS = (
    "numerics", "exppoly", "operators", "profiles", "curvature", "btflat",
    "classify", "geometry", "catalog", "metricfile", "cli",
)


def layering_violations(path: pathlib.Path) -> list:
    """``module:line: from .x`` for each ``from .x import`` in the module at
    ``path`` that is not a module-level statement or whose x does not come
    before the module in LAYERS (``from . import`` is exempt)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    rank = LAYERS.index(path.stem) if path.stem in LAYERS else -1
    top = {id(node) for node in tree.body}
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level and node.module):
            continue
        x = node.module.split(".")[0]
        if id(node) not in top:
            out.append(f"{path.name}:{node.lineno}: from .{node.module} (not at module level)")
        elif x not in LAYERS[:rank]:
            out.append(f"{path.name}:{node.lineno}: from .{node.module} (not a lower layer)")
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_follow_the_layers(path):
    assert path.stem in LAYERS
    assert layering_violations(path) == []


def test_checker_flags_a_layering_violation(tmp_path):
    src = tmp_path / "profiles.py"
    src.write_text(
        "from . import __version__\n"
        "from .numerics import a\n"
        "from .operators import b\n"
        "from .curvature import c\n"
        "from .profiles import d\n"
        "def f():\n"
        "    from .exppoly import e\n"
        "    return e\n"
    )
    assert layering_violations(src) == [
        "profiles.py:4: from .curvature (not a lower layer)",
        "profiles.py:5: from .profiles (not a lower layer)",
        "profiles.py:7: from .exppoly (not at module level)",
    ]


def _tracer_targets() -> dict:
    """label -> (module, attribute) from the tracer's SPANS and COUNTED, read with ast (not imported)."""
    targets = {}
    for node in ast.parse(TRACER.read_text(), filename=str(TRACER)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTED") for t in node.targets
        ):
            targets.update(ast.literal_eval(node.value))
    return targets


def test_tracer_reads_both_tables():
    labels = _tracer_targets()
    assert "btflat.bt_rhs" in labels and "classify.classify" in labels and "exppoly.eval" in labels


@pytest.mark.parametrize("label", sorted(_tracer_targets()))
def test_tracer_target_resolves(label):
    # `perfbench/run.py --trace 1` wraps each of these; a renamed or removed
    # function would make the tracer fail to install
    mod_name, attr = _tracer_targets()[label]
    target = importlib.import_module(mod_name)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def mentions(path: pathlib.Path, name: str) -> list:
    """``module:line`` for each place the module at ``path`` names ``name``: as a
    name, an attribute, an import or a string (an ``__all__`` entry, say)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and name in (node.name, node.asname))
            or (isinstance(node, ast.Constant) and node.value == name)
        ):
            out.append(f"{path.name}:{node.lineno}")
    return sorted(set(out), key=lambda s: int(s.rsplit(":", 1)[1]))


def test_one_root_scanner():
    # roots are isolated exactly by ExpPoly.real_roots; safeguarded_newton stays
    # in numerics only because perfbench/tracer.py wraps it by name
    others = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "numerics.py"]
    assert [hit for p in others for hit in mentions(p, "safeguarded_newton")] == []


def test_checker_flags_a_mention(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from .numerics import safeguarded_newton\n"
        "import numerics as n\n"
        "__all__ = ['safeguarded_newton']\n"
        "def f():\n"
        "    return n.safeguarded_newton, safeguarded_newton\n"
        "def g():\n"
        "    return 'safeguarded_newton_not'\n"
    )
    assert mentions(src, "safeguarded_newton") == ["mod.py:1", "mod.py:3", "mod.py:5"]


def unresolved_exports(module) -> list:
    """``module: name`` for each name in the module's ``__all__`` that it does not define."""
    return [f"{module.__name__}: {name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_all_names_resolve():
    # _used counts an __all__ entry as a use, so a stale entry left behind by
    # a deletion would pass every check above
    modules = {p.stem: importlib.import_module(f"u2metrics.{p.stem}") for p in MODULES}
    assert [bad for module in modules.values() for bad in unresolved_exports(module)] == []
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    reexports = [(node.module, a.name) for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert reexports and all(mod in modules for mod, _ in reexports)
    assert [f"{mod}.{name}" for mod, name in reexports if not hasattr(modules[mod], name)] == []


def test_checker_flags_a_stale_all_entry(tmp_path):
    src = tmp_path / "stale_mod.py"
    src.write_text("__all__ = ['kept', 'deleted']\ndef kept():\n    return 0\n")
    spec = importlib.util.spec_from_file_location("stale_mod", src)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert unresolved_exports(module) == ["stale_mod: deleted"]
