"""The package's public names: every `__all__` entry and every name that
`oklab/__init__.py` re-exports is defined, and every public function and
method has a caller outside the tests; and what importing it loads."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import oklab

MODULES = sorted(m.name for m in pkgutil.iter_modules(oklab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_defines_every_all_entry(name):
    module = importlib.import_module(f"oklab.{name}")
    names = getattr(module, "__all__", [])
    assert [n for n in names if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from oklab.{name} import *", namespace)
    assert [n for n in names if n not in namespace] == []


def test_package_reexports_exist():
    tree = ast.parse(Path(oklab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"oklab.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert getattr(oklab, alias.asname or alias.name) is getattr(module, alias.name)


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_private_name_of_another(name):
    tree = ast.parse(Path(oklab.__file__).with_name(f"{name}.py").read_text())
    private = [f"{node.module or '.'}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("oklab"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


# each module imports only from modules before it
LAYERS = ("linalg", "exactgeom", "toric", "okounkov", "additivity", "inequalities",
          "verify", "cli")


def test_modules_import_only_from_earlier_layers():
    assert sorted(LAYERS) == MODULES
    later = []
    for name in LAYERS:
        tree = ast.parse(Path(oklab.__file__).with_name(f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                # `from . import x` names the module x; `from .x import y` the module x
                targets = [node.module] if node.module else [a.name for a in node.names]
                later += [f"{name} imports {t}" for t in targets
                          if t in LAYERS and LAYERS.index(t) >= LAYERS.index(name)]
    assert later == []


def _public_callables(module):
    """(qualified name, callable) for the public functions and methods that
    a module defines."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr in vars(obj):
                member = getattr(obj, attr)
                if not attr.startswith("_") and (inspect.isfunction(member)
                                                 or inspect.ismethod(member)):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_no_operation_takes_a_fan_beside_its_flag():
    # a flag carries its fan, so a second `fan` argument could only disagree
    both = [f"{name}.{qual}" for name in MODULES
            for qual, fn in _public_callables(importlib.import_module(f"oklab.{name}"))
            if {"fan", "flag"} <= set(inspect.signature(fn).parameters)]
    assert both == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree) -> set:
    """The private names a module defines: its functions, classes and
    methods, the variables and attributes it assigns, and the attributes it
    sets by name (`object.__setattr__(self, "_x", ...)`)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.Call) and "setattr" in ast.unparse(node.func):
            names.update(a.value for a in node.args if isinstance(a, ast.Constant)
                         and isinstance(a.value, str))
    return {name for name in names if _private(name)}


def test_no_module_reads_a_private_attribute_of_another():
    trees = {name: ast.parse(Path(oklab.__file__).with_name(f"{name}.py").read_text())
             for name in MODULES}
    defined = {name: _private_definitions(tree) for name, tree in trees.items()}
    assert "_class_rows" in defined["toric"] and "_y1" in defined["toric"]
    reads = [f"{name} reads {other}'s .{node.attr}"
             for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             and _private(node.attr) and node.attr not in defined[name]
             for other in MODULES if node.attr in defined[other]]
    assert reads == []


def _loads(tree):
    """(top-level statement, name) for every name a module reads, bare or
    as an attribute of a name (`toric.mu`), under the statement that reads it."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield top, node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                yield top, node.attr


def _attribute_reads(node) -> Counter:
    """How often each attribute name is read under a node (`x.name`)."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_every_public_function_has_a_caller_outside_the_tests():
    # a helper that only tests call belongs in tests/: each public top-level
    # function of the package is used by the package or by perfbench/, apart
    # from its own def, `__all__` (strings) and the re-exports of __init__.py;
    # each public method or property of a package class is read there as an
    # attribute, apart from inside its own def
    package = Path(oklab.__file__).parent
    trees = {path: ast.parse(path.read_text()) for path in
             [package / f"{name}.py" for name in MODULES]
             + sorted((package.parent.parent / "perfbench").glob("*.py"))}
    used = {(name, getattr(top, "name", None), path) for path, tree in trees.items()
            for top, name in _loads(tree)}
    uncalled = [f"{path.stem}.{top.name}" for path, tree in trees.items()
                if path.parent == package for top in tree.body
                if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")
                and not any(name == top.name and (owner, where) != (top.name, path)
                            for name, owner, where in used)]
    reads = sum(map(_attribute_reads, trees.values()), Counter())
    uncalled += [f"{path.stem}.{cls.name}.{fn.name}" for path, tree in trees.items()
                 if path.parent == package for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)
                 and not fn.name.startswith("_") and reads[fn.name] == _attribute_reads(fn)[fn.name]]
    assert uncalled == []


# stdlib modules that would cost every cold `oklab` call milliseconds of import
HEAVY = ("dataclasses", "inspect", "ast", "dis", "typing")


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_dataclasses_or_typing(name):
    tree = ast.parse(Path(oklab.__file__).with_name(f"{name}.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and not node.level]
    assert [m for m in imported if m.split(".")[0] in ("dataclasses", "typing")] == []


def test_importing_the_cli_loads_no_heavy_stdlib_module():
    # -S: no `site`, which on some hosts imports typing itself
    code = "import sys, oklab.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(oklab.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", code, *HEAVY], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
