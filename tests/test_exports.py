"""The package's public names: every `__all__` entry and every name that
`oklab/__init__.py` re-exports is defined."""

import ast
import importlib
import inspect
import pkgutil
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
