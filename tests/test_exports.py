"""Every exported name resolves: each module's __all__, and each name the
package's __init__ imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import branchknot

MODULES = sorted(m.name for m in pkgutil.iter_modules(branchknot.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"branchknot.{name}")
    stale = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not stale, f"branchknot.{name}.__all__ names {stale}"


def test_package_imports_resolve():
    tree = ast.parse(Path(branchknot.__file__).read_text())
    imported = 0
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        src = importlib.import_module("." * node.level + (node.module or ""),
                                      "branchknot")
        for alias in node.names:
            assert hasattr(src, alias.name), f"{src.__name__}.{alias.name}"
            assert hasattr(branchknot, alias.asname or alias.name)
            if node.module is not None:
                # a name the package re-exports is one its module exports
                assert alias.name in src.__all__, f"{src.__name__}.{alias.name}"
            imported += 1
    assert imported > 0
