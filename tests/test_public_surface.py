"""The package's public surface: every module's ``__all__`` names only what
the module defines, and ``passglm`` re-exports only names that its modules
list in ``__all__``."""

import ast
import importlib
from pathlib import Path

import pytest

import passglm

SRC = Path(passglm.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"passglm.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_only_listed_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.module]
    assert imports
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"passglm.{node.module}").__all__
    ]
    assert unlisted == []
