"""The package's public surface: every module's ``__all__`` names only what
the module defines, ``passglm`` re-exports only names that its modules
list in ``__all__``, and the fields of its settings and records are read
somewhere in the package."""

import ast
import dataclasses
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


# (module, class) whose every field some code in the package reads
READ_FIELDS = [
    ("mappings", "Term"),
    ("mappings", "MappingSpec"),
    ("posterior", "PriorSpec"),
    ("data", "ProjectionSpec"),
    ("baselines", "MalaConfig"),
    ("metrics", "EvalReport"),
]


def _attributes_read() -> set[str]:
    """Every attribute name the package's modules read (``obj.name`` loads)."""
    return {
        node.attr
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("module,cls", READ_FIELDS, ids=[c for _, c in READ_FIELDS])
def test_every_field_is_read(module, cls):
    fields = dataclasses.fields(getattr(importlib.import_module(f"passglm.{module}"), cls))
    assert [f.name for f in fields if f.name not in _attributes_read()] == []
