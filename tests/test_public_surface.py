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
    ("posterior", "GaussianPosterior"),
    ("posterior", "SurrogatePosterior"),
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


def _module_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _loads(node: ast.AST) -> set[str]:
    """Names read under ``node``, as ``name`` or as ``obj.name``."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    }


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_read(name):
    tree = _module_trees()[name]
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    assert [b for b in bound if b not in _loads(tree)] == []


def _private_definitions(tree: ast.Module):
    """``(name, statement)`` for each module-level private function, class
    or constant; dunders are not private."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def test_every_private_name_is_referenced():
    """A private module-level name is read by some statement other than its
    own definition, in its module or, imported or as an attribute, in
    another one."""
    trees = _module_trees()
    imported = {
        alias.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = []
    for module, tree in trees.items():
        elsewhere = set().union(*(_loads(t) for m, t in trees.items() if m != module))
        for name, own in _private_definitions(tree):
            here = set().union(*(_loads(stmt) for stmt in tree.body if stmt is not own))
            if name not in here | elsewhere | imported:
                unused.append(f"{module}.{name}")
    assert unused == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_names() -> list[tuple[str, str]]:
    """``(module, name)`` for each ``pg.<name>`` the benchmark reads, where
    ``pg`` is ``import passglm as pg``, and each name it imports ``from
    passglm...``."""
    names = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name.split(".")[0] == "passglm"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "passglm":
                names += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
                names.append((aliases[node.value.id], node.attr))
    return sorted(set(names))


def test_perfbench_reads_only_names_the_package_has():
    names = _perfbench_names()
    assert ("passglm", "enumerate_indices") in names and ("passglm.suffstats", "crc32c") in names
    missing = [f"{m}.{n}" for m, n in names if not hasattr(importlib.import_module(m), n)]
    assert missing == []
