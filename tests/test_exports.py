"""The package's public names: `__all__` lists exactly what `__init__` binds."""

import ast
from pathlib import Path

import cfshrink


def _bound_names():
    """Names `cfshrink/__init__.py` imports or assigns at module level, `__all__` aside."""
    tree = ast.parse(Path(cfshrink.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    names.discard("__all__")
    return names


def test_all_matches_the_bound_names():
    assert len(cfshrink.__all__) == len(set(cfshrink.__all__))
    assert set(cfshrink.__all__) == _bound_names()


def test_every_exported_name_resolves():
    missing = [name for name in cfshrink.__all__ if not hasattr(cfshrink, name)]
    assert not missing
