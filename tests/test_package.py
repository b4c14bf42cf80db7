"""The package's export list against what superstft/__init__.py binds."""

import ast
import pathlib

import superstft


def _bound_public_names():
    """Public names that superstft/__init__.py binds at module level, by
    import, assignment or definition, in order."""
    tree = ast.parse(pathlib.Path(superstft.__file__).read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
    return [name for name in names if not name.startswith("_")]


def test_all_lists_exactly_the_bound_public_names():
    """__all__ has no duplicate, no stale entry and none missing."""
    exported = superstft.__all__
    bound = _bound_public_names()
    assert len(exported) == len(set(exported)), sorted(
        name for name in exported if exported.count(name) > 1)
    assert sorted(set(exported) - set(bound)) == []
    assert sorted(set(bound) - set(exported)) == []
    assert all(hasattr(superstft, name) for name in exported)


def _referenced_names(path):
    """Every name a module uses, as a bare name or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller_in_the_package():
    """Each name in __all__ is used somewhere in the package's modules
    other than __init__: an export that only tests use belongs in
    tests/oracles.py, and a paper identity that nothing calls gets a
    verify case."""
    package = pathlib.Path(superstft.__file__).parent
    used = set()
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            used |= _referenced_names(path)
    assert sorted(set(superstft.__all__) - used) == []
