"""Source checks: the library depends on the Python standard library alone,
every private name in it has a caller, and every private attribute it
stores is read somewhere."""
import ast
import pathlib
import sys
from collections import Counter

import leafconn

SOURCES = sorted(pathlib.Path(leafconn.__file__).parent.glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_imports_only_the_standard_library():
    assert SOURCES
    foreign = {
        (path.name, name)
        for path in SOURCES
        for name in absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    }
    assert not foreign


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def private_definitions(tree):
    """``(name, node, is_method)`` for the module-level functions, classes
    and constants with a leading ``_``, and the private methods: those with
    a leading ``_`` and every method of a private class, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.startswith("_") and not _is_dunder(target.id):
                    yield target.id, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or _is_dunder(item.name):
                    continue
                if item.name.startswith("_") or node.name.startswith("_"):
                    yield item.name, item, True


def reads(tree):
    """``(is_attribute, name)`` for every name read in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield False, node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield True, node.attr


def parsed_sources():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}


def test_every_private_name_has_a_library_caller():
    trees = parsed_sources()
    everywhere = Counter(read for tree in trees.values() for read in reads(tree))
    unused = set()
    for module, tree in trees.items():
        for name, node, is_method in private_definitions(tree):
            # a method is called as an attribute; a read inside the
            # definition itself is not a caller
            kinds = (True,) if is_method else (False, True)
            inside = Counter(reads(node))
            if all(everywhere[kind, name] == inside[kind, name] for kind in kinds):
                unused.add((module, name))
    assert not unused


def stored_private_attributes(tree):
    """The private attribute names assigned in ``tree`` (``x._name = ...``),
    dunders excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if node.attr.startswith("_") and not _is_dunder(node.attr):
                yield node.attr


def test_every_private_attribute_stored_is_read():
    trees = parsed_sources()
    everywhere = Counter(read for tree in trees.values() for read in reads(tree))
    unread = {
        (module, name)
        for module, tree in trees.items()
        for name in stored_private_attributes(tree)
        if not everywhere[True, name]
    }
    assert not unread
