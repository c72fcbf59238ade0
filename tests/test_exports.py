"""Every name the package exports, and every public function, class and
method it defines, has a caller outside its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stheat"


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _used_names(tree):
    """(name, enclosing definitions) for every name loaded or attribute read."""
    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
        for child in ast.iter_child_nodes(node):
            yield from visit(child, enclosing)

    return visit(tree, frozenset())


def _public_definitions(tree):
    """(qualified name, name) of every public module-level function and class
    and every public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


MODULES = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
SOURCES = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def test_every_export_is_used_in_the_package_demos_or_perfbench():
    used = set()
    for path in SOURCES:
        for name, enclosing in _used_names(ast.parse(path.read_text())):
            if name not in enclosing:
                used.add(name)
    assert sorted(_exported_names() - used) == []


# README documents the backward-Euler history as part of the public API
USER_API = {"MarchingSolution.states"}


def test_every_public_definition_is_used_in_the_package_demos_or_perfbench():
    # code that only tests call belongs in tests/.  A use counts only outside
    # the definition it names and outside every unused definition, so a class
    # that only an unused function builds is unused too.
    defined = {qualified: name for path in MODULES
               for qualified, name in _public_definitions(ast.parse(path.read_text()))}
    uses = [use for path in SOURCES for use in _used_names(ast.parse(path.read_text()))]
    unused, grown = set(), True
    while grown:
        unused_names = {defined[q] for q in unused}
        used = {name for name, enclosing in uses
                if name not in enclosing and not enclosing & unused_names}
        grown = {q for q, name in defined.items() if name not in used} - USER_API - unused
        unused |= grown
    assert sorted(unused) == []
