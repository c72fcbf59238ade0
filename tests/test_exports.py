"""Every name the package exports has a caller outside its own definition."""

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


def test_every_export_is_used_in_the_package_demos_or_perfbench():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in sources:
        for name, enclosing in _used_names(ast.parse(path.read_text())):
            if name not in enclosing:
                used.add(name)
    assert sorted(_exported_names() - used) == []
