"""Nothing in ``src/reqtag`` that only the tests reach.

Two static checks over the package source, by name:
- every top-level function and class is referenced somewhere in the
  package outside its own definition (the console-script entry point is
  the one exception);
- every name an import binds is used in the module that imports it.

A reference is a loaded name or an attribute read with the same name, so
an unrelated attribute of the same name also counts: the check can miss
dead code, but it never flags live code.
"""

import ast
from pathlib import Path

import reqtag

SRC = Path(reqtag.__file__).parent
# called from outside the package: the `reqtag` console script
ENTRY_POINTS = {("cli", "main")}


def _modules():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def _names(nodes):
    """Every name the trees load or read as an attribute."""
    names = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
    return names


def test_every_top_level_definition_is_referenced():
    # each top-level statement of the package with the names it references
    tops = [(mod, node, _names([node]))
            for mod, tree in _modules().items() for node in tree.body]
    unreferenced = [
        f"{mod}.{d.name}" for mod, d, _ in tops
        if isinstance(d, (ast.FunctionDef, ast.ClassDef))
        and (mod, d.name) not in ENTRY_POINTS
        and not any(d.name in names for _, node, names in tops if node is not d)]
    assert unreferenced == []


def test_every_imported_name_is_used():
    unused = []
    for mod, tree in _modules().items():
        used = _names([tree])
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{mod}: {bound}")
    assert unused == []
