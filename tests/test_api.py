"""The package exports only what a pipeline path uses.

Every name that qimcf/__init__.py imports must be referenced somewhere
in src/qimcf or bench/ outside its own def or class: a function that
only tests call belongs in a named oracle module under tests/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qimcf"


def references(tree: ast.AST) -> set:
    """Names and attributes read in tree, except inside the def or class
    that defines them."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_export_is_used_outside_its_definition():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(
            (ROOT / "bench").glob("*.py")):
        used |= references(ast.parse(path.read_text(encoding="utf-8")))
    assert exported, "no exports found"
    unused = sorted(exported - used)
    assert not unused, f"qimcf exports names no pipeline path uses: {unused}"
