"""The package exports only what a pipeline path uses, and runs no
LAPACK.

Every name that qimcf/__init__.py imports must be referenced somewhere
in src/qimcf or bench/ outside its own def or class: a function that
only tests call belongs in a named oracle module under tests/.  No module
of the package but the stand-alone ambient check reads numpy.linalg: a
derivation that needs it (the stability edges, say) lives in a named
oracle under tests/ and ships its results as a generated table.
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


def linalg_lines(tree: ast.AST) -> list:
    """Line numbers of every reference to linalg in tree: a name, an
    attribute such as np.linalg, or an import of a linalg module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names
                     for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [
                alias.name for alias in node.names]
        else:
            continue
        if "linalg" in names:
            lines.append(node.lineno)
    return lines


def test_no_module_on_a_run_path_uses_linalg():
    # the first LAPACK call of a process costs about 1.6 MB of peak RSS
    found = {path.name: linalg_lines(ast.parse(path.read_text(
                 encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "ambient.py"}
    assert found, "no modules found"
    used = {name: lines for name, lines in found.items() if lines}
    assert not used, f"linalg referenced at {used}"
