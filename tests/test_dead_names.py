"""Every top-level function, class and assigned name in src/charlie is used,
and so is every member of its classes: methods, properties and class
attributes.

A name counts as used when src/charlie or tests refer to it other than by its
own definition or an assignment to it: as a bare name, an attribute
(`xr.poly_mul`, `span.insert`) or an imported name (`from .linalg import
nullspace`).  Dunders such as __init__ or __version__, which Python and tools
call, are exempt.  Code that nothing calls is deleted, not kept as API.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "charlie").glob("*.py"))


def _trees(paths):
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}


def _referenced(trees) -> set:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _defined(body) -> list:
    """Names a module or class body defines: functions, classes and
    assignment targets, dunders left out."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if not name.startswith("__")]


def _unused(qualify) -> list:
    """Qualified names defined in the (prefix, body) pairs that
    qualify(path, tree) yields for each source and that nothing refers to."""
    source_trees = _trees(SOURCES)
    used = _referenced({**source_trees, **_trees(sorted((ROOT / "tests").glob("*.py")))})
    return [f"{prefix}.{name}" for path, tree in source_trees.items()
            for prefix, body in qualify(path, tree) for name in _defined(body)
            if name not in used]


def test_every_top_level_definition_is_referenced():
    assert _unused(lambda path, tree: [(path.stem, tree.body)]) == []


def test_every_class_member_is_referenced():
    assert _unused(lambda path, tree: [
        (f"{path.stem}.{node.name}", node.body)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]) == []
