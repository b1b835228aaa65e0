"""Every top-level function, class and assigned name in src/charlie is used.

A name counts as used when src/charlie or tests refer to it other than by its
own definition or an assignment to it: as a bare name, an attribute
(`xr.poly_mul`) or an imported name (`from .linalg import nullspace`).  Code
that nothing calls is deleted, not kept as API.
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


def _defined(tree) -> list:
    """Names the module body defines: functions, classes and assignment
    targets other than dunders such as __version__, which tools read."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets
                         if isinstance(t, ast.Name) and not t.id.startswith("__"))
    return names


def test_every_top_level_definition_is_referenced():
    source_trees = _trees(SOURCES)
    used = _referenced({**source_trees, **_trees(sorted((ROOT / "tests").glob("*.py")))})
    unused = [f"{path.stem}.{name}"
              for path, tree in source_trees.items() for name in _defined(tree)
              if name not in used]
    assert unused == []
