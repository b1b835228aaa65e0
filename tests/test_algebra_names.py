"""No module in src/charlie branches on the name of a loop algebra.

Each loop algebra is one row of loopalg.ALGEBRAS (period, basis, label
prefix, canonical bigradings, Serre relations), and code reads the row.  A
comparison against an algebra's name, `algebra == "n1"` or
`algebra in ("n1", "n2")`, writes a fact about that algebra a second time.
Likewise each equation is one row of analysis.EQUATIONS and of
analysis.TARGETS, and no module compares against an equation's name.
"""

import ast
from pathlib import Path

from charlie.analysis import EQUATIONS

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "charlie").glob("*.py"))
ALGEBRA_NAMES = {"n1", "n2", "A1_1", "A2_2"}


def _named_constants(node) -> set:
    """String constants of a compared operand, inside a tuple, list or set too."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {item.value for item in items
            if isinstance(item, ast.Constant) and isinstance(item.value, str)}


def _comparisons_against(names: set) -> list:
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare):
                for operand in (node.left, *node.comparators):
                    for name in sorted(_named_constants(operand) & names):
                        found.append(f"{path.stem}:{node.lineno}: {name!r}")
    return found


def test_no_comparison_against_an_algebra_name():
    assert _comparisons_against(ALGEBRA_NAMES) == []


def test_no_comparison_against_an_equation_name():
    assert _comparisons_against(set(EQUATIONS)) == []
