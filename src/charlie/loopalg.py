"""Exact matrix realizations of the loop algebra of sl(2) and the twisted loop
algebra of sl(3) as residue data, their gradings and Serre relations.

Each realization is one ALGEBRAS row: its period P, the t-free matrices
M_0..M_{P-1} and the t-powers of b_0..b_P, so that b_{kP+s} is t^(powers[s] +
k powers[P]) M_s, and its label prefix, canonical bigradings and Serre
relations.  This is the independent oracle side: a structure constant is one
residue cell, read off three matrices and their powers in the row, and a
matrix Serre relation is read from a chain of those cells.  No basis or
Laurent matrix is built here; the tests build them from the rows and check
them against the closed forms.  The one exception is serre_check's jet
branch, which imports closure to build the Serre rungs on jets; it stays in
serre_check because bench/tracer.py spans serre_check by realization (jet or
matrix) until the tracer changes (ROADMAP items 6 and 7).  The transcribed
structure-constant table for the twisted algebra is kept as data-under-test;
the matrices are ground truth and `twisted_table_diff` reports any cell where
the print drifts from the arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


# ---------------------------------------------------------------------------
# the two loop algebras, one row each
# ---------------------------------------------------------------------------

# A realization b_0, b_1, ... of a non-negative loop algebra part as residue
# data: b_{kP+s} = t^(powers[s] + k powers[P]) M_s for 0 <= s < P, so b_{i+P}
# is t^powers[P] b_i, has the canonical bigrading of b_i plus that of b_P, and
# every structure constant depends only on the residues mod P.
LoopAlgebra = namedtuple("LoopAlgebra", (
    "period",
    "mats",                     # t-free M_0..M_{P-1}, {(row, col): int or non-integral Fraction}
    "powers",                   # t-powers of b_0..b_P
    "prefix",                   # label of b_i: prefix + i
    "bigradings",               # canonical (generator-count) bigradings of b_0..b_P
    "serre",                    # (x, y, m): ad^m b_x (b_y) = 0 on the generators b_1, b_2
))


ALGEBRAS = {
    # L(sl(2))^{>=0}, A_1^(1): e_{3k} = (1/2) diag(t^k, -t^k), e_{3k+1} = (1/2) E12 t^k,
    # e_{3k+2} = E21 t^{k+1}
    "n1": LoopAlgebra(3, ({(0, 0): Fraction(1, 2), (1, 1): Fraction(-1, 2)},
                          {(0, 1): Fraction(1, 2)}, {(1, 0): 1}),
                      (0, 0, 1, 1), "e", ((0, 0), (1, 0), (0, 1), (1, 1)),
                      ((1, 2, 3), (2, 1, 3))),
    # L(sl(3), mu)^{>=0}, A_2^(2): f_{8k}, f_{8k+1} and f_{8k+7} in g_0 on even powers
    # of t, f_{8k+2} .. f_{8k+6} in g_1 on odd ones
    "n2": LoopAlgebra(8, ({(0, 0): 1, (2, 2): -1}, {(0, 1): 1, (1, 2): 1}, {(2, 0): 1},
                          {(1, 0): 1, (2, 1): -1}, {(0, 0): 1, (1, 1): -2, (2, 2): 1},
                          {(0, 1): 1, (1, 2): -1}, {(0, 2): 1}, {(1, 0): 1, (2, 1): 1}),
                      (0, 0, 1, 1, 1, 1, 1, 2, 2), "f",
                      ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (3, 2), (4, 2)),
                      ((2, 1, 2), (1, 2, 5))),
}


_CELLS: dict = {}    # (algebra, q mod P, l mod P) -> structure constant, on first read


def _cell(algebra: str, q: int, l: int) -> Fraction:
    """c with [b_q, b_l] = c b_{q+l} for residues q, l, read from the row: with
    q + l = nP + s, [b_q, b_l] = t^(powers[q] + powers[l]) [M_q, M_l], so a
    nonzero commutator must sit on t^(powers[s] + n powers[P]) and be c M_s in
    every entry, cross-multiplied."""
    row = ALGEBRAS[algebra]
    n, s = divmod(q + l, row.period)
    a, b, m = row.mats[q], row.mats[l], row.mats[s]
    com = dict.fromkeys(m, 0)           # every entry of M_s is compared
    for (i, k), u in a.items():          # each pair of entries meets in ab and in ba
        for (k2, j), v in b.items():
            if k == k2:
                com[i, j] = com.get((i, j), 0) + u * v
            if j == i:
                com[k2, k] = com.get((k2, k), 0) - v * u
    key = min(m)
    num, den = com[key], m[key]
    p = row.powers
    if (num and p[q] + p[l] != p[s] + n * p[-1]) or \
            any(c * den != num * m.get(k, 0) for k, c in com.items()):
        raise ArithmeticError(f"[b_{q}, b_{l}] is not a multiple of b_{q + l} in {algebra}")
    return Fraction(num, den)


# transcribed structure-constant table (data-under-test; rows = first argument
# residue, columns = second argument residue, both mod 8)
TWISTED_TABLE_TRANSCRIBED = (
    (0, 1, -2, -1, 0, 1, 2, -1),
    (-1, 0, 1, 1, -3, -2, 0, 1),
    (2, -1, 0, 0, 0, 1, -1, 0),
    (1, -1, 0, 0, 3, -1, 1, -2),
    (0, 3, 0, -3, 0, 3, 0, -3),
    (-1, 2, -1, 1, -3, 0, 0, -1),
    (-2, 0, 1, -1, 0, 0, 0, 1),
    (1, -1, 0, 2, 3, 1, -1, 0),
)


def twisted_table_diff() -> list[tuple[int, int, int, Fraction]]:
    """Cells where the transcribed table disagrees with the matrix arithmetic:
    (row residue, col residue, transcribed, computed)."""
    return [(q, l, printed, computed) for q, row in enumerate(TWISTED_TABLE_TRANSCRIBED)
            for l, printed in enumerate(row)
            if (computed := matrix_structure_constant("n2", q, l)) != printed]


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------

def canonical_bigrading(algebra: str, index: int) -> tuple[int, int]:
    """Canonical (generator-count) bigrading (p, q) of b_index: b_{kP+s} has
    the bigrading of b_s plus k times that of b_P."""
    row = ALGEBRAS[algebra]
    k, s = divmod(index, row.period)
    (p, q), (dp, dq) = row.bigradings[s], row.bigradings[-1]
    return p + k * dp, q + k * dq


def natural_degree(algebra: str, index: int) -> int:
    """Natural degree of b_index: p + q of its canonical bigrading (Kac's
    principal gradation)."""
    return sum(canonical_bigrading(algebra, index))


# ---------------------------------------------------------------------------
# structure tables and Serre relations (matrix side)
# ---------------------------------------------------------------------------

def matrix_structure_constant(algebra: str, i: int, j: int) -> Fraction:
    """c with [b_i, b_j] = c b_{i+j}: the residue cell of (i, j) mod the period,
    computed on first read (checked over two periods in the tests against the
    Laurent-matrix commutator of tests/oracles.py, for n1 also against the
    closed-form sl(2) rule)."""
    period = ALGEBRAS[algebra].period
    key = (algebra, i % period, j % period)
    if key not in _CELLS:
        _CELLS[key] = _cell(*key)
    return _CELLS[key]


def matrix_table(algebra: str, max_index: int) -> dict[tuple[int, int], Fraction]:
    """{(i, j): constant} for 0 <= i < j, i + j <= max_index, exact."""
    return {(i, j): matrix_structure_constant(algebra, i, j)
            for i in range(max_index + 1) for j in range(i + 1, max_index - i + 1)}


def serre_check(algebra: str, realization: str = "matrix", generators=None) -> dict:
    """Defining ad-power relations in either realization.

    matrix: each relation on the canonical generators, as a chain of cells.
    jet: each relation on the closure's two degree-one `generators`, up to
    their order (ZERO_UP_TO / NONZERO strings); closure.serre_rungs builds its
    rungs from [D, X(g)] = -g X_0 and their eigenvalues and slots, as ad_D is
    injective on fields with an empty u slot, and reads no table entry.
    """
    if realization == "matrix":
        return serre_check_matrix(algebra)
    if realization != "jet":
        raise ValueError(f"unknown realization {realization!r}")
    if not generators or len(generators) != 2:
        raise ValueError("jet realization needs the two degree-one generators")
    from .closure import serre_rungs
    from .jetfield import is_zero_up_to
    return {f"ad^{m} g{x} (g{y})":
            is_zero_up_to(serre_rungs(generators[x - 1], generators[y - 1], m)[-1].field_raw)
            for x, y, m in ALGEBRAS[algebra].serre}


def serre_check_matrix(algebra: str) -> dict[str, bool]:
    """Defining ad-power relations of the nilpotent part on the generators
    (e_1, e_2) of A1(1) and (f_1, f_2) of A2(2), read from a chain of cells:
    ad_{b_x}^m b_y = prod_{j<m} c(x, y + j x) b_{y+mx}, zero iff one factor is."""
    row = ALGEBRAS[algebra]
    return {f"ad^{m} {row.prefix}{x} ({row.prefix}{y})":
            not all(matrix_structure_constant(algebra, x, y + j * x) for j in range(m))
            for x, y, m in row.serre}
