"""Exact matrix realizations of the loop algebra of sl(2) and the twisted loop
algebra of sl(3), their gradings and Serre relations.

This is the independent oracle side: each basis matrix is a power of t times
an exact t-free matrix, a structure constant is one residue cell, read off the
t-free parts of its three basis matrices, and a matrix Serre relation is read
from a chain of those cells.  The one exception is serre_check's jet branch,
which imports closure to build the Serre rungs on jets; it stays in
serre_check because bench/tracer.py spans serre_check by realization (jet or
matrix) until the tracer changes (ROADMAP items 6 and 7).  Each realization is
one ALGEBRAS row, and its gradings, structure constants and Serre checks are
read from that row.  The transcribed structure-constant table for the twisted
algebra is kept as data-under-test; the matrices are ground truth and
`twisted_table_diff` reports any cell where the print drifts from the
arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


def lm(items: dict) -> dict:
    """The Laurent matrix {(i, j, p): c}: entry (i, j) of its t^p part, an int
    or a non-integral Fraction, zeros never stored: equality is dict equality."""
    return {k: v if v.denominator != 1 else v.numerator for k, v in items.items() if v}


def lm_t_shift(a: dict, p: int) -> dict:
    return lm({(i, j, q + p): v for (i, j, q), v in a.items()})


# ---------------------------------------------------------------------------
# loop algebra of sl(2): basis e_0, e_1, e_2, ... of the non-negative part
# ---------------------------------------------------------------------------

def sl2_basis(i: int) -> dict:
    """e_{3k} = (1/2) diag(t^k, -t^k); e_{3k+1} = (1/2) E12 t^k; e_{3k+2} = E21 t^{k+1}."""
    if i < 0:
        raise ValueError(f"non-negative part needs index >= 0, got {i}")
    k, s = divmod(i, 3)
    if s == 0:
        return lm({(0, 0, k): Fraction(1, 2), (1, 1, k): Fraction(-1, 2)})
    if s == 1:
        return lm({(0, 1, k): Fraction(1, 2)})
    return lm({(1, 0, k + 1): 1})


# ---------------------------------------------------------------------------
# twisted loop algebra of sl(3)
# ---------------------------------------------------------------------------

SL3_F = {
    -1: lm({(1, 0, 0): 1, (2, 1, 0): 1}),
    0: lm({(0, 0, 0): 1, (2, 2, 0): -1}),
    1: lm({(0, 1, 0): 1, (1, 2, 0): 1}),
    2: lm({(2, 0, 0): 1}),
    3: lm({(1, 0, 0): 1, (2, 1, 0): -1}),
    4: lm({(0, 0, 0): 1, (1, 1, 0): -2, (2, 2, 0): 1}),
    5: lm({(0, 1, 0): 1, (1, 2, 0): -1}),
    6: lm({(0, 2, 0): 1}),
}

def sl3_twisted_basis(n: int) -> dict:
    """f_{8k+s}: s in {-1,0,1} on t^{2k} (g_0 part), s in {2..6} on t^{2k+1} (g_1 part)."""
    if n < 0:
        raise ValueError(f"non-negative part needs index >= 0, got {n}")
    s = (n + 1) % 8 - 1  # -1 <= s <= 6
    k = (n - s) // 8
    p = 2 * k if s <= 1 else 2 * k + 1
    return lm_t_shift(SL3_F[s], p)


# ---------------------------------------------------------------------------
# the two loop algebras, one row each
# ---------------------------------------------------------------------------

# The facts a realization b_0, b_1, ... of a non-negative loop algebra part
# rests on.  Shifting an index by the period multiplies b_i by a power of t,
# so b_{i+P} has the canonical bigrading of b_i plus that of b_P, and every
# structure constant depends only on the residues mod P.
LoopAlgebra = namedtuple("LoopAlgebra", (
    "period",
    "basis",                    # int -> Laurent matrix, one power of t times a constant
    "prefix",                   # label of b_i: prefix + i
    "bigradings",               # canonical (generator-count) bigradings of b_0..b_P
    "serre",                    # (x, y, m): ad^m b_x (b_y) = 0 on the generators b_1, b_2
))


ALGEBRAS = {
    # L(sl(2))^{>=0}, A_1^(1)
    "n1": LoopAlgebra(3, sl2_basis, "e", ((0, 0), (1, 0), (0, 1), (1, 1)),
                      ((1, 2, 3), (2, 1, 3))),
    # L(sl(3), mu)^{>=0}, A_2^(2)
    "n2": LoopAlgebra(8, sl3_twisted_basis, "f",
                      ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (3, 2), (4, 2)),
                      ((2, 1, 2), (1, 2, 5))),
}


_T_FREE: dict = {}   # (algebra, i) -> (p, M): b_i = t^p M, M = {(row, col): entry}
_CELLS: dict = {}    # (algebra, q mod P, l mod P) -> structure constant, on first read


def _t_free(algebra: str, i: int) -> tuple:
    if (algebra, i) not in _T_FREE:
        b = ALGEBRAS[algebra].basis(i)
        powers = {p for _, _, p in b}
        if len(powers) != 1:
            raise ArithmeticError(f"b_{i} in {algebra} is not a power of t times a matrix")
        _T_FREE[algebra, i] = powers.pop(), {(r, c): v for (r, c, _), v in b.items()}
    return _T_FREE[algebra, i]


def _cell(algebra: str, q: int, l: int) -> Fraction:
    """c with [b_q, b_l] = c b_{q+l}: [b_q, b_l] = t^(p_q + p_l) [M_q, M_l], so a nonzero
    commutator must sit on p_{q+l} and be c M_{q+l} in every entry, cross-multiplied."""
    (pq, a), (pl, b), (p, m) = (_t_free(algebra, i) for i in (q, l, q + l))
    com = dict.fromkeys(m, 0)           # every entry of M_{q+l} is compared
    for (i, k), u in a.items():          # each pair of entries meets in ab and in ba
        for (k2, j), v in b.items():
            if k == k2:
                com[i, j] = com.get((i, j), 0) + u * v
            if j == i:
                com[k2, k] = com.get((k2, k), 0) - v * u
    key = min(m)
    num, den = com[key], m[key]
    if (num and pq + pl != p) or any(c * den != num * m.get(k, 0) for k, c in com.items()):
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
