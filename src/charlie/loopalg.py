"""Exact matrix realizations of the loop algebra of sl(2) and the twisted loop
algebra of sl(3), their gradings, Serre relations and real forms.

This is the independent oracle side: everything here is finite exact matrix
arithmetic over Laurent polynomials in t, with no jet-space machinery.  The
transcribed structure-constant table for the twisted algebra is kept as
data-under-test; the matrices are ground truth and `twisted_table_diff` reports any
cell where the print drifts from the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional


@dataclass(frozen=True)
class LaurentMatrix:
    """size x size matrix of Laurent polynomials; entries sparse on (i, j, t^p)."""
    size: int
    entries: tuple  # tuple[((i, j, p), Fraction), ...] sorted

    def is_zero(self) -> bool:
        return not self.entries


def lm(size: int, items: dict) -> LaurentMatrix:
    ent = tuple(sorted((k, Fraction(v)) for k, v in items.items() if v))
    return LaurentMatrix(size, ent)


def lm_dict(m: LaurentMatrix) -> dict:
    return dict(m.entries)


def lm_add(a: LaurentMatrix, b: LaurentMatrix, ca=1, cb=1) -> LaurentMatrix:
    out = {k: v * Fraction(ca) for k, v in a.entries}
    for k, v in b.entries:
        out[k] = out.get(k, Fraction(0)) + v * Fraction(cb)
    return lm(a.size, out)


def lm_scale(a: LaurentMatrix, c) -> LaurentMatrix:
    return lm(a.size, {k: v * Fraction(c) for k, v in a.entries})


def lm_mul(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    out: dict = {}
    bd: dict = {}
    for (i, j, p), v in b.entries:
        bd.setdefault(i, []).append((j, p, v))
    for (i, k, p), va in a.entries:
        for (j, q, vb) in bd.get(k, ()):
            key = (i, j, p + q)
            out[key] = out.get(key, Fraction(0)) + va * vb
    return lm(a.size, out)


def lm_commutator(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    return lm_add(lm_mul(a, b), lm_mul(b, a), 1, -1)


def lm_t_shift(a: LaurentMatrix, p: int) -> LaurentMatrix:
    return lm(a.size, {(i, j, q + p): v for (i, j, q), v in a.entries})


def proportionality(a: LaurentMatrix, b: LaurentMatrix) -> Optional[Fraction]:
    """c with a = c*b exactly (b != 0), or None.  a = 0 gives 0."""
    if a.is_zero():
        return Fraction(0)
    if b.is_zero():
        return None
    key, lead = b.entries[0]
    da = lm_dict(a)
    if key not in da:
        return None
    c = da[key] / lead
    return c if lm_add(a, b, 1, -c).is_zero() else None


# ---------------------------------------------------------------------------
# loop algebra of sl(2): basis e_0, e_1, e_2, ... of the non-negative part
# ---------------------------------------------------------------------------

def sl2_basis(i: int) -> LaurentMatrix:
    """e_{3k} = (1/2) diag(t^k, -t^k); e_{3k+1} = (1/2) E12 t^k; e_{3k+2} = E21 t^{k+1}."""
    if i < 0:
        raise ValueError(f"non-negative part needs index >= 0, got {i}")
    s = i % 3
    if s == 0:
        k = i // 3
        return lm(2, {(0, 0, k): Fraction(1, 2), (1, 1, k): Fraction(-1, 2)})
    if s == 1:
        k = (i - 1) // 3
        return lm(2, {(0, 1, k): Fraction(1, 2)})
    k = (i + 1) // 3
    return lm(2, {(1, 0, k): Fraction(1)})


def sl2_bracket_constant(i: int, j: int) -> Fraction:
    """c_{i,j} of [e_i, e_j] = c_{i,j} e_{i+j}: +1 / 0 / -1 as j-i = 1 / 0 / -1 mod 3."""
    s = (j - i) % 3
    return Fraction(0) if s == 0 else (Fraction(1) if s == 1 else Fraction(-1))


# ---------------------------------------------------------------------------
# twisted loop algebra of sl(3)
# ---------------------------------------------------------------------------

def _m3(rows) -> LaurentMatrix:
    return lm(3, {(i, j, 0): rows[i][j] for i in range(3) for j in range(3) if rows[i][j]})


SL3_F = {
    -1: _m3([[0, 0, 0], [1, 0, 0], [0, 1, 0]]),
    0: _m3([[1, 0, 0], [0, 0, 0], [0, 0, -1]]),
    1: _m3([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    2: _m3([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
    3: _m3([[0, 0, 0], [1, 0, 0], [0, -1, 0]]),
    4: _m3([[1, 0, 0], [0, -2, 0], [0, 0, 1]]),
    5: _m3([[0, 1, 0], [0, 0, -1], [0, 0, 0]]),
    6: _m3([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
}

# eigenspaces of the diagram automorphism: g_0 (eigenvalue +1), g_1 (eigenvalue -1)
G0_KEYS = (-1, 0, 1)
G1_KEYS = (2, 3, 4, 5, 6)


def sl3_twisted_basis(n: int) -> LaurentMatrix:
    """f_{8k+s}: s in {-1,0,1} on t^{2k} (g_0 part), s in {2..6} on t^{2k+1} (g_1 part)."""
    if n < 0:
        raise ValueError(f"non-negative part needs index >= 0, got {n}")
    s = (n + 1) % 8 - 1  # -1 <= s <= 6
    k = (n - s) // 8
    p = 2 * k if s <= 1 else 2 * k + 1
    return lm_t_shift(SL3_F[s], p)


def mu_twist(m: LaurentMatrix) -> LaurentMatrix:
    """Diagram automorphism of sl(3), entrywise (a_ij) -> given pattern, applied
    to each t-power component separately."""
    if m.size != 3:
        raise ValueError("the twist is defined on 3x3 matrices")
    out: dict = {}
    pat = {  # (i, j) of the image -> ((i', j') source, sign)
        (0, 0): ((2, 2), -1), (0, 1): ((1, 2), 1), (0, 2): ((0, 2), -1),
        (1, 0): ((2, 1), 1), (1, 1): ((1, 1), -1), (1, 2): ((0, 1), 1),
        (2, 0): ((2, 0), -1), (2, 1): ((1, 0), 1), (2, 2): ((0, 0), -1),
    }
    src = lm_dict(m)
    for (i, j), ((si, sj), sign) in pat.items():
        for (a, b, p), v in src.items():
            if (a, b) == (si, sj):
                out[(i, j, p)] = out.get((i, j, p), Fraction(0)) + sign * v
    return lm(3, out)


def twist_check(m: LaurentMatrix) -> bool:
    """True iff every t^p component lies in the (-1)^p eigenspace of the twist."""
    powers = sorted({p for (_, _, p), _ in m.entries})
    for p in powers:
        comp = lm(3, {k: v for k, v in m.entries if k[2] == p})
        sign = 1 if p % 2 == 0 else -1
        if not lm_add(mu_twist(comp), comp, 1, -sign).is_zero():
            return False
    return True


@lru_cache(maxsize=None)
def _constant_by_residues(algebra: str, qr: int, lr: int) -> Fraction:
    """c with [b_qr, b_lr] = c b_{qr+lr}, commuting the matrices of the basis."""
    basis = sl2_basis if algebra == "n1" else sl3_twisted_basis
    c = proportionality(lm_commutator(basis(qr), basis(lr)), basis(qr + lr))
    if c is None:
        raise ArithmeticError(f"[b_{qr}, b_{lr}] is not a multiple of b_{qr + lr} in {algebra}")
    return c


def sl3_bracket_constant(q: int, l: int) -> Fraction:
    """d_{q,l} of [f_q, f_l] = d_{q,l} f_{q+l}, computed from the matrices.

    The constant depends only on the residues mod 8 (checked over a sweep in
    the tests), so it is memoized by residue.
    """
    return _constant_by_residues("n2", q % 8, l % 8)


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
    diffs = []
    for q in range(8):
        for l in range(8):
            printed = Fraction(TWISTED_TABLE_TRANSCRIBED[q][l])
            computed = sl3_bracket_constant(q, l)
            if printed != computed:
                diffs.append((q, l, TWISTED_TABLE_TRANSCRIBED[q][l], computed))
    return diffs


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------

def n1_natural_degree(i: int) -> int:
    """Natural degree of e_i: e_{3k} -> 2k, e_{3k+1} and e_{3k+2} -> 2k+1."""
    k, s = divmod(i, 3)
    return 2 * k if s == 0 else 2 * k + 1


def n2_natural_degree(n: int) -> int:
    """Natural degree of f_n: 6k + (0,1,1,2,3,4,5,5) for residues 0..7."""
    k, s = divmod(n, 8)
    return 6 * k + (0, 1, 1, 2, 3, 4, 5, 5)[s]


def natural_grading_basis(algebra: str, degree: int) -> list[str]:
    """Labels of the homogeneous component of the given natural degree."""
    if degree < 1:
        return []
    if algebra == "n1":
        out = [i for i in range(1, 3 * degree + 3) if n1_natural_degree(i) == degree]
        return [f"e{i}" for i in out]
    if algebra == "n2":
        out = [n for n in range(1, 8 * degree + 8) if n2_natural_degree(n) == degree]
        return [f"f{n}" for n in out]
    raise ValueError(f"unknown algebra {algebra!r}")


def canonical_bigrading(algebra: str, index: int) -> tuple[int, int]:
    """Canonical (generator-count) bigrading of a basis element.

    n1: e_{3k} -> (k, k), e_{3k+1} -> (k+1, k), e_{3k+2} -> (k, k+1).
    n2: f_{8m+s} -> (4m+s, 2m) for s <= 1, (4m+s-2, 2m+1) for s >= 2, -1 <= s <= 6.
    """
    if algebra == "n1":
        k, s = divmod(index, 3)
        return ((k, k), (k + 1, k), (k, k + 1))[s]
    if algebra == "n2":
        s = (index + 1) % 8 - 1
        m = (index - s) // 8
        return (4 * m + s, 2 * m) if s <= 1 else (4 * m + s - 2, 2 * m + 1)
    raise ValueError(f"unknown algebra {algebra!r}")


def canonical_bigrading_recursive(algebra: str, index: int) -> tuple[int, int]:
    """Oracle for the closed formulas: canonical bigradings computed by recursion
    over generating brackets, checking that all generating pairs agree."""
    const: Callable[[int, int], Fraction]
    const = sl2_bracket_constant if algebra == "n1" else sl3_bracket_constant
    if algebra not in ("n1", "n2"):
        raise ValueError(f"unknown algebra {algebra!r}")
    memo: dict[int, tuple[int, int]] = {0: (0, 0), 1: (1, 0), 2: (0, 1)}  # index 0 is toral

    def grade(n: int) -> tuple[int, int]:
        if n in memo:
            return memo[n]
        results = set()
        for q in range(1, n // 2 + 1):
            l = n - q
            if q != l and const(q, l):
                gq, gl = grade(q), grade(l)
                results.add((gq[0] + gl[0], gq[1] + gl[1]))
        if len(results) != 1:
            raise ArithmeticError(f"canonical grading of index {n} not determined: {results}")
        memo[n] = results.pop()
        return memo[n]

    return grade(index)


# ---------------------------------------------------------------------------
# structure tables and Serre relations (matrix side)
# ---------------------------------------------------------------------------

def matrix_structure_constant(algebra: str, i: int, j: int) -> Fraction:
    """c with [b_i, b_j] = c b_{i+j}, from the matrices of either basis.

    Shifting an index by the period (3 for n1, 8 for n2) multiplies the basis
    element by a power of t, so the constant depends only on the residues of
    i and j and is memoized by them (checked over sweeps in the tests).  For
    n1 it is the oracle for sl2_bracket_constant.
    """
    period = {"n1": 3, "n2": 8}.get(algebra)
    if period is None:
        raise ValueError(f"unknown algebra {algebra!r}")
    return _constant_by_residues(algebra, i % period, j % period)


def matrix_table(algebra: str, max_index: int) -> dict[tuple[int, int], Fraction]:
    """{(i, j): constant} for 0 <= i < j, i + j <= max_index, exact."""
    out = {}
    for i in range(0, max_index + 1):
        for j in range(i + 1, max_index - i + 1):
            out[(i, j)] = matrix_structure_constant(algebra, i, j)
    return out


# defining ad-power relations ad^m g_x (g_y) = 0 of the nilpotent part, as
# (x, y, m) on the degree-one generators g_1, g_2
SERRE_RELATIONS = {"A1_1": ((1, 2, 3), (2, 1, 3)), "A2_2": ((2, 1, 2), (1, 2, 5))}


def _serre_relations(algebra: str) -> tuple:
    relations = SERRE_RELATIONS.get(algebra)
    if relations is None:
        raise ValueError(f"unknown algebra {algebra!r}")
    return relations


def ad_power(x, y, m: int, bracket: Callable = lm_commutator):
    """ad_x^m (y) under `bracket`."""
    out = y
    for _ in range(m):
        out = bracket(x, out)
    return out


def serre_check(algebra: str, realization: str = "matrix", generators=None) -> dict:
    """Defining ad-power relations in either realization.

    matrix: exact Laurent-matrix arithmetic on the canonical generators.
    jet: `generators` supplies the two degree-one jet fields; each relation is
    certified up to the fields' truncation order (ZERO_UP_TO / NONZERO strings).
    """
    if realization == "matrix":
        return serre_check_matrix(algebra)
    if realization != "jet":
        raise ValueError(f"unknown realization {realization!r}")
    if not generators or len(generators) != 2:
        raise ValueError("jet realization needs the two degree-one generator fields")
    from .jetfield import bracket, is_zero_up_to
    return {f"ad^{m} g{x} (g{y})":
            is_zero_up_to(ad_power(generators[x - 1], generators[y - 1], m, bracket))
            for x, y, m in _serre_relations(algebra)}


def serre_check_matrix(algebra: str) -> dict[str, bool]:
    """Defining ad-power relations of the nilpotent part, exact matrix arithmetic
    on the generators (e_1, e_2) of A1(1) and (f_1, f_2) of A2(2)."""
    relations = _serre_relations(algebra)
    name, basis = ("e", sl2_basis) if algebra == "A1_1" else ("f", sl3_twisted_basis)
    return {f"ad^{m} {name}{x} ({name}{y})": ad_power(basis(x), basis(y), m).is_zero()
            for x, y, m in relations}


# ---------------------------------------------------------------------------
# real forms: u, v+/-, w+/- inside so(3)[t] and so(2,1)[t]
# ---------------------------------------------------------------------------

def real_u(k: int) -> LaurentMatrix:
    """u_{2k-1} = (E12 - E21) t^{2k-1}."""
    if k < 1:
        raise ValueError("u is indexed by odd 2k-1 with k >= 1")
    p = 2 * k - 1
    return lm(3, {(0, 1, p): 1, (1, 0, p): -1})


def real_v(sign: int, k: int) -> LaurentMatrix:
    """v^{+-}_{2k-1} = (E23 -+ E32) t^{2k-1}."""
    if k < 1 or sign not in (1, -1):
        raise ValueError("v is indexed by odd 2k-1 with k >= 1 and sign +-1")
    p = 2 * k - 1
    return lm(3, {(1, 2, p): 1, (2, 1, p): -sign})


def real_w(sign: int, k: int) -> LaurentMatrix:
    """w^{+-}_{2k} = (E13 -+ E31) t^{2k}."""
    if k < 1 or sign not in (1, -1):
        raise ValueError("w is indexed by even 2k with k >= 1 and sign +-1")
    p = 2 * k
    return lm(3, {(0, 2, p): 1, (2, 0, p): -sign})


def real_form_bracket(sign: int, family: tuple[str, str], k: int, l: int):
    """Exact bracket of two real-form elements with its expected label.

    Relations (indices chosen so the t-degrees add up):
      [u_{2k-1}, v_{2l-1}] = w_{2(k+l)-2}
      [v_{2k-1}, w_{2l}]   = sign * u_{2(k+l)-1}
      [w_{2k},   u_{2l-1}] = v_{2(k+l)-1}
    Returns (computed, expected, label) with exact matrices.
    """
    if family == ("u", "v"):
        got = lm_commutator(real_u(k), real_v(sign, l))
        return got, real_w(sign, k + l - 1), f"w{2 * (k + l) - 2}"
    if family == ("v", "w"):
        got = lm_commutator(real_v(sign, k), real_w(sign, l))
        return got, lm_scale(real_u(k + l), sign), f"{'+' if sign > 0 else '-'}u{2 * (k + l) - 1}"
    if family == ("w", "u"):
        got = lm_commutator(real_w(sign, k), real_u(l))
        return got, real_v(sign, k + l), f"v{2 * (k + l) - 1}"
    raise ValueError(f"unknown relation family {family!r}")
