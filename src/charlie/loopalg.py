"""Exact matrix realizations of the loop algebra of sl(2) and the twisted loop
algebra of sl(3), their gradings, Serre relations and real forms.

This is the independent oracle side: everything here is finite exact matrix
arithmetic over Laurent polynomials in t, with no jet-space machinery.  Each
realization is one ALGEBRAS row, and its gradings, structure constants and
Serre checks are read from that row.  The transcribed structure-constant
table for the twisted algebra is kept as data-under-test; the matrices are
ground truth and `twisted_table_diff` reports any cell where the print
drifts from the arithmetic.
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


# ---------------------------------------------------------------------------
# the two loop algebras, one row each
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoopAlgebra:
    """The facts a realization b_0, b_1, ... of a non-negative loop algebra
    part rests on.  Shifting an index by the period multiplies b_i by a power
    of t, so b_{i+P} has the canonical bigrading of b_i plus that of b_P, and
    every structure constant depends only on the residues mod P."""
    period: int
    basis: Callable[[int], LaurentMatrix]
    prefix: str                 # label of b_i: prefix + i
    bigradings: tuple           # canonical (generator-count) bigradings of b_0..b_P
    serre: tuple                # (x, y, m): ad^m b_x (b_y) = 0 on the generators b_1, b_2


ALGEBRAS = {
    # L(sl(2))^{>=0}, A_1^(1)
    "n1": LoopAlgebra(3, sl2_basis, "e", ((0, 0), (1, 0), (0, 1), (1, 1)),
                      ((1, 2, 3), (2, 1, 3))),
    # L(sl(3), mu)^{>=0}, A_2^(2)
    "n2": LoopAlgebra(8, sl3_twisted_basis, "f",
                      ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (3, 2), (4, 2)),
                      ((2, 1, 2), (1, 2, 5))),
}


@lru_cache(maxsize=None)
def _constant_by_residues(algebra: str, qr: int, lr: int) -> Fraction:
    """c with [b_qr, b_lr] = c b_{qr+lr}, commuting the matrices of the basis."""
    basis = ALGEBRAS[algebra].basis
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


def natural_grading_basis(algebra: str, degree: int) -> list[str]:
    """Labels of the homogeneous component of the given natural degree."""
    row = ALGEBRAS[algebra]
    return [f"{row.prefix}{i}" for i in range(1, row.period * (degree + 1))
            if natural_degree(algebra, i) == degree]


def canonical_bigrading_recursive(algebra: str, index: int) -> tuple[int, int]:
    """Oracle for the stored bigradings: canonical bigradings computed by
    recursion over generating brackets of the matrices, checking that all
    generating pairs agree."""
    memo: dict[int, tuple[int, int]] = {0: (0, 0), 1: (1, 0), 2: (0, 1)}  # index 0 is toral

    def grade(n: int) -> tuple[int, int]:
        if n in memo:
            return memo[n]
        results = set()
        for q in range(1, n // 2 + 1):
            l = n - q
            if q != l and matrix_structure_constant(algebra, q, l):
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
    """c with [b_i, b_j] = c b_{i+j}, from the matrices of either basis,
    memoized by the residues of i and j mod the period (checked over sweeps
    in the tests).  For n1 it is the oracle for sl2_bracket_constant.
    """
    period = ALGEBRAS[algebra].period
    return _constant_by_residues(algebra, i % period, j % period)


def matrix_table(algebra: str, max_index: int) -> dict[tuple[int, int], Fraction]:
    """{(i, j): constant} for 0 <= i < j, i + j <= max_index, exact."""
    out = {}
    for i in range(0, max_index + 1):
        for j in range(i + 1, max_index - i + 1):
            out[(i, j)] = matrix_structure_constant(algebra, i, j)
    return out


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
            for x, y, m in ALGEBRAS[algebra].serre}


def serre_check_matrix(algebra: str) -> dict[str, bool]:
    """Defining ad-power relations of the nilpotent part, exact matrix arithmetic
    on the generators (e_1, e_2) of A1(1) and (f_1, f_2) of A2(2)."""
    row = ALGEBRAS[algebra]
    return {f"ad^{m} {row.prefix}{x} ({row.prefix}{y})":
            ad_power(row.basis(x), row.basis(y), m).is_zero() for x, y, m in row.serre}


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
