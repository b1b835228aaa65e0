"""Exact sparse linear algebra over the rationals.

Vectors are dicts keyed by orderable hashable keys with int or Fraction
values; zero entries are never stored.  Elimination is exact and fully
deterministic: rows are processed in insertion order.  Every row operation
goes through exactring.vec_iadd_scaled, the package's one sparse accumulate,
in place on the vector and combination that the reduction owns.

LinearSpan is the package's one elimination, and it is fraction-free: it
takes int vectors (a caller with rational ones clears them first, see
cleared) and keeps int rows R together with int combinations C over tags,
R standing for sum_t C[t]*tag_t; it builds no Fraction.  An inserted vector
stands for its tag, so a row is the combination sum_t C[t]*input_t.  A
vector v is reduced by v <- a*v - b*R with g = gcd(lead, v[pivot]),
a = lead/g and b = v[pivot]/g.  Rows are never re-reduced against later
pivots: each row is zero at all earlier pivots, so reducing in insertion
order never brings a cleared entry back.  A new row pivots on its entry of
smallest absolute value, ties going to the smallest key.  The choice is
free: whether a vector is new depends only on the rank, and any pivot keeps
each row zero at all earlier pivots, so every decision and coordinate is the
same for every choice.  It pays because a pivot of +-1 gives a = 1: the
vector is not rescaled and its ints stay small.  A reduction tracks the
product of the a's (the scale, positive); a vector that reduces to zero
stands for the coordinates -C/scale, handed back as ({t: -C[t]}, scale).
Coordinates over an independent set are unique, so they equal those of
monic Fraction pivoting.  insert reduces a vector once: it keeps the
reduced row when one is left and otherwise hands back the coordinates, so a
caller that adds whatever is new never reduces a vector twice.

nullspace is column dependence: its rows, cleared to ints (which keeps
their kernel), give columns that go into one LinearSpan in column order.
The rows are numbered sparsest first (a stable sort by number of entries)
and the columns are built in one transpose pass over them, so the pivot
rule's ties go to the sparsest equation.  Numbering the equations is a
pivot choice like any other, so it changes no decision and no coordinate,
only the work.  A column that insert already writes over the earlier
(pivot) columns is free, and its unique coordinates (nums, den) give the
kernel vector that back-substitution on the reduced rows would: 1 at the
free column f and -nums[p]/den at each pivot p.  Scaled to 1 at p0, the
earliest pivot in nums, it costs one Fraction per entry: nums[p]/nums[p0]
at each pivot and -den/nums[p0] at f.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Optional

from .exactring import vec_iadd_scaled

Vec = dict  # dict[key, int | Fraction]; LinearSpan takes int vectors only


class LinearSpan:
    """Growing echelonized span with coordinate tracking.

    Each inserted vector carries a tag; express() and a dependent insert()
    write later vectors as exact linear combinations of the tags that the
    rows stand for, as (nums, den): the coordinate of tag t is nums[t]/den.
    """

    def __init__(self) -> None:
        # (pivot, int row R, int combination C): R stands for sum_t C[t] * tag_t
        # and R[pivot] > 0; R is zero at the pivots of all earlier rows
        self._rows: list[tuple[Hashable, Vec, dict]] = []

    def __len__(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Vec) -> tuple[Vec, dict, int]:
        """(vec', combo, scale) for an int vec: vec' is scale*vec plus rows,
        zero at every pivot, and the rows stand for sum_t combo[t]*tag_t.
        vec' and combo are new dicts, updated in place; neither vec nor any
        stored row is touched."""
        vec = dict(vec)
        combo: dict = {}
        scale = 1
        for pivot, row, rcombo in self._rows:
            c = vec.get(pivot)
            if c:
                lead = row[pivot]
                g = gcd(lead, c)
                a = lead // g
                if a != 1:
                    for k in vec:
                        vec[k] *= a
                    for t in combo:
                        combo[t] *= a
                    scale *= a
                vec_iadd_scaled(vec, row, -(c // g))
                vec_iadd_scaled(combo, rcombo, -(c // g))
        return vec, combo, scale

    def insert(self, vec: Vec, tag: Hashable) -> Optional[tuple[dict, int]]:
        """Add the int vector vec under `tag` and return None when it is
        independent; otherwise add nothing and return its coordinates, as
        express would.  Either way vec is reduced once."""
        residual, combo, scale = self._reduce(vec)
        if not residual:
            return {t: -c for t, c in combo.items()}, scale
        combo[tag] = scale
        pivot = min(residual, key=lambda k: (abs(residual[k]), k))
        self._rows.append(_primitive(pivot, residual, combo))
        return None

    def express(self, vec: Vec) -> Optional[tuple[dict, int]]:
        """Coordinates (nums, den) of the int vector vec over the rows' tags,
        or None if outside the span.  No command calls it: bench/tracer.py
        spans it by name (ROADMAP items 6 and 7), and the tests read with it."""
        residual, combo, scale = self._reduce(vec)
        return None if residual else ({t: -c for t, c in combo.items()}, scale)


def _primitive(pivot: Hashable, row: Vec, combo: dict) -> tuple[Hashable, Vec, dict]:
    """The stored form of a row: row and combo divided by their content,
    signed so that row[pivot] > 0."""
    g = gcd(*row.values(), *combo.values())
    if row[pivot] < 0:
        g = -g
    if g != 1:
        row = {k: v // g for k, v in row.items()}
        combo = {t: v // g for t, v in combo.items()}
    return pivot, row, combo


def cleared(vec: Vec) -> tuple[Vec, int]:
    """(s*vec as a new int vector, s) with s the lcm of vec's denominators."""
    scale = lcm(*(v.denominator for v in vec.values()))
    return {k: v.numerator * (scale // v.denominator) for k, v in vec.items()}, scale


def nullspace(rows: list[Vec], columns: list) -> list[Vec]:
    """Basis of {x : for every row r, sum_c r[c]*x[c] = 0}, deterministic.

    `columns` fixes the unknown ordering (one basis vector per free column) and
    the normalization: each returned vector is scaled so its first nonzero
    coefficient in column order is 1.  Entries are Fractions.  A row that
    names a column not in `columns` raises ValueError.
    """
    index = {c: k for k, c in enumerate(columns)}
    cols: list[dict] = [{} for _ in columns]
    for i, r in enumerate(sorted((cleared(r)[0] for r in rows), key=len)):
        for c, v in r.items():
            k = index.get(c)
            if k is None:
                raise ValueError(f"a row names the column {c!r}, which is not in columns")
            if v:
                cols[k][i] = v
    span = LinearSpan()
    basis: list[Vec] = []
    for f, col in zip(columns, cols):
        coords = span.insert(col, f)
        if coords is None:
            continue
        nums, den = coords
        if not nums:
            basis.append({f: Fraction(1)})
            continue
        # x = e_f - sum_p (nums[p]/den) e_p over the pivots p, divided by its
        # entry at p0, the earliest pivot in nums
        pivots = sorted(nums, key=index.__getitem__, reverse=True)
        n0 = nums[pivots[-1]]
        basis.append({f: Fraction(-den, n0)} | {p: Fraction(nums[p], n0) for p in pivots})
    return basis
