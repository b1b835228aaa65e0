"""Exact sparse linear algebra over the rationals.

Vectors are dicts keyed by orderable hashable keys with int or Fraction
values; zero entries are never stored.  Elimination is exact and fully
deterministic: rows are processed in insertion order.  Every row operation
goes through exactring.vec_add_scaled, the package's one sparse accumulate.

Both LinearSpan and nullspace eliminate fraction-free: an input has its
denominators cleared once and every stored row is an int vector.

LinearSpan keeps int rows R together with int combinations C of the inputs,
R = sum_t C[t]*input_t, and pivots on the smallest key present.  A vector v
is reduced by v <- a*v - b*R with g = gcd(lead, v[pivot]), a = lead/g and
b = v[pivot]/g.  Rows are never re-reduced against later pivots: each row is
zero at all earlier pivots, so reducing in insertion order never brings a
cleared entry back.  express tracks the product of the a's (the scale) and
returns the coordinates -C/scale as Fractions, the only place a Fraction
appears; coordinates over an independent set are unique, so they equal
those of monic Fraction pivoting.

nullspace reduces by r <- lead*r - r[col]*row and keeps each row a
primitive int vector (entries with gcd 1).  Each such row is a nonzero
multiple of the monic row Fraction pivoting would give, so the pivots, and
the normalized basis, are the same.  Back-substitution also runs in ints, on
each solution up to a common scale; Fractions appear only in the final
normalization, and the basis vectors are all Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Optional

from .exactring import vec_add_scaled

Vec = dict  # dict[key, int | Fraction]


class LinearSpan:
    """Growing echelonized span with coordinate tracking.

    Each inserted vector carries a tag; express() writes later vectors as exact
    linear combinations of the inserted (tagged) ones, or returns None when
    they are independent.
    """

    def __init__(self) -> None:
        # (pivot, int row R, int combination C): R = sum_t C[t] * input_t and
        # R[pivot] > 0; R is zero at the pivots of all earlier rows
        self._rows: list[tuple[Hashable, Vec, dict]] = []

    def __len__(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Vec, combo: dict, scale: int) -> tuple[Vec, dict, int]:
        """Clear vec's entries at every pivot, all in ints.

        If vec = scale*x + sum_t combo[t]*input_t on entry, the returned
        (vec', combo', scale') satisfy the same with the same x.  insert
        passes scale 0: its vec is a combination of the inputs alone.
        """
        for pivot, row, rcombo in self._rows:
            c = vec.get(pivot)
            if c:
                lead = row[pivot]
                g = gcd(lead, c)
                a = lead // g
                if a != 1:
                    vec = {k: a * v for k, v in vec.items()}
                    combo = {t: a * v for t, v in combo.items()}
                    scale *= a
                vec = vec_add_scaled(vec, row, -(c // g))
                combo = vec_add_scaled(combo, rcombo, -(c // g))
        return vec, combo, scale

    def insert(self, vec: Vec, tag: Hashable) -> bool:
        """Add vec under `tag` if independent; returns True when rank grew."""
        vec, scale = _cleared(vec)
        vec, combo, _ = self._reduce(vec, {tag: scale}, 0)
        if not vec:
            return False
        pivot = min(vec)
        g = gcd(*vec.values(), *combo.values())
        if vec[pivot] < 0:
            g = -g
        if g != 1:
            vec = {k: v // g for k, v in vec.items()}
            combo = {t: v // g for t, v in combo.items()}
        self._rows.append((pivot, vec, combo))
        return True

    def express(self, vec: Vec) -> Optional[dict]:
        """Coordinates of vec over inserted tags, or None if outside the span."""
        vec, scale = _cleared(vec)
        residual, combo, scale = self._reduce(vec, {}, scale)
        if residual:
            return None
        return {t: Fraction(-c, scale) for t, c in combo.items() if c}


def _cleared(vec: Vec) -> tuple[Vec, int]:
    """(s*vec as an int vector, s) with s the lcm of vec's denominators."""
    scale = lcm(*(v.denominator for v in vec.values()))
    return {k: (v * scale).numerator for k, v in vec.items()}, scale


def _primitive(vec: Vec) -> Vec:
    """The int vector on vec's line with coprime entries (denominators cleared)."""
    out, _ = _cleared(vec)
    g = gcd(*out.values())
    return {k: v // g for k, v in out.items()} if g > 1 else out


def _eliminate(r: Vec, row: Vec, col) -> Vec:
    """lead*r - r[col]*row with lead = row[col], made primitive: r[col] drops out."""
    lead = row[col]
    out = vec_add_scaled({k: lead * v for k, v in r.items()}, row, -r[col])
    return _primitive(out) if out else out


def nullspace(rows: list[Vec], columns: list) -> list[Vec]:
    """Basis of {x : for every row r, sum_c r[c]*x[c] = 0}, deterministic.

    `columns` fixes the unknown ordering (one basis vector per free column) and
    the normalization: each returned vector is scaled so its first nonzero
    coefficient in column order is 1.  Entries are Fractions.
    """
    work = [_primitive(r) for r in rows if r]
    pivots: dict = {}  # column -> eliminated primitive int row
    for col in columns:
        chosen = None
        for i, r in enumerate(work):
            if r.get(col):
                chosen = i
                break
        if chosen is None:
            continue
        row = work.pop(chosen)
        pivots[col] = row
        work = [_eliminate(r, row, col) if r.get(col) else r for r in work]
        work = [r for r in work if r]
    free = [c for c in columns if c not in pivots]
    pivot_cols = [c for c in columns if c in pivots]
    basis: list[Vec] = []
    for f in free:
        # back-substitution in ints: x is the solution up to one common scale
        x = {f: 1}
        for col in reversed(pivot_cols):
            row = pivots[col]
            s = sum(v * x[k] for k, v in row.items() if k in x)
            if s:
                g = gcd(s, row[col])
                scale = row[col] // g
                if scale != 1:
                    x = {k: v * scale for k, v in x.items()}
                x[col] = -s // g
        lead = x[next(c for c in columns if c in x)]
        basis.append({k: Fraction(v, lead) for k, v in x.items()})
    return basis
