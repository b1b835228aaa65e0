"""Exact sparse linear algebra over the rationals.

Vectors are dicts keyed by orderable hashable keys with int or Fraction
values; zero entries are never stored.  Elimination is exact and fully
deterministic: rows are processed in insertion order.  Every row operation
goes through exactring.vec_add_scaled, the package's one sparse accumulate.

LinearSpan is the package's one elimination, and it is fraction-free: an
input has its denominators cleared once and every stored row is an int
vector.

LinearSpan keeps int rows R together with int combinations C of the inputs,
R = sum_t C[t]*input_t, and pivots on the smallest key present.  A vector v
is reduced by v <- a*v - b*R with g = gcd(lead, v[pivot]), a = lead/g and
b = v[pivot]/g.  Rows are never re-reduced against later pivots: each row is
zero at all earlier pivots, so reducing in insertion order never brings a
cleared entry back.  express tracks the product of the a's (the scale) and
returns the coordinates -C/scale as Fractions, the only place a Fraction
appears; coordinates over an independent set are unique, so they equal
those of monic Fraction pivoting.

nullspace is column dependence: the columns of the rows go into one
LinearSpan in column order.  A column that express already writes over the
earlier (pivot) columns is free, and its unique coordinates give the kernel
vector that back-substitution on the reduced rows would: 1 at the free
column and minus the coordinate at each pivot.
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


def nullspace(rows: list[Vec], columns: list) -> list[Vec]:
    """Basis of {x : for every row r, sum_c r[c]*x[c] = 0}, deterministic.

    `columns` fixes the unknown ordering (one basis vector per free column) and
    the normalization: each returned vector is scaled so its first nonzero
    coefficient in column order is 1.  Entries are Fractions.
    """
    span = LinearSpan()
    pivots: list = []
    basis: list[Vec] = []
    for f in columns:
        col = {i: r[f] for i, r in enumerate(rows) if r.get(f)}
        coords = span.express(col)
        if coords is None:
            span.insert(col, f)
            pivots.append(f)
            continue
        x = {f: Fraction(1)}
        for p in reversed(pivots):
            if p in coords:
                x[p] = -coords[p]
        lead = x[next(c for c in columns if c in x)]
        basis.append({k: v / lead for k, v in x.items()})
    return basis
