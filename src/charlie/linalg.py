"""Exact sparse linear algebra over the rationals.

Vectors are dicts keyed by orderable hashable keys with int or Fraction
values; zero entries are never stored.  Elimination is exact and fully
deterministic: rows are processed in insertion order.

LinearSpan pivots on the smallest key present and divides through
Fraction, so its stored rows and coordinates are Fractions whatever the
input.  nullspace eliminates fraction-free: each row has its denominators
cleared once and is kept a primitive int vector (entries with gcd 1); a step
r <- lead*r - r[col]*row is followed by division by the gcd.  Each such row
is a nonzero multiple of the monic row Fraction pivoting would give, so the
pivots, and the normalized basis, are the same.  Back-substitution also runs
in ints, on each solution up to a common scale; Fractions appear only in the
final normalization, and the basis vectors are all Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Optional

Vec = dict  # dict[key, int | Fraction]


def vec_add_scaled(a: Vec, b: Vec, c: Fraction) -> Vec:
    """a + c*b, normalized."""
    if not c:
        return dict(a)
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + c * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class LinearSpan:
    """Growing echelonized span with coordinate tracking.

    Each inserted vector carries a tag; express() writes later vectors as exact
    linear combinations of the inserted (tagged) ones, or returns None together
    with the reduced residual when independent.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[Hashable, Vec, dict]] = []  # (pivot, monic vector, combo)

    def __len__(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Vec, combo: dict) -> tuple[Vec, dict]:
        for pivot, row, rcombo in self._rows:
            c = vec.get(pivot)
            if c:
                vec = vec_add_scaled(vec, row, -c)
                combo = vec_add_scaled(combo, rcombo, -c)
        return vec, combo

    def insert(self, vec: Vec, tag: Hashable) -> bool:
        """Add vec under `tag` if independent; returns True when rank grew."""
        vec, combo = self._reduce(dict(vec), {tag: Fraction(1)})
        if not vec:
            return False
        pivot = min(vec)
        lead = Fraction(vec[pivot])  # exact division for int entries too
        vec = {k: v / lead for k, v in vec.items()}
        combo = {t: c / lead for t, c in combo.items()}
        # keep earlier rows reduced against the new pivot so expression stays exact
        for i, (p, row, rcombo) in enumerate(self._rows):
            c = row.get(pivot)
            if c:
                self._rows[i] = (p, vec_add_scaled(row, vec, -c), vec_add_scaled(rcombo, combo, -c))
        self._rows.append((pivot, vec, combo))
        return True

    def express(self, vec: Vec) -> Optional[dict]:
        """Coordinates of vec over inserted tags, or None if outside the span."""
        residual, combo = self._reduce(dict(vec), {})
        if residual:
            return None
        return {t: -c for t, c in combo.items() if c}


def _primitive(vec: Vec) -> Vec:
    """The int vector on vec's line with coprime entries (denominators cleared)."""
    scale = lcm(*(v.denominator for v in vec.values()))
    out = {k: (v * scale).numerator for k, v in vec.items()}
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
