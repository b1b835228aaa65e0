"""Exact sparse linear algebra over the rationals.

Vectors are dicts keyed by orderable hashable keys with int or Fraction
values; zero entries are never stored.  Every division goes through Fraction,
so stored rows, coordinates and nullspace vectors are Fractions either way.
Elimination is exact (cross-multiplied, no rounding) and fully deterministic:
pivots are always the smallest key present, and rows are processed in
insertion order.
"""

from __future__ import annotations

from fractions import Fraction
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


def nullspace(rows: list[Vec], columns: list) -> list[Vec]:
    """Basis of {x : for every row r, sum_c r[c]*x[c] = 0}, deterministic.

    `columns` fixes the unknown ordering (one basis vector per free column) and
    the normalization: each returned vector is scaled so its first nonzero
    coefficient in column order is 1.
    """
    work = [dict(r) for r in rows if r]
    pivots: dict = {}  # column -> eliminated row
    for col in columns:
        chosen = None
        for i, r in enumerate(work):
            if r.get(col):
                chosen = i
                break
        if chosen is None:
            continue
        row = work.pop(chosen)
        lead = Fraction(row[col])  # exact division for int entries too
        row = {k: v / lead for k, v in row.items()}
        pivots[col] = row
        work = [vec_add_scaled(r, row, -r[col]) if r.get(col) else r for r in work]
        work = [r for r in work if r]
    free = [c for c in columns if c not in pivots]
    basis: list[Vec] = []
    for f in free:
        sol: Vec = {f: Fraction(1)}
        # substitute back in reverse pivot order
        for col in reversed([c for c in columns if c in pivots]):
            row = pivots[col]
            s = sum((row[k] * sol[k] for k in row if k != col and k in sol), Fraction(0))
            if s:
                sol[col] = -s
        lead_col = next(c for c in columns if c in sol)
        lead = sol[lead_col]
        basis.append({k: v / lead for k, v in sol.items()})
    return basis
