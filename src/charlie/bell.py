"""Complete and incomplete Bell polynomials, and powers of the total derivative
applied to exponentials: D^k(e^{a*u}) = e^{a*u} * B_k(a*u_1, ..., a*u_k).

Both are computed from the closed form over the partitions of n: a partition
with m_j parts equal to j contributes the monomial prod_j u_j^{m_j} with the
int coefficient
    n! / prod_j (j!^{m_j} * m_j!),
B_n sums over all partitions of n, and B_{n,k} over those with exactly k parts.
The partitions are enumerated with parts descending and no dead ends: part 1
takes exactly what is left, a partition closes as soon as its remainder is
zero, and the denominator is carried along one multiplicity at a time.
The generating-function expansions live in the test suite as independent oracles.
"""

from __future__ import annotations

from math import factorial
from typing import Optional

from .exactring import Poly, Quasi, mono_degree


def _partition_sum(n: int, parts: Optional[int]) -> Poly:
    """Closed-form Bell sum over the partitions of n (with `parts` parts when given)."""
    if not n:
        return {(): 1}
    fact = [factorial(i) for i in range(n + 1)]
    out: Poly = {}
    pairs: list = []  # (part, multiplicity), parts descending

    def rec(rest: int, top: int, left: Optional[int], denom: int) -> None:
        if left is not None and not left <= rest <= left * top:
            return
        for j in range(min(top, rest), 1, -1):
            d = denom
            for m in range(1, rest // j + 1):
                d *= fact[j] * m
                pairs.append((j, m))
                if rest > m * j:
                    rec(rest - m * j, j - 1, None if left is None else left - m, d)
                elif left in (None, m):
                    out[tuple(reversed(pairs))] = fact[n] // d
                pairs.pop()
        if left in (None, rest):  # part 1 takes exactly what is left
            out[((1, rest), *reversed(pairs))] = fact[n] // (denom * fact[rest])

    rec(n, n, parts, 1)
    return out


def complete_bell(n: int) -> Poly:
    """B_n(u_1, ..., u_n); weight-homogeneous of weight n, int coefficients."""
    if n < 0:
        raise ValueError(f"complete Bell polynomial needs n >= 0, got {n}")
    return _partition_sum(n, None)


def incomplete_bell(n: int, k: int) -> Poly:
    """B_{n,k}(u_1, ..., u_{n-k+1}); weight n, total degree k, int coefficients."""
    if n < 1 or not 1 <= k <= n:
        raise ValueError(f"incomplete Bell polynomial needs 1 <= k <= n, got (n, k) = ({n}, {k})")
    return _partition_sum(n, k)


def bell_at_scaled_args(n: int, lam: int) -> Poly:
    """B_n(lam*u_1, ..., lam*u_n): each monomial picks up lam^degree."""
    return {m: c * lam ** mono_degree(m) for m, c in complete_bell(n).items() if lam or not m}


def d_power_exp(k: int, lam: int) -> Quasi:
    """D^k(e^{lam*u}) = e^{lam*u} * B_k(lam*u_1, ..., lam*u_k), exact.

    No command calls it: it stays, with bell_at_scaled_args, because
    bench/tracer.py counts it by name (ROADMAP items 6 and 7); criterion 2
    checks it."""
    if k < 0:
        raise ValueError(f"derivative order must be >= 0, got {k}")
    p = bell_at_scaled_args(k, lam)
    return {lam: p} if p else {}
