"""Bell polynomials against series-expansion oracles.

The oracles expand exp(sum_i u_i t^i / i!) and exp(z * sum_i u_i t^i / i!)
directly with exact rational series arithmetic, independently of the
closed form in charlie.bell.  The binomial and partial-Bell recursions the
closed form replaced are kept here as a second reference."""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest

from charlie import exactring as xr
from charlie.bell import bell_at_scaled_args, complete_bell, d_power_exp, incomplete_bell
from charlie.jetfield import apply_total_derivative
import oracles as orc

NMAX = 10


def _series_mul(a, b, nmax):
    out = [dict() for _ in range(nmax + 1)]
    for i, pa in enumerate(a):
        if not pa:
            continue
        for j, pb in enumerate(b):
            if i + j > nmax:
                break
            if pb:
                out[i + j] = xr.vec_add_scaled(out[i + j], xr.poly_mul(pa, pb), 1)
    return out


def _exp_series(s, nmax):
    """exp(s) for a series with s[0] = 0, truncated at t^nmax."""
    out = [xr.poly_const(1)] + [dict() for _ in range(nmax)]
    term = out[:]  # s^m / m!
    term[0] = xr.poly_const(1)
    power = [xr.poly_const(1)] + [dict() for _ in range(nmax)]
    for m in range(1, nmax + 1):
        power = _series_mul(power, s, nmax)
        scaled = [xr.poly_scale(p, Fraction(1, factorial(m))) for p in power]
        out = [xr.vec_add_scaled(a, b, 1) for a, b in zip(out, scaled)]
    return out


def _generator_series(nmax):
    s = [dict() for _ in range(nmax + 1)]
    for i in range(1, nmax + 1):
        s[i] = xr.poly_scale(xr.poly_var(i), Fraction(1, factorial(i)))
    return s


@pytest.fixture(scope="module")
def exp_series():
    return _exp_series(_generator_series(NMAX), NMAX)


def test_printed_first_bell_polynomials():
    assert complete_bell(0) == xr.poly_parse("1")
    assert complete_bell(1) == xr.poly_parse("u1")
    assert complete_bell(2) == xr.poly_parse("u1^2 + u2")
    assert complete_bell(3) == xr.poly_parse("u1^3 + 3*u1*u2 + u3")
    assert complete_bell(4) == xr.poly_parse("u1^4 + 6*u1^2*u2 + 4*u1*u3 + 3*u2^2 + u4")


def test_recursion_matches_generating_function(exp_series):
    for n in range(NMAX + 1):
        assert complete_bell(n) == xr.poly_scale(exp_series[n], factorial(n)), n


def test_incomplete_from_z_generating_function():
    # B_{n,k} = n! * [t^n] (S^k / k!) with S = sum u_i t^i/i!
    s = _generator_series(NMAX)
    power = [xr.poly_const(1)] + [dict() for _ in range(NMAX)]
    for k in range(1, NMAX + 1):
        power = _series_mul(power, s, NMAX)
        for n in range(k, NMAX + 1):
            expected = xr.poly_scale(power[n], Fraction(factorial(n), factorial(k)))
            assert incomplete_bell(n, k) == expected, (n, k)


def test_incomplete_extremes():
    assert incomplete_bell(5, 1) == xr.poly_parse("u5")
    assert incomplete_bell(4, 4) == xr.poly_parse("u1^4")


def test_incomplete_sum_is_complete():
    for n in range(1, NMAX + 1):
        acc = {}
        for k in range(1, n + 1):
            acc = xr.vec_add_scaled(acc, incomplete_bell(n, k), 1)
        assert acc == complete_bell(n), n


def test_incomplete_bigraded():
    for n in range(1, 9):
        for k in range(1, n + 1):
            p = incomplete_bell(n, k)
            assert xr.weight_of(p) == n
            assert all(xr.mono_degree(m) == k for m in p)


def test_incomplete_range_errors():
    with pytest.raises(ValueError):
        incomplete_bell(3, 0)
    with pytest.raises(ValueError):
        incomplete_bell(3, 4)


def test_complete_homogeneous():
    for n in range(1, NMAX + 1):
        assert xr.weight_of(complete_bell(n)) == n


def test_d_power_exp_small():
    assert d_power_exp(0, 3) == xr.qp_parse("e^(3*u)")
    assert d_power_exp(2, 1) == xr.qp_parse("e^(u) * u1^2 + e^(u) * u2")
    assert d_power_exp(2, -2) == xr.qp_parse("4 * e^(-2*u) * u1^2 - 2 * e^(-2*u) * u2")


def test_d_power_exp_against_iterated_total_derivative():
    for lam in (-2, -1, 1, 2):
        acc = orc.qp_exp(lam)
        for k in range(NMAX + 1):
            assert d_power_exp(k, lam) == acc, (k, lam)
            acc = apply_total_derivative(acc)


def test_scaled_args_match_substitution():
    for lam in (-2, 3):
        for n in range(6):
            manual = orc.poly_substitute(
                complete_bell(n),
                {i: xr.poly_scale(xr.poly_var(i), lam) for i in range(1, n + 1)})
            assert bell_at_scaled_args(n, lam) == manual


def _recursive_complete(nmax):
    """B_0..B_nmax by B_{n+1} = sum_i C(n,i) B_{n-i} u_{i+1}."""
    out = [xr.poly_const(1)]
    for m in range(nmax):
        acc = {}
        for i in range(m + 1):
            term = xr.poly_scale(xr.poly_mul(out[m - i], xr.poly_var(i + 1)), comb(m, i))
            acc = xr.vec_add_scaled(acc, term, 1)
        out.append(acc)
    return out


@lru_cache(maxsize=None)
def _recursive_incomplete(n, k):
    """B_{n,k} = sum_i C(n-1,i-1) u_i B_{n-i,k-1}."""
    if k == 0:
        return xr.poly_const(1) if n == 0 else {}
    acc = {}
    for i in range(1, n - k + 2):
        term = xr.poly_mul(xr.poly_var(i), _recursive_incomplete(n - i, k - 1))
        acc = xr.vec_add_scaled(acc, xr.poly_scale(term, comb(n - 1, i - 1)), 1)
    return acc


def test_closed_form_matches_recursions():
    reference = _recursive_complete(15)
    for n in range(16):
        assert complete_bell(n) == reference[n], n
    for n in range(1, 16):
        for k in range(1, n + 1):
            assert incomplete_bell(n, k) == _recursive_incomplete(n, k), (n, k)


def _enumerated_partition_sum(n, parts):
    """Reference: the closed form over partitions with parts descending, each
    part size tried down to 1 and every remainder recursed into."""
    out, pairs = {}, []

    def rec(rest, top, left, denom):
        if rest == 0:
            if not left:
                out[tuple(reversed(pairs))] = factorial(n) // denom
            return
        if left is not None and not left <= rest <= left * top:
            return
        for j in range(min(top, rest), 0, -1):
            for m in range(1, rest // j + 1):
                pairs.append((j, m))
                rec(rest - m * j, j - 1, None if left is None else left - m,
                    denom * factorial(j) ** m * factorial(m))
                pairs.pop()

    rec(n, n, parts, 1)
    return out


def test_partition_order_is_pinned():
    # monomial order, not just the values: parts rise, and the partitions come
    # in lex order of their ((part, multiplicity), ...) tuples, so the sorts
    # of qp_to_text and integral_candidates are linear passes; the values are
    # the enumerated reference's
    for n in range(31):
        p = complete_bell(n)
        assert list(p) == sorted(p), n
        if n < 13:
            assert p == _enumerated_partition_sum(n, None), n
    for n in range(1, 21):
        for k in range(1, n + 1):
            p = incomplete_bell(n, k)
            assert list(p) == sorted(p), (n, k)
            if n < 13 and k in {1, (n + 1) // 2, n}:
                assert p == _enumerated_partition_sum(n, k), (n, k)


def test_complete_bell_30_at_benchmark_scale():
    p = complete_bell(30)
    assert len(p) == 5604  # p(30): one monomial per partition of 30
    assert all(type(c) is int for c in p.values())
    assert sum(p.values()) == 846749014511809332450147  # the Bell number B_30


def test_incomplete_coefficients_sum_to_stirling_numbers():
    stirling = {(0, 0): 1}  # S(n, k) = k S(n-1, k) + S(n-1, k-1)
    for n in range(1, 21):
        for k in range(1, n + 1):
            stirling[(n, k)] = k * stirling.get((n - 1, k), 0) + stirling.get((n - 1, k - 1), 0)
    assert stirling[(20, 7)] == 11143554045652
    for n in range(1, 21):
        for k in range(1, n + 1):
            p = incomplete_bell(n, k)
            assert all(type(c) is int for c in p.values())
            assert sum(p.values()) == stirling[(n, k)], (n, k)


def test_scaled_args_are_int():
    for lam in (-3, 0, 2):
        assert all(type(c) is int for c in bell_at_scaled_args(12, lam).values())
    assert bell_at_scaled_args(0, 0) == {(): 1}
    assert bell_at_scaled_args(4, 0) == {}
