"""Property suites: exact ring laws, Leibniz, canonical-form roundtrips,
bracket antisymmetry/Jacobi over random fields drawn from generated bases,
bigrading additivity, and truncation stability of the closure."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charlie import closure as cl
from charlie import exactring as xr
from charlie import jetfield as jf
from charlie.analysis import closure_for

# -- hypothesis strategies for small exact values ---------------------------

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
monos = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3)),
    max_size=3).map(xr.mono_from_pairs)
polys = st.dictionaries(monos, fracs, max_size=4).map(
    lambda d: {m: c for m, c in d.items() if c})
quasis = st.dictionaries(st.integers(min_value=-2, max_value=2), polys, max_size=3).map(
    lambda d: {a: p for a, p in d.items() if p})


@given(polys, polys, polys)
@settings(max_examples=120, deadline=None)
def test_poly_ring_laws(a, b, c):
    assert xr.poly_mul(a, b) == xr.poly_mul(b, a)
    assert xr.poly_mul(xr.poly_mul(a, b), c) == xr.poly_mul(a, xr.poly_mul(b, c))
    assert xr.poly_mul(a, xr.vec_add_scaled(b, c, 1)) == \
        xr.vec_add_scaled(xr.poly_mul(a, b), xr.poly_mul(a, c), 1)


@given(quasis, quasis, quasis)
@settings(max_examples=120, deadline=None)
def test_qp_ring_laws(a, b, c):
    assert xr.qp_mul(a, b) == xr.qp_mul(b, a)
    assert xr.qp_mul(xr.qp_mul(a, b), c) == xr.qp_mul(a, xr.qp_mul(b, c))
    assert xr.qp_mul(a, xr.qp_add(b, c)) == xr.qp_add(xr.qp_mul(a, b), xr.qp_mul(a, c))


@given(quasis, quasis, st.integers(min_value=1, max_value=4))
@settings(max_examples=120, deadline=None)
def test_leibniz(a, b, k):
    lhs = xr.qp_derive_uk(xr.qp_mul(a, b), k)
    rhs = xr.qp_add(xr.qp_mul(xr.qp_derive_uk(a, k), b), xr.qp_mul(a, xr.qp_derive_uk(b, k)))
    assert lhs == rhs


@given(quasis)
@settings(max_examples=200, deadline=None)
def test_canonical_form_roundtrip(a):
    assert xr.qp_parse(xr.qp_to_text(a)) == a


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_weight_additivity_on_homogeneous_parts(a, b):
    wa, wb = xr.weight_of(a), xr.weight_of(b)
    if a and b and wa is not None and wb is not None:
        assert xr.weight_of(xr.poly_mul(a, b)) == wa + wb


# -- bracket properties over generated fields --------------------------------

@pytest.fixture(scope="module")
def field_pool():
    """Fields drawn from the two generated bases plus D and X_0, order 8."""
    order = 8
    pool = [jf.make_D(order), jf.make_X0(order)]
    for eq in ("sinh", "tzitzeica"):
        res = closure_for(eq, order=order, degree=5)
        pool.extend(jf.truncate(el.field, order) for el in res.elements)
    return pool


def _random_combo(rng, pool):
    picks = rng.sample(pool, rng.randint(1, 2))
    acc = None
    for f in picks:
        g = jf.field_scale(f, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        acc = g if acc is None else jf.field_add(acc, g)
    return acc


def test_bracket_antisymmetry_and_jacobi_random_trials(field_pool):
    rng = random.Random(20250811)
    jacobi_trials = 0
    antisym_trials = 0
    while jacobi_trials < 200:
        X, Y, Z = (_random_combo(rng, field_pool) for _ in range(3))
        a = jf.bracket(X, Y)
        b = jf.bracket(Y, X)
        assert jf.fields_equal(a, jf.field_scale(b, -1))
        antisym_trials += 1
        try:
            term1 = jf.bracket(jf.bracket(X, Y), Z)
            term2 = jf.bracket(jf.bracket(Y, Z), X)
            term3 = jf.bracket(jf.bracket(Z, X), Y)
        except jf.TruncationError:
            continue  # double D-brackets can exhaust the slot budget; retry
        total = jf.field_add(jf.field_add(term1, term2), term3)
        assert jf.is_zero_up_to(total).is_zero, (jacobi_trials,)
        jacobi_trials += 1
    assert antisym_trials >= 200


def test_bigrading_additivity_random_pairs(field_pool):
    rng = random.Random(7)
    homogeneous = [f for f in field_pool if jf.bigrading_of(f) is not None]
    checked = 0
    for _ in range(300):
        X, Y = rng.sample(homogeneous, 2)
        br = jf.bracket(X, Y)
        if br.is_zero():
            continue
        bx, by, bb = jf.bigrading_of(X), jf.bigrading_of(Y), jf.bigrading_of(br)
        assert bb == jf.Bigrading(bx.d + by.d, bx.r + by.r)
        checked += 1
    assert checked > 100


# -- truncation stability -----------------------------------------------------

@pytest.mark.parametrize("eq", ["sinh", "tzitzeica"])
def test_closure_truncation_stability(eq, sinh_small, tz_small, sinh_big, tz_big):
    small = sinh_small if eq == "sinh" else tz_small
    big = sinh_big if eq == "sinh" else tz_big
    # independence soundness: the same dimensions found at both orders
    small_dims = small.dims_by_degree()
    big_dims = {d: n for d, n in big.dims_by_degree().items() if d <= small.max_degree}
    assert small_dims == big_dims
    # order-16 fields restricted to 12 slots reproduce the order-12 fields exactly
    for el_small, el_big in zip(small.elements, big.elements):
        assert el_small.name == el_big.name
        assert el_small.norm_scale == el_big.norm_scale
        assert jf.fields_equal(el_small.field, jf.truncate(el_big.field, small.order))
    # the window's brackets agree
    for key, coeffs in small.brackets.items():
        assert big.brackets[key] == coeffs


def test_integral_search_order_stability(capsys):
    import json
    from charlie import cli
    reports = []
    for order in (4, 8):
        assert cli.run(["integrals", "--equation", "liouville", "--weight", "3",
                        "--order", str(order)]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0]["payload"] == reports[1]["payload"]
    assert reports[0]["payload"]["dimension"] > 0
