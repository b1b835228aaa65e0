"""Property suites: exact ring laws, Leibniz, canonical-form roundtrips,
parser robustness on arbitrary text, bracket antisymmetry/Jacobi over random
fields drawn from generated bases, bigrading additivity, and truncation
stability of the closure."""

import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charlie import cli
from charlie import closure as cl
from charlie import exactring as xr
from charlie import jetfield as jf
from charlie.analysis import closure_for
from charlie.linalg import LinearSpan, cleared
import oracles as orc

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
    lhs = orc.qp_derive_uk(xr.qp_mul(a, b), k)
    rhs = xr.qp_add(xr.qp_mul(orc.qp_derive_uk(a, k), b), xr.qp_mul(a, orc.qp_derive_uk(b, k)))
    assert lhs == rhs


@given(quasis)
@settings(max_examples=200, deadline=None)
def test_canonical_form_roundtrip(a):
    assert xr.qp_parse(xr.qp_to_text(a)) == a


@given(quasis, st.booleans())
@settings(max_examples=200, deadline=None)
def test_canonical_text_matches_the_term_oracle(a, homogeneous):
    # negative leads, constant terms, Fractions and exponents up to 3
    assert xr.qp_to_text(a, homogeneous) == orc.qp_to_text(a, homogeneous)


# the equation and polynomial grammar's alphabet, plus a few near misses
grammar_text = st.text(alphabet="0123456789+-*/^() euE\t.sinh", max_size=16)


@given(grammar_text)
@settings(max_examples=600, deadline=None)
def test_parsers_raise_only_value_errors(text):
    # malformed input must surface as a ValueError (exit 1 with a reason in
    # the CLI), never as another exception class
    for parse in (xr.qp_parse, xr.poly_parse, cli.parse_equation):
        try:
            parse(text)
        except ValueError:
            pass


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
    pool = [orc.make_D(order), jf.make_X0(order)]
    for eq in ("sinh", "tzitzeica"):
        res = closure_for(eq, order=order, degree=5)
        pool.extend(orc.truncate(orc.field(res, el), order) for el in res.elements)
    return pool


def _random_combo(rng, pool):
    picks = rng.sample(pool, rng.randint(1, 2))
    acc = None
    for f in picks:
        g = orc.field_scale(f, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        acc = g if acc is None else orc.field_add(acc, g)
    return acc


def test_bracket_antisymmetry_and_jacobi_random_trials(field_pool):
    rng = random.Random(20250811)
    jacobi_trials = 0
    antisym_trials = 0
    while jacobi_trials < 200:
        X, Y, Z = (_random_combo(rng, field_pool) for _ in range(3))
        a = jf.bracket(X, Y)
        b = jf.bracket(Y, X)
        assert orc.fields_equal(a, orc.field_scale(b, -1))
        antisym_trials += 1
        try:
            term1 = jf.bracket(jf.bracket(X, Y), Z)
            term2 = jf.bracket(jf.bracket(Y, Z), X)
            term3 = jf.bracket(jf.bracket(Z, X), Y)
        except jf.TruncationError:
            continue  # double D-brackets can exhaust the slot budget; retry
        total = orc.field_add(orc.field_add(term1, term2), term3)
        assert orc.is_zero(total), (jacobi_trials,)
        jacobi_trials += 1
    assert antisym_trials >= 200


def test_bigrading_additivity_random_pairs(field_pool):
    rng = random.Random(7)
    homogeneous = [f for f in field_pool if orc.bigrading_of(f) is not None]
    checked = 0
    for _ in range(300):
        X, Y = rng.sample(homogeneous, 2)
        br = jf.bracket(X, Y)
        if orc.is_zero(br):
            continue
        bx, by, bb = orc.bigrading_of(X), orc.bigrading_of(Y), orc.bigrading_of(br)
        assert bb == jf.Bigrading(bx.d + by.d, bx.r + by.r)
        checked += 1
    assert checked > 100


# -- truncation stability -----------------------------------------------------

@pytest.mark.parametrize("eq", ["sinh", "tzitzeica"])
def test_closure_truncation_stability(eq, sinh_small, tz_small, sinh_big, tz_big):
    small = sinh_small if eq == "sinh" else tz_small
    big = sinh_big if eq == "sinh" else tz_big
    # independence soundness: the same dimensions found at both orders
    small_dims = orc.dims_by_degree(small)
    big_dims = {d: n for d, n in orc.dims_by_degree(big).items() if d <= small.max_degree}
    assert small_dims == big_dims
    # order-16 fields restricted to 12 slots reproduce the order-12 fields exactly
    for el_small, el_big in zip(small.elements, big.elements):
        assert el_small.name == el_big.name
        assert orc.norm_scale(small, el_small) == orc.norm_scale(big, el_big)
        assert orc.fields_equal(orc.field(small, el_small),
                                orc.truncate(orc.field(big, el_big), small.order))
    # the window's brackets agree
    for key, coeffs in small.brackets.items():
        assert big.brackets[key] == coeffs


exponential_sums = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([Fraction(c) for c in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))]),
    min_size=2, max_size=3).map(lambda d: {a: {xr.MONO_ONE: c} for a, c in d.items()})


@given(exponential_sums)
@settings(max_examples=15, deadline=None)
def test_closure_entries_equal_their_jet_brackets(f):
    # the connection spans decide the generator pairs, the Jacobi identity
    # sums the rest; every entry is the jet bracket of its pair
    res = cl.generate(f, 8, 5)
    fields = {el.index: orc.field(res, el) for el in res.elements}
    for (i, j), coeffs in res.brackets.items():
        rhs = orc.zero_field(res.order)
        for k, c in coeffs:
            rhs = orc.field_add(rhs, orc.field_scale(fields[k], c))
        assert orc.fields_equal(jf.bracket(fields[i], fields[j]), rhs), (i, j)


@given(exponential_sums)
@settings(max_examples=10, deadline=None)
def test_closure_at_a_long_gap_matches_the_jet_brackets(f):
    # order - degree = 7: the window starts at weight 1 and doubles on every
    # relation that the connection vectors miss.  The oracle never reads the
    # window: each degree has as many elements as the order-N jet brackets
    # [Z_g, Z_q] of a generator with an element one degree lower have rank,
    # and every entry is the jet bracket of its pair
    res = cl.generate(f, 12, 5)
    fields = {el.index: orc.field(res, el) for el in res.elements}
    generators = [el.index for el in res.elements if el.degree == 1]
    for d in range(2, res.max_degree + 1):
        span = LinearSpan()
        for g in generators:
            for q in (el.index for el in res.elements if el.degree == d - 1):
                slots = jf.bracket(fields[g], fields[q]).coeffs
                vec = {(j, a, m): c for j, p in enumerate(slots) for a, poly in p.items()
                       for m, c in poly.items()}
                if vec:
                    span.insert(cleared(vec)[0], (g, q))
        assert len(span) == orc.dims_by_degree(res).get(d, 0), d
    for (i, j), coeffs in res.brackets.items():
        rhs = orc.zero_field(res.order)
        for k, c in coeffs:
            rhs = orc.field_add(rhs, orc.field_scale(fields[k], c))
        assert orc.fields_equal(jf.bracket(fields[i], fields[j]), rhs), (i, j)


@given(exponential_sums)
@settings(max_examples=15, deadline=None)
def test_lower_sums_decide_as_the_jets(f):
    # z_{k+1} = D z_k - F_k maps the lower sums F_0..F_{n-1} to the slots
    # 1..n linearly and invertibly, so on every window n each element and
    # each generator pair of degree d gets the same verdict and the same
    # coordinates from its lower sum on slots 0..n - 1 as from the int
    # vector of its D-recursion slots 0..n, against the degree's elements
    res = cl.generate(f, 8, 5)
    raw = {el.index: el.field_raw.coeffs for el in res.elements}

    def vectors(lam, n):
        """(lower sum, jet vector) of L * lam, L its denominators' lcm."""
        lam = cleared(lam)[0]
        lower: dict = {}
        for (_, i), c in lam.items():
            xr.vec_iadd_scaled(lower, cl._vectorize(raw[i][:n]), c)
        slots = jf.bracket_from_connection(lam, {i: raw[i] for _, i in lam}, n)
        return lower, cl._vectorize(slots)

    def same(a, b):
        return a is None and b is None or (
            a is not None and b is not None
            and {t: Fraction(c, a[1]) for t, c in a[0].items()}
            == {t: Fraction(c, b[1]) for t, c in b[0].items()})

    generators = {el.index for el in res.elements if el.degree == 1}
    for el in res.elements:
        if el.pair:
            assert orc.pair_connection(res, *el.pair) == el.connection, el.name
    for d in range(2, res.max_degree + 1):
        for n in (d + 1, d + 2, res.order):
            lowers, jets = defaultdict(LinearSpan), defaultdict(LinearSpan)
            for el in res.elements:
                if el.degree == d:
                    lower, jet = vectors(el.connection, n)
                    assert same(lowers[el.eigenvalue].insert(lower, el),
                                jets[el.eigenvalue].insert(jet, el)), (el.name, n)
            for i, j in res.brackets:
                if i in generators and res.elements[j - 1].degree == d - 1:
                    r = res.elements[i - 1].eigenvalue + res.elements[j - 1].eigenvalue
                    lower, jet = vectors(orc.pair_connection(res, i, j), n)
                    assert same(lowers[r].express(lower), jets[r].express(jet)), (i, j, n)


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
