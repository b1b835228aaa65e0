from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from charlie import closure as cl
from charlie.bell import complete_bell, d_power_exp
from charlie import exactring as xr
from charlie import jetfield as jf

SINH = xr.qp_parse("1/2 * e^(u) - 1/2 * e^(-u)")
TZITZEICA = xr.qp_parse("e^(u) + e^(-2*u)")
EXP_U = xr.qp_parse("e^(u)")


def test_make_D_slots():
    D = jf.make_D(6)
    assert D.slot(0) == xr.qp_parse("u1")
    assert D.slot(3) == xr.qp_parse("u4")
    assert jf.bigrading_of(D) == jf.Bigrading(-1, 0)


def test_apply_total_derivative():
    assert jf.apply_total_derivative(xr.qp_parse("u3")) == xr.qp_parse("u4")
    assert jf.apply_total_derivative(xr.qp_parse("e^(2*u)")) == xr.qp_parse("2 * e^(2*u) * u1")
    # feeds the Liouville integral check
    assert jf.apply_total_derivative(xr.qp_parse("1/2*u1^2 - u2")) == xr.qp_parse("u1*u2 - u3")


def test_make_Xf_slots():
    X = jf.make_Xf(EXP_U, 3)
    assert X.slot(1) == EXP_U
    assert X.slot(3) == xr.qp_parse("e^(u)*u1^2 + e^(u)*u2")
    Xs = jf.make_Xf(SINH, 2)
    assert Xs.slot(2) == xr.qp_parse("1/2 * e^(u) * u1 + 1/2 * e^(-u) * u1")  # cosh(u) u1
    slot2 = jf.make_Xf(xr.qp_parse("1/2 * e^(2*u)"), 2).slot(2)  # u1 e^(2u), the int 1
    assert slot2 == {2: {((1, 1),): 1}} and type(slot2[2][((1, 1),)]) is int
    with pytest.raises(ValueError):
        jf.make_Xf(xr.qp_parse("e^(u) * u1"), 3)
    with pytest.raises(ValueError):
        jf.make_Xf(EXP_U, 0)


def test_bracket_X0_Xf():
    order = 6
    X0 = jf.make_X0(order)
    X1 = jf.make_Xf(EXP_U, order)
    assert jf.fields_equal(jf.bracket(X0, X1), X1)  # [X0, X(e^u)] = X(e^u)
    # [X0, X(f)] differentiates the coefficients by u: X(sinh) -> X(cosh)
    cosh = xr.qp_parse("1/2 * e^(u) + 1/2 * e^(-u)")
    assert jf.fields_equal(jf.bracket(X0, jf.make_Xf(SINH, order)), jf.make_Xf(cosh, order))


def test_bracket_D_Xf_is_minus_f_X0():
    # [D, X(f)] = -f * X0, exact on retained slots, for all three equations
    order = 12
    D = jf.make_D(order)
    for f in (EXP_U, SINH, TZITZEICA):
        br = jf.bracket(D, jf.make_Xf(f, order))
        assert br.valid_order == order - 1  # one bracket with D costs one slot
        assert br.slot(0) == xr.qp_neg(f)
        assert all(not br.slot(j) for j in range(1, br.valid_order + 1))


def test_bracket_sinh_generators_matches_printed_terms():
    order = 8
    X1 = jf.make_Xf(EXP_U, order)
    X2 = jf.field_scale(jf.make_Xf(xr.qp_parse("e^(-u)"), order), -1)
    X3 = jf.bracket(X1, X2)
    assert X3.slot(1) == {}
    assert X3.slot(2) == xr.qp_parse("2")
    assert X3.slot(3) == {}
    assert X3.slot(4) == xr.qp_parse("2*u1^2")
    assert X3.slot(5) == xr.qp_parse("10*u1*u2")
    assert jf.bigrading_of(X3) == jf.Bigrading(2, 0)


def test_bracket_antisymmetric_exact():
    order = 7
    X1 = jf.make_Xf(SINH, order)
    D = jf.make_D(order)
    a = jf.bracket(D, X1)
    b = jf.bracket(X1, D)
    assert jf.fields_equal(a, jf.field_scale(b, -1))


def test_bracket_valid_order_floor():
    D = jf.make_D(1)
    with pytest.raises(jf.TruncationError):
        jf.bracket(D, jf.make_D(1))  # slot 1 would need slot 2 of the other operand
    # at order 2 the single retained slot of [D, D] is computable and zero
    dd = jf.bracket(jf.make_D(2), jf.make_D(2))
    assert dd.valid_order == 1 and dd.is_zero()


def test_is_zero_up_to():
    order = 6
    assert jf.is_zero_up_to(jf.zero_field(order)) == "ZERO_UP_TO(6)"
    assert jf.is_zero_up_to(jf.make_Xf(EXP_U, order)) == "NONZERO(slot 1)"
    assert jf.is_zero_up_to(jf.make_X0(order)) == "NONZERO(slot 0)"
    slot3 = jf.make_field({}, [{}, {}, xr.qp_parse("u1"), {}, {}, {}])
    assert jf.is_zero_up_to(slot3) == "NONZERO(slot 3)"


def test_truncate_and_equality():
    X = jf.make_Xf(SINH, 9)
    Y = jf.truncate(X, 5)
    assert Y.valid_order == 5
    assert jf.fields_equal(X, Y)
    with pytest.raises(jf.TruncationError):
        jf.truncate(Y, 9)


def test_apply_field_truncation_guard():
    X = jf.make_Xf(EXP_U, 3)
    with pytest.raises(jf.TruncationError):
        jf.apply_field(X, [xr.qp_parse("u5")])


def test_truncation_beyond_an_empty_partner_slot():
    # the kernel skips the partner's empty slots, so it multiplies nothing
    # by d/du_3 here; a value using u_3 still needs the partner's slot 3,
    # which lies beyond its valid order 2 and is unknown
    partner = jf.make_field({}, [xr.qp_parse("1"), {}])   # d/du_1, valid order 2
    value = jf.make_field({}, [xr.qp_parse("u3"), {}, {}, {}])
    with pytest.raises(jf.TruncationError):
        jf.apply_field(partner, [xr.qp_parse("u3")])
    with pytest.raises(jf.TruncationError):
        jf.bracket(partner, value)
    with pytest.raises(jf.TruncationError):
        jf.bracket(value, partner)
    # inside the valid order an empty slot contributes nothing
    assert jf.apply_field(partner, [xr.qp_parse("u2"), xr.qp_parse("u1*u2")]) == \
        [{}, xr.qp_parse("u2")]


# -- the kernel against the bracket's definition -------------------------------

def _weight_monomials(w: int) -> list:
    return list(complete_bell(w))


coefficients = st.integers(min_value=-3, max_value=3) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4)


@st.composite
def bihomogeneous_fields(draw):
    """Bidegree (d, r): slot j is e^{r*u} times weight j - d, the u slot weight -d."""
    d = draw(st.integers(min_value=-1, max_value=3))
    r = draw(st.integers(min_value=-2, max_value=2))
    order = draw(st.integers(min_value=1, max_value=6))

    def part(w):
        if w < 0:
            return {}
        terms = draw(st.dictionaries(st.sampled_from(_weight_monomials(w)), coefficients,
                                     max_size=3))
        p = {m: c for m, c in terms.items() if c}
        return {r: p} if p else {}

    return jf.make_field(part(-d), [part(j - d) for j in range(1, order + 1)])


fields = bihomogeneous_fields() | st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.sampled_from([jf.make_X0(n), jf.make_D(n)]))


def _apply_by_definition(X, g):
    top = xr.qp_max_index(g)
    if top > X.valid_order:
        raise jf.TruncationError("needs a slot beyond the valid order")
    out = xr.qp_mul(X.slot(0), xr.qp_derive_u(g))
    for k in range(1, top + 1):
        out = xr.qp_add(out, xr.qp_mul(X.slot(k), xr.qp_derive_uk(g, k)))
    return out


def _bracket_by_definition(X, Y):
    """(u slot, slots) of [X, Y]: slot j = X(Q_j^Y) - Y(Q_j^X), term by term."""
    slots = []  # index 0 is the u slot
    for j in range(min(X.valid_order, Y.valid_order) + 1):
        qx, qy = X.slot(j), Y.slot(j)
        if xr.qp_max_index(qy) > X.valid_order or xr.qp_max_index(qx) > Y.valid_order:
            if j == 0:
                raise jf.TruncationError("u slots exceed the operands' valid orders")
            break
        slots.append(xr.qp_sub(_apply_by_definition(X, qy), _apply_by_definition(Y, qx)))
    if len(slots) < 2:
        raise jf.TruncationError("bracket result would have valid order < 1")
    return slots[0], slots[1:]


def _coefficients(X):
    return [c for q in X.coeffs for p in q.values() for c in p.values()]


def _closure_element(degree):
    """A triangular element of the sinh closure: empty slots 1..degree-1."""
    X1 = jf.make_Xf(EXP_U, 6)
    X2 = jf.make_Xf(xr.qp_exp(-1, -1), 6)
    return {1: X1, 2: jf.bracket(X1, X2), 3: jf.bracket(X1, jf.bracket(X1, X2))}[degree]


@given(fields, fields)
@example(_closure_element(3), jf.make_D(6))
@example(jf.make_X0(5), _closure_element(2))
@example(_closure_element(2), _closure_element(3))
@example(_closure_element(3), _closure_element(1))
@settings(max_examples=300, deadline=None)
def test_bracket_matches_definition(X, Y):
    try:
        want = _bracket_by_definition(X, Y)
    except jf.TruncationError:
        with pytest.raises(jf.TruncationError):
            jf.bracket(X, Y)
        return
    got = jf.bracket(X, Y)
    assert (got.slot(0), [got.slot(j) for j in range(1, got.valid_order + 1)]) == want
    assert got.valid_order == len(want[1])
    if all(type(c) is int for c in _coefficients(X) + _coefficients(Y)):
        assert all(type(c) is int for c in _coefficients(got))


values = st.dictionaries(st.integers(min_value=-2, max_value=2), st.dictionaries(
    st.sampled_from(_weight_monomials(4) + _weight_monomials(2)), coefficients, max_size=3))


@given(fields, st.lists(values, min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_apply_field_matches_definition(X, gs):
    gs = [{a: {m: c for m, c in p.items() if c} for a, p in g.items()} for g in gs]
    gs = [{a: p for a, p in g.items() if p} for g in gs]
    try:
        want = [_apply_by_definition(X, g) for g in gs]
    except jf.TruncationError:
        with pytest.raises(jf.TruncationError):
            jf.apply_field(X, gs)
        return
    assert jf.apply_field(X, gs) == want


quasipolynomials = st.dictionaries(st.integers(min_value=-2, max_value=2), st.dictionaries(
    st.sampled_from([m for w in range(5) for m in _weight_monomials(w)]), coefficients,
    max_size=4), max_size=3)


@given(quasipolynomials)
@example({0: {(): 3, ((1, 2),): Fraction(1, 2)}, 1: {((1, 1), (2, 1)): 2}})
@settings(max_examples=200, deadline=None)
def test_packed_total_derivative_matches_apply_field(g):
    # the packed D against D as a field, coefficient types included
    g = {a: {m: c for m, c in p.items() if c} for a, p in g.items()}
    g = {a: p for a, p in g.items() if p}
    got = jf.apply_total_derivative(g)
    want = jf.apply_field(jf.make_D(max(xr.qp_max_index(g), 1)), [g])[0]
    assert got == want
    assert [type(c) for p in got.values() for c in p.values()] == \
        [type(want[a][m]) for a, p in got.items() for m in p]


def _sinh_pair(order):
    X1 = jf.make_Xf(EXP_U, order)
    X2 = jf.make_Xf(xr.qp_exp(-1, -1), order)
    return X1, X2, {1: list(X1.coeffs), 2: list(X2.coeffs)}


def test_bracket_from_connection():
    # [D, X1] = -e^u X0 and [D, X2] = e^-u X0 give
    # [D, [X1, X2]] = -e^u [X0, X2] + e^-u [X1, X0] = e^u X2 - e^-u X1
    X1, X2, lower = _sinh_pair(8)
    packed = jf.bracket_from_connection({(1, 2): 1, (-1, 1): -1}, lower, 8)
    want = jf.bracket(X1, X2)
    assert packed == list(want.coeffs)  # slots 0..8, the u slot empty
    got = jf.JetField(tuple(packed))
    assert got.valid_order == want.valid_order == 8
    assert all(type(c) is int for c in _coefficients(got))
    # a rational connection: each coefficient divided once, an int where integral
    half = jf.JetField(tuple(jf.bracket_from_connection(
        {(1, 2): Fraction(1, 2), (-1, 1): Fraction(-1, 2)}, lower, 8)))
    assert jf.fields_equal(half, jf.field_scale(got, Fraction(1, 2)))
    assert half.slot(2) == {0: {(): 1}} and type(half.slot(2)[0][()]) is int
    third = jf.JetField(tuple(jf.bracket_from_connection(
        {(1, 2): Fraction(1, 3), (-1, 1): Fraction(-1, 3)}, lower, 8)))
    assert third.slot(2) == {0: {(): Fraction(2, 3)}}


def test_bracket_from_connection_continues_known_slots():
    # continued from its first k slots, the recursion gives the same slots,
    # type for type: the known last slot is scaled by the cleared denominator
    _, _, lower = _sinh_pair(8)

    def typed(slots):
        return [{a: {m: (type(c), c) for m, c in p.items()} for a, p in q.items()} for q in slots]

    for c in (1, Fraction(1, 2), Fraction(1, 3)):
        connection = {(1, 2): c, (-1, 1): -c}
        full = jf.bracket_from_connection(connection, lower, 8)
        for k in (1, 3, 8):
            known = full[:k]
            assert typed(jf.bracket_from_connection(connection, lower, 8, known)) == typed(full)
            assert known == full[:k]


def test_bracket_from_connection_preconditions():
    X1, _, lower = _sinh_pair(4)
    short = {1: list(jf.truncate(X1, 2).coeffs), 2: lower[2]}
    with pytest.raises(jf.TruncationError):
        jf.bracket_from_connection({(1, 2): 1, (-1, 1): -1}, short, 4)


def test_kernel_exponent_range():
    # the largest exponent an operand may have survives a product with D exactly
    assert jf.apply_total_derivative(xr.qp_parse("u1^32767 * u3")) == \
        xr.qp_parse("32767 * u1^32766 * u2 * u3 + u1^32767 * u4")
    with pytest.raises(ValueError):
        jf.apply_field(jf.make_D(3), [xr.qp_parse("u1^32768")])
    # a bracket result is not re-packed: [A, B] = 32767 u1^65533 d/du_2 fits
    # its field, and the next product would carry, so as an operand it raises
    A = jf.make_field({}, [xr.qp_parse("u1^32767"), {}])
    B = jf.make_field({}, [{}, xr.qp_parse("u1^32767")])
    with pytest.raises(ValueError):
        jf.bracket(A, jf.bracket(A, B))
    with pytest.raises(ValueError):
        jf.apply_field(jf.bracket(A, B), [xr.qp_parse("u2")])


def test_exponent_guard_covers_slots_past_the_partners_order():
    # P's slot 2 holds u1^65533 and lies past Q's valid order 1, so no slot of
    # the result walks it; P(Q_1) still multiplies it by u1^3, which would
    # carry into u2, so the guard checks every slot of both operands first
    A = jf.make_field({}, [xr.qp_parse("u1^32767"), {}])
    B = jf.make_field({}, [{}, xr.qp_parse("u1^32767")])
    P = jf.bracket(A, B)
    Q = jf.make_field({}, [xr.qp_parse("u1^3 * u2")])
    for X, Y in ((P, Q), (Q, P)):
        with pytest.raises(ValueError):
            jf.bracket(X, Y)


@pytest.mark.parametrize("f", ["e^(u) + 3", "1/3 * e^(u) - 5/7 * e^(-2*u)", "4/2 * e^(3*u) - 1",
                               "0", "1/2 * e^(2*u)"])
def test_make_Xf_matches_d_power_exp(f):
    # the D-recursion against the Bell closed form: slot j is
    # sum_a c_a D^{j-1}(e^{a u}), an int wherever it is integral; the
    # constant term (a = 0) reaches slot 1 only
    f = xr.qp_parse(f)
    for order in (1, 7):
        X = jf.make_Xf(f, order)
        assert X.valid_order == order and X.slot(0) == {}
        for j in range(1, order + 1):
            want = {}
            for alpha, p in f.items():
                c = p[xr.MONO_ONE]
                for a, bell in d_power_exp(j - 1, alpha).items():
                    want[a] = {m: (c * b).numerator if (c * b).denominator == 1 else c * b
                               for m, b in bell.items()}
            assert X.slot(j) == want, (order, j)
            assert [type(c) for p in X.slot(j).values() for c in p.values()] == \
                [type(want[a][m]) for a, p in X.slot(j).items() for m in p], (order, j)
        assert all(0 not in X.slot(j) for j in range(2, order + 1))


def test_make_Xf_integral_coefficients():
    # a non-integral f keeps its Fractions; those of 1/2 e^(2u) stay in slot 1
    for f, order, fractions in [
        (TZITZEICA, 8, set()),
        (xr.qp_exp(-3, -1), 8, set()),
        (SINH, 3, {Fraction(1, 2), Fraction(-1, 2)}),
        (xr.qp_parse("1/2 * e^(2*u)"), 6, {Fraction(1, 2)}),
    ]:
        X = jf.make_Xf(f, order)
        assert {c for c in _coefficients(X) if type(c) is not int} == fractions, f


@pytest.mark.parametrize("f, order, degree", [
    ("1/2 * e^(u) - 1/2 * e^(-u)", 12, 8),
    ("e^(u) + e^(-2*u)", 12, 8),
    ("e^(u) + e^(-3*u)", 10, 6),
    ("e^(u) + e^(-3*u)", 14, 10),
    ("e^(u) + 2*e^(-2*u) - 3*e^(-3*u)", 10, 6),  # a Fraction connection at the top
])
def test_closure_fields_stay_integral(monkeypatch, f, order, degree):
    # every raw closure field and every D-recursion result is integral, also
    # one integrated from a Fraction connection: a Fraction leaking into the
    # recursion's inputs or outputs fails here.  Reading field_raw builds the
    # top degree, which no later degree reads
    calls = []
    integrate = jf.bracket_from_connection

    def recorded(connection, lower, n, *known):
        slots = integrate(connection, lower, n, *known)
        calls.append((connection, slots))
        return slots

    monkeypatch.setattr(jf, "bracket_from_connection", recorded)
    result = cl.generate(xr.qp_parse(f), order, degree)
    assert len(result.elements) > 2
    for el in result.elements:
        bad = [c for c in _coefficients(el.field_raw) if type(c) is not int]
        assert not bad, (el.name, bad[:3])
    for connection, slots in calls:
        bad = [c for q in slots for p in q.values() for c in p.values() if type(c) is not int]
        assert not bad, (connection, bad[:3])
    if "2*e^(-2*u)" in f:
        assert any(type(c) is Fraction for lam, _ in calls for c in lam.values())
