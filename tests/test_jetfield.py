from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from charlie import closure as cl
from charlie.analysis import _monomials_of_weight
from charlie import exactring as xr
from charlie import jetfield as jf

SINH = xr.qp_parse("1/2 * e^(u) - 1/2 * e^(-u)")
TZITZEICA = xr.qp_parse("e^(u) + e^(-2*u)")
EXP_U = xr.qp_parse("e^(u)")


def test_make_D_slots():
    D = jf.make_D(6)
    assert D.u_slot == xr.qp_parse("u1")
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
    with pytest.raises(ValueError):
        jf.make_Xf(xr.qp_parse("e^(u) * u1"), 3)


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
        assert br.u_slot == xr.qp_neg(f)
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
    assert jf.eigencheck_adX0(X3) == 0


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


def test_eigencheck():
    order = 6
    assert jf.eigencheck_adX0(jf.make_Xf(EXP_U, order)) == 1
    assert jf.eigencheck_adX0(jf.make_Xf(xr.qp_parse("e^(-2*u)"), order)) == -2
    assert jf.eigencheck_adX0(jf.make_Xf(SINH, order)) is None  # mixes e^u and e^-u


def test_is_zero_up_to():
    order = 6
    z = jf.is_zero_up_to(jf.zero_field(order))
    assert z.is_zero and z.order == order and str(z) == "ZERO_UP_TO(6)"
    nz = jf.is_zero_up_to(jf.make_Xf(EXP_U, order))
    assert not nz.is_zero and nz.witness_slot == 1


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
    # the kernel differentiates only along the partner's nonempty slots, so
    # it builds no d/du_3 here; a value using u_3 still needs the partner's
    # slot 3, which lies beyond its valid order 2 and is unknown
    partner = jf.make_field({}, [xr.qp_parse("1"), {}], 2)   # d/du_1, valid order 2
    value = jf.make_field({}, [xr.qp_parse("u3"), {}, {}, {}], 4)
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
    return _monomials_of_weight(w, w)


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

    return jf.make_field(part(-d), [part(j - d) for j in range(1, order + 1)], order)


fields = bihomogeneous_fields() | st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.sampled_from([jf.make_X0(n), jf.make_D(n)]))


def _apply_by_definition(X, g):
    top = xr.qp_max_index(g)
    if top > X.valid_order:
        raise jf.TruncationError("needs a slot beyond the valid order")
    out = xr.qp_mul(X.u_slot, xr.qp_derive_u(g))
    for k in range(1, top + 1):
        out = xr.qp_add(out, xr.qp_mul(X.slots[k - 1], xr.qp_derive_uk(g, k)))
    return out


def _bracket_by_definition(X, Y):
    """(u slot, slots) of [X, Y]: slot j = X(Q_j^Y) - Y(Q_j^X), term by term."""
    if xr.qp_max_index(X.u_slot) > Y.valid_order or xr.qp_max_index(Y.u_slot) > X.valid_order:
        raise jf.TruncationError("u slots exceed the operands' valid orders")
    u_slot = xr.qp_sub(_apply_by_definition(X, Y.u_slot), _apply_by_definition(Y, X.u_slot))
    slots = []
    for qx, qy in zip(X.slots, Y.slots):
        if xr.qp_max_index(qy) > X.valid_order or xr.qp_max_index(qx) > Y.valid_order:
            break
        slots.append(xr.qp_sub(_apply_by_definition(X, qy), _apply_by_definition(Y, qx)))
    if not slots:
        raise jf.TruncationError("bracket result would have valid order < 1")
    return u_slot, slots


def _coefficients(X):
    return [c for q in (X.u_slot, *X.slots) for p in q.values() for c in p.values()]


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
    assert (got.u_slot, list(got.slots)) == want
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


def test_kernel_exponent_range():
    # the largest exponent an operand may have survives a product with D exactly
    assert jf.apply_total_derivative(xr.qp_parse("u1^32767 * u3")) == \
        xr.qp_parse("32767 * u1^32766 * u2 * u3 + u1^32767 * u4")
    with pytest.raises(ValueError):
        jf.apply_field(jf.make_D(3), [xr.qp_parse("u1^32768")])


def test_make_Xf_integral_coefficients():
    assert all(type(c) is int for c in _coefficients(jf.make_Xf(TZITZEICA, 8)))
    assert all(type(c) is int for c in _coefficients(jf.make_Xf(xr.qp_exp(-3, -1), 8)))
    # a non-integral f keeps its Fractions
    assert Fraction(1, 2) in _coefficients(jf.make_Xf(SINH, 3))


@pytest.mark.parametrize("f, order, degree", [
    ("1/2 * e^(u) - 1/2 * e^(-u)", 12, 8),
    ("e^(u) + e^(-2*u)", 12, 8),
    ("e^(u) + e^(-3*u)", 10, 6),
])
def test_closure_fields_stay_integral(f, order, degree):
    # every raw closure field is integral: a Fraction leaking into the bracket
    # kernel's inputs or outputs fails here
    result = cl.generate(xr.qp_parse(f), order, degree)
    assert len(result.elements) > 2
    for el in result.elements:
        bad = [c for c in _coefficients(el.field_raw) if type(c) is not int]
        assert not bad, (el.name, bad[:3])
