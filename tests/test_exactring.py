import pytest

from charlie import exactring as xr
from charlie.analysis import EQUATIONS, find_x_integrals
from charlie.bell import complete_bell
import oracles as orc


def P(text):
    return xr.poly_parse(text)


def Q(text):
    return xr.qp_parse(text)


def test_poly_mul_monomials():
    assert xr.poly_mul(P("u1"), P("u1")) == P("u1^2")


def test_poly_mul_identity():
    assert xr.poly_mul(P("u1^2 + u2"), P("1")) == P("u1^2 + u2")


def test_poly_mul_b2_b1():
    # hand expansion of (u1^2 + u2) * u1, weight 3
    prod = xr.poly_mul(P("u1^2 + u2"), P("u1"))
    assert prod == P("u1^3 + u1*u2")
    assert xr.weight_of(prod) == 3


def test_weight_of():
    assert xr.weight_of(P("u1^3*u3")) == 6
    assert xr.weight_of(P("u1^3 + 3*u1*u2 + u3")) == 3
    assert xr.weight_of(P("u1 + u2")) is None
    assert xr.weight_of({}) is None
    assert xr.weight_report({}) == "any"
    assert xr.weight_report(P("u1 + u2")) == "mixed"


def test_qp_mul_exponent_addition():
    assert xr.qp_mul(Q("e^(u)"), Q("e^(-2*u)")) == Q("e^(-u)")
    assert xr.qp_mul(Q("e^(u) * u1"), Q("e^(u) * u1")) == Q("e^(2*u) * u1^2")


def test_sinh_squared():
    sinh = Q("1/2 * e^(u) - 1/2 * e^(-u)")
    sq = xr.qp_mul(sinh, sinh)
    # (cosh 2u - 1)/2 expanded in exponentials
    assert sq == Q("1/4 * e^(2*u) - 1/2 + 1/4 * e^(-2*u)")


def test_qp_derive_u():
    assert xr.qp_derive_u(Q("e^(2*u) * u1")) == Q("2 * e^(2*u) * u1")
    assert xr.qp_derive_u(Q("u1^2")) == {}


def test_qp_derive_uk():
    assert orc.qp_derive_uk(Q("u1^2 + u2"), 1) == Q("2*u1")
    b4 = Q("u1^4 + 6*u1^2*u2 + 4*u1*u3 + 3*u2^2 + u4")
    assert orc.qp_derive_uk(b4, 2) == Q("6*u1^2 + 6*u2")
    with pytest.raises(ValueError):
        orc.qp_derive_uk(b4, 0)


def test_zero_representations():
    assert xr.qp_sub(Q("u1"), Q("u1")) == {}
    assert xr.poly_scale(P("u1 + u2"), 0) == {}
    assert xr.qp_to_text({}) == "0"
    assert xr.qp_parse("0") == {}


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        xr.qp_parse("u1 + spam")
    with pytest.raises(ValueError):
        xr.qp_parse("")
    with pytest.raises(ValueError):
        xr.poly_parse("e^(u) * u1")  # exponential part not allowed in plain polynomials


@pytest.mark.parametrize("text", ["u1^", "u1*", "e^u + 2e", "e^(u)+", "-", "u1 *  * u2"])
def test_parse_rejects_a_cut_last_term_or_an_empty_factor(text):
    with pytest.raises(xr.ParseError):
        xr.qp_parse(text)


def test_parse_reads_a_number_before_e_as_a_factor():
    assert xr.qp_parse("2e^u") == xr.qp_parse("2 * e^(u)")
    assert xr.qp_parse("3 e^(-2u) - 1/2e^u") == xr.qp_parse("3 * e^(-2*u) - 1/2 * e^(u)")
    with pytest.raises(xr.ParseError, match=r"cannot parse '2e\^u2' .* 'e\^u2'"):
        xr.qp_parse("2e^u2")


@pytest.mark.parametrize("text, value", [
    ("3*-2", "-6"), ("3 * -2", "-6"), ("3 *-2", "-6"), ("3* -2", "-6"),
    ("u1*-1", "-u1"), ("u1 * -1", "-u1"), ("u1 * -1/2 - u2", "-1/2 * u1 - u2"),
])
def test_parse_reads_a_signed_number_after_star_as_a_factor(text, value):
    assert xr.qp_parse(text) == xr.qp_parse(value)


@pytest.mark.parametrize("text", ["e - u", "e -u", "u1 * - 1"])
def test_parse_keeps_a_spaced_sign_out_of_a_factor(text):
    with pytest.raises(xr.ParseError):
        xr.qp_parse(text)


def test_canonical_text_shapes():
    q = Q("-1/2 * e^(-2*u) * u1^2*u2 + 3 * u1")
    assert xr.qp_to_text(q) == "3 * u1 - 1/2 * e^(-2*u) * u1^2*u2"
    assert xr.qp_parse(xr.qp_to_text(q)) == q


def test_canonical_text_matches_the_term_oracle():
    # factors rendered once per call give the term-by-term reference's bytes,
    # on the bell --complete 30 polynomial and the integrals --weight 12 basis
    p = complete_bell(30)
    assert xr.poly_to_text(p, True) == orc.qp_to_text(xr.qp_from_poly(p), True)
    basis = find_x_integrals(EQUATIONS["liouville"], 12)
    assert len(basis) == 76
    for w in basis:
        assert xr.poly_to_text(w) == orc.qp_to_text(xr.qp_from_poly(w))


def test_mono_ordering_weight_then_lex():
    ms = [xr.mono_from_pairs(p) for p in ([(2, 1)], [(1, 2)], [(1, 1)])]
    assert sorted(ms, key=xr.mono_key) == [
        xr.mono_from_pairs([(1, 1)]), xr.mono_from_pairs([(1, 2)]), xr.mono_from_pairs([(2, 1)])]


def test_poly_substitute_linear():
    # u2 -> u1 + u3 inside u2^2
    img = orc.poly_substitute(P("u2^2"), {2: P("u1 + u3")})
    assert img == P("u1^2 + 2*u1*u3 + u3^2")
