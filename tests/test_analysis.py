from fractions import Fraction

import pytest

from charlie import analysis as an
from charlie import exactring as xr


def test_find_x_integrals_liouville_weight2():
    basis = an.find_x_integrals(an.EQUATIONS["liouville"], 2)
    assert len(basis) == 1
    # the span of 1/2 u1^2 - u2, normalized to leading coefficient 1
    assert basis[0] == xr.poly_parse("u1^2 - 2*u2")


def test_find_x_integrals_liouville_weight1_empty():
    assert an.find_x_integrals(an.EQUATIONS["liouville"], 1) == []


def test_find_x_integrals_sinh_weight6_empty():
    assert an.find_x_integrals(an.EQUATIONS["sinh"], 6) == []


def test_find_x_integrals_tzitzeica_weight6_empty():
    assert an.find_x_integrals(an.EQUATIONS["tzitzeica"], 6) == []


def test_nullspace_monotone_in_weight():
    # every integral found at bound W survives at bound W+1 (as a subspace)
    w2 = an.find_x_integrals(an.EQUATIONS["liouville"], 2)
    w3 = an.find_x_integrals(an.EQUATIONS["liouville"], 3)
    assert len(w3) >= len(w2)
    assert w2[0] in w3  # same normalization puts the weight-2 integral in both
    # D of an integral is again an integral; weight 3 adds exactly that
    assert xr.poly_parse("u1*u2 - u3") in w3


def test_integrals_reverified_at_higher_order():
    for w in an.find_x_integrals(an.EQUATIONS["liouville"], 3):
        assert an.annihilates(an.EQUATIONS["liouville"], [w], 9) == [True]


def test_integrals_order_independent():
    a = an.find_x_integrals(an.EQUATIONS["sinh"], 4, order=5)
    b = an.find_x_integrals(an.EQUATIONS["sinh"], 4, order=9)
    assert a == b


def test_defining_equation_sinh_phi3():
    ok, residual = an.check_defining_equation(
        an.EQUATIONS["sinh"], xr.poly_parse("u3 - 1/2*u1^3"))
    assert ok and residual == {}


def test_defining_equation_sinh_u2_fails():
    ok, residual = an.check_defining_equation(an.EQUATIONS["sinh"], xr.poly_parse("u2"))
    assert not ok
    # D X(sinh) u2 - cosh(u) u2 = sinh(u) u1^2
    assert residual == xr.qp_parse("1/2 * e^(u) * u1^2 - 1/2 * e^(-u) * u1^2")


def test_defining_equation_liouville_regression():
    # engine self-consistency datum, not a claim: the shifted identity leaves -e^u w2
    ok, residual = an.check_defining_equation(
        an.EQUATIONS["liouville"], xr.poly_parse("1/2*u1^2 - u2"))
    assert not ok
    assert residual == xr.qp_parse("-1/2 * e^(u) * u1^2 + e^(u) * u2")


@pytest.mark.parametrize("A", an.INTRO_MATRICES)
def test_w2_integral_all_displayed_matrices(A):
    ok, residuals = an.check_w2_integral(an.build_exp_system(A, 6))
    assert ok, residuals


def test_w2_formula():
    w2 = an.w2_integral(((2, -4), (-1, 2)))
    # 2*(-1)u1_2 + 2*(-4)u2_2 - 2*(-1)(u1_1)^2 - 2*(-4)(-1) u1_1 u2_1 - 2*(-4)(u2_1)^2
    assert w2 == xr.poly_parse("-2*u3 - 8*u4 + 2*u1^2 - 8*u1*u2 + 8*u2^2")


def test_expected_gradings_reference_rows():
    row = an.expected_gradings("tzitzeica", 7)
    assert row == {"natural": 5, "canonical": (3, 2), "pair": (5, -1)}
    row = an.expected_gradings("sinh", 7)
    assert row == {"natural": 5, "canonical": (3, 2), "pair": (5, 1)}
    row = an.expected_gradings("sinh", 0)
    assert row == {"natural": 0, "canonical": (0, 0), "pair": (0, 0)}


def test_grading_rows_match(sinh_small, tz_small):
    assert all(r["match"] for r in an.grading_rows(sinh_small, "sinh"))
    assert all(r["match"] for r in an.grading_rows(tz_small, "tzitzeica"))


def test_verify_isomorphism_sinh(sinh_small):
    rep = an.verify_isomorphism("sinh", degree=8, order=12)
    assert rep.status == "verified"
    assert rep.basis_size == 12
    assert not rep.mismatches and not rep.grading_mismatches
    assert all(v for v in rep.serre_matrix.values())
    assert all(s == "ZERO_UP_TO(12)" for s in rep.serre_jet.values())
    assert rep.zero_confirmations > 0


def test_verify_isomorphism_tzitzeica():
    rep = an.verify_isomorphism("tzitzeica", degree=8, order=12)
    assert rep.status == "verified"
    assert rep.basis_size == 11
    assert not rep.mismatches


def test_verify_isomorphism_detects_mismatch(monkeypatch):
    from charlie import loopalg as la
    orig = la.matrix_structure_constant

    def corrupted(algebra, i, j):
        c = orig(algebra, i, j)
        return c + 1 if (i, j) == (3, 4) else c

    monkeypatch.setattr(la, "matrix_structure_constant", corrupted)
    rep = an.verify_isomorphism("sinh", degree=8, order=12)
    assert rep.status == "mismatch"
    assert any(m["pair"] == (3, 4) for m in rep.mismatches)


def test_identify_equation():
    assert an.identify_equation(((Fraction(1, 2), 1), (Fraction(-1, 2), -1))) == "sinh"
    assert an.identify_equation(((Fraction(1), 1), (Fraction(1), -2))) == "tzitzeica"
    assert an.identify_equation(((Fraction(2), 1),)) is None
