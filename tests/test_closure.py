from fractions import Fraction

import pytest

from charlie import closure as cl
from charlie import exactring as xr
from charlie import jetfield as jf
from charlie import loopalg as la
from charlie.analysis import EQUATIONS, closure_for, equation_qp


def qp_times_field(g, X):
    """The operator g*X (coefficient-wise multiplication by a quasipolynomial)."""
    return jf.make_field(
        xr.qp_mul(g, X.u_slot), [xr.qp_mul(g, s) for s in X.slots], X.valid_order)


def test_liouville_closure_is_two_dimensional():
    res = cl.generate(equation_qp(EQUATIONS["liouville"]), 9, 6, "X")
    assert [el.name for el in res.elements] == ["X1"]
    assert res.elements[0].eigenvalue == 1
    assert res.brackets == {}
    assert res.bracket_coeffs(0, 1) == ((1, Fraction(1)),)  # [X0, X1] = X1


def test_generate_precondition():
    with pytest.raises(cl.ClosureError):
        cl.generate(equation_qp(EQUATIONS["sinh"]), 10, 8, "X")
    with pytest.raises(cl.ClosureError):
        cl.generate(xr.qp_parse("u1"), 12, 4, "X")


def test_sinh_basis_names_degrees_eigenvalues(sinh_small):
    got = [(el.name, el.degree, el.eigenvalue) for el in sinh_small.elements]
    assert got == [
        ("X1", 1, 1), ("X2", 1, -1), ("X3", 2, 0), ("X4", 3, 1), ("X5", 3, -1),
        ("X6", 4, 0), ("X7", 5, 1), ("X8", 5, -1), ("X9", 6, 0),
        ("X10", 7, 1), ("X11", 7, -1), ("X12", 8, 0),
    ]


def test_sinh_generators_are_the_split_exponentials(sinh_small):
    X1 = sinh_small.by_name("X1").field
    X2 = sinh_small.by_name("X2").field
    assert X1.slot(1) == xr.qp_parse("e^(u)")
    assert X2.slot(1) == xr.qp_parse("-1 * e^(-u)")


def test_sinh_operator_bigradings(sinh_small):
    for el in sinh_small.elements:
        k, s = divmod(el.index, 3)
        if s == 0:
            assert (el.bigrading.d, el.bigrading.r) == (2 * k, 0)
        elif s == 1:
            assert (el.bigrading.d, el.bigrading.r) == (2 * k + 1, 1)
        else:
            assert (el.bigrading.d, el.bigrading.r) == (2 * k + 1, -1)


def test_sinh_normalization_matches_reference_recursion(sinh_small):
    # X4 = -[X1, X3], X5 = [X2, X3], X6 = [X1, X5], X7 = -[X1, X6]
    el = {e.name: e.field for e in sinh_small.elements}
    assert jf.fields_equal(el["X4"], jf.field_scale(jf.bracket(el["X1"], el["X3"]), -1))
    assert jf.fields_equal(el["X5"], jf.bracket(el["X2"], el["X3"]))
    assert jf.fields_equal(el["X6"], jf.bracket(el["X1"], el["X5"]))
    assert jf.fields_equal(el["X7"], jf.field_scale(jf.bracket(el["X1"], el["X6"]), -1))


def test_sinh_D_recursion_relations(sinh_small):
    # [D, X_{3k+1}] = -e^u X_{3k},  [D, X_{3k+2}] = e^-u X_{3k},
    # [D, X_{3k+3}] = -e^-u X_{3k+1} + e^u X_{3k+2}
    el = {e.index: e.field for e in sinh_small.elements}
    D = jf.make_D(sinh_small.order)
    eu, emu = xr.qp_parse("e^(u)"), xr.qp_parse("e^(-u)")
    for k in (1, 2, 3):
        lhs = jf.bracket(D, el[3 * k + 1])
        assert jf.fields_equal(lhs, jf.field_scale(qp_times_field(eu, el[3 * k]), -1)), k
        lhs = jf.bracket(D, el[3 * k + 2])
        assert jf.fields_equal(lhs, qp_times_field(emu, el[3 * k])), k
        lhs = jf.bracket(D, el[3 * k])
        rhs = jf.field_add(jf.field_scale(qp_times_field(emu, el[3 * k - 2]), -1),
                           qp_times_field(eu, el[3 * k - 1]))
        assert jf.fields_equal(lhs, rhs), k


def test_sinh_table_equals_matrix_table(sinh_small):
    n = len(sinh_small.elements)
    for (i, j), coeffs in sinh_small.brackets.items():
        c = la.matrix_structure_constant("n1", i, j)
        assert dict(coeffs) == ({i + j: c} if c else {}), (i, j)
    for el in sinh_small.elements:
        assert Fraction(el.eigenvalue) == la.matrix_structure_constant("n1", 0, el.index)
    assert n == 12


def test_sinh_specific_relations(sinh_small):
    # [X3, X1] = X4 and [X4, X2] = X6 in the reference normalization
    el = {e.name: e.field for e in sinh_small.elements}
    assert jf.fields_equal(jf.bracket(el["X3"], el["X1"]), el["X4"])
    assert jf.fields_equal(jf.bracket(el["X4"], el["X2"]), el["X6"])
    # [X1, X4] = [X2, X5] = 0 up to truncation
    assert jf.is_zero_up_to(jf.bracket(el["X1"], el["X4"])).is_zero
    assert jf.is_zero_up_to(jf.bracket(el["X2"], el["X5"])).is_zero


def test_tzitzeica_basis_and_bigradings(tz_small):
    got = [(el.name, el.degree, el.eigenvalue) for el in tz_small.elements]
    assert got == [
        ("Y1", 1, 1), ("Y2", 1, -2), ("Y3", 2, -1), ("Y4", 3, 0), ("Y5", 4, 1),
        ("Y6", 5, 2), ("Y7", 5, -1), ("Y8", 6, 0), ("Y9", 7, 1), ("Y10", 7, -2),
        ("Y11", 8, -1),
    ]
    bigs = {el.name: (el.bigrading.d, el.bigrading.r) for el in tz_small.elements}
    assert bigs["Y3"] == (2, -1) and bigs["Y4"] == (3, 0)
    assert bigs["Y5"] == (4, 1) and bigs["Y6"] == (5, 2) and bigs["Y7"] == (5, -1)


def test_tzitzeica_printed_leading_terms(tz_small):
    el = {e.name: e.field for e in tz_small.elements}
    assert el["Y3"].slot(2) == xr.qp_parse("-3 * e^(-u)")
    assert el["Y3"].slot(3) == xr.qp_parse("6 * e^(-u) * u1")
    assert el["Y3"].slot(4) == xr.qp_parse("-15 * e^(-u) * u1^2 + 9 * e^(-u) * u2")
    assert el["Y4"].slot(3) == xr.qp_parse("9")
    assert el["Y4"].slot(4) == xr.qp_parse("-18 * u1")
    assert el["Y4"].slot(5) == xr.qp_parse("45 * u1^2 - 45 * u2")
    assert el["Y5"].slot(4) == xr.qp_parse("9 * e^(u)")
    assert el["Y5"].slot(5) == xr.qp_parse("-9 * e^(u) * u1")
    # the e^{2u} element: sign pinned by [D, Y6] = -e^u Y5 (see the D-recursion test)
    assert el["Y6"].slot(5) == xr.qp_parse("9 * e^(2*u)")
    assert el["Y6"].slot(6) == xr.qp_parse("9 * e^(2*u) * u1")


def test_tzitzeica_normalization_matches_reference_recursion(tz_small):
    # Y5 = -1/3 [Y1, Y4], Y6 = -1/2 [Y1, Y5], Y7 = [Y2, Y5], Y8 = [Y1, Y7],
    # Y9 = -[Y1, Y8], Y10 = 1/2 [Y2, Y8], Y11 = [Y1, Y10]
    el = {e.name: e.field for e in tz_small.elements}
    checks = [
        ("Y3", 1, "Y1", "Y2"), ("Y4", 1, "Y1", "Y3"),
        ("Y5", Fraction(-1, 3), "Y1", "Y4"), ("Y6", Fraction(-1, 2), "Y1", "Y5"),
        ("Y7", 1, "Y2", "Y5"), ("Y8", 1, "Y1", "Y7"),
        ("Y9", -1, "Y1", "Y8"), ("Y10", Fraction(1, 2), "Y2", "Y8"),
        ("Y11", 1, "Y1", "Y10"),
    ]
    for target, scale, a, b in checks:
        assert jf.fields_equal(el[target], jf.field_scale(jf.bracket(el[a], el[b]), scale)), target


def test_tzitzeica_D_recursion_relations(tz_small):
    el = {e.index: e.field for e in tz_small.elements}
    D = jf.make_D(tz_small.order)
    eu, em2u = xr.qp_parse("e^(u)"), xr.qp_parse("e^(-2*u)")

    def expect(*pairs):
        out = None
        for g, idx in pairs:
            term = qp_times_field(g, el[idx])
            out = term if out is None else jf.field_add(out, term)
        return out

    assert jf.fields_equal(jf.bracket(D, el[3]), expect((xr.qp_scale(eu, 2), 2), (em2u, 1)))
    assert jf.fields_equal(jf.bracket(D, el[4]), expect((xr.qp_scale(eu, 3), 3)))
    assert jf.fields_equal(jf.bracket(D, el[5]), expect((xr.qp_neg(eu), 4)))
    assert jf.fields_equal(jf.bracket(D, el[6]), expect((xr.qp_neg(eu), 5)))
    assert jf.fields_equal(jf.bracket(D, el[7]), expect((xr.qp_neg(em2u), 5)))
    assert jf.fields_equal(jf.bracket(D, el[8]), expect((xr.qp_scale(em2u, 2), 6), (eu, 7)))


def test_tzitzeica_table_equals_matrix_table(tz_small):
    for (i, j), coeffs in tz_small.brackets.items():
        c = la.matrix_structure_constant("n2", i, j)
        assert dict(coeffs) == ({i + j: c} if c else {}), (i, j)
    for el in tz_small.elements:
        assert Fraction(el.eigenvalue) == la.matrix_structure_constant("n2", 0, el.index)


def test_tzitzeica_spot_identities(tz_small):
    el = {e.name: e.field for e in tz_small.elements}
    assert jf.fields_equal(jf.bracket(el["Y3"], el["Y4"]), jf.field_scale(el["Y7"], 3))
    assert jf.fields_equal(jf.bracket(el["Y1"], el["Y5"]), jf.field_scale(el["Y6"], -2))
    for a, b in (("Y2", "Y3"), ("Y2", "Y4"), ("Y2", "Y7")):
        assert jf.is_zero_up_to(jf.bracket(el[a], el[b])).is_zero, (a, b)


def test_table_grading_compatibility(sinh_small, tz_small):
    # a nonzero coefficient at k requires bigrading_k = bigrading_i + bigrading_j
    for res in (sinh_small, tz_small):
        big = {el.index: el.bigrading for el in res.elements}
        for (i, j), coeffs in res.brackets.items():
            for k, c in coeffs:
                assert c != 0
                assert big[k].d == big[i].d + big[j].d, (i, j, k)
                assert big[k].r == big[i].r + big[j].r, (i, j, k)


def test_eigenvalue_patterns(sinh_small, tz_small):
    for el in sinh_small.elements:
        assert el.eigenvalue == (0, 1, -1)[el.index % 3]
    for el in tz_small.elements:
        assert el.eigenvalue == (0, 1, -2, -1, 0, 1, 2, -1)[el.index % 8]


def test_certificates_cover_all_pairs(tz_small):
    assert set(tz_small.certificates) == set(tz_small.brackets)
    assert all(n == tz_small.order for n in tz_small.certificates.values())


def test_growth_functions(sinh_small, tz_small, sinh_big, tz_big):
    assert [cl.growth_function(sinh_big, n) for n in range(1, 13)] == \
        [2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
    assert [cl.growth_function(tz_big, n) for n in range(1, 13)] == \
        [2, 3, 4, 5, 7, 8, 10, 11, 12, 13, 15, 16]
    assert cl.growth_function(sinh_small, 8) == 12
    with pytest.raises(cl.ClosureError):
        cl.growth_function(sinh_small, 9)


def test_growth_offsets(sinh_big, tz_big):
    assert cl.commutant_growth_offset(sinh_big) == 1
    assert cl.commutant_growth_offset(tz_big) == 1


def test_liouville_growth_offset():
    res = cl.generate(equation_qp(EQUATIONS["liouville"]), 9, 6, "X")
    assert cl.commutant_growth_offset(res) == 1
    assert all(cl.growth_function(res, n) == 1 for n in range(1, 7))


def test_determinism_two_runs():
    a = closure_for("tzitzeica", order=12, degree=6)
    b = closure_for("tzitzeica", order=12, degree=6)
    assert [(e.name, e.degree, e.eigenvalue, e.norm_scale) for e in a.elements] == \
        [(e.name, e.degree, e.eigenvalue, e.norm_scale) for e in b.elements]
    assert a.brackets == b.brackets and a.certificates == b.certificates
    for x, y in zip(a.elements, b.elements):
        assert jf.fields_equal(x.field, y.field)


def test_mismatch_detection_on_wrong_target():
    def wrong(q, l):
        c = la.sl2_bracket_constant(q, l)
        return -c if (q, l) == (1, 2) else c  # flipped sign cascades to a contradiction
    with pytest.raises(cl.MismatchError):
        res = cl.generate(equation_qp(EQUATIONS["sinh"]), 10, 6, "X", wrong)
        # the flipped normalization of X3 makes some later bracket disagree
        for (i, j), coeffs in res.brackets.items():
            want = la.sl2_bracket_constant(i, j)
            if dict(coeffs) != ({i + j: want} if want else {}):
                raise cl.MismatchError("table mismatch")


# ---------------------------------------------------------------------------
# presented algebras
# ---------------------------------------------------------------------------

def test_presented_bracket_examples():
    wp = cl.presented_witt_plus()
    assert wp.bracket("e2", "e3") == (("e5", Fraction(1)),)
    n2c = cl.presented_n2_central()
    assert n2c.bracket("f2", "f3") == (("c", Fraction(1)),)
    assert n2c.bracket("c", "f4") == ()
    m0s = cl.presented_m0_S(frozenset({3}))
    assert m0s.bracket("e2", "e1") == (("e3", Fraction(-1)),)
    assert m0s.bracket("e2", "e3") == ()  # 5 not in S
    m0s35 = cl.presented_m0_S(frozenset({3, 5}))
    assert m0s35.bracket("e2", "e3") == (("c5", Fraction(1)),)
    assert m0s35.bracket("e3", "e2") == (("c5", Fraction(-1)),)


def test_presented_jacobi_small():
    for factory in (cl.presented_m0, cl.presented_m2, cl.presented_witt_plus,
                    cl.presented_n2_central):
        rep = cl.jacobi_check(factory(), 10)
        assert rep["ok"], rep
    rep = cl.jacobi_check(cl.presented_m0_S(frozenset({3, 5})), 10)
    assert rep["ok"], rep


def test_presented_jacobi_detects_violation(bad_algebra):
    rep = cl.jacobi_check(bad_algebra, 6)
    assert not rep["ok"] and rep["violation"] is not None
    # [[e1,e2],e3] = 0, [[e2,e3],e1] = e6, [[e3,e1],e2] = e6
    assert rep["triples"] == 1
    assert rep["violation"] == ("e1", "e2", "e3", {"e6": 2})


def test_presented_rules_have_int_constants():
    algebras = [f() for f in cl.PRESENTED.values()] + [cl.presented_m0_S(frozenset({3, 5, 7}))]
    for alg in algebras:
        labels = alg.labels_up_to(12)
        for a in labels:
            for b in labels:
                assert all(type(c) is int for _, c in alg.rule(a, b)), (alg.name, a, b)


def test_presented_growth_n_plus_one():
    for factory in (cl.presented_m0, cl.presented_m2, cl.presented_witt_plus):
        alg = factory()
        for n in range(1, 21):
            assert cl.presented_growth(alg, n) == n + 1, (alg.name, n)


def test_m0S_rejects_bad_index_sets():
    with pytest.raises(ValueError):
        cl.presented_m0_S(frozenset({4}))
