import hashlib
import shlex
from fractions import Fraction

import pytest

from charlie import bell
from charlie import cli
from charlie import closure as cl
from charlie import exactring as xr
from charlie import jetfield as jf
from charlie import loopalg as la
from charlie.analysis import EQUATIONS, closure_for


def qp_times_field(g, X):
    """The operator g*X (coefficient-wise multiplication by a quasipolynomial)."""
    return jf.make_field(
        xr.qp_mul(g, X.slot(0)), [xr.qp_mul(g, X.slot(j)) for j in range(1, X.valid_order + 1)])


def test_liouville_closure_is_two_dimensional():
    res = cl.generate(EQUATIONS["liouville"], 9, 6, "X")
    assert [el.name for el in res.elements] == ["X1"]
    assert res.elements[0].eigenvalue == 1
    assert res.brackets == {}
    assert res.bracket_coeffs(0, 1) == ((1, Fraction(1)),)  # [X0, X1] = X1


def test_generate_precondition():
    with pytest.raises(cl.ClosureError):
        cl.generate(EQUATIONS["sinh"], 10, 8, "X")
    with pytest.raises(cl.ClosureError):  # beyond the packed kernel's exponents
        cl.generate(EQUATIONS["sinh"], 1 << 15, 4, "X")
    with pytest.raises(cl.ClosureError):
        cl.generate(xr.qp_parse("u1"), 12, 4, "X")
    with pytest.raises(cl.ClosureError):
        cl.generate({}, 12, 4, "X")


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
        big = jf.bigrading_of(el.field_raw)
        if s == 0:
            assert big == jf.Bigrading(2 * k, 0)
        elif s == 1:
            assert big == jf.Bigrading(2 * k + 1, 1)
        else:
            assert big == jf.Bigrading(2 * k + 1, -1)


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
    assert jf.bracket(el["X1"], el["X4"]).is_zero()
    assert jf.bracket(el["X2"], el["X5"]).is_zero()


def test_tzitzeica_basis_and_bigradings(tz_small):
    got = [(el.name, el.degree, el.eigenvalue) for el in tz_small.elements]
    assert got == [
        ("Y1", 1, 1), ("Y2", 1, -2), ("Y3", 2, -1), ("Y4", 3, 0), ("Y5", 4, 1),
        ("Y6", 5, 2), ("Y7", 5, -1), ("Y8", 6, 0), ("Y9", 7, 1), ("Y10", 7, -2),
        ("Y11", 8, -1),
    ]
    bigs = {el.name: jf.bigrading_of(el.field_raw) for el in tz_small.elements}
    B = jf.Bigrading
    assert bigs["Y3"] == B(2, -1) and bigs["Y4"] == B(3, 0)
    assert bigs["Y5"] == B(4, 1) and bigs["Y6"] == B(5, 2) and bigs["Y7"] == B(5, -1)


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
        assert jf.bracket(el[a], el[b]).is_zero(), (a, b)


def test_table_grading_compatibility(sinh_small, tz_small):
    # a nonzero coefficient at k requires bigrading_k = bigrading_i + bigrading_j
    for res in (sinh_small, tz_small):
        big = {el.index: jf.bigrading_of(el.field_raw) for el in res.elements}
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
    res = cl.generate(EQUATIONS["liouville"], 9, 6, "X")
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
        res = cl.generate(EQUATIONS["sinh"], 10, 6, "X", wrong)
        # the flipped normalization of X3 makes some later bracket disagree
        for (i, j), coeffs in res.brackets.items():
            want = la.sl2_bracket_constant(i, j)
            if dict(coeffs) != ({i + j: want} if want else {}):
                raise cl.MismatchError("table mismatch")


# (equation, degree, order) runs on which the connection filter and the
# D-recursion are checked against the jets: both integrable reference cases
# (sinh with its 1/2), the non-integrable e^u + e^(-3u) where its degree-9/10
# undercount shows (non-integral connections at 10/14), a three-term f, and a
# constant term (an e^{0u} generator)
FILTER_CASES = {
    "sinh-12/16": ("sinh", 12, 16),
    "tzitzeica-12/16": ("tzitzeica", 12, 16),
    "nonint-9/13": (xr.qp_parse("e^(u) + e^(-3*u)"), 9, 13),
    "nonint-10/14": (xr.qp_parse("e^(u) + e^(-3*u)"), 10, 14),
    "three-term-6/12": (xr.qp_parse("2 * e^(2*u) + e^(-u) - 3 * e^(u)"), 6, 12),
    "constant-term-6/10": (xr.qp_parse("e^(u) + 3"), 6, 10),
}


@pytest.fixture(scope="module", params=sorted(FILTER_CASES))
def filter_case(request):
    equation, degree, order = FILTER_CASES[request.param]
    return closure_for(equation, order, degree)


def test_every_table_entry_matches_its_jet_bracket(filter_case):
    # all pairs, also those the connection filter kept from being bracketed
    res = filter_case
    fields = {el.index: el.field for el in res.elements}
    assert set(res.brackets) == set(res.certificates)
    for (i, j), coeffs in res.brackets.items():
        br = jf.bracket(fields[i], fields[j])
        rhs = jf.zero_field(res.order)
        for k, c in coeffs:
            rhs = jf.field_add(rhs, jf.field_scale(fields[k], c))
        assert br.valid_order == res.certificates[(i, j)], (i, j)
        assert jf.fields_equal(br, rhs), (i, j)


def test_stored_connection_is_ad_D(filter_case):
    # [D, Z] = sum lam_(s,i) e^{s u} Z_i on slots 0..order-1, Z_0 = X_0
    res = filter_case
    raw = {el.index: el.field_raw for el in res.elements}
    raw[0] = jf.make_X0(res.order)
    D = jf.make_D(res.order)
    for el in res.elements:
        lhs = jf.bracket(D, el.field_raw)
        rhs = jf.zero_field(res.order)
        for (s, i), c in el.connection.items():
            rhs = jf.field_add(rhs, qp_times_field(xr.qp_exp(s, c), raw[i]))
        assert lhs.valid_order == res.order - 1
        assert jf.fields_equal(lhs, rhs), el.name


def _counted(monkeypatch, module, name):
    """A list that gets one entry per call of module.name from now on."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("equation, degree, order, computed", [
    ("sinh", 16, 20, 25),
    ("tzitzeica", 14, 18, 20),
    (xr.qp_parse("e^(u) + e^(-3*u)"), 10, 14, 431),
], ids=["sinh-16/20", "tzitzeica-14/18", "nonint-10/14"])
def test_generate_brackets_only_pairs_with_a_new_connection(monkeypatch, equation, degree,
                                                            order, computed):
    # every field, the generators' included, is integrated by the D-recursion,
    # and no jet bracket is taken at all; elements stay packed: nothing is
    # packed or unpacked, no gradient or Bell polynomial is built, and no
    # field is scaled or graded.  The recursion runs once for X_0, once per
    # generator and once per new connection; nonint's 326 such calls are
    # joined by 102 that extend elements when its degree 9 widens
    calls = {name: _counted(monkeypatch, jf, name)
             for name in ("bracket", "bracket_from_connection", "_packed", "_gradient",
                          "_unpack", "field_scale", "bigrading_of", "make_Xf")}
    calls["complete_bell"] = _counted(monkeypatch, bell, "complete_bell")
    closure_for(equation, order, degree)
    assert {name: len(c) for name, c in calls.items()} == {
        "bracket": 0, "bracket_from_connection": computed, "_packed": 0, "_gradient": 0,
        "_unpack": 0, "field_scale": 0, "bigrading_of": 0, "make_Xf": 0, "complete_bell": 0}


def _widened(res):
    """Degrees below the top whose elements were extended to the full order."""
    return {el.degree for el in res.elements
            if el.degree < res.max_degree and len(el.slots) == res.order + 1}


@pytest.mark.parametrize("equation, degree, order, widened", [
    ("sinh", 16, 20, set()),
    ("tzitzeica", 14, 18, set()),
    (xr.qp_parse("e^(u) + e^(-3*u)"), 10, 14, {9}),
    ("sinh", 32, 36, set()),
], ids=["sinh-16/20", "tzitzeica-14/18", "nonint-10/14", "sinh-32/36"])
def test_window_widens_only_where_it_cannot_decide(equation, degree, order, widened):
    # degree d is decided on slots 0..d + order - degree, so the generators
    # stop at slot 1 + order - degree; only a new connection whose jets the
    # window finds dependent extends its degree to the full order
    res = closure_for(equation, order, degree)
    assert _widened(res) == widened
    if not widened:
        assert all(len(el.slots) - 1 == el.degree + order - degree for el in res.elements)


def _typed(X):
    """X's slots with every coefficient as (type, value): int 2 != Fraction(2)."""
    return [{a: {m: (type(c), c) for m, c in p.items()} for a, p in q.items()}
            for q in X.coeffs]


@pytest.mark.parametrize("case", sorted(FILTER_CASES))
def test_integrated_fields_equal_their_jet_brackets(case):
    # every element of degree >= 2 is the D-recursion's result for the pair
    # that created it: the first pair in index order whose entry names it.
    # Its slots past the window are continued from the stored ones, by the
    # widening of its degree (nonint-10/14 widens degree 9) or when
    # field_raw is read
    equation, degree, order = FILTER_CASES[case]
    res = closure_for(equation, order, degree)
    assert bool(_widened(res)) == (case == "nonint-10/14")
    raw = {el.index: el.field_raw for el in res.elements}
    integrated = [el for el in res.elements if el.degree > 1]
    assert integrated
    for el in integrated:
        i, j = next(key for key in sorted(res.brackets) if el.index in dict(res.brackets[key]))
        want = jf.bracket(raw[i], raw[j])
        assert el.field_raw.valid_order == want.valid_order
        assert _typed(el.field_raw) == _typed(want), (el.name, i, j)


@pytest.mark.xfail(strict=True, reason="a truncated jet closure undercounts e^u + e^(-3u): "
                   "its degree-9 part has 50 elements at order 14 and 54 at order 15")
def test_nonintegrable_degree9_dimension_is_stable_in_the_order():
    # known defect, pinned without hiding it: when the closure no longer
    # depends on the truncation order this passes, and the xfail must go
    f = xr.qp_parse("e^(u) + e^(-3*u)")
    dims = [sum(1 for el in closure_for(f, order, 9).elements if el.degree == 9)
            for order in (14, 15)]
    assert dims[0] == dims[1], dims


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


# sha256 of closure reports that no golden workload reaches: three generators
# (canonical is None, same-bigrading ties such as Z8/Z9 at (3, 7)), a
# mixed-sign pair, a single generator (nothing to bracket), rational
# coefficients and a constant term
PINNED_REPORTS = {
    'charalg --equation "e^u+e^(2u)+e^(3u)" --degree 5 --order 9':
        "af1c6122faa49a610b0fdb6388389967317aa062add8dfb303a0941dd3d93a6f",
    'charalg --equation "e^(2u)+e^(-u)" --degree 7 --order 11':
        "1d382d68ebd3fd3fe3be9c0d61e8d0ba37fb2f96d9f7717de13fd43e578cbd07",
    "charalg --equation e^u --degree 4 --order 8":
        "956bc4f7b4caf8c7219348191084974a8a5e39b81d904ebf0231d964925d0388",
    # non-integral f coefficients, and a constant term: the D-recursion's
    # int/Fraction division must leave these bytes as the jet bracket gave them
    'charalg --equation "1/3e^u-5/7e^(-2u)" --degree 8 --order 12':
        "3d85c2cb99abc1f5ea9cec83ecef03a71ecf7b58c3547875fd5a095073a8e6f0",
    'charalg --equation "e^u+3" --degree 6 --order 10':
        "f74a5d2ec28701a6582f67714d42a95bdea667e3a3f0cd36aa76bbcb681b9b3f",
    # long degree windows, where each degree is decided on a short weight window
    "charalg --equation sinh --degree 24 --order 28":
        "ce00b9c79a5d01053b697a44ce20a2c21ba7ea309db7d473ee43fa17d641d868",
    "charalg --equation tzitzeica --degree 24 --order 28":
        "9993518533c905731d0929ea5a161815252a1b15935035d522eeb977874be9fd",
    "charalg --equation sinh --degree 32 --order 36":
        "3e72035876b01ba6370d1dc5f1448021400fa6679ea4295700ca20d3a2673ea0",
    "growth --equation tzitzeica --degree 20":
        "c85f415ec45dc8a50834b086e0b1688883c19eb763f7eed3d57f685fc60386cf",
}


@pytest.mark.parametrize("command, digest", sorted(PINNED_REPORTS.items()),
                         ids=sorted(PINNED_REPORTS))
def test_closure_report_matches_pinned_hash(capsys, command, digest):
    assert cli.run(shlex.split(command)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


# (exit code, sha256) of reports that read an equation or a loop algebra
# through its stored data and that no golden reaches: the sl(2) table with its
# gradings, both isomorphisms with their Serre relations (tzitzeica spelled
# with its terms out of order), the presented n2^3 degrees, and a constant term
# in f, which f' drops (the symmetry check fails, exit 2)
PINNED_DATA_REPORTS = {
    "loops --algebra sl2 --max 60":
        (0, "21e69d43802287e896369cdf930753998c10cf91e46792308866e87e2841f648"),
    "verify-iso --equation sinh --degree 16 --order 20":
        (0, "1df0730529345e9f69c90ba5a5ae2b45a28265a496d918c484cdd3e826348533"),
    'verify-iso --equation "e^(-2u) + e^u" --degree 8 --order 12':
        (0, "eafdc4108cc30f3cf347ccc340325571565dfb737a12631460b880939f90f331"),
    "growth --algebra n2^3 --degree 40":
        (0, "9d35f6d0d0f4c19ac0c2c9d008d1d0d21c1a106646d12c064d340844f7f05a36"),
    'integrals --equation "e^u + 3" --weight 4':
        (0, "31a908ad8f2571ce11e6f097d0b6efe7b59aef8ca6eb978160ea7469ca06df7f"),
    'symmetry --equation "e^u + 3" --phi u2':
        (2, "91a5f9dd7cb28518de918d418556b427ab82a6ae23738a94a8a425d3b2a5a01e"),
}


@pytest.mark.parametrize("command, pinned", sorted(PINNED_DATA_REPORTS.items()),
                         ids=sorted(PINNED_DATA_REPORTS))
def test_data_report_matches_pinned_hash(capsys, command, pinned):
    code = cli.run(shlex.split(command))
    assert (code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()) == pinned
