import hashlib
import json
import shlex
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from charlie import bell
from charlie import cli
from charlie import closure as cl
from charlie import exactring as xr
from charlie import jetfield as jf
from charlie import loopalg as la
from charlie.analysis import EQUATIONS, closure_for
from charlie.linalg import LinearSpan, cleared
import oracles as orc


def qp_times_field(g, X):
    """The operator g*X (coefficient-wise multiplication by a quasipolynomial)."""
    return jf.make_field(
        xr.qp_mul(g, orc.slot(X, 0)),
        [xr.qp_mul(g, orc.slot(X, j)) for j in range(1, X.valid_order + 1)])


def test_liouville_closure_is_two_dimensional():
    res = cl.generate(EQUATIONS["liouville"], 9, 6, "X")
    assert [el.name for el in res.elements] == ["X1"]
    assert res.elements[0].eigenvalue == 1
    assert res.entries == {}
    assert res.bracket_coeffs(0, 1) == ((1, 1, 1),)  # [X0, X1] = X1


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
    X1 = orc.field(sinh_small, orc.by_name(sinh_small, "X1"))
    X2 = orc.field(sinh_small, orc.by_name(sinh_small, "X2"))
    assert orc.slot(X1, 1) == xr.qp_parse("e^(u)")
    assert orc.slot(X2, 1) == xr.qp_parse("-1 * e^(-u)")


def test_sinh_operator_bigradings(sinh_small):
    for el in sinh_small.elements:
        k, s = divmod(el.index, 3)
        big = orc.bigrading_of(el.field_raw)
        if s == 0:
            assert big == jf.Bigrading(2 * k, 0)
        elif s == 1:
            assert big == jf.Bigrading(2 * k + 1, 1)
        else:
            assert big == jf.Bigrading(2 * k + 1, -1)


def test_sinh_normalization_matches_reference_recursion(sinh_small):
    # X4 = -[X1, X3], X5 = [X2, X3], X6 = [X1, X5], X7 = -[X1, X6]
    el = {e.name: orc.field(sinh_small, e) for e in sinh_small.elements}
    assert orc.fields_equal(el["X4"], orc.field_scale(jf.bracket(el["X1"], el["X3"]), -1))
    assert orc.fields_equal(el["X5"], jf.bracket(el["X2"], el["X3"]))
    assert orc.fields_equal(el["X6"], jf.bracket(el["X1"], el["X5"]))
    assert orc.fields_equal(el["X7"], orc.field_scale(jf.bracket(el["X1"], el["X6"]), -1))


def test_sinh_D_recursion_relations(sinh_small):
    # [D, X_{3k+1}] = -e^u X_{3k},  [D, X_{3k+2}] = e^-u X_{3k},
    # [D, X_{3k+3}] = -e^-u X_{3k+1} + e^u X_{3k+2}
    el = {e.index: orc.field(sinh_small, e) for e in sinh_small.elements}
    D = orc.make_D(sinh_small.order)
    eu, emu = xr.qp_parse("e^(u)"), xr.qp_parse("e^(-u)")
    for k in (1, 2, 3):
        lhs = jf.bracket(D, el[3 * k + 1])
        assert orc.fields_equal(lhs, orc.field_scale(qp_times_field(eu, el[3 * k]), -1)), k
        lhs = jf.bracket(D, el[3 * k + 2])
        assert orc.fields_equal(lhs, qp_times_field(emu, el[3 * k])), k
        lhs = jf.bracket(D, el[3 * k])
        rhs = orc.field_add(orc.field_scale(qp_times_field(emu, el[3 * k - 2]), -1),
                            qp_times_field(eu, el[3 * k - 1]))
        assert orc.fields_equal(lhs, rhs), k


def test_sinh_table_equals_matrix_table(sinh_small):
    n = len(sinh_small.elements)
    for (i, j), coeffs in orc.brackets(sinh_small).items():
        c = la.matrix_structure_constant("n1", i, j)
        assert dict(coeffs) == ({i + j: c} if c else {}), (i, j)
    for el in sinh_small.elements:
        assert Fraction(el.eigenvalue) == la.matrix_structure_constant("n1", 0, el.index)
    assert n == 12


def test_sinh_specific_relations(sinh_small):
    # [X3, X1] = X4 and [X4, X2] = X6 in the reference normalization
    el = {e.name: orc.field(sinh_small, e) for e in sinh_small.elements}
    assert orc.fields_equal(jf.bracket(el["X3"], el["X1"]), el["X4"])
    assert orc.fields_equal(jf.bracket(el["X4"], el["X2"]), el["X6"])
    # [X1, X4] = [X2, X5] = 0 up to truncation
    assert orc.is_zero(jf.bracket(el["X1"], el["X4"]))
    assert orc.is_zero(jf.bracket(el["X2"], el["X5"]))


def test_tzitzeica_basis_and_bigradings(tz_small):
    got = [(el.name, el.degree, el.eigenvalue) for el in tz_small.elements]
    assert got == [
        ("Y1", 1, 1), ("Y2", 1, -2), ("Y3", 2, -1), ("Y4", 3, 0), ("Y5", 4, 1),
        ("Y6", 5, 2), ("Y7", 5, -1), ("Y8", 6, 0), ("Y9", 7, 1), ("Y10", 7, -2),
        ("Y11", 8, -1),
    ]
    bigs = {el.name: orc.bigrading_of(el.field_raw) for el in tz_small.elements}
    B = jf.Bigrading
    assert bigs["Y3"] == B(2, -1) and bigs["Y4"] == B(3, 0)
    assert bigs["Y5"] == B(4, 1) and bigs["Y6"] == B(5, 2) and bigs["Y7"] == B(5, -1)


def test_tzitzeica_printed_leading_terms(tz_small):
    el = {e.name: orc.field(tz_small, e) for e in tz_small.elements}
    assert orc.slot(el["Y3"], 2) == xr.qp_parse("-3 * e^(-u)")
    assert orc.slot(el["Y3"], 3) == xr.qp_parse("6 * e^(-u) * u1")
    assert orc.slot(el["Y3"], 4) == xr.qp_parse("-15 * e^(-u) * u1^2 + 9 * e^(-u) * u2")
    assert orc.slot(el["Y4"], 3) == xr.qp_parse("9")
    assert orc.slot(el["Y4"], 4) == xr.qp_parse("-18 * u1")
    assert orc.slot(el["Y4"], 5) == xr.qp_parse("45 * u1^2 - 45 * u2")
    assert orc.slot(el["Y5"], 4) == xr.qp_parse("9 * e^(u)")
    assert orc.slot(el["Y5"], 5) == xr.qp_parse("-9 * e^(u) * u1")
    # the e^{2u} element: sign pinned by [D, Y6] = -e^u Y5 (see the D-recursion test)
    assert orc.slot(el["Y6"], 5) == xr.qp_parse("9 * e^(2*u)")
    assert orc.slot(el["Y6"], 6) == xr.qp_parse("9 * e^(2*u) * u1")


def test_tzitzeica_normalization_matches_reference_recursion(tz_small):
    # Y5 = -1/3 [Y1, Y4], Y6 = -1/2 [Y1, Y5], Y7 = [Y2, Y5], Y8 = [Y1, Y7],
    # Y9 = -[Y1, Y8], Y10 = 1/2 [Y2, Y8], Y11 = [Y1, Y10]
    el = {e.name: orc.field(tz_small, e) for e in tz_small.elements}
    checks = [
        ("Y3", 1, "Y1", "Y2"), ("Y4", 1, "Y1", "Y3"),
        ("Y5", Fraction(-1, 3), "Y1", "Y4"), ("Y6", Fraction(-1, 2), "Y1", "Y5"),
        ("Y7", 1, "Y2", "Y5"), ("Y8", 1, "Y1", "Y7"),
        ("Y9", -1, "Y1", "Y8"), ("Y10", Fraction(1, 2), "Y2", "Y8"),
        ("Y11", 1, "Y1", "Y10"),
    ]
    for target, scale, a, b in checks:
        assert orc.fields_equal(el[target],
                                orc.field_scale(jf.bracket(el[a], el[b]), scale)), target


def test_tzitzeica_D_recursion_relations(tz_small):
    el = {e.index: orc.field(tz_small, e) for e in tz_small.elements}
    D = orc.make_D(tz_small.order)
    eu, em2u = xr.qp_parse("e^(u)"), xr.qp_parse("e^(-2*u)")

    def expect(*pairs):
        out = None
        for g, idx in pairs:
            term = qp_times_field(g, el[idx])
            out = term if out is None else orc.field_add(out, term)
        return out

    assert orc.fields_equal(jf.bracket(D, el[3]), expect((orc.qp_scale(eu, 2), 2), (em2u, 1)))
    assert orc.fields_equal(jf.bracket(D, el[4]), expect((orc.qp_scale(eu, 3), 3)))
    assert orc.fields_equal(jf.bracket(D, el[5]), expect((xr.qp_neg(eu), 4)))
    assert orc.fields_equal(jf.bracket(D, el[6]), expect((xr.qp_neg(eu), 5)))
    assert orc.fields_equal(jf.bracket(D, el[7]), expect((xr.qp_neg(em2u), 5)))
    assert orc.fields_equal(jf.bracket(D, el[8]), expect((orc.qp_scale(em2u, 2), 6), (eu, 7)))


def test_tzitzeica_table_equals_matrix_table(tz_small):
    for (i, j), coeffs in orc.brackets(tz_small).items():
        c = la.matrix_structure_constant("n2", i, j)
        assert dict(coeffs) == ({i + j: c} if c else {}), (i, j)
    for el in tz_small.elements:
        assert Fraction(el.eigenvalue) == la.matrix_structure_constant("n2", 0, el.index)


def test_tzitzeica_spot_identities(tz_small):
    el = {e.name: orc.field(tz_small, e) for e in tz_small.elements}
    assert orc.fields_equal(jf.bracket(el["Y3"], el["Y4"]), orc.field_scale(el["Y7"], 3))
    assert orc.fields_equal(jf.bracket(el["Y1"], el["Y5"]), orc.field_scale(el["Y6"], -2))
    for a, b in (("Y2", "Y3"), ("Y2", "Y4"), ("Y2", "Y7")):
        assert orc.is_zero(jf.bracket(el[a], el[b])), (a, b)


def test_table_grading_compatibility(sinh_small, tz_small):
    # a nonzero coefficient at k requires bigrading_k = bigrading_i + bigrading_j
    for res in (sinh_small, tz_small):
        big = {el.index: orc.bigrading_of(el.field_raw) for el in res.elements}
        for (i, j), coeffs in orc.brackets(res).items():
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
    names = {el.index: el.name for el in tz_small.elements}
    certs = cli._closure_certs(tz_small)
    assert list(certs) == [f"{names[i]},{names[j]}" for i, j in sorted(tz_small.entries)]
    assert set(certs.values()) == {f"zero-up-to-{tz_small.order}"}


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
    assert [(e.name, e.degree, e.eigenvalue, orc.norm_scale(a, e)) for e in a.elements] == \
        [(e.name, e.degree, e.eigenvalue, orc.norm_scale(b, e)) for e in b.elements]
    assert a.entries == b.entries and a.order == b.order
    for x, y in zip(a.elements, b.elements):
        assert orc.fields_equal(orc.field(a, x), orc.field(b, y))


def test_mismatch_detection_on_wrong_target():
    def wrong(q, l):
        c = orc.sl2_bracket_constant(q, l)
        return -c if (q, l) == (1, 2) else c  # flipped sign cascades to a contradiction
    with pytest.raises(cl.MismatchError):
        res = cl.generate(EQUATIONS["sinh"], 10, 6, "X", wrong)
        # the flipped normalization of X3 makes some later bracket disagree
        for (i, j), coeffs in orc.brackets(res).items():
            want = orc.sl2_bracket_constant(i, j)
            if dict(coeffs) != ({i + j: want} if want else {}):
                raise cl.MismatchError("table mismatch")


@pytest.mark.parametrize("kappa, message", [
    # [X1, X4] is zero on the jets, so a target of 1 cannot hold
    (1, r"\[1,4\] should be 1 \* element 5 but the jet side gives \{\}"),
    # an all-zero target leaves X3 without a defining bracket
    (0, "no defining bracket with nonzero target constant for element 3"),
])
def test_normalization_scales_raise_on_a_contradicting_target(kappa, message):
    with pytest.raises(cl.MismatchError, match=f"^{message}$"):
        cl.generate(EQUATIONS["sinh"], 10, 6, "X", lambda q, l: kappa)


@pytest.mark.parametrize("equation, degree, order", [("sinh", 16, 20), ("tzitzeica", 14, 18)])
def test_normalized_table_is_the_raw_table_rescaled(equation, degree, order):
    # Z'_n = s_n Z_n turns [Z_i, Z_j] = sum c_k Z_k into
    # [Z'_i, Z'_j] = sum (s_i s_j c_k / s_k) Z'_k, entry by entry
    res = closure_for(equation, order, degree)
    raw = cl.generate(EQUATIONS[equation], order, degree, res.toral_name[:-1])
    s = {el.index: orc.norm_scale(res, el) for el in res.elements}
    assert all(raw.entries[el.pair] == ((el.index, 1, 1),) for el in raw.elements if el.pair)
    assert all(type(c) is Fraction for c in s.values()) and set(s.values()) != {1}
    assert orc.brackets(res) == {(i, j): tuple((k, s[i] * s[j] * c / s[k]) for k, c in coeffs)
                                 for (i, j), coeffs in orc.brackets(raw).items()}
    assert all(type(num) is type(den) is int for coeffs in res.entries.values()
               for _, num, den in coeffs)


# (equation, degree, order) runs on which the connection filter, the
# D-recursion and the Jacobi sums are checked against the jets: both
# integrable reference cases (sinh with its 1/2), the non-integrable
# e^u + e^(-3u) where its degree-9/10 undercount shows (non-integral
# connections at 10/14), two three-term f, and a constant term (an e^{0u}
# generator)
FILTER_CASES = {
    "sinh-12/16": ("sinh", 12, 16),
    "tzitzeica-12/16": ("tzitzeica", 12, 16),
    "nonint-9/13": (xr.qp_parse("e^(u) + e^(-3*u)"), 9, 13),
    "nonint-10/14": (xr.qp_parse("e^(u) + e^(-3*u)"), 10, 14),
    "three-term-6/12": (xr.qp_parse("2 * e^(2*u) + e^(-u) - 3 * e^(u)"), 6, 12),
    "three-generators-5/9": (xr.qp_parse("e^(2*u) + e^(u) + e^(-u)"), 5, 9),
    "constant-term-6/10": (xr.qp_parse("e^(u) + 3"), 6, 10),
}


@pytest.fixture(scope="module", params=sorted(FILTER_CASES))
def filter_case(request):
    equation, degree, order = FILTER_CASES[request.param]
    return closure_for(equation, order, degree)


def test_every_table_entry_matches_its_jet_bracket(filter_case):
    # all pairs, also those the connection filter kept from being bracketed
    res = filter_case
    fields = {el.index: orc.field(res, el) for el in res.elements}
    for (i, j), coeffs in orc.brackets(res).items():
        br = jf.bracket(fields[i], fields[j])
        rhs = orc.zero_field(res.order)
        for k, c in coeffs:
            rhs = orc.field_add(rhs, orc.field_scale(fields[k], c))
        assert br.valid_order == res.order, (i, j)
        assert orc.fields_equal(br, rhs), (i, j)


def test_stored_connection_is_ad_D(filter_case):
    # [D, Z] = sum lam_(s,i) e^{s u} Z_i on slots 0..order-1, Z_0 = X_0
    res = filter_case
    raw = {el.index: el.field_raw for el in res.elements}
    raw[0] = jf.make_X0(res.order)
    D = orc.make_D(res.order)
    for el in res.elements:
        lhs = jf.bracket(D, el.field_raw)
        rhs = orc.zero_field(res.order)
        for (s, i), c in el.connection.items():
            rhs = orc.field_add(rhs, qp_times_field(orc.qp_exp(s, c), raw[i]))
        assert lhs.valid_order == res.order - 1
        assert orc.fields_equal(lhs, rhs), el.name


def test_a_non_integral_connection_stays_lam():
    # e^u + 2e^(-2u) - 3e^(-3u) has one degree-6 element whose connection is
    # not integral.  It keeps lam itself, not L * lam, so it is ad_D; the
    # degree-7 pairs with it sum their connection vectors over its
    # denominator, and their entries match their jet brackets
    res = closure_for(xr.qp_parse("e^(u) + 2*e^(-2*u) - 3*e^(-3*u)"), 10, 7)
    fractional = [el for el in res.elements
                  if any(type(c) is Fraction for c in el.connection.values())]
    assert [(el.name, el.degree) for el in fractional] == [("Z137", 6)]
    el = fractional[0]
    raw = {e.index: e.field_raw for e in res.elements}
    raw[0] = jf.make_X0(res.order)
    rhs = orc.zero_field(res.order)
    for (s, i), c in el.connection.items():
        rhs = orc.field_add(rhs, qp_times_field(orc.qp_exp(s, c), raw[i]))
    assert orc.fields_equal(jf.bracket(orc.make_D(res.order), el.field_raw), rhs)
    fields = {e.index: orc.field(res, e) for e in res.elements}
    pairs = [key for key in res.entries if el.index in key]
    assert len(pairs) == 3   # one per generator
    for i, j in pairs:
        rhs = orc.zero_field(res.order)
        for k, c in orc.bracket_coeffs(res, i, j):
            rhs = orc.field_add(rhs, orc.field_scale(fields[k], c))
        assert orc.fields_equal(jf.bracket(fields[i], fields[j]), rhs), (i, j)


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
    ("sinh", 16, 20, 24),
    ("tzitzeica", 14, 18, 19),
    (xr.qp_parse("e^(u) + e^(-3*u)"), 10, 14, 231),
], ids=["sinh-16/20", "tzitzeica-14/18", "nonint-10/14"])
def test_generate_brackets_only_pairs_with_a_new_connection(monkeypatch, equation, degree,
                                                            order, computed):
    # every field, the generators' included, is integrated by the D-recursion,
    # and no jet bracket is taken at all; elements stay packed: nothing is
    # packed or unpacked, and no gradient or Bell polynomial is built (no
    # field can be scaled or graded: src/charlie has no function that would
    # do it, see test_dead_names).  No pair is integrated: the recursion runs
    # once for X_0 and once per element below the top degree, when the next
    # degree's lower sums read it; nonint's 1 + 120 such runs are joined by
    # 110 that extend X_0 and every lower degree once per doubling of the
    # window: 15 at degree 6, 24 at degree 7 and 71 at degree 9
    calls = {name: _counted(monkeypatch, jf, name)
             for name in ("bracket", "bracket_from_connection", "_packed", "_act",
                          "_unpack", "make_Xf")}
    calls["complete_bell"] = _counted(monkeypatch, bell, "complete_bell")
    closure_for(equation, order, degree)
    assert {name: len(c) for name, c in calls.items()} == {
        "bracket": 0, "bracket_from_connection": computed, "_packed": 0, "_act": 0,
        "_unpack": 0, "make_Xf": 0, "complete_bell": 0}


def test_jet_relations_the_connections_miss_hold_on_the_fields(monkeypatch):
    # on nonint-10/14 the jets find relations that the connection vectors do
    # not: generator pairs whose lower sum depends on its block's elements
    # while their connection vector does not depend on the elements' ones,
    # 6 at degree 9 and 44 at degree 10 and none below.  Each entry is the
    # jet bracket of its pair.  A candidate that is a relation builds no
    # element, so the span records its pair and L * lam
    decided = []    # (pair, L * lam, int lower sum, (nums, den) or None)

    class RecordingSpan(LinearSpan):
        def insert(self, vec, tag):
            coords = super().insert(vec, tag)
            if vec and type(next(iter(vec))) is int:    # keyed m << 16 | slot
                decided.append((tag.pair, tag.lam, vec, coords))
            return coords

    monkeypatch.setattr(cl, "LinearSpan", RecordingSpan)
    res = closure_for(xr.qp_parse("e^(u) + e^(-3*u)"), 14, 10)
    els = res.elements
    dims = orc.dims_by_degree(res)
    assert (dims[9], dims[10]) == (50, 54)
    fields = {el.index: orc.field(res, el) for el in els}
    missed = Counter()
    for (i, j), lam, vec, coords in decided:
        if coords is None:
            continue
        nums, den = coords
        assert all(type(c) is int for c in (den, *vec.values(), *nums.values())) and den > 0
        degree = els[i - 1].degree + els[j - 1].degree
        of_elements = LinearSpan()
        for el in els:
            if (el.degree, el.eigenvalue) == (degree, els[i - 1].eigenvalue + els[j - 1].eigenvalue):
                of_elements.insert(cleared(el.connection)[0], el)
        if of_elements.express(lam) is not None:
            continue
        missed[degree] += 1
        rhs = orc.zero_field(res.order)
        for k, c in orc.bracket_coeffs(res, i, j):
            rhs = orc.field_add(rhs, orc.field_scale(fields[k], c))
        assert orc.fields_equal(jf.bracket(fields[i], fields[j]), rhs), (i, j)
    assert missed == {9: 6, 10: 44}


def test_doublings_widen_the_jet_spans_and_only_new_pairs_build_elements(monkeypatch):
    # on nonint-10/14 the window doubles at degrees 6, 7 and 9.  Each jet span
    # of the degree widens its rows by the new slots in place, and only the
    # candidate that found the relation is decided again, so the degree's
    # elements are not inserted once more: 229 lower sums are reduced (276
    # when each doubling rebuilt the spans).  A BasisElement is built for X_0,
    # the generators and each pair that the jets call new, 175 in all (240
    # when every candidate that reached the connection span was one)
    counts = Counter()

    class CountingSpan(LinearSpan):
        def insert(self, vec, tag):
            counts["jet"] += bool(vec) and type(next(iter(vec))) is int
            return super().insert(vec, tag)

    class CountingElement(cl.BasisElement):
        def __init__(self, *args):
            counts["element"] += 1
            super().__init__(*args)

    monkeypatch.setattr(cl, "LinearSpan", CountingSpan)
    monkeypatch.setattr(cl, "BasisElement", CountingElement)
    res = closure_for(xr.qp_parse("e^(u) + e^(-3*u)"), 14, 10)
    assert len(res.elements) == 174 and _widened(res) == {9}
    assert counts == {"jet": 229, "element": 175}


def test_only_generator_pairs_reach_the_connection_spans(monkeypatch):
    # on nonint-10/14 the pairs led by a generator come first in each degree
    # and are the only ones reduced in a span: in a connection span below
    # full order, that is below degree 10 and before degree 9's window
    # reaches it, and by their lower sum where that leaves them open; every
    # other entry is summed by the Jacobi identity, as each element is the raw
    # bracket of a generator with an element one degree lower
    reduced = []    # (span, pair); the one empty vector is a connection vector

    class RecordingSpan(LinearSpan):
        def insert(self, vec, tag):
            span = "jet" if vec and type(next(iter(vec))) is int else "connection"
            reduced.append((span, tag.pair))
            return super().insert(vec, tag)

    monkeypatch.setattr(cl, "LinearSpan", RecordingSpan)
    res = closure_for(xr.qp_parse("e^(u) + e^(-3*u)"), 14, 10)
    generators = {el.index for el in res.elements if el.degree == 1}
    assert generators == {1, 2} and len(res.entries) == 440
    pairs = [pair for _, pair in reduced]
    assert all(i in generators for i, _ in pairs)
    assert sorted(set(pairs)) == sorted(key for key in res.entries if key[0] in generators)
    connection = Counter(res.elements[j - 1].degree + 1 for span, (_, j) in reduced
                         if span == "connection")
    assert sum(connection.values()) == 110 and max(connection) == 9
    for el in res.elements:
        if el.degree == 1:
            assert el.pair is None
            continue
        g, q = el.pair
        assert g in generators and res.elements[q - 1].degree == el.degree - 1, el.name
        assert res.entries[(g, q)] == ((el.index, 1, 1),), el.name


def test_widened_jet_spans_stand_for_the_lower_sums_on_the_wider_window(monkeypatch):
    # on nonint-10/14 every row of a jet span stands for its elements' lower
    # sums on the degree's last window, though each doubling gave the rows
    # only the new slots: each element's input, widened by what generate
    # passed, is its lower sum read afresh from the lower elements' slots, and
    # each row is the combination of those inputs that it carries
    spans = []      # jet spans in creation order, each with its doublings

    class RecordingSpan(LinearSpan):
        def insert(self, vec, tag):
            coords = super().insert(vec, tag)
            if vec and type(next(iter(vec))) is int:    # keyed m << 16 | slot
                if not hasattr(self, "inputs"):
                    self.tag, self.inputs, self.doublings = tag, {}, 0
                    spans.append(self)
                if coords is None:
                    self.inputs[tag] = dict(vec)
            return coords

        def widen(self, parts):
            super().widen(parts)
            self.doublings += 1
            for t, vec in self.inputs.items():
                vec.update(parts.get(t, {}))

    monkeypatch.setattr(cl, "LinearSpan", RecordingSpan)
    order = 14
    res = closure_for(xr.qp_parse("e^(u) + e^(-3*u)"), order, 10)
    els = res.elements

    def degree(t):
        return sum(els[i - 1].degree for i in t.pair)

    # replay the window: each doubling widens every jet span of its degree,
    # the first one included, and w carries over to the later degrees
    doublings = {}
    for span in spans:
        doublings.setdefault(degree(span.tag), span.doublings)
    window, w = {}, 1
    for d in range(2, res.max_degree + 1):
        w *= 2 ** doublings.get(d, 0)
        window[d] = min(d + w, order)
    assert [window[d] - d for d in range(2, 11)] == [1, 1, 1, 1, 2, 4, 4, 5, 4]
    for span in spans:
        for t, vec in span.inputs.items():
            fresh = {}
            for (_, i), c in t.lam.items():
                xr.vec_iadd_scaled(fresh, cl._vectorize(els[i - 1].slots[:window[degree(t)]]), c)
            assert vec == fresh, t.pair
        for _, row, combo in span._rows:
            total = {}
            for t, c in combo.items():
                xr.vec_iadd_scaled(total, span.inputs[t], c)
            assert total == row


def _widened(res):
    """Degrees below the top decided at full order, which the doubling window
    reached there or earlier: their lower sums read the elements one degree
    lower through slot order - 1."""
    return {el.degree + 1 for el in res.elements
            if el.degree + 1 < res.max_degree and len(el.slots) == res.order}


@pytest.mark.parametrize("equation, degree, order, widened", [
    ("sinh", 16, 20, set()),
    ("tzitzeica", 14, 18, set()),
    (xr.qp_parse("e^(u) + e^(-3*u)"), 10, 14, {9}),
    ("sinh", 32, 36, set()),
    ("sinh", 4, 40, set()),
], ids=["sinh-16/20", "tzitzeica-14/18", "nonint-10/14", "sinh-32/36", "sinh-4/40"])
def test_window_widens_only_where_it_cannot_decide(equation, degree, order, widened):
    # degree d is decided on slots 0..d + w with w = 1 at first, so the next
    # degree reads its elements through slot d + 1 and the top degree is not
    # built at all; only a new connection whose lower sum the window finds
    # dependent doubles w and re-decides its degree, until full order
    res = closure_for(equation, order, degree)
    assert _widened(res) == widened
    if not widened:
        assert all(len(el.slots) - 1 == el.degree + 1
                   for el in res.elements if el.degree < degree)
    assert all(el.slots == [{}] for el in res.elements if el.degree == degree)


@pytest.mark.parametrize("equation, degree, order, dims", [
    ("sinh", 4, 56, [2, 1, 2, 1]),
    ("tzitzeica", 6, 40, [2, 1, 1, 1, 2, 1]),
])
def test_short_degrees_at_long_orders_stay_on_a_short_window(capsys, equation, degree,
                                                            order, dims):
    # a degree is decided on the weight window, not on order - degree: the
    # lower degrees are built at most two slots past their degree, and the
    # top degree not at all, however long the order
    argv = ["charalg", "--equation", equation, "--degree", str(degree), "--order", str(order)]
    assert cli.run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "verified"
    basis = report["payload"]["table"]["basis"]
    assert Counter(el["d"] for el in basis if el["d"]) == dict(enumerate(dims, 1))
    res = closure_for(equation, order, degree)
    assert all(len(el.slots) - 1 <= el.degree + 2 for el in res.elements if el.degree < degree)
    assert all(el.slots == [{}] for el in res.elements if el.degree == degree)


def _typed(X):
    """X's slots with every coefficient as (type, value): int 2 != Fraction(2)."""
    return [{a: {m: (type(c), c) for m, c in p.items()} for a, p in q.items()}
            for q in X.coeffs]


@pytest.mark.parametrize("case", sorted(FILTER_CASES))
def test_integrated_fields_equal_their_jet_brackets(case):
    # every element of degree >= 2 is the D-recursion's result for the pair
    # that created it: the first pair in index order whose entry names it.
    # Its slots are built as far as the next degree reads them (further
    # where the window of nonint-10/14 doubles), and continued from the
    # stored ones when field_raw is read; the top degree's only then
    equation, degree, order = FILTER_CASES[case]
    res = closure_for(equation, order, degree)
    assert bool(_widened(res)) == (case == "nonint-10/14")
    assert all(el.slots == [{}] for el in res.elements if el.degree == degree)
    raw = {el.index: el.field_raw for el in res.elements}
    integrated = [el for el in res.elements if el.degree > 1]
    assert integrated
    for el in integrated:
        i, j = next(key for key in sorted(res.entries)
                    if el.index in {k for k, _, _ in res.entries[key]})
        want = jf.bracket(raw[i], raw[j])
        assert el.field_raw.valid_order == want.valid_order
        assert _typed(el.field_raw) == _typed(want), (el.name, i, j)


def _reference_tower(x, y, m):
    """ad_x^k y for k = 0..m by the generic jet bracket."""
    tower = [y]
    for _ in range(m):
        tower.append(jf.bracket(x, tower[-1]))
    return tower


@pytest.mark.parametrize("equation, algebra, degree, order", [
    ("sinh", "n1", 6, 10), ("sinh", "n1", 10, 14),
    ("tzitzeica", "n2", 6, 10), ("tzitzeica", "n2", 10, 14),
    (xr.qp_parse("e^(-2*u) + e^u"), "n2", 8, 12),
], ids=["sinh-6/10", "sinh-10/14", "tzitzeica-6/10", "tzitzeica-10/14", "reordered-8/12"])
def test_serre_rungs_equal_the_jet_bracket_tower(equation, algebra, degree, order):
    # every rung ad_x^k y that the D-recursion builds from the generators'
    # connections is the generic bracket tower, slot for slot and type for
    # type; the top rung of each defining relation has an empty connection
    res = closure_for(equation, order, degree)
    for x, y, m in la.ALGEBRAS[algebra].serre:
        gx, gy = res.elements[x - 1], res.elements[y - 1]
        rungs = cl.serre_rungs(gx, gy, m)
        assert not rungs[-1].connection
        for k, want in enumerate(_reference_tower(orc.field(res, gx), orc.field(res, gy), m)):
            assert rungs[k].field_raw.valid_order == want.valid_order == order
            assert _typed(rungs[k].field_raw) == _typed(want), (x, y, k)


def test_serre_rungs_do_not_read_the_table():
    # the generators of a degree-1 closure, which has no table, give every
    # rung and the Serre row of those of the degree-14 closure
    short, long = (closure_for("tzitzeica", 18, degree) for degree in (1, 14))
    assert not short.entries and long.entries
    for x, y, m in la.ALGEBRAS["n2"].serre:
        rungs = [cl.serre_rungs(res.elements[x - 1], res.elements[y - 1], m)
                 for res in (short, long)]
        assert [_typed(r.field_raw) for r in rungs[0]] == [_typed(r.field_raw) for r in rungs[1]]
    assert la.serre_check("n2", "jet", short.elements[:2]) == \
        la.serre_check("n2", "jet", long.elements[:2])


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
    assert wp.rule("e2", "e3") == (("e5", Fraction(1)),)
    n2c = cl.presented_n2_central()
    assert n2c.rule("f2", "f3") == (("c", Fraction(1)),)
    assert n2c.rule("c", "f4") == ()
    m0s = cl.presented_m0_S(frozenset({3}))
    assert m0s.rule("e2", "e1") == (("e3", Fraction(-1)),)
    assert m0s.rule("e2", "e3") == ()  # 5 not in S
    m0s35 = cl.presented_m0_S(frozenset({3, 5}))
    assert m0s35.rule("e2", "e3") == (("c5", Fraction(1)),)
    assert m0s35.rule("e3", "e2") == (("c5", Fraction(-1)),)


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


def _with_wrong_coefficient(alg, x, y):
    """alg with [x, y] off by one in its one coefficient (and [y, x] by minus one)."""
    def rule(a, b):
        out = alg.rule(a, b)
        if {a, b} == {x, y}:
            return tuple((lbl, c + (1 if a == x else -1)) for lbl, c in out)
        return out
    return alg._replace(name=f"{alg.name} broken", rule=rule)


def test_presented_jacobi_pins_the_first_violation():
    # triples counted and the first violating triple, as read before the
    # triple loop was split into pairs and later labels
    wp, n2 = cl.presented_witt_plus(), cl.presented_n2_central()
    assert cl.jacobi_check(wp, 12) == {"ok": True, "triples": 286, "violation": None}
    assert cl.jacobi_check(n2, 10) == {"ok": True, "triples": 364, "violation": None}
    assert cl.jacobi_check(_with_wrong_coefficient(wp, "e5", "e8"), 12) == {
        "ok": False, "triples": 25, "violation": ("e1", "e4", "e8", {"e13": 3})}
    assert cl.jacobi_check(_with_wrong_coefficient(wp, "e9", "e11"), 12) == {
        "ok": False, "triples": 54, "violation": ("e1", "e8", "e11", {"e20": 7})}
    assert cl.jacobi_check(_with_wrong_coefficient(n2, "f5", "f8"), 10) == {
        "ok": False, "triples": 27, "violation": ("f1", "f4", "f8", {"f13": -3})}


JACOBI_ALGEBRAS = {**cl.PRESENTED,
                   "m0^S{3,5}": lambda: cl.presented_m0_S(frozenset({3, 5})),
                   "m0^S{3,7,9}": lambda: cl.presented_m0_S(frozenset({3, 7, 9}))}


def _mutations(alg, degree, count=8):
    """Up to `count` copies of alg with one wrong coefficient each, on label
    pairs with a nonzero bracket spread evenly over the label order."""
    labels = alg.labels_up_to(degree)
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:] if alg.rule(a, b)]
    step = max(1, len(pairs) // count)
    return [_with_wrong_coefficient(alg, a, b) for a, b in pairs[::step][:count]]


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8, 12])
@pytest.mark.parametrize("name", JACOBI_ALGEBRAS)
def test_jacobi_check_matches_the_label_oracle(name, degree):
    # the int-indexed table gives the label-keyed reference's verdict, count,
    # first violating triple and residual, and asks the rule at most once
    # per ordered pair of labels
    alg = JACOBI_ALGEBRAS[name]()
    cases = [alg, *_mutations(alg, degree)]
    for case in cases:
        calls = Counter()

        def rule(a, b, inner=case.rule):
            calls[a, b] += 1
            return inner(a, b)
        counted = case._replace(rule=rule)
        assert cl.jacobi_check(counted, degree) == orc.jacobi_check(case, degree), case.name
        assert max(calls.values(), default=0) <= 1, calls.most_common(1)
    if name in ("m2", "W+", "n2^3") and degree >= 5:   # m0 stays a Lie algebra
        assert len(cases) == 9 and any(not orc.jacobi_check(c, degree)["ok"] for c in cases)


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
# ((degree, eigenvalue) fixes no canonical (p, q) over three exponents,
# same-bigrading ties such as Z8/Z9 at (3, 7)), a mixed-sign pair, a single
# generator (nothing to bracket), rational coefficients and a constant term
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
    # non-integral table entries (22 of 463), carried as int numerators over
    # one denominator until the report's Fractions are built
    'charalg --equation "2e^(2u)+e^(-u)-3e^u" --degree 6 --order 12':
        "e4f21b38dd26bbd71a35767855c3101459e7eafe838f4c5ea8782ee010f40962",
    # a non-integral connection (Z137), which degree 7 reads
    'charalg --equation "e^u+2e^(-2u)-3e^(-3u)" --degree 7 --order 10':
        "2abbb4778df08aa8bd16587ff9dda351478091b6abfb8d389bd76348c5332fea",
    # long degree windows, where each degree is decided on a short weight window
    "charalg --equation sinh --degree 24 --order 28":
        "ce00b9c79a5d01053b697a44ce20a2c21ba7ea309db7d473ee43fa17d641d868",
    "charalg --equation tzitzeica --degree 24 --order 28":
        "9993518533c905731d0929ea5a161815252a1b15935035d522eeb977874be9fd",
    "charalg --equation sinh --degree 32 --order 36":
        "3e72035876b01ba6370d1dc5f1448021400fa6679ea4295700ca20d3a2673ea0",
    "growth --equation tzitzeica --degree 20":
        "c85f415ec45dc8a50834b086e0b1688883c19eb763f7eed3d57f685fc60386cf",
    # entries summed by the Jacobi identity: with three generators, and in a
    # long non-integrable window
    'charalg --equation "e^(2u)+e^u+e^(-u)" --degree 6 --order 10':
        "1be9e1ad8357927727bff44f662b39be065ef768c56415b9b1b647fa31df74d6",
    'charalg --equation "e^u+e^(-4u)" --degree 10 --order 13':
        "6643b50cd53d9ef716b61dc3eb5647d746bce769ac7deb3a536fd6550e55aa58",
    # short degrees at long orders, decided on a window that starts at weight
    # 1 and doubles on a relation; e^u + e^(-3u) doubles it once, at its top
    # degree, where the connection span is kept below full order
    "charalg --equation sinh --degree 4 --order 40":
        "e031a9082d22d83c9d756750b861d2ca2ef7b871da3521d525bb4cc77505a7df",
    "charalg --equation tzitzeica --degree 6 --order 30":
        "776fc235e6432fe1db864d6c3c904b1c770592198bf56cc3a8d5093141b1aa91",
    'charalg --equation "e^u + e^(-3u)" --degree 6 --order 16':
        "f9bcdbd99236c2c27e44d4ca7c648593180855ab3fe6b1d65e0d151f051ffa02",
    'charalg --equation "e^(2u)+e^(-4u)" --degree 8 --order 20':
        "c6759cc9d228c0533eabdb4dd015e67dd64534955e62064aeb65bca27d20b3a8",
}


@pytest.mark.parametrize("command, digest", sorted(PINNED_REPORTS.items()),
                         ids=sorted(PINNED_REPORTS))
def test_closure_report_matches_pinned_hash(capsys, command, digest):
    assert cli.run(shlex.split(command)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def _charalg_cases(commands):
    """(equation, degree, order) of each charalg argv among the commands."""
    cases = {}
    for command in commands:
        argv = shlex.split(command)
        if argv[0] == "charalg":
            args = cli.parse_args(argv)
            cases[command] = (cli.parse_equation(args.equation), args.degree, args.order)
    return cases


def _block_cases():
    """(equation, degree, order) of every FILTER_CASES entry and pinned charalg argv."""
    return {**FILTER_CASES, **_charalg_cases(PINNED_REPORTS)}


@pytest.mark.parametrize("case", sorted(_block_cases()))
def test_elements_stay_inside_their_bigrading_block(case):
    # the two facts that let generate decide each pair inside its (d, r)
    # block: a connection key (s, i) has s + r_i = r with Z_i of degree
    # d - 1 (X_0 at d = 1), and every stored slot term carries e^{r u}; the
    # fields are read first, so every slot to order is built and guarded
    equation, degree, order = _block_cases()[case]
    res = closure_for(equation, order, degree)
    grading = {0: (0, 0), **{el.index: (el.degree, el.eigenvalue) for el in res.elements}}
    for el in res.elements:
        assert el.field_raw.valid_order == order, el.name
        assert el.connection, el.name
        for s, i in el.connection:
            assert grading[i] == (el.degree - 1, el.eigenvalue - s), (el.name, s, i)
        assert all(set(q) <= {el.eigenvalue} for q in el.slots), el.name
        assert any(el.slots), el.name


def _jacobi_violations(res):
    """Triples a < b < c of basis indices, X_0 = 0 included, whose degrees sum
    to at most the top degree and whose Jacobi sum over the table is nonzero."""
    deg = [0] + [el.degree for el in res.elements]    # nondecreasing in the index
    bad = []
    for a in range(len(deg)):
        for b in range(a + 1, len(deg)):
            if deg[a] + 2 * deg[b] > res.max_degree:
                break
            for c in range(b + 1, len(deg)):
                if deg[a] + deg[b] + deg[c] > res.max_degree:
                    break
                acc: dict = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for k, v in orc.bracket_coeffs(res, x, y):
                        for m, w in orc.bracket_coeffs(res, k, z):
                            acc[m] = acc.get(m, 0) + v * w
                if any(acc.values()):
                    bad.append((a, b, c))
    return bad


GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())
JACOBI_CASES = _charalg_cases([*PINNED_REPORTS, *(c for w in GOLDEN.values() for c in w)])


@pytest.mark.parametrize("case", sorted(JACOBI_CASES))
def test_closure_tables_satisfy_jacobi(case):
    # the order-N table is a Lie algebra (the closure module docstring), a
    # check that reads no jet; a normalized table is checked raw as well
    equation, degree, order = JACOBI_CASES[case]
    res = closure_for(equation, order, degree)
    tables = [res]
    if any(orc.norm_scale(res, el) != 1 for el in res.elements):
        tables.append(cl.generate(equation, order, degree))
    for table in tables:
        assert _jacobi_violations(table) == []


class Undercount(AssertionError):
    """Generator-pair entries that break the ad_D identity, by degree."""


# [D, [Z_g, Z_q]] recomputed from the table by the derivation rule must be
# sum_k c_k lam_k over its entry sum_k c_k Z_k: ad_D is injective on fields
# with an empty u slot, so that is what makes the entry hold in chi at every
# order.  It fails exactly where the order-N jets accept a relation that the
# connections miss (ROADMAP item 1): these tables undercount their algebras.
# growth --degree 9 reads the closure at its default order, degree + 4.
AD_D_CASES = {**JACOBI_CASES, 'growth --equation "e^u+e^(-3u)" --degree 9':
              (cli.parse_equation("e^u+e^(-3u)"), 9, 13)}
AD_D_UNDERCOUNTS = {
    "charalg --equation 'e^u + e^(-3u)' --degree 10 --order 14": {9: 6, 10: 44},
    'charalg --equation "e^u+e^(-4u)" --degree 10 --order 13': {9: 14, 10: 47},
    'charalg --equation "e^u+2e^(-2u)-3e^(-3u)" --degree 7 --order 10': {6: 3, 7: 129},
    'charalg --equation "e^u+e^(2u)+e^(3u)" --degree 5 --order 9': {5: 3},
    'charalg --equation "e^(2u)+e^u+e^(-u)" --degree 6 --order 10': {6: 2},
    'growth --equation "e^u+e^(-3u)" --degree 9': {9: 14},
}


def _ad_D_violations(res) -> Counter:
    """Generator-pair entries [Z_g, Z_q] whose connection, recomputed from the
    table, is not the sum of their terms' connections, counted by degree."""
    generators = {el.index for el in res.elements if el.degree == 1}
    bad = Counter()
    for (i, j), coeffs in orc.brackets(res).items():
        if i in generators:
            lam: dict = {}
            for k, c in coeffs:
                xr.vec_iadd_scaled(lam, res.elements[k - 1].connection, c)
            if orc.pair_connection(res, i, j) != lam:
                bad[res.elements[i - 1].degree + res.elements[j - 1].degree] += 1
    return bad


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(
        raises=Undercount, strict=True,
        reason=f"the jets at the order accept relations the connections miss: {counts}"))
    if (counts := AD_D_UNDERCOUNTS.get(case)) else case
    for case in sorted(AD_D_CASES)])
def test_generator_pair_entries_satisfy_the_ad_D_identity(case):
    # on the raw table, whose lam are the connections; a known undercount
    # must keep its counts, and fails the run once it is mended
    equation, degree, order = AD_D_CASES[case]
    bad = _ad_D_violations(cl.generate(equation, order, degree))
    assert bad == AD_D_UNDERCOUNTS.get(case, {})
    if bad:
        raise Undercount(dict(bad))


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
    "verify-iso --equation sinh --degree 8 --order 24":
        (0, "7de3fb595f263b70e5dc31de10f4786b4677d3c1e43817e7b1ed46b3db3f32ff"),
    'verify-iso --equation "e^(-2u) + e^u" --degree 8 --order 12':
        (0, "eafdc4108cc30f3cf347ccc340325571565dfb737a12631460b880939f90f331"),
    # the long window, where the Serre rows run at order 28
    "verify-iso --equation tzitzeica --degree 24 --order 28":
        (0, "32b5f9d347d4e56c18eda5aecdb47e2939e8b1f1c64e07d8365b7a3b0a02101e"),
    "growth --algebra n2^3 --degree 40":
        (0, "9d35f6d0d0f4c19ac0c2c9d008d1d0d21c1a106646d12c064d340844f7f05a36"),
    'integrals --equation "e^u + 3" --weight 4':
        (0, "31a908ad8f2571ce11e6f097d0b6efe7b59aef8ca6eb978160ea7469ca06df7f"),
    'symmetry --equation "e^u + 3" --phi u2':
        (2, "91a5f9dd7cb28518de918d418556b427ab82a6ae23738a94a8a425d3b2a5a01e"),
}


CLOSURE_COMMANDS = sorted(
    command for command in [*PINNED_REPORTS, *PINNED_DATA_REPORTS,
                            *(c for w in GOLDEN.values() for c in w)]
    if shlex.split(command)[0] in ("charalg", "verify-iso", "growth")
    and "--algebra" not in command)


def _no_fraction(*args):
    raise AssertionError(f"Fraction{args} built from the table")


@pytest.mark.parametrize("command", CLOSURE_COMMANDS)
def test_entries_are_ints_in_lowest_terms_and_reports_build_no_fraction(monkeypatch, capsys,
                                                                      command):
    # every entry is (k, num, den) with k rising, num/den in lowest terms and
    # den > 0, and the oracle's Fraction view reads it back; once the table is
    # built, charalg, verify-iso and growth read the ints alone, with no
    # Fraction built in closure
    results = []
    generate = cl.generate

    def recording(*args):
        results.append(generate(*args))
        monkeypatch.setattr(cl, "Fraction", _no_fraction)
        return results[-1]

    monkeypatch.setattr(cl, "generate", recording)
    assert cli.run(shlex.split(command)) == 0
    capsys.readouterr()
    (res,) = results
    assert not hasattr(res, "brackets")
    for key, coeffs in res.entries.items():
        assert [k for k, _, _ in coeffs] == sorted({k for k, _, _ in coeffs}), key
        assert all(type(num) is int and type(den) is int and num and den > 0
                   and gcd(num, den) == 1 for _, num, den in coeffs), key
    assert {key: tuple((k, c.numerator, c.denominator) for k, c in coeffs)
            for key, coeffs in orc.brackets(res).items()} == res.entries


def test_growth_word_spans_build_no_fraction(monkeypatch):
    # the word spans of growth --equation tzitzeica --degree 20 bracket int
    # vectors through the int table, so the growth check runs with Fraction
    # unavailable in closure
    res = closure_for(EQUATIONS["tzitzeica"], 24, 20)
    monkeypatch.setattr(cl, "Fraction", _no_fraction)
    assert cl.commutant_growth_offset(res) == 1


@pytest.mark.parametrize("command, pinned", sorted(PINNED_DATA_REPORTS.items()),
                         ids=sorted(PINNED_DATA_REPORTS))
def test_data_report_matches_pinned_hash(capsys, command, pinned):
    code = cli.run(shlex.split(command))
    assert (code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()) == pinned
