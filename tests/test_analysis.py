import json

import pytest

from charlie import analysis as an
from charlie import cli
from charlie import exactring as xr
from charlie import jetfield as jf
from charlie.linalg import nullspace
import oracles as orc


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


def test_annihilates_is_blind_to_a_scale_but_not_to_a_wrong_ratio():
    # a Fraction-scaled integral still passes and a wrong coefficient ratio
    # still fails once each w is cleared to int coefficients
    scaled, off = xr.poly_parse("1/4*u1^2 - 1/2*u2"), xr.poly_parse("1/2*u1^2 - 1/3*u2")
    assert an.annihilates(an.EQUATIONS["liouville"], [scaled, off], 9) == [True, False]


def test_integrals_order_independent(capsys):
    # the search takes no order; --order moves only the re-verification
    payloads = []
    for order in (5, 9):
        assert cli.run(["integrals", "--equation", "sinh", "--weight", "4",
                        "--order", str(order)]) == 0
        payloads.append(json.loads(capsys.readouterr().out)["payload"])
    assert payloads[0] == payloads[1]
    assert payloads[0]["basis"] == [xr.poly_to_text(w) for w in
                                    an.find_x_integrals(an.EQUATIONS["sinh"], 4)]


# -- the apply_field paths against their definitions ----------------------------

def _partitions(w: int, top: int):
    if not w:
        yield ()
    for part in range(min(w, top), 0, -1):
        for rest in _partitions(w - part, part):
            yield (part,) + rest


def _total_derivative(g):
    """D(g) term by term: u_1 dg/du + sum_k u_{k+1} dg/du_k."""
    out = xr.qp_mul(xr.qp_from_poly(xr.poly_var(1)), xr.qp_derive_u(g))
    for k in range(1, orc.qp_max_index(g) + 1):
        out = xr.qp_add(out, xr.qp_mul(xr.qp_from_poly(xr.poly_var(k + 1)), orc.qp_derive_uk(g, k)))
    return out


def _x_integrals_by_definition(f, weight_bound):
    """Nullspace of w -> sum_k D^{k-1}(f) dw/du_k on the monomials of weight
    <= bound, built with qp_derive_uk/qp_mul and no jet kernel."""
    candidates = sorted((xr.mono_from_pairs((k, 1) for k in parts)
                         for w in range(1, weight_bound + 1) for parts in _partitions(w, w)),
                        key=xr.mono_key)
    assert candidates == an.integral_candidates(weight_bound)
    slots = [f]
    while len(slots) < weight_bound:
        slots.append(_total_derivative(slots[-1]))
    rows: dict = {}
    for m in candidates:
        g = {0: {m: 1}}
        img: dict = {}
        for k in range(1, weight_bound + 1):
            img = xr.qp_add(img, xr.qp_mul(slots[k - 1], orc.qp_derive_uk(g, k)))
        for alpha, p in img.items():
            for om, c in p.items():
                rows.setdefault((alpha, om), {})[m] = c
    return nullspace(list(rows.values()), candidates)


def _x_integrals_unblocked(f, weight_bound):
    """One global nullspace over every candidate of weight <= bound, with the
    rows find_x_integrals builds but no split into per-weight blocks."""
    candidates = an.integral_candidates(weight_bound)
    Xf = jf.make_Xf(f, weight_bound)
    rows: dict = {}
    for m, img in zip(candidates, jf.apply_field(Xf, [{0: {m: 1}} for m in candidates])):
        for alpha, p in img.items():
            for om, c in p.items():
                rows.setdefault((alpha, om), {})[m] = c
    return nullspace(list(rows.values()), candidates)


@pytest.mark.parametrize("f_terms", [
    an.EQUATIONS["liouville"], an.EQUATIONS["sinh"], xr.qp_parse("e^(2u)"),
])
def test_per_weight_blocks_equal_one_global_nullspace(f_terms):
    got, want = an.find_x_integrals(f_terms, 10), _x_integrals_unblocked(f_terms, 10)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]


@pytest.mark.parametrize("f_terms", [
    an.EQUATIONS["liouville"], an.EQUATIONS["sinh"],
    xr.qp_parse("1/2 * e^(u)"), xr.qp_parse("e^(u) + e^(-3*u)"),
])
def test_find_x_integrals_matches_its_definition(f_terms):
    for w in range(1, 9):
        assert an.find_x_integrals(f_terms, w) == _x_integrals_by_definition(f_terms, w)


@pytest.mark.parametrize("f_terms, weight_bound", [
    (an.EQUATIONS["liouville"], 12), (an.EQUATIONS["liouville"], 10),
    (an.EQUATIONS["sinh"], 10), (xr.qp_parse("e^(2u)"), 10),
    (xr.qp_parse("1/2 * e^(u)"), 10), (xr.qp_parse("e^(u) + e^(-3*u)"), 10),
])
def test_x_integrals_are_weight_homogeneous(f_terms, weight_bound):
    # each basis polynomial comes from one weight block, which is what lets
    # cmd_integrals render it in lex order alone
    basis = an.find_x_integrals(f_terms, weight_bound)
    assert all(xr.weight_of(w) is not None for w in basis)
    assert [xr.poly_to_text(w, True) for w in basis] == [xr.poly_to_text(w) for w in basis]


def test_x_integral_elimination_work_is_bounded(monkeypatch):
    # nullspace eliminates the sparsest equations first: Liouville at weight
    # 12 costs 19,415 entry updates that way and 44,508 in the order found
    from charlie import linalg
    updates = []
    fn = linalg.vec_iadd_scaled
    monkeypatch.setattr(linalg, "vec_iadd_scaled",
                        lambda out, b, c: updates.append(len(b) if c else 0) or fn(out, b, c))
    assert len(an.find_x_integrals(an.EQUATIONS["liouville"], 12)) == 76
    assert sum(updates) <= 20_000


@pytest.mark.parametrize("A", orc.INTRO_MATRICES + (((1, 2), (3, 4)),))
def test_exp2d_residuals_match_their_definition(A):
    # X_a w2 = sum_k slot_k * dw2/du^a_k over the fields' own slots, by poly_diff;
    # w2 reads u^a_1 and u^a_2 only
    w2 = an.w2_integral(A)
    for order in range(2, 9):
        system = an.build_exp_system(A, order)
        want = []
        for a, X in zip((1, 2), system.fields):
            out: dict = {}
            for k in (1, 2):
                slot = orc.slot(X, an._dvar(a, k)).get(0, {})
                out = xr.vec_add_scaled(out, xr.poly_mul(slot, xr.poly_diff(w2, an._dvar(a, k))), 1)
            want.append(out)
        ok, residuals = an.check_w2_integral(system)
        assert list(residuals) == want and ok == (want == [{}, {}]), (A, order)


def test_exp_system_builds_no_slot_past_u_a_2():
    # u^1_1, u^2_1, u^1_2, u^2_2 are u1..u4; slot 2 of X_a is rho_a^1
    rho1 = {1: "2*u1 - 4*u2", 2: "-u1 + 2*u2"}
    for order in (2, 3, 6, 40):
        for a, X in zip((1, 2), an.build_exp_system(((2, -4), (-1, 2)), order).fields):
            assert X.valid_order == an._dvar(2, 2), (order, a)
            assert [j for j, q in enumerate(X.coeffs) if q] == [an._dvar(a, 1), an._dvar(a, 2)]
            assert orc.slot(X, an._dvar(a, 1)) == xr.qp_parse("1")
            assert orc.slot(X, an._dvar(a, 2)) == xr.qp_parse(rho1[a])


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


@pytest.mark.parametrize("A", orc.INTRO_MATRICES)
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
    for i in range(400):
        assert an.expected_gradings("sinh", i)["pair"][1] == (0, 1, -1)[i % 3], i
        assert an.expected_gradings("tzitzeica", i)["pair"][1] == \
            (0, 1, -2, -1, 0, 1, 2, -1)[i % 8], i


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


def test_jet_serre_check_brackets_packed_fields(monkeypatch):
    # the A2(2) rungs ad^k come from the generators' connections by the
    # D-recursion: no jet bracket, and nothing is packed or unpacked.  The
    # top rungs ad^2 f2 (f1) and ad^5 f1 (f2) have empty connections (their
    # eigenvalue sums are 0), so the row builds those two rungs, no lower
    # rung, and no generator slot past what the closure built
    from charlie import jetfield as jf
    calls = {}
    for name in ("bracket", "bracket_from_connection", "_packed", "_unpack"):
        fn, calls[name] = getattr(jf, name), []
        monkeypatch.setattr(jf, name, lambda *args, fn=fn, c=calls[name]: c.append(None) or fn(*args))
    an.closure_for("tzitzeica", 18, 14)
    own = len(calls["bracket_from_connection"])
    for c in calls.values():
        c.clear()
    assert an.verify_isomorphism("tzitzeica", 14, 18).status == "verified"
    assert {name: len(c) for name, c in calls.items()} == {
        "bracket": 0, "bracket_from_connection": own + 2, "_packed": 0, "_unpack": 0}


@pytest.mark.parametrize("equation", ["sinh", "tzitzeica"])
def test_jet_serre_rows_are_sharp(monkeypatch, equation):
    # one power fewer leaves a nonzero top rung, whose first nonzero slot is
    # the generic bracket tower's, and the jet row alone fails verify-iso:
    # the matrix row is held at the true relations' values
    from charlie import jetfield as jf
    from charlie import loopalg as la
    algebra = an.TARGETS[equation][0]
    row = la.ALGEBRAS[algebra]
    truth = la.serre_check(algebra, "matrix")
    lowered = tuple((x, y, m - 1) for x, y, m in row.serre)
    monkeypatch.setitem(la.ALGEBRAS, algebra, row._replace(serre=lowered))
    monkeypatch.setattr(la, "serre_check_matrix", lambda name: truth)
    rep = an.verify_isomorphism(equation, 8, 12)
    generators = [orc.field(rep.closure, el) for el in rep.closure.elements[:2]]
    want = {}
    for x, y, m in lowered:
        tower = generators[y - 1]
        for _ in range(m):
            tower = jf.bracket(generators[x - 1], tower)
        want[f"ad^{m} g{x} (g{y})"] = jf.is_zero_up_to(tower)
    assert all(s.startswith("NONZERO(slot ") for s in want.values())
    assert rep.serre_jet == want
    assert rep.serre_matrix == truth
    assert rep.status == "mismatch"


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


def test_each_eigenvalue_is_checked_once(monkeypatch, capsys):
    # a wrong ad-X0 constant for one basis element is one grading mismatch,
    # naming that element, and no structure-table mismatch besides
    from charlie import loopalg as la
    orig = la.matrix_structure_constant

    def corrupted(algebra, i, j):
        c = orig(algebra, i, j)
        return c + 1 if (i, j) == (0, 4) else c

    monkeypatch.setattr(la, "matrix_structure_constant", corrupted)
    rep = an.verify_isomorphism("sinh", degree=8, order=12)
    assert rep.status == "mismatch"
    assert rep.mismatches == []
    assert [r["name"] for r in rep.grading_mismatches] == [rep.closure.elements[3].name]
    monkeypatch.undo()
    assert cli.run(["verify-iso", "--equation", "sinh", "--degree", "6", "--order", "10"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert list(payload) == [k for k in an.IsoReport._fields if k not in ("status", "closure")]


def test_identify_equation():
    assert an.identify_equation(xr.qp_parse("1/2 * e^(u) - 1/2 * e^(-u)")) == "sinh"
    assert an.identify_equation(xr.qp_parse("e^(u) + e^(-2*u)")) == "tzitzeica"
    assert an.identify_equation(xr.qp_parse("2 * e^(u)")) is None
