"""Acceptance gate: one test per criterion, exact tolerances throughout.

The terminal summary (conftest) prints one PASS/FAIL line per criterion.

Known honest failure: criterion 7c asserts the reference growth bounds for the
twisted-algebra commutant, 4n/3 <= F(n) <= (4n+2)/3 for n <= 12.  The algebra's
own graded dimensions (2,1,1,1,2,1 repeating, confirmed here by three
independent routes) give F(6m+4) = 8m+5, which is strictly below the stated
lower bound (24m+16)/3 at n = 4 and n = 10.  The bound is implemented as
asserted rather than weakened; see the companion regression test for the true
values.
"""

import json
import random
from fractions import Fraction
from math import factorial

from charlie import analysis as an
from charlie import cli
from charlie import closure as cl
from charlie import exactring as xr
from charlie import jetfield as jf
from charlie import loopalg as la
from charlie.bell import complete_bell, d_power_exp, incomplete_bell
import oracles as orc


# --- criterion 1: Bell suite -------------------------------------------------

def test_criterion_01_bell_suite():
    # binomial recursion vs the exponential generating function, exact, n <= 10
    nmax = 10
    series = [xr.poly_const(1)] + [dict() for _ in range(nmax)]
    gen = [dict() for _ in range(nmax + 1)]
    for i in range(1, nmax + 1):
        gen[i] = xr.poly_scale(xr.poly_var(i), Fraction(1, factorial(i)))
    power = [xr.poly_const(1)] + [dict() for _ in range(nmax)]
    for m in range(1, nmax + 1):
        nxt = [dict() for _ in range(nmax + 1)]
        for a in range(nmax + 1):
            if not power[a]:
                continue
            for b in range(1, nmax + 1 - a):
                if gen[b]:
                    nxt[a + b] = xr.vec_add_scaled(nxt[a + b], xr.poly_mul(power[a], gen[b]), 1)
        power = nxt
        for n in range(nmax + 1):
            series[n] = xr.vec_add_scaled(series[n], xr.poly_scale(power[n], Fraction(1, factorial(m))), 1)
    for n in range(nmax + 1):
        assert complete_bell(n) == xr.poly_scale(series[n], factorial(n)), n
    # printed forms
    assert complete_bell(1) == xr.poly_parse("u1")
    assert complete_bell(2) == xr.poly_parse("u1^2 + u2")
    assert complete_bell(3) == xr.poly_parse("u1^3 + 3*u1*u2 + u3")
    assert complete_bell(4) == xr.poly_parse("u1^4 + 6*u1^2*u2 + 4*u1*u3 + 3*u2^2 + u4")
    # sum identity
    for n in range(1, nmax + 1):
        acc = {}
        for k in range(1, n + 1):
            acc = xr.vec_add_scaled(acc, incomplete_bell(n, k), 1)
        assert acc == complete_bell(n), n


# --- criterion 2: D-power identity -------------------------------------------

def test_criterion_02_d_power_identity():
    for lam in (-2, -1, 1, 2):
        acc = orc.qp_exp(lam)
        for k in range(11):
            assert d_power_exp(k, lam) == acc, (k, lam)
            acc = jf.apply_total_derivative(acc)


# --- criterion 3: [D, X(f)] = -f X0 at order 12 -------------------------------

def test_criterion_03_D_bracket_is_minus_f_X0():
    order = 12
    D = orc.make_D(order)
    for name in ("liouville", "sinh", "tzitzeica"):
        f = an.EQUATIONS[name]
        br = jf.bracket(D, jf.make_Xf(f, order))
        assert orc.slot(br, 0) == xr.qp_neg(f), name
        assert all(not orc.slot(br, j) for j in range(1, br.valid_order + 1)), name
        assert br.valid_order == order - 1


# --- criterion 4: Liouville --------------------------------------------------

def test_criterion_04_liouville_closure():
    res = cl.generate(an.EQUATIONS["liouville"], 12, 8, "X")
    assert len(res.elements) == 1  # dimension 2 with the toral element
    assert res.brackets == {}
    assert res.bracket_coeffs(0, 1) == ((1, Fraction(1)),)  # the sole relation


# --- criteria 5-6: the two loop-algebra isomorphisms at desk scale -------------

def _index_table_json(pairs: dict) -> str:
    body = [{"i": i, "j": j, "out": [[k, xr.frac_text(c)] for k, c in coeffs]}
            for (i, j), coeffs in sorted(pairs.items())]
    return json.dumps(body, indent=1)


def _jet_pairs(result: cl.ClosureResult) -> dict:
    pairs = {(0, el.index): result.bracket_coeffs(0, el.index) for el in result.elements}
    pairs.update(result.brackets)
    return pairs


def _matrix_pairs_like(result: cl.ClosureResult, algebra: str) -> dict:
    out = {}
    n_el = len(result.elements)
    for (i, j) in _jet_pairs(result):
        c = la.matrix_structure_constant(algebra, i, j)
        out[(i, j)] = ((i + j, c),) if c and i + j <= n_el else ()
    return out


def test_criterion_05_sinh_isomorphism(sinh_small):
    # structure table under X_n -> e_n equals the exact matrix table, byte-identical
    jet = _index_table_json(_jet_pairs(sinh_small))
    mat = _index_table_json(_matrix_pairs_like(sinh_small, "n1"))
    assert jet == mat
    # Serre relations
    rep = an.verify_isomorphism("sinh", degree=8, order=12)
    assert rep.status == "verified"
    for label, status in rep.serre_jet.items():
        assert status.startswith("ZERO_UP_TO(")
        assert int(status[len("ZERO_UP_TO("):-1]) >= 10, label
    assert rep.serre_matrix == {"ad^3 e1 (e2)": True, "ad^3 e2 (e1)": True}


def test_criterion_06_tzitzeica_isomorphism(tz_big):
    n_el = len(tz_big.elements)  # 16: covers every pair with q + l <= 16
    assert n_el == 16
    for q in range(1, 16):
        for l in range(q + 1, 17 - q):
            assert (q, l) in tz_big.brackets, (q, l)
            want = la.matrix_structure_constant("n2", q, l)
            assert dict(tz_big.brackets[(q, l)]) == ({q + l: want} if want else {}), (q, l)
    # whole-window tables, byte-identical after canonical ordering
    assert _index_table_json(_jet_pairs(tz_big)) == \
        _index_table_json(_matrix_pairs_like(tz_big, "n2"))
    # the matrix constants and the printed table differ exactly at the known cells
    assert {(q, l) for q, l, _, _ in la.twisted_table_diff()} == {(5, 7), (7, 5)}
    # spot identities with the reference normalizations
    el = {e.name: orc.field(tz_big, e) for e in tz_big.elements}
    assert orc.fields_equal(jf.bracket(el["Y3"], el["Y4"]), orc.field_scale(el["Y7"], 3))
    assert orc.fields_equal(jf.bracket(el["Y1"], el["Y5"]), orc.field_scale(el["Y6"], -2))
    # Serre relations, jet zero-up-to and matrix exact
    rep = an.verify_isomorphism("tzitzeica", degree=8, order=12)
    assert rep.status == "verified"
    assert all(s.startswith("ZERO_UP_TO(") for s in rep.serre_jet.values())
    assert rep.serre_matrix == {"ad^2 f2 (f1)": True, "ad^5 f1 (f2)": True}


# --- criterion 7: growth functions --------------------------------------------

def test_criterion_07a_growth_bounds_sinh(sinh_big):
    for n in range(1, 13):
        F = cl.growth_function(sinh_big, n)
        assert Fraction(3 * n, 2) <= F <= Fraction(3 * n + 1, 2), (n, F)


def test_criterion_07b_growth_offset_is_one(sinh_big, tz_big):
    assert cl.commutant_growth_offset(sinh_big) == 1
    assert cl.commutant_growth_offset(tz_big) == 1
    res = cl.generate(an.EQUATIONS["liouville"], 12, 8, "X")
    assert cl.commutant_growth_offset(res) == 1


def test_criterion_07c_growth_bounds_tzitzeica(tz_big):
    """KNOWN HONEST FAIL at n = 4 and n = 10: F(6m+4) = 8m+5 < (24m+16)/3.

    The stated lower bound 4n/3 contradicts the algebra's graded dimensions
    (2,1,1,1,2,1 repeating), which this suite verifies independently via the
    matrix realization, the defining recursion word lengths, and the closure.
    Implemented as stated, not weakened; see the decisions ledger.
    """
    for n in range(1, 13):
        F = cl.growth_function(tz_big, n)
        assert Fraction(4 * n, 3) <= F <= Fraction(4 * n + 2, 3), (
            f"n={n}: F={F} violates the stated bound "
            f"[{Fraction(4 * n, 3)}, {Fraction(4 * n + 2, 3)}]")


def test_criterion_07c_regression_true_growth_values(tz_big):
    """The exact F values the engine (and the matrix side) actually give."""
    values = [cl.growth_function(tz_big, n) for n in range(1, 13)]
    assert values == [2, 3, 4, 5, 7, 8, 10, 11, 12, 13, 15, 16]
    # consistent with the matrix-side natural grading dimensions
    dims = [len(orc.natural_grading_basis("n2", d)) for d in range(1, 13)]
    acc, cum = 0, []
    for d in dims:
        acc += d
        cum.append(acc)
    assert values == cum


def test_criterion_07d_presented_growth_n_plus_one():
    for factory in (cl.presented_m0, cl.presented_m2, cl.presented_witt_plus):
        alg = factory()
        for n in range(1, 21):
            assert cl.presented_growth(alg, n) == n + 1, (alg.name, n)


# --- criterion 8: gradings -----------------------------------------------------

def test_criterion_08_grading_tables(sinh_big, tz_big):
    assert all(r["match"] for r in an.grading_rows(sinh_big, "sinh"))
    assert all(r["match"] for r in an.grading_rows(tz_big, "tzitzeica"))
    # closed canonical-bigrading formulas vs the recursive oracle, k, m <= 4
    for n in range(0, 3 * 4 + 3):
        assert la.canonical_bigrading("n1", n) == orc.canonical_bigrading_recursive("n1", n)
    for n in range(0, 8 * 4 + 7):
        assert la.canonical_bigrading("n2", n) == orc.canonical_bigrading_recursive("n2", n)


# --- criterion 9: integrals and symmetries --------------------------------------

def test_criterion_09_integrals_and_symmetries():
    basis = an.find_x_integrals(an.EQUATIONS["liouville"], 2)
    assert len(basis) == 1
    # exactly the span of 1/2 u1^2 - u2
    target = xr.poly_parse("1/2*u1^2 - u2")
    assert xr.vec_add_scaled(xr.poly_scale(basis[0], Fraction(1, 2)), target, -1) == {}
    assert an.find_x_integrals(an.EQUATIONS["sinh"], 6) == []
    ok, residual = an.check_defining_equation(
        an.EQUATIONS["sinh"], xr.poly_parse("u3 - 1/2*u1^3"))
    assert ok and residual == {}
    for A in orc.INTRO_MATRICES:
        ok, residuals = an.check_w2_integral(an.build_exp_system(A, 6))
        assert ok, (A, residuals)


# --- criterion 10: presented-algebra Jacobi and real forms -----------------------

def test_criterion_10_presented_jacobi_and_real_forms():
    for factory in (cl.presented_m0, cl.presented_m2, cl.presented_witt_plus,
                    cl.presented_n2_central):
        rep = cl.jacobi_check(factory(), 20)
        assert rep["ok"], rep
    for S in ({3}, {3, 5}, {5}):
        rep = cl.jacobi_check(cl.presented_m0_S(frozenset(S)), 20)
        assert rep["ok"], (S, rep)
    for sign in (1, -1):
        for k in range(1, 6):
            for l in range(1, 6):
                for fam in (("u", "v"), ("v", "w"), ("w", "u")):
                    first = {"u": 2 * k - 1, "v": 2 * k - 1, "w": 2 * k}[fam[0]]
                    second = {"u": 2 * l - 1, "v": 2 * l - 1, "w": 2 * l}[fam[1]]
                    if first > 9 or second > 9:
                        continue
                    got, exp, _ = orc.real_form_bracket(sign, fam, k, l)
                    assert not orc.lm_add(got, exp, 1, -1), (sign, fam, k, l)


# --- criterion 11: property suites ----------------------------------------------

def test_criterion_11a_random_bracket_properties():
    order = 8
    pool = [orc.make_D(order), jf.make_X0(order)]
    for eq in ("sinh", "tzitzeica"):
        res = an.closure_for(eq, order=order, degree=5)
        pool.extend(orc.truncate(orc.field(res, el), order) for el in res.elements)
    rng = random.Random(11)

    def combo():
        picks = rng.sample(pool, rng.randint(1, 2))
        acc = None
        for f in picks:
            g = orc.field_scale(f, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            acc = g if acc is None else orc.field_add(acc, g)
        return acc

    done = 0
    while done < 200:
        X, Y, Z = combo(), combo(), combo()
        assert orc.fields_equal(jf.bracket(X, Y), orc.field_scale(jf.bracket(Y, X), -1))
        try:
            total = orc.field_add(
                orc.field_add(jf.bracket(jf.bracket(X, Y), Z), jf.bracket(jf.bracket(Y, Z), X)),
                jf.bracket(jf.bracket(Z, X), Y))
        except jf.TruncationError:
            continue
        assert orc.is_zero(total)
        done += 1


def test_criterion_11b_truncation_stability(sinh_small, sinh_big, tz_small, tz_big):
    for small, big in ((sinh_small, sinh_big), (tz_small, tz_big)):
        assert orc.dims_by_degree(small) == {
            d: n for d, n in orc.dims_by_degree(big).items() if d <= small.max_degree}
        for el_small, el_big in zip(small.elements, big.elements):
            assert el_small.name == el_big.name
            assert orc.fields_equal(orc.field(small, el_small),
                                    orc.truncate(orc.field(big, el_big), small.order))
        for key, coeffs in small.brackets.items():
            assert big.brackets[key] == coeffs


def test_criterion_11c_byte_deterministic_reports(tmp_path):
    pairs = [
        ["verify-iso", "--equation", "sinh", "--degree", "6", "--order", "10"],
        ["charalg", "--equation", "tzitzeica", "--degree", "6", "--order", "10"],
        ["loops", "--algebra", "sl3t", "--table", "--max", "10"],
    ]
    for n, args in enumerate(pairs):
        a, b = tmp_path / f"a{n}.json", tmp_path / f"b{n}.json"
        assert cli.run(args + ["--out", str(a)]) == 0
        assert cli.run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
