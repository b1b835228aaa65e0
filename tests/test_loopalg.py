from fractions import Fraction

import pytest

from charlie import loopalg as la


def test_sl2_rule_examples():
    assert la.sl2_bracket_constant(0, 1) == 1
    assert la.sl2_bracket_constant(1, 4) == 0
    assert la.sl2_bracket_constant(2, 1) == -1


def test_sl2_matrix_oracle_full_sweep():
    for i in range(25):
        for j in range(25):
            com = la.lm_commutator(la.sl2_basis(i), la.sl2_basis(j))
            c = la.proportionality(com, la.sl2_basis(i + j))
            assert c == la.sl2_bracket_constant(i, j), (i, j)
            assert la.matrix_structure_constant("n1", i, j) == c, (i, j)


def test_proportionality_fails_on_a_missing_key_or_a_remainder():
    # b's first key is not an entry of a
    assert la.proportionality(la.sl2_basis(1), la.sl2_basis(2)) is None
    # a = c*b on b's first key, but a - c*b keeps e_1
    assert la.proportionality(la.lm_add(la.sl2_basis(0), la.sl2_basis(1)), la.sl2_basis(0)) is None


def test_sl3_examples():
    assert la.matrix_structure_constant("n2", 0, 2) == -2
    assert la.matrix_structure_constant("n2", 1, 4) == -3
    assert la.matrix_structure_constant("n2", 4, 8) == 0
    assert la.matrix_structure_constant("n2", 3, 4) == 3
    assert la.matrix_structure_constant("n2", 1, 5) == -2


def test_sl3_residue_dependence():
    for q in range(17):
        for l in range(17):
            com = la.lm_commutator(la.sl3_twisted_basis(q), la.sl3_twisted_basis(l))
            c = la.proportionality(com, la.sl3_twisted_basis(q + l))
            assert c == la.matrix_structure_constant("n2", q % 8, l % 8), (q, l)


def test_sl3_skew_and_mod8_relation():
    for i in range(8):
        for j in range(8):
            d = la.matrix_structure_constant("n2", i, j)
            assert d == -la.matrix_structure_constant("n2", j, i)
            assert d + la.matrix_structure_constant("n2", (8 - i) % 8, (8 - j) % 8) == 0


def test_printed_table_diff_is_the_known_typo_pair():
    # the matrices are ground truth; the printed table drifts at exactly (5,7)/(7,5)
    diffs = {(q, l): (printed, computed) for q, l, printed, computed in la.twisted_table_diff()}
    assert diffs == {
        (5, 7): (-1, Fraction(1)),
        (7, 5): (1, Fraction(-1)),
    }


def test_twist_eigenspaces():
    for s in la.G0_KEYS:
        assert not la.lm_add(la.mu_twist(la.SL3_F[s]), la.SL3_F[s], 1, -1)
    for s in la.G1_KEYS:
        assert not la.lm_add(la.mu_twist(la.SL3_F[s]), la.SL3_F[s], 1, 1)


# the twist as a pattern table: entry (i, j) of the image <- (source entry, sign)
MU_PATTERN = {
    (0, 0): ((2, 2), -1), (0, 1): ((1, 2), 1), (0, 2): ((0, 2), -1),
    (1, 0): ((2, 1), 1), (1, 1): ((1, 1), -1), (1, 2): ((0, 1), 1),
    (2, 0): ((2, 0), -1), (2, 1): ((1, 0), 1), (2, 2): ((0, 0), -1),
}


def _mu_by_pattern(m):
    return la.lm({(i, j, p): sign * m.get((si, sj, p), 0)
                  for (i, j), ((si, sj), sign) in MU_PATTERN.items()
                  for p in {p for _, _, p in m}})


def test_mu_closed_form_matches_the_pattern_table():
    import random
    rng = random.Random(19)
    samples = list(la.SL3_F.values()) + [la.sl3_twisted_basis(i) for i in range(40)]
    for _ in range(300):
        samples.append(la.lm({(rng.randrange(3), rng.randrange(3), rng.randrange(-3, 4)):
                              Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(rng.randint(0, 9))}))
    for m in samples:
        assert la.mu_twist(m) == _mu_by_pattern(m), m


def test_matrix_entries_are_ints_or_fractions_and_constants_are_fractions():
    # every entry is a nonzero int or a non-integral Fraction; every constant is a Fraction
    mats = [la.sl2_basis(i) for i in range(12)] + [la.sl3_twisted_basis(i) for i in range(20)]
    mats += [la.lm_commutator(a, b) for a in mats[:12] for b in mats[:12]]
    mats += [la.lm_commutator(a, b) for a in mats[12:32] for b in mats[12:32]]
    assert any(type(c) is int for m in mats for c in m.values())
    assert any(type(c) is Fraction for m in mats for c in m.values())
    for m in mats:
        assert all(c and (type(c) is int or (type(c) is Fraction and c.denominator != 1))
                   for c in m.values()), m
    for algebra, row in la.ALGEBRAS.items():
        for i in range(2 * row.period):
            for j in range(2 * row.period):
                assert type(la.matrix_structure_constant(algebra, i, j)) is Fraction


def test_twist_check_on_basis_and_violations():
    assert la.twist_check(la.sl3_twisted_basis(3))
    assert not la.twist_check(la.lm_t_shift(la.SL3_F[0], 1))  # g_0 on an odd power
    for n in range(17):
        assert la.twist_check(la.sl3_twisted_basis(n)), n


def test_twist_closed_under_brackets():
    import random
    rng = random.Random(7)
    for _ in range(20):
        a = la.sl3_twisted_basis(rng.randrange(0, 17))
        b = la.sl3_twisted_basis(rng.randrange(0, 17))
        combo = la.lm_add(a, b, rng.randrange(1, 5), rng.randrange(1, 5))
        other = la.sl3_twisted_basis(rng.randrange(0, 17))
        assert la.twist_check(la.lm_commutator(combo, other))


def test_serre_matrix():
    assert la.serre_check("n1") == {"ad^3 e1 (e2)": True, "ad^3 e2 (e1)": True}
    assert la.serre_check("n2", "matrix") == {"ad^2 f2 (f1)": True, "ad^5 f1 (f2)": True}
    # one power fewer must NOT vanish (the relations are sharp)
    e1, e2 = la.sl2_basis(1), la.sl2_basis(2)
    assert la.ad_power(e1, e2, 2)
    f1, f2 = la.sl3_twisted_basis(1), la.sl3_twisted_basis(2)
    assert la.ad_power(f1, f2, 4)


def test_serre_jet_realization():
    from charlie import closure as cl
    from charlie import exactring as xr
    generators = cl.generate(xr.qp_parse("e^(u) + e^(-2*u)"), 10, 1).elements
    rep = la.serre_check("n2", "jet", generators)
    assert rep == {"ad^2 g2 (g1)": "ZERO_UP_TO(10)", "ad^5 g1 (g2)": "ZERO_UP_TO(10)"}
    with pytest.raises(ValueError):
        la.serre_check("n2", "jet")


def test_real_form_examples():
    got, exp, label = la.real_form_bracket(1, ("u", "v"), 1, 1)
    assert label == "w2" and not la.lm_add(got, exp, 1, -1)
    got, exp, label = la.real_form_bracket(-1, ("v", "w"), 1, 1)
    assert label == "-u3" and not la.lm_add(got, exp, 1, -1)
    # [w2+, u3] lands on v5+ (t-degrees 2 + 3), exact 3x3 commutator
    got, exp, label = la.real_form_bracket(1, ("w", "u"), 1, 2)
    assert label == "v5" and not la.lm_add(got, exp, 1, -1)


def test_real_form_relations_all_indices_up_to_9():
    for sign in (1, -1):
        for k in range(1, 6):
            for l in range(1, 6):
                for fam in (("u", "v"), ("v", "w"), ("w", "u")):
                    first_index = {"u": 2 * k - 1, "v": 2 * k - 1, "w": 2 * k}[fam[0]]
                    second_index = {"u": 2 * l - 1, "v": 2 * l - 1, "w": 2 * l}[fam[1]]
                    if first_index > 9 or second_index > 9:
                        continue
                    got, exp, _ = la.real_form_bracket(sign, fam, k, l)
                    assert not la.lm_add(got, exp, 1, -1), (sign, fam, k, l)


def test_natural_degrees_and_dims():
    for i in range(400):
        k1, s1 = divmod(i, 3)
        k2, s2 = divmod(i, 8)
        assert la.natural_degree("n1", i) == 2 * k1 + (0, 1, 1)[s1], i
        assert la.natural_degree("n2", i) == 6 * k2 + (0, 1, 1, 2, 3, 4, 5, 5)[s2], i
    # growth rates: period / natural degree of the period's basis element
    rates = [Fraction(row.period, la.natural_degree(name, row.period))
             for name, row in sorted(la.ALGEBRAS.items())]
    assert rates == [Fraction(3, 2), Fraction(4, 3)]
    dims1 = [len(la.natural_grading_basis("n1", d)) for d in range(1, 13)]
    dims2 = [len(la.natural_grading_basis("n2", d)) for d in range(1, 13)]
    assert dims1 == [2, 1] * 6
    assert dims2 == [2, 1, 1, 1, 2, 1] * 2


def test_natural_grading_basis_labels():
    assert la.natural_grading_basis("n1", 3) == ["e4", "e5"]
    assert la.natural_grading_basis("n2", 5) == ["f6", "f7"]


def test_canonical_bigradings_examples():
    assert la.canonical_bigrading("n1", 3 * 2 + 1) == (3, 2)
    assert la.canonical_bigrading("n2", 8 * 1 + 7) == (7, 4)
    # f_{8k+6} and f_{8k+7} share the natural degree 6k+5
    for k in range(4):
        a = la.canonical_bigrading("n2", 8 * k + 6)
        b = la.canonical_bigrading("n2", 8 * k + 7)
        assert a[0] + a[1] == b[0] + b[1] == 6 * k + 5


def test_canonical_formulas_vs_recursive_oracle():
    for n in range(0, 3 * 4 + 3):
        assert la.canonical_bigrading("n1", n) == la.canonical_bigrading_recursive("n1", n)
    for n in range(0, 8 * 4 + 7):
        assert la.canonical_bigrading("n2", n) == la.canonical_bigrading_recursive("n2", n)


def test_n1_natural_grading_relations_via_e_basis():
    # [a_{2k+1}, b_{2l+1}] = c_{2(k+l+1)}, [c_{2k}, a] = a', [c_{2k}, b] = -b'
    for k in range(4):
        for l in range(4):
            assert la.matrix_structure_constant("n1", 3 * k + 1, 3 * l + 2) == 1
            assert la.matrix_structure_constant("n1", 3 * k, 3 * l + 1) == 1
            assert la.matrix_structure_constant("n1", 3 * k, 3 * l + 2) == -1


def test_matrix_table_shape():
    t = la.matrix_table("n1", 6)
    assert t[(1, 2)] == 1 and t[(0, 3)] == 0 and (5, 6) not in t
    assert t[(2, 4)] == -1
