from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charlie.exactring import vec_add_scaled
from charlie.linalg import LinearSpan, cleared, nullspace


def F(x):
    return Fraction(x)


def _fractions(coords):
    """Coordinates (nums, den) as {tag: Fraction}, after checking that they
    are int numerators, none zero, over one positive int denominator."""
    nums, den = coords
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in nums.values())
    return {t: Fraction(c, den) for t, c in nums.items()}


def test_vec_add_scaled_drops_zeros():
    assert vec_add_scaled({"a": F(1)}, {"a": F(1)}, F(-1)) == {}
    assert vec_add_scaled({"a": F(1)}, {"b": F(2)}, F(3)) == {"a": F(1), "b": F(6)}


def test_span_insert_and_express():
    span = LinearSpan()
    assert span.insert({1: 1, 2: 1}, "u") is None
    assert span.insert({2: 1}, "v") is None
    # a dependent insert adds nothing and hands back the coordinates
    assert _fractions(span.insert({1: 2, 2: 2}, "dup")) == {"u": F(2)}
    assert _fractions(span.insert({}, "zero")) == {}
    assert len(span) == 2
    # 3*u - v = {1: 3, 2: 2}
    assert _fractions(span.express({1: 3, 2: 2})) == {"u": F(3), "v": F(-1)}
    assert span.express({3: 1}) is None
    assert _fractions(span.express({})) == {}
    # a non-integral coordinate comes over a denominator
    assert span.insert({3: 2}, "w") is None
    assert _fractions(span.express({2: 1, 3: 1})) == {"v": F(1), "w": Fraction(1, 2)}


def test_span_express_after_reductions():
    span = LinearSpan()
    span.insert({1: 2, 2: 4}, "a")
    span.insert({1: 1, 3: 1}, "b")
    span.insert({2: 1, 3: 5}, "c")
    target = vec_add_scaled(vec_add_scaled({1: 2, 2: 4}, {1: 1, 3: 1}, -3), {2: 1, 3: 5}, 7)
    assert _fractions(span.express(target)) == {"a": F(1), "b": F(-3), "c": F(7)}


def test_nullspace_simple_kernel():
    # x1 + x2 = 0, x2 + x3 = 0 -> span{(1, -1, 1)}
    rows = [{"x1": F(1), "x2": F(1)}, {"x2": F(1), "x3": F(1)}]
    basis = nullspace(rows, ["x1", "x2", "x3"])
    assert basis == [{"x1": F(1), "x2": F(-1), "x3": F(1)}]


def test_nullspace_full_rank_and_trivial():
    rows = [{"x1": F(1)}, {"x2": F(1)}]
    assert nullspace(rows, ["x1", "x2"]) == []
    assert nullspace([], ["x1", "x2"]) == [{"x1": F(1)}, {"x2": F(1)}]


def test_nullspace_deterministic_normalization():
    rows = [{"a": F(2), "b": F(4), "c": F(2)}]
    basis = nullspace(rows, ["a", "b", "c"])
    # two free columns; each vector scaled so its first column-order entry is 1
    assert basis == [{"a": F(1), "b": Fraction(-1, 2)}, {"a": F(1), "c": F(-1)}]
    for v in basis:
        assert F(2) * v.get("a", 0) + F(4) * v.get("b", 0) + F(2) * v.get("c", 0) == 0


def test_int_vectors_divide_exactly():
    # rows, combinations and coordinates stay ints, and a rational vector is
    # cleared by its caller to the same int vector: plain division would
    # silently make floats
    vecs = [{1: 2, 2: 4, 3: 1}, {1: 3, 3: 5}, {2: 7, 3: -3}]
    spans = LinearSpan(), LinearSpan()
    for tag, v in enumerate(vecs):
        assert spans[0].insert(v, tag) is None
        assert spans[1].insert(cleared({k: Fraction(c, 2) for k, c in v.items()})[0], tag) is None
    int_rows, frac_rows = spans[0]._rows, spans[1]._rows
    assert int_rows == frac_rows
    for _, row, combo in int_rows:
        assert all(type(c) is int for c in (*row.values(), *combo.values()))
    target = {1: 1, 2: 11, 3: 1}
    coords = spans[0].express(target)
    assert coords == spans[1].express(target)
    ref = _FractionPivotSpan()
    for tag, v in enumerate(vecs):
        ref.insert(v, tag)
    assert _fractions(coords) == ref.express(target)
    rows = [{"a": 2, "b": 4, "c": 2}, {"a": 3, "c": 1}]
    basis = nullspace(rows, ["a", "b", "c"])
    assert basis == nullspace([{k: F(c) for k, c in r.items()} for r in rows], ["a", "b", "c"])
    assert all(type(c) is Fraction for v in basis for c in v.values())


class _FractionPivotSpan:
    """Reference: the former LinearSpan, with monic Fraction pivot rows kept
    reduced against every later pivot."""

    def __init__(self):
        self._rows = []

    def _reduce(self, vec, combo):
        for pivot, row, rcombo in self._rows:
            c = vec.get(pivot)
            if c:
                vec = vec_add_scaled(vec, row, -c)
                combo = vec_add_scaled(combo, rcombo, -c)
        return vec, combo

    def insert(self, vec, tag):
        vec, combo = self._reduce(dict(vec), {tag: Fraction(1)})
        if not vec:
            return False
        pivot = min(vec)
        lead = Fraction(vec[pivot])
        vec = {k: v / lead for k, v in vec.items()}
        combo = {t: c / lead for t, c in combo.items()}
        for i, (p, row, rcombo) in enumerate(self._rows):
            c = row.get(pivot)
            if c:
                self._rows[i] = (p, vec_add_scaled(row, vec, -c),
                                 vec_add_scaled(rcombo, combo, -c))
        self._rows.append((pivot, vec, combo))
        return True

    def express(self, vec):
        residual, combo = self._reduce(dict(vec), {})
        if residual:
            return None
        return {t: -c for t, c in combo.items() if c}


def _fraction_pivot_nullspace(rows, columns):
    """Reference: elimination with monic Fraction pivot rows (the former nullspace)."""
    work = [dict(r) for r in rows if r]
    pivots = {}
    for col in columns:
        chosen = None
        for i, r in enumerate(work):
            if r.get(col):
                chosen = i
                break
        if chosen is None:
            continue
        row = work.pop(chosen)
        lead = Fraction(row[col])
        row = {k: v / lead for k, v in row.items()}
        pivots[col] = row
        work = [vec_add_scaled(r, row, -r[col]) if r.get(col) else r for r in work]
        work = [r for r in work if r]
    free = [c for c in columns if c not in pivots]
    basis = []
    for f in free:
        sol = {f: Fraction(1)}
        for col in reversed([c for c in columns if c in pivots]):
            row = pivots[col]
            s = sum((row[k] * sol[k] for k in row if k != col and k in sol), Fraction(0))
            if s:
                sol[col] = -s
        lead_col = next(c for c in columns if c in sol)
        lead = sol[lead_col]
        basis.append({k: v / lead for k, v in sol.items()})
    return basis


COLUMNS = ["a", "b", "c", "d", "e", "f"]
entries = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6))
matrices = st.lists(
    st.dictionaries(st.sampled_from(COLUMNS), entries.filter(bool), max_size=len(COLUMNS)),
    max_size=7)


@given(matrices, st.permutations(COLUMNS))
@settings(max_examples=150, deadline=None)
def test_fraction_free_nullspace_equals_fraction_pivots(rows, columns):
    # dependent rows exercise elimination down to zero
    rows = rows + [{k: 2 * v for k, v in r.items()} for r in rows[:2]]
    got = nullspace(rows, columns)
    want = _fraction_pivot_nullspace(rows, columns)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
    assert all(type(c) is Fraction for v in got for c in v.values())
    for v in got:
        for r in rows:
            assert sum(c * v.get(k, 0) for k, c in r.items()) == 0


span_entries = st.integers(min_value=-6, max_value=6)   # LinearSpan takes int vectors
span_vectors = st.dictionaries(st.integers(min_value=0, max_value=5),
                               span_entries.filter(bool), max_size=4)


@st.composite
def span_sessions(draw):
    """Inserts, each followed by an express of a combination of the vectors
    so far (in the span) and of a fresh vector (usually outside it)."""
    vecs = draw(st.lists(span_vectors, min_size=1, max_size=6))
    ops = []
    for i, v in enumerate(vecs):
        ops.append(("insert", v))
        combo = {}
        for c, w in zip(draw(st.lists(span_entries, min_size=i + 1, max_size=i + 1)), vecs):
            combo = vec_add_scaled(combo, w, c)
        ops.append(("express", combo))
        ops.append(("express", draw(span_vectors)))
    return ops


@given(span_sessions())
@settings(max_examples=120, deadline=None)
def test_fraction_free_span_equals_fraction_pivots(ops):
    span, ref = LinearSpan(), _FractionPivotSpan()
    for n, (op, v) in enumerate(ops):
        want = ref.express(v)
        if op == "insert":
            got = span.insert(v, n)  # a dependent insert returns what express would
            assert ref.insert(v, n) is (got is None)
            assert len(span) == len(ref._rows)
        else:
            got = span.express(v)
        assert (got if got is None else _fractions(got)) == want


@given(span_sessions())
@settings(max_examples=120, deadline=None)
def test_span_mutates_neither_its_inputs_nor_its_rows(ops):
    # the reduction updates its own vector and combination in place: the
    # caller's vector and every stored row and combination stay as they were
    span = LinearSpan()
    for n, (op, v) in enumerate(ops):
        before = list(v.items())
        stored = [(p, list(row.items()), list(combo.items())) for p, row, combo in span._rows]
        if op == "insert":
            span.insert(v, n)
        else:
            span.express(v)
        assert list(v.items()) == before
        assert [(p, list(row.items()), list(combo.items()))
                for p, row, combo in span._rows[:len(stored)]] == stored
        assert all(row is not v for _, row, _ in span._rows)


@given(span_sessions())
@settings(max_examples=120, deadline=None)
def test_each_row_pivots_on_its_smallest_entry(ops):
    # the stored pivot holds the smallest absolute value of its row, the
    # smallest key on ties, and is positive
    span = LinearSpan()
    for n, (op, v) in enumerate(ops):
        if op == "insert":
            span.insert(v, n)
    for pivot, row, _ in span._rows:
        assert row[pivot] > 0
        assert (row[pivot], pivot) == min((abs(c), k) for k, c in row.items())


@given(matrices, st.permutations(COLUMNS), st.integers(min_value=0, max_value=3), st.randoms())
@settings(max_examples=150, deadline=None)
def test_nullspace_ignores_the_order_of_its_equations(rows, columns, empties, rnd):
    # the equations are eliminated sparsest first; any order of them, with
    # empty equations mixed in, gives the same kernel in the same key order
    shuffled = [dict(r) for r in rows] + [{} for _ in range(empties)]
    rnd.shuffle(shuffled)
    got, want = nullspace(shuffled, columns), nullspace(rows, columns)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]


def test_nullspace_rejects_a_column_it_was_not_given():
    # dropping the entry would return the kernel of another system
    rows = [{"a": F(1), "b": F(1)}, {"b": F(1), "z": F(2)}]
    with pytest.raises(ValueError, match="'z'"):
        nullspace(rows, ["a", "b"])
    assert nullspace(rows, ["a", "b", "z"]) == [{"a": F(1), "b": F(-1), "z": Fraction(1, 2)}]


@given(matrices, st.permutations(COLUMNS))
@settings(max_examples=80, deadline=None)
def test_nullspace_leaves_its_rows_untouched(rows, columns):
    before = [list(r.items()) for r in rows]
    nullspace(rows, columns)
    assert [list(r.items()) for r in rows] == before


@given(span_sessions())
@settings(max_examples=120, deadline=None)
def test_int_span_sessions_keep_ints_and_what_rows_stand_for(ops):
    # against a Fraction oracle: every stored row and combination and every
    # returned (nums, den) is made of ints with den > 0;
    # sum_t nums[t]/den * input_t is the vector itself; and every row R with
    # combination C stands for sum_t C[t] * input_t
    span, ref = LinearSpan(), _FractionPivotSpan()
    inputs = {}
    for n, (op, v) in enumerate(ops):
        got = span.insert(v, n) if op == "insert" else span.express(v)
        if got is not None:
            total = {}
            for t, c in _fractions(got).items():
                total = vec_add_scaled(total, inputs[t], c)
            assert total == v
        elif op == "insert":
            ref.insert(v, n)
            inputs[n] = v
        for pivot, row, combo in span._rows:
            assert type(pivot) is int and row[pivot] > 0
            assert all(type(c) is int for c in (*row.values(), *combo.values()))
            assert ref.express(row) == {t: F(c) for t, c in combo.items()}


new_vectors = st.dictionaries(st.integers(min_value=10, max_value=13),   # keys no row holds
                              span_entries.filter(bool), max_size=3)


@given(st.lists(st.tuples(span_vectors, new_vectors), min_size=1, max_size=6),
       span_vectors, new_vectors)
@settings(max_examples=150, deadline=None)
def test_widened_span_decides_as_one_rebuilt_from_the_wider_vectors(vecs, old, new):
    # a row stands for sum_t C[t] input_t, so giving each input new keys and
    # each row sum_t C[t] parts[t] on them leaves the span of the widened
    # inputs of its tags: one more vector gets the decision and the int
    # coordinates that a span rebuilt from those gives it
    span = LinearSpan()
    kept = [t for t, (v, _) in enumerate(vecs) if span.insert(v, t) is None]
    span.widen({t: part for t, (_, part) in enumerate(vecs)})
    rebuilt = LinearSpan()
    for t in kept:
        assert rebuilt.insert(vecs[t][0] | vecs[t][1], t) is None
    for pivot, row, combo in span._rows:
        assert row[pivot] > 0 and all(type(c) is int for c in row.values())
        total = {}
        for t, c in combo.items():
            total = vec_add_scaled(total, vecs[t][0] | vecs[t][1], c)
        assert total == row
    got, want = span.insert(old | new, "x"), rebuilt.insert(old | new, "x")
    assert (got is None) == (want is None)
    if got is not None:
        assert _fractions(got) == _fractions(want)


def test_widening_turns_a_dependent_vector_independent():
    # 2a on the old keys is dependent, and independent once the new key
    # tells it from 2a; a later vector is expressed over both tags
    span = LinearSpan()
    assert span.insert({0: 1, 1: 2}, "a") is None
    assert _fractions(span.express({0: 2, 1: 4})) == {"a": 2}
    span.widen({"a": {5: 3}})
    assert span.express({0: 2, 1: 4}) is None
    assert span.insert({0: 2, 1: 4, 5: 1}, "b") is None
    assert _fractions(span.insert({0: 3, 1: 6, 5: 5}, "c")) == {"a": Fraction(7, 5),
                                                               "b": Fraction(4, 5)}
