from fractions import Fraction

from charlie.linalg import LinearSpan, nullspace, vec_add_scaled


def F(x):
    return Fraction(x)


def test_vec_add_scaled_drops_zeros():
    assert vec_add_scaled({"a": F(1)}, {"a": F(1)}, F(-1)) == {}
    assert vec_add_scaled({"a": F(1)}, {"b": F(2)}, F(3)) == {"a": F(1), "b": F(6)}


def test_span_insert_and_express():
    span = LinearSpan()
    assert span.insert({1: F(1), 2: F(1)}, "u")
    assert span.insert({2: F(1)}, "v")
    assert not span.insert({1: F(2), 2: F(2)}, "dup")
    assert len(span) == 2
    # 3*u - v = {1: 3, 2: 2}
    assert span.express({1: F(3), 2: F(2)}) == {"u": F(3), "v": F(-1)}
    assert span.express({3: F(1)}) is None
    assert span.express({}) == {}


def test_span_express_after_reductions():
    span = LinearSpan()
    span.insert({1: F(2), 2: F(4)}, "a")
    span.insert({1: F(1), 3: F(1)}, "b")
    span.insert({2: F(1), 3: F(5)}, "c")
    target = vec_add_scaled(vec_add_scaled({1: F(2), 2: F(4)}, {1: F(1), 3: F(1)}, F(-3)),
                            {2: F(1), 3: F(5)}, F(7))
    assert span.express(target) == {"a": F(1), "b": F(-3), "c": F(7)}


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
    # int entries must give the same Fraction rows and coordinates as Fraction
    # entries: plain division would silently turn them into floats
    vecs = [{1: 2, 2: 4, 3: 1}, {1: 3, 3: 5}, {2: 7, 3: -3}]
    spans = LinearSpan(), LinearSpan()
    for tag, v in enumerate(vecs):
        assert spans[0].insert(v, tag)
        assert spans[1].insert({k: F(c) for k, c in v.items()}, tag)
    int_rows, frac_rows = spans[0]._rows, spans[1]._rows
    assert int_rows == frac_rows
    for _, row, combo in int_rows:
        assert all(type(c) is Fraction for c in (*row.values(), *combo.values()))
    target = {1: 1, 2: 11, 3: 1}
    coords = spans[0].express(target)
    assert coords == spans[1].express({k: F(c) for k, c in target.items()})
    assert all(type(c) is Fraction for c in coords.values())
    rows = [{"a": 2, "b": 4, "c": 2}, {"a": 3, "c": 1}]
    basis = nullspace(rows, ["a", "b", "c"])
    assert basis == nullspace([{k: F(c) for k, c in r.items()} for r in rows], ["a", "b", "c"])
    assert all(type(c) is Fraction for v in basis for c in v.values())
