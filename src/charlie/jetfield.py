"""Truncated first-order differential operators on the jet space of u_xy = f(u).

A JetField stores the coefficients of d/du (the "u slot", index 0) and
d/du_1 ... d/du_N as quasipolynomials with packed monomials, one int per
monomial (see _BITS); a closure stores its elements as the same slot lists.
Slots are kept only where they are provably exact, i.e. equal to the
corresponding coefficient of the untruncated operator; bracketing tracks
exactness slot by slot, which is what makes every equality claim in this
package a statement about retained slots rather than an approximation.

Coefficients are plain Python numbers, and the kernel below never converts
them.  X_0, D and X(f) for an integral f -- every eigencomponent
+-X(e^{a*u}) of a closure -- carry int coefficients, and brackets of int
fields stay int.  A Fraction enters only with an input that has one: a
non-integral f such as the 1/2 of sinh, or a field scaled by a rational in
normalization; it then propagates by ordinary int/Fraction arithmetic.

Quasi dicts of tuple monomials exist only at the value boundary: make_field
and slot(j), and the values apply_field and apply_total_derivative take and
return.  A field acts on a packed coefficient in one pass over its
monomials (_act), which adds slot_k * dq/du_k term by term into an
accumulator and checks every exponent, since a bracket result is never
re-packed.  apply_field and bracket both call it; apply_field is the one
way a field acts on a value: the x-integral search, annihilates, the
symmetry check and the 2D exponential system call it.

The exact total derivative D acts on packed monomials directly
(_total_derivative): it moves one unit from u_k to u_{k+1} and adds
alpha * u_1 on the e^{alpha u} part.  bracket_from_connection uses it to
build or continue a field's slots from its ad_D connection,
z_{k+1} = D z_k - sum_i c_i e^{s_i u} (Z_i)_k, over the packed slots of the
elements one degree lower, with no product of slots: the one way slots are
built, for X(f), the Serre rungs and each closure element alike, the last
only as far as a later degree or its field_raw reads them.  The program no
longer calls bracket: it is the tests' reference for the recursion.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from typing import Optional

from . import exactring as xr
from .exactring import Quasi

# A packed monomial prod u_k^e_k is one int, sum e_k << _BITS*(k-1): a
# monomial product is an integer addition and d/du_k lowers by one unit.
# Operand exponents stay below _EXP_LIMIT, so the sum of two never carries
# into the next variable's field.
_BITS = 16
_EXP_LIMIT = 1 << (_BITS - 1)


class TruncationError(ValueError):
    """An operation needed slots beyond the stored valid order."""


class JetField(namedtuple("JetField", "coeffs")):
    # coeffs[j] = packed coefficient of d/du_j, j = 0..valid_order (0 = d/du)
    __slots__ = ()

    @property
    def valid_order(self) -> int:
        return len(self.coeffs) - 1

    # the packed u slot and slots 1..N, which bench/tracer.py reads
    u_slot = property(lambda self: self.coeffs[0])
    slots = property(lambda self: self.coeffs[1:])

    def slot(self, j: int) -> Quasi:
        """Coefficient j (0 = the u slot), unpacked for its reader."""
        if not 0 <= j <= self.valid_order:
            raise TruncationError(f"slot {j} outside valid order {self.valid_order}")
        return _unpacked(self.coeffs[j])

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def make_field(u_slot: Quasi, slots: list) -> JetField:
    """u_slot d/du + sum_j slots[j-1] d/du_j, of valid order len(slots)."""
    if not slots:
        raise ValueError("valid order must be >= 1, got 0")
    return JetField(tuple(_packed(q) for q in (u_slot, *slots)))


def zero_field(order: int) -> JetField:
    return make_field({}, [{} for _ in range(order)])


def make_D(order: int) -> JetField:
    """D = u_1 d/du + u_2 d/du_1 + u_3 d/du_2 + ...; operator bigrading (-1, 0)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return JetField(tuple({0: {1 << (_BITS * j): 1}} for j in range(order + 1)))


def make_X0(order: int) -> JetField:
    """X_0 = d/du."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return JetField(({0: {0: 1}}, *({} for _ in range(order))))


def make_Xf(f: Quasi, order: int) -> JetField:
    """X(f) = f d/du_1 + D(f) d/du_2 + ... + D^{j-1}(f) d/du_j + ...

    f must be a pure exponential sum (no jet variables).  X(f) has an empty
    u slot and [D, X(f)] = -f X_0, so its slots come from the D-recursion
    (bracket_from_connection) on the connection {(a, 0): -c_a} over X_0:
    z_1 = f and z_{k+1} = D z_k.  A constant term (a = 0) reaches slot 1
    only.  Every coefficient is an int where it is integral.
    """
    if not xr.qp_is_exponential_only(f):
        raise ValueError("X(f) needs f depending on u only (pure exponential sum)")
    connection = {(alpha, 0): -p[xr.MONO_ONE] for alpha, p in f.items()}
    return JetField(tuple(
        bracket_from_connection(connection, {0: make_X0(order).coeffs}, order)))


# ---------------------------------------------------------------------------
# the kernel: packed monomials and a field acting on them in one pass
# ---------------------------------------------------------------------------

def _packed(q: Quasi) -> dict:
    """q with packed monomials, the way in at the value boundary."""
    for k, e in (pair for p in q.values() for m in p for pair in m):
        if e >= _EXP_LIMIT:
            raise ValueError(f"exponent {e} of u{k} is too large for the bracket kernel")
    return {alpha: {sum(e << (_BITS * (k - 1)) for k, e in m): c for m, c in p.items()}
            for alpha, p in q.items()}


def _act(out: dict, coeffs: tuple, q: dict, sign: int = 1) -> int:
    """out += sign * X(q) for the field X of packed slots coeffs, in one pass
    over the monomials of a packed q; returns q's top index.

    Per u_k^e of a monomial m of q's e^{alpha u} part it adds e * coeffs[k] *
    m / u_k, and alpha * coeffs[0] * m.  Empty slots and slots past X's valid
    order add nothing; the top index, the largest k with u_k in q (0 if
    none), tells the caller whether one was needed.  An exponent of
    _EXP_LIMIT or more, which a chain of brackets can build, raises
    ValueError before a product could carry it into the next field, so
    _act({}, (), q) is the exponent guard alone.  out maps an exponential
    index to a {packed mono: coeff} accumulator that may hold zeros;
    _settled drops them.
    """
    top = 0
    n = len(coeffs)
    mask = (1 << _BITS) - 1
    for alpha, p in q.items():
        for m, c in p.items():
            if sign < 0:
                c = -c
            parts = [(0, m, alpha)] if alpha else []  # (k, m / u_k, d/du_k factor)
            rest, k, unit = m, 1, 1
            while rest:
                e = rest & mask
                if e:
                    if e >= _EXP_LIMIT:
                        raise ValueError(
                            f"exponent {e} of u{k} is too large for the bracket kernel")
                    parts.append((k, m - unit, e))
                rest >>= _BITS
                k += 1
                unit <<= _BITS
            if k - 1 > top:
                top = k - 1
            for k, m2, e in parts:
                if k < n and coeffs[k]:
                    c2 = c * e
                    for a1, p1 in coeffs[k].items():
                        acc = out.get(a1 + alpha)
                        if acc is None:
                            acc = out[a1 + alpha] = {}
                        for m1, c1 in p1.items():
                            t = m1 + m2
                            s = acc.get(t)
                            acc[t] = c1 * c2 if s is None else s + c1 * c2
    return top


def _unpack(packed: int) -> xr.Mono:
    """The ((index, exponent), ...) monomial of a packed one."""
    pairs = []
    mask = (1 << _BITS) - 1
    k = 1
    while packed:
        e = packed & mask
        if e:
            pairs.append((k, e))
        packed >>= _BITS
        k += 1
    return tuple(pairs)


def _unpacked(q: dict) -> Quasi:
    """The Quasi of a packed coefficient, the way out at the value boundary."""
    return {alpha: {_unpack(m): c for m, c in p.items()} for alpha, p in q.items()}


def _settled(out: dict) -> dict:
    """A packed coefficient from an accumulator: zero terms and empty parts dropped."""
    q: dict = {}
    for alpha, acc in out.items():
        p = {m: c for m, c in acc.items() if c}
        if p:
            q[alpha] = p
    return q


def apply_field(X: JetField, gs: list) -> list:
    """[X(g) for g in gs], X(g) = u_slot * dg/du + sum_k slot_k * dg/du_k, exact.

    Each g is packed on the way in and its image unpacked on the way out.
    Raises TruncationError when a g depends on a jet variable beyond X's
    valid order (the contribution of the unknown slot would be missing).
    """
    for q in X.coeffs:
        _act({}, (), q)  # the exponent guard on X's own coefficients
    images = []
    for g in gs:
        out: dict = {}
        top = _act(out, X.coeffs, _packed(g))
        if top > X.valid_order:
            raise TruncationError(
                f"applying a field of valid order {X.valid_order} to a value using u_{top}")
        images.append(_unpacked(_settled(out)))
    return images


def _total_derivative(q: dict) -> dict:
    """D(q) for a packed q, as an accumulator that may hold zeros.

    D = u_1 d/du + sum_k u_{k+1} d/du_k: on e^{alpha u} m it adds alpha * u_1 m
    and, per u_k^e in m, e * m u_{k+1} / u_k, i.e. one unit moves from field
    k to field k + 1.  A result exponent exceeds an operand exponent by at
    most one, so it stays inside its field (see _EXP_LIMIT).
    """
    out: dict = {}
    mask = (1 << _BITS) - 1
    for alpha, p in q.items():
        acc = out[alpha] = {}
        for m, c in p.items():
            if alpha:
                s = acc.get(m + 1)
                acc[m + 1] = alpha * c if s is None else s + alpha * c
            rest, unit = m, 1
            while rest:
                e = rest & mask
                if e:
                    t = m + unit * mask  # -unit on u_k, +unit << _BITS on u_{k+1}
                    s = acc.get(t)
                    acc[t] = e * c if s is None else s + e * c
                rest >>= _BITS
                unit <<= _BITS
    return out


def apply_total_derivative(g: Quasi) -> Quasi:
    """D(g), exact for any quasipolynomial (no truncation: D(u_k) = u_{k+1})."""
    return _unpacked(_settled(_total_derivative(_packed(g))))


# ---------------------------------------------------------------------------
# linear structure and the bracket
# ---------------------------------------------------------------------------

def field_add(X: JetField, Y: JetField) -> JetField:
    return JetField(tuple(xr.qp_add(a, b) for a, b in zip(X.coeffs, Y.coeffs)))


def field_scale(X: JetField, c) -> JetField:
    return JetField(tuple(xr.qp_scale(q, c) for q in X.coeffs))


def truncate(X: JetField, order: int) -> JetField:
    if order < 1:
        raise ValueError(f"valid order must be >= 1, got {order}")
    if order > X.valid_order:
        raise TruncationError(f"cannot extend valid order {X.valid_order} to {order}")
    return JetField(X.coeffs[:order + 1])


def fields_equal(X: JetField, Y: JetField) -> bool:
    """Equality on the common valid range (and u slots)."""
    return all(a == b for a, b in zip(X.coeffs, Y.coeffs))


def bracket(X: JetField, Y: JetField) -> JetField:
    """[X, Y], exact on every retained slot.

    Slot j of the result is X(Q_j^Y) - Y(Q_j^X); it is retained while both
    coefficient quasipolynomials stay within the other operand's valid order.
    For the triangular fields generated from X_0 and X(f) this keeps
    min(N_X, N_Y) slots; one bracket with D costs exactly one slot.
    """
    for q in (*X.coeffs, *Y.coeffs):
        _act({}, (), q)  # the exponent guard on both operands
    out_coeffs = []  # index 0 is the u slot
    for j in range(min(X.valid_order, Y.valid_order) + 1):
        out: dict = {}
        if _act(out, X.coeffs, Y.coeffs[j]) > X.valid_order \
                or _act(out, Y.coeffs, X.coeffs[j], -1) > Y.valid_order:
            if j == 0:
                raise TruncationError("u slots exceed the operands' valid orders")
            break
        out_coeffs.append(_settled(out))
    if len(out_coeffs) < 2:
        raise TruncationError("bracket result would have valid order < 1")
    return JetField(tuple(out_coeffs))


def bracket_from_connection(connection: dict, lower: dict, n: int,
                            slots: Optional[list] = None) -> list:
    """The packed slots 0..n of a field Z from its ad_D connection.

    connection is {(s, i): c} with [D, Z] = sum c e^{s u} Z_i, lower maps
    each i to the packed slots of Z_i, and slots holds Z's known slots 0..k,
    by default the empty u slot of a commutant element.  Since
    [D, Z]_k = D z_k - z_{k+1},

        z_{k+1} = D z_k - sum c e^{s u} (Z_i)_k

    continues them through slot n.  Fields with equal u slots and equal
    [D, .] on slots 0..n-1 agree on slots 0..n, so for Z = [X, Y] this is
    the jet bracket on the n = min(N_X, N_Y) slots it keeps for triangular
    X, Y.  The recursion runs on the connection scaled to ints (its
    denominators cleared once, slot k scaled alike), and each new
    coefficient is divided back once: an int where integral.
    """
    slots = slots or [{}]
    denom = lcm(*(c.denominator for c in connection.values()))
    terms = []
    for (s, i), c in connection.items():
        z_i = lower[i]
        if len(z_i) < n:
            raise TruncationError(f"element {i} has no slot {n - 1}")
        terms.append((s, z_i, c.numerator * (denom // c.denominator)))
    z = slots[-1]
    if denom != 1:
        z = {alpha: {m: c * denom for m, c in p.items()} for alpha, p in z.items()}
    new = []
    for k in range(len(slots) - 1, n):
        out = _total_derivative(z)
        for s, z_i, c in terms:
            for alpha, p in z_i[k].items():
                acc = out.get(alpha + s)
                if acc is None:
                    acc = out[alpha + s] = {}
                for m, v in p.items():
                    t = acc.get(m)
                    acc[m] = -c * v if t is None else t - c * v
        z = _settled(out)
        new.append(z)
    if denom != 1:
        new = [{alpha: {m: c // denom if not c % denom else Fraction(c, denom)
                        for m, c in p.items()} for alpha, p in q.items()} for q in new]
    return [*slots, *new]


def is_zero_up_to(X: JetField) -> str:
    """Truncation-level zero certificate: ZERO_UP_TO(valid order), or
    NONZERO(slot j) for the first nonzero slot (0 = the u slot).  Full
    certification is the matrix oracle's job."""
    j = next((j for j, q in enumerate(X.coeffs) if q), None)
    return f"ZERO_UP_TO({X.valid_order})" if j is None else f"NONZERO(slot {j})"


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------

# d: natural/weight degree, slot j carries weight j - d;
# r: exponential degree, slots are multiples of e^{r*u}
Bigrading = namedtuple("Bigrading", "d r")


def packed_bigrading(slots: list, start: int = 0) -> Optional[Bigrading]:
    """Homogeneity type of packed slots start.. (index 0 = the u slot): a term
    e^{r u} m in slot j has weight j - d, the weight of m being sum k e_k."""
    mask = (1 << _BITS) - 1
    types = set()
    for j, q in enumerate(slots[start:], start):
        for r, p in q.items():
            for m in p:
                w, k, rest = 0, 1, m
                while rest:
                    w += k * (rest & mask)
                    rest >>= _BITS
                    k += 1
                types.add((j - w, r))
    return Bigrading(*types.pop()) if len(types) == 1 else None


def bigrading_of(X: JetField) -> Optional[Bigrading]:
    """Homogeneity type: slot j = e^{r*u} * (weight j-d), u slot e^{r*u} * (weight -d)."""
    return packed_bigrading(X.coeffs)
