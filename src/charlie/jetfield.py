"""Truncated first-order differential operators on the jet space of u_xy = f(u).

A JetField stores the coefficient of d/du (the "u slot") plus coefficients of
d/du_1 ... d/du_N as quasipolynomials.  Slots are kept only where they are
provably exact, i.e. equal to the corresponding coefficient of the untruncated
operator; bracketing tracks exactness slot by slot, which is what makes every
equality claim in this package a statement about retained slots rather than an
approximation.

Coefficients are plain Python numbers, and the kernel below never converts
them.  X_0, D and X(f) for an integral f -- every eigencomponent
+-X(e^{a*u}) of a closure -- carry int coefficients, and brackets of int
fields stay int.  A Fraction enters only with an input that has one: a
non-integral f such as the 1/2 of sinh, or a field scaled by a rational in
normalization; it then propagates by ordinary int/Fraction arithmetic.

The kernel takes the gradient {k: dq/du_k} of a coefficient in one pass over
its monomials (_prepare) and sums slot_k * dq/du_k over k into one
accumulator per result slot (_accumulate).  The gradient is restricted to the
partner's support: only the k where the field that multiplies it has a
nonempty slot (k = 0 for the u slot), since a derivative along an empty slot
would never be multiplied.  A triangular element of degree d has empty slots
1..d-1, so most of the full gradient is of that kind.  Inside the kernel a
monomial is packed into one int, so a monomial product is an integer
addition; results are unpacked into the usual Quasi dicts.  apply_field, the
exact total derivative D (apply_total_derivative) and bracket all go through
these helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import exactring as xr
from .bell import d_power_exp
from .exactring import Quasi


class TruncationError(ValueError):
    """An operation needed slots beyond the stored valid order."""


@dataclass(frozen=True)
class JetField:
    u_slot: Quasi
    slots: tuple  # slots[j-1] = coefficient of d/du_j, j = 1..valid_order
    valid_order: int

    def slot(self, j: int) -> Quasi:
        if not 1 <= j <= self.valid_order:
            raise TruncationError(f"slot {j} outside valid order {self.valid_order}")
        return self.slots[j - 1]

    def is_zero(self) -> bool:
        return xr.qp_is_zero(self.u_slot) and all(xr.qp_is_zero(s) for s in self.slots)


@dataclass(frozen=True)
class ZeroStatus:
    """Zero certificate: either all retained slots vanish up to `order`, or a
    witness slot (0 = the u slot) is nonzero."""
    is_zero: bool
    order: int = 0
    witness_slot: int = -1

    def __str__(self) -> str:
        if self.is_zero:
            return f"ZERO_UP_TO({self.order})"
        return f"NONZERO(slot {self.witness_slot})"


def make_field(u_slot: Quasi, slots: list, valid_order: int) -> JetField:
    if valid_order < 1:
        raise ValueError(f"valid order must be >= 1, got {valid_order}")
    if len(slots) != valid_order:
        raise ValueError(f"expected {valid_order} slots, got {len(slots)}")
    return JetField(u_slot, tuple(slots), valid_order)


def zero_field(order: int) -> JetField:
    return make_field({}, [{} for _ in range(order)], order)


def make_D(order: int) -> JetField:
    """D = u_1 d/du + u_2 d/du_1 + u_3 d/du_2 + ...; operator bigrading (-1, 0)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    slots = [{0: {xr.mono_var(k + 1): 1}} for k in range(1, order + 1)]
    return make_field({0: {xr.mono_var(1): 1}}, slots, order)


def make_X0(order: int) -> JetField:
    """X_0 = d/du."""
    return make_field({0: {xr.MONO_ONE: 1}}, [{} for _ in range(order)], order)


def _exact(c):
    """c as an int when it is integral, otherwise unchanged."""
    return c.numerator if c.denominator == 1 else c


def make_Xf(f: Quasi, order: int) -> JetField:
    """X(f) = f d/du_1 + D(f) d/du_2 + ... + D^{j-1}(f) d/du_j + ...

    f must be a pure exponential sum (no jet variables); each slot is assembled
    from D^{j-1}(e^{a*u}) = e^{a*u} B_{j-1}(a*u_1, ...) per exponential part.
    Bell coefficients and the exponents a are integers, so every coefficient
    is an int where f's coefficient makes it integral.
    """
    if not xr.qp_is_exponential_only(f):
        raise ValueError("X(f) needs f depending on u only (pure exponential sum)")
    terms = [(alpha, p[xr.MONO_ONE]) for alpha, p in f.items()]
    slots = []
    for j in range(1, order + 1):
        slot: Quasi = {}
        for alpha, c in terms:
            for lam, bell in d_power_exp(j - 1, alpha).items():
                slot[lam] = {m: _exact(c * b) for m, b in bell.items()}
        slots.append(slot)
    return make_field({}, slots, order)


# ---------------------------------------------------------------------------
# the kernel: packed monomials, one-pass gradients, fused multiply-accumulate
# ---------------------------------------------------------------------------

# Inside the kernel a monomial prod u_k^e_k is one int, sum e_k << _BITS*(k-1):
# a monomial product is an integer addition and d/du_k lowers by one unit.
# Operand exponents stay below _EXP_LIMIT, so the sum of two never carries
# into the next variable's field.
_BITS = 16
_EXP_LIMIT = 1 << (_BITS - 1)


def _prepare(q: Quasi, along) -> tuple:
    """(q with packed monomials, gradient of q along `along`, top index of q),
    in one pass over q's monomials.

    The gradient maps k in `along` to dq/du_k (packed) where q depends on u_k,
    and 0, when in `along`, to dq/du.  `along` is the partner's support (see
    _support): derivatives along the partner's empty slots are never built.
    For a fixed k, distinct monomials have distinct derivatives, so no terms
    collide and no zero is ever stored.  The top index is the largest k with
    u_k in q (0 if none): truncation checks need it whatever `along` holds.
    """
    packed_q: dict = {}
    grad: dict = {}
    top = 0
    for alpha, p in q.items():
        packed_p = packed_q[alpha] = {}
        parts: dict = {}
        for m, c in p.items():
            packed = 0
            for k, e in m:
                if e >= _EXP_LIMIT:
                    raise ValueError(f"exponent {e} of u{k} is too large for the bracket kernel")
                packed += e << (_BITS * (k - 1))
                if k > top:
                    top = k
            packed_p[packed] = c
            for k, e in m:
                if k not in along:
                    continue
                lowered = packed - (1 << (_BITS * (k - 1)))
                part = parts.get(k)
                if part is None:
                    parts[k] = {lowered: c * e}
                else:
                    part[lowered] = c * e
        if alpha and 0 in along:
            parts[0] = {m: alpha * c for m, c in packed_p.items()}
        for k, part in parts.items():
            grad.setdefault(k, {})[alpha] = part
    return packed_q, grad, top


def _support(X: JetField) -> set:
    """Indices of X's nonempty slots, 0 for the u slot."""
    return {k for k, q in enumerate((X.u_slot, *X.slots)) if q}


def _accumulate(out: dict, coeffs: list, grad: dict, sign: int) -> None:
    """out += sign * sum_k coeffs[k] * grad[k], all packed.

    coeffs[k] is a field's packed slot k (0 = the u slot); grad holds only
    the k of that field's support.  out maps an exponential index to a
    {packed mono: coeff} accumulator that may hold zeros; _settled drops them.
    """
    for k, dk in grad.items():
        for a1, p1 in coeffs[k].items():
            for a2, p2 in dk.items():
                acc = out.get(a1 + a2)
                if acc is None:
                    acc = out[a1 + a2] = {}
                for m1, c1 in p1.items():
                    if sign < 0:
                        c1 = -c1
                    for m2, c2 in p2.items():
                        m = m1 + m2
                        s = acc.get(m)
                        acc[m] = c1 * c2 if s is None else s + c1 * c2


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


def _settled(out: dict) -> Quasi:
    """Canonical Quasi from an accumulator: zero terms and empty parts dropped."""
    q: Quasi = {}
    for alpha, acc in out.items():
        p = {_unpack(m): c for m, c in acc.items() if c}
        if p:
            q[alpha] = p
    return q


def apply_field(X: JetField, gs: list) -> list:
    """[X(g) for g in gs], X(g) = u_slot * dg/du + sum_k slot_k * dg/du_k, exact.

    X's slots are packed once for the whole list.  Raises TruncationError
    when a g depends on a jet variable beyond X's valid order (the
    contribution of the unknown slot would be missing).
    """
    coeffs = [_prepare(q, ())[0] for q in (X.u_slot, *X.slots)]
    support = _support(X)
    images = []
    for g in gs:
        _, grad, top = _prepare(g, support)
        if top > X.valid_order:
            raise TruncationError(
                f"applying a field of valid order {X.valid_order} to a value using u_{top}")
        out: dict = {}
        _accumulate(out, coeffs, grad, 1)
        images.append(_settled(out))
    return images


def apply_total_derivative(g: Quasi) -> Quasi:
    """D(g), exact for any quasipolynomial (no truncation: D(u_k) = u_{k+1})."""
    return apply_field(make_D(max(xr.qp_max_index(g), 1)), [g])[0]


# ---------------------------------------------------------------------------
# linear structure and the bracket
# ---------------------------------------------------------------------------

def field_add(X: JetField, Y: JetField) -> JetField:
    n = min(X.valid_order, Y.valid_order)
    return make_field(
        xr.qp_add(X.u_slot, Y.u_slot),
        [xr.qp_add(X.slots[j], Y.slots[j]) for j in range(n)],
        n,
    )


def field_scale(X: JetField, c) -> JetField:
    return make_field(
        xr.qp_scale(X.u_slot, c),
        [xr.qp_scale(s, c) for s in X.slots],
        X.valid_order,
    )


def truncate(X: JetField, order: int) -> JetField:
    if order > X.valid_order:
        raise TruncationError(f"cannot extend valid order {X.valid_order} to {order}")
    return make_field(X.u_slot, list(X.slots[:order]), order)


def fields_equal(X: JetField, Y: JetField) -> bool:
    """Equality on the common valid range (and u slots)."""
    n = min(X.valid_order, Y.valid_order)
    return X.u_slot == Y.u_slot and all(X.slots[j] == Y.slots[j] for j in range(n))


def bracket(X: JetField, Y: JetField) -> JetField:
    """[X, Y], exact on every retained slot.

    Slot j of the result is X(Q_j^Y) - Y(Q_j^X); it is retained while both
    coefficient quasipolynomials stay within the other operand's valid order.
    For the triangular fields generated from X_0 and X(f) this keeps
    min(N_X, N_Y) slots; one bracket with D costs exactly one slot.
    """
    sx, sy = _support(X), _support(Y)
    px = [_prepare(q, sy) for q in (X.u_slot, *X.slots)]
    py = [_prepare(q, sx) for q in (Y.u_slot, *Y.slots)]
    cx, cy = [packed for packed, _, _ in px], [packed for packed, _, _ in py]
    out_slots = []  # index 0 is the u slot
    for j in range(min(X.valid_order, Y.valid_order) + 1):
        _, gx, tx = px[j]
        _, gy, ty = py[j]
        if ty > X.valid_order or tx > Y.valid_order:
            if j == 0:
                raise TruncationError("u slots exceed the operands' valid orders")
            break
        out: dict = {}
        _accumulate(out, cx, gy, 1)
        _accumulate(out, cy, gx, -1)
        out_slots.append(_settled(out))
    if len(out_slots) < 2:
        raise TruncationError("bracket result would have valid order < 1")
    return make_field(out_slots[0], out_slots[1:], len(out_slots) - 1)


def is_zero_up_to(X: JetField) -> ZeroStatus:
    """Truncation-level zero test; full certification is the matrix oracle's job."""
    if X.u_slot:
        return ZeroStatus(False, witness_slot=0)
    for j in range(1, X.valid_order + 1):
        if X.slots[j - 1]:
            return ZeroStatus(False, witness_slot=j)
    return ZeroStatus(True, order=X.valid_order)


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bigrading:
    d: int  # natural/weight degree: slot j carries weight j - d
    r: int  # exponential degree: slots are multiples of e^{r*u}


def _slot_profile(q: Quasi, j: int) -> Optional[Bigrading]:
    """(d, r) implied by one nonzero slot, or None if inhomogeneous."""
    if len(q) != 1:
        return None
    (r, p), = q.items()
    w = xr.weight_of(p)
    if w is None:
        return None
    return Bigrading(j - w, r)


def bigrading_of(X: JetField) -> Optional[Bigrading]:
    """Homogeneity type: slot j = e^{r*u} * (weight j-d), u slot e^{r*u} * (weight -d)."""
    grading: Optional[Bigrading] = None
    for j in range(1, X.valid_order + 1):
        q = X.slots[j - 1]
        if not q:
            continue
        b = _slot_profile(q, j)
        if b is None or (grading is not None and b != grading):
            return None
        grading = b
    if X.u_slot:
        b = _slot_profile(X.u_slot, 0)  # weight of u slot must be -d
        if b is None or (grading is not None and b != grading):
            return None
        grading = b
    return grading


def eigencheck_adX0(X: JetField) -> Optional[int]:
    """lambda with [X_0, X] = lambda*X, if X is an ad-X_0 eigenvector.

    [X_0, .] differentiates every coefficient by u, i.e. multiplies the e^{a*u}
    part by a; X is an eigenvector iff a single exponential index occurs.
    """
    alphas = set()
    for q in (X.u_slot, *X.slots):
        alphas.update(q.keys())
    if not alphas:
        return None  # zero field: any eigenvalue
    if len(alphas) == 1:
        return alphas.pop()
    return None

