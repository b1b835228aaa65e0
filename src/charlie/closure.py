"""Bracket closure of the characteristic algebra of u_xy = f(u), plus
finitely-presented graded algebras with closed-form structure constants.

generate() builds the algebra breadth-first by natural degree and keeps the
toral element d/du = X_0 separate, so the result splits as <X_0> acting on
the commutant-side basis.  Every pair of elements whose degrees add up to d
gets a table entry and a certificate: the order up to which the relation is
exact on jets.

Most pairs need no field, by the connection filter (ad_D, the classical tool
of characteristic Lie rings).  With D = sum_k u_{k+1} d/du_k, every element Z
of bigrading (d, r) satisfies

    [D, Z] = sum_i lam_i e^{(r - r_i) u} Z_i

over the elements Z_i of degree d - 1 (X_0 at d = 1).  Each BasisElement
keeps its connection vector lam, keyed by (r - r_i, i) with i = 0 for X_0:
+-X(e^{alpha u}) has {(alpha, 0): -+1}, as [D, X(g)] = -g X_0 for g(u); since
Z_i and B annihilate functions of u, [D, [A, B]] = [[D, A], B] + [A, [D, B]]
gives

    lam^{[A,B]} = sum_i lam^A_i [Z_i, B] + sum_j lam^B_j [A, Z_j]

from table entries one degree lower ([X_0, B] = r_B B).  These vectors go
into a second LinearSpan, one row per element of degree >= 2.  When the
connection vector of a pair is sum_i c_i lam^{Z_i}, c is the entry, with
no field: W = [A, B] - sum_i c_i Z_i has [D, W] = 0 and an empty u slot,
and [D, W]_k = D w_k - w_{k+1}, so w_0 = 0 gives W = 0 on every slot.  Any
other pair is integrated by the D-recursion (jetfield.bracket_from_connection):
the same argument builds [A, B] slot by slot from lam, z_0 = 0 and
z_{k+1} = D z_k - sum_i lam_i e^{(r - r_i) u} (Z_i)_k, the jet bracket on
every slot it builds, and its jet vector decides whether it is new: the
vector of its slots, reduced by exact sparse elimination (linalg.LinearSpan)
against the elements of its degree.  The generators come from the same
recursion over X_0: z_1 = +-e^{alpha u} and z_{k+1} = D z_k.

The jets decide on a weight window.  Slot j of a degree-d element has
weight j - d, and the recursion builds slot k + 1 from slot k of the lower
elements, all of weight k + 1 - d.  So with N = order and w = N - max_degree,
degree d is decided first on slots 0..d + w (N at the top degree), and the
generators are built through slot 1 + w.  The window is a projection of the
order-N jet vector, and a projection is linear, so a candidate new on the
window is new at order N.  A relation the window finds may be one that order
N breaks (a truncated closure undercounts a non-integrable f); then the
degree widens: its elements, and recursively the lower ones their slots
need, are extended to slot N by the recursion, continued from their last
stored slot, and the degree is decided on slots 0..N from then on.  So every
decision, table entry and undercount is the order-N jets', and every
certificate is N: a relation comes from the filter or from the jets at order
N, and holds on the min(N_A, N_B) = N slots that the jet bracket of two
full-order fields keeps.

An element is stored as packed slots, built, read and extended only by the
D-recursion; the jet span and the homogeneity guard, which checks every slot
the closure builds, key on its packed monomials.  Its JetField, field_raw,
wraps those same slots, extended to valid order N on first read.  When a
target structure-constant rule is supplied, the table is in reference
normalization: Z_n = (1/k_{q,l}) [Z_q, Z_l] for the first pair q < l,
q + l = n with a nonzero target constant k.  The normalized field,
norm_scale times field_raw, is also built on first read.  That rule
reproduces the defining recursions of both reference bases, so
reported tables compare literally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

from . import exactring as xr
from . import jetfield as jf
from .jetfield import Bigrading, JetField
from .linalg import LinearSpan
from .loopalg import natural_degree, sl3_bracket_constant


class ClosureError(ValueError):
    pass


class MismatchError(ArithmeticError):
    """The generated algebra contradicts the supplied target structure constants."""


@dataclass(eq=False)
class BasisElement:
    index: int                  # position in the reference basis; name = prefix + index
    name: str
    slots: list                 # packed slots 0..N built so far; index 0 = the (empty) u slot
    norm_scale: Fraction
    degree: int                 # natural degree (= d of the operator bigrading)
    eigenvalue: int             # ad-X_0 eigenvalue (= r of the operator bigrading)
    canonical: Optional[tuple]  # generator-count bigrading (p, q); None if undefined
    connection: dict            # [D, Z] = sum c e^{s*u} Z_i over {(s, i): c}; Z_0 = X_0
    lower: dict                 # i -> the element Z_i of the connection
    order: int                  # the valid order of field_raw

    def extend(self, n: int) -> None:
        """Store slots 0..n: the D-recursion continues from the last stored
        slot, after the lower elements are extended through n - 1."""
        start = len(self.slots)
        if start > n:
            return
        for z in self.lower.values():
            z.extend(n - 1)
        self.slots = jf.bracket_from_connection(
            self.connection, {i: z.slots for i, z in self.lower.items()}, n, self.slots)
        self.check(start)

    def check(self, start: int) -> None:
        """The homogeneity guard: slots start.. must have the bigrading (degree, eigenvalue)."""
        big = jf.packed_bigrading(self.slots, start)
        if any(self.slots[start:]) and big != Bigrading(self.degree, self.eigenvalue):
            raise ClosureError(f"inhomogeneous {self.name} from slot {start}: {big}")

    @cached_property
    def field_raw(self) -> JetField:
        self.extend(self.order)
        return JetField(tuple(self.slots))

    @cached_property
    def field(self) -> JetField:
        """Normalized: norm_scale * field_raw (field_raw itself when the scale is 1)."""
        if self.norm_scale == 1:
            return self.field_raw
        return jf.field_scale(self.field_raw, self.norm_scale)


@dataclass
class ClosureResult:
    order: int
    max_degree: int
    toral_name: str
    elements: list               # BasisElement, by index 1..n
    brackets: dict               # (i, j) index pair, i<j -> tuple[(k, Fraction), ...] normalized
    certificates: dict           # (i, j) -> valid order up to which the relation is exact

    def by_name(self, name: str) -> BasisElement:
        for el in self.elements:
            if el.name == name:
                return el
        raise KeyError(name)

    def dims_by_degree(self) -> dict:
        dims: dict = {}
        for el in self.elements:
            dims[el.degree] = dims.get(el.degree, 0) + 1
        return dims

    def bracket_coeffs(self, i: int, j: int):
        """Normalized coefficients of [Z_i, Z_j] over the basis, any order of i, j;
        i or j may be 0 (the toral element)."""
        if i == j:
            return ()
        if i == 0:
            el = self.elements[j - 1]
            return ((j, Fraction(el.eigenvalue)),) if el.eigenvalue else ()
        if j == 0:
            el = self.elements[i - 1]
            return ((i, Fraction(-el.eigenvalue)),) if el.eigenvalue else ()
        if i < j:
            return self.brackets[(i, j)]
        return tuple((k, -c) for k, c in self.brackets[(j, i)])


def _vectorize(slots: list) -> dict:
    """Coefficient vector of packed slots keyed by (slot, exp index, packed monomial)."""
    return {(j, alpha, m): c for j, q in enumerate(slots) for alpha, p in q.items()
            for m, c in p.items()}


def generate(
    f: xr.Quasi,
    order: int,
    max_degree: int,
    prefix: str = "Z",
    target: Optional[Callable[[int, int], Fraction]] = None,
) -> ClosureResult:
    """Closure of <X_0, X(f)> through natural degree max_degree at truncation order.

    The generators +-X(e^{alpha u}), one per exponential of f, and every pair
    whose connection vector is not in the span of the elements' connection
    vectors get their packed slots from the D-recursion; the other pairs get
    those coordinates without a field.  Pairs are taken by degree, and a
    new pair's jet vector decides whether it is a new element: on the weight
    window order - max_degree, or on the full order once the window has
    found a relation in that degree.  Each certificate is `order` (see the
    module docstring for why this gives the order-N jet closure's table).

    target, when given, maps an index pair (q, l) to the reference structure
    constant used for normalization; a contradiction raises MismatchError.
    """
    if max_degree < 1:
        raise ClosureError(f"degree {max_degree} must be at least 1")
    if order <= max_degree + 2:
        raise ClosureError(f"order {order} too small for degree {max_degree} (need order > degree+2)")
    if order >= jf._EXP_LIMIT:
        raise ClosureError(f"order {order} too large for the packed jet kernel")
    if not xr.qp_is_exponential_only(f) or not f:
        raise ClosureError("closure needs a nonzero pure exponential sum f(u)")
    window = order - max_degree         # weight through which each degree is decided first
    connections = LinearSpan()          # connection vectors of the elements of degree >= 2
    elements: list[BasisElement] = []   # by index; a degree's elements join after its pairs
    raw_expr: dict = {}                 # (idx_i, idx_j) -> {element: Fraction}
    certs: dict = {}

    x0 = BasisElement(0, f"{prefix}0", [{0: {0: 1}}], Fraction(1), 0, 0, None, {}, {}, order)
    for alpha in sorted(f, reverse=True):
        idx = len(elements) + 1
        canonical = ((1, 0), (0, 1))[idx - 1] if len(f) <= 2 else None
        # each ad-X_0 eigencomponent c X(e^{alpha u}) of X(f) is normalized to
        # sign(c) X(e^{alpha u}), and [D, X(g)] = -g X_0
        sign = 1 if f[alpha][xr.MONO_ONE] > 0 else -1
        el = BasisElement(idx, f"{prefix}{idx}", [{}], Fraction(1), 1, alpha, canonical,
                          {(alpha, 0): -sign}, {0: x0}, order)
        el.extend(1 + window)
        elements.append(el)

    def entry(i: int, j: int):
        """(element, coefficient) pairs of the raw [Z_i, Z_j], Z_0 = X_0.

        An integral coefficient comes as an int, so connection vectors stay
        int where the table is integral: Fraction products are slow."""
        if i == j:
            return ()
        if i == 0 or j == 0:
            el = elements[i + j - 1]
            return ((el, el.eigenvalue if i == 0 else -el.eigenvalue),)
        sign, key = (1, (i, j)) if i < j else (-1, (j, i))
        return ((el, sign * (c.numerator if c.denominator == 1 else c))
                for el, c in raw_expr[key].items())

    for d in range(2, max_degree + 1):
        new_here: list[BasisElement] = []
        span = LinearSpan()             # jet vectors of this degree's elements
        n = d + window                  # the slots this degree is decided on
        for ei, ej in itertools.combinations(elements, 2):
            if ei.degree + ej.degree != d:
                continue
            # [D, [A, B]] = [[D, A], B] + [A, [D, B]], and [e^{su} Z, B] = e^{su} [Z, B]
            # because B annihilates functions of u
            terms = [((s, el.index), c * ck) for (s, i), c in ei.connection.items()
                     for el, ck in entry(i, ej.index)]
            terms += [((s, el.index), c * ck) for (s, j), c in ej.connection.items()
                      for el, ck in entry(ei.index, j)]
            lam: dict = {}
            for key, c in terms:
                lam[key] = lam.get(key, 0) + c
            lam = {key: c for key, c in lam.items() if c}
            certs[(ei.index, ej.index)] = order
            expr = connections.express(lam)
            if expr is None:
                canonical = None
                if ei.canonical is not None and ej.canonical is not None:
                    canonical = (ei.canonical[0] + ej.canonical[0], ei.canonical[1] + ej.canonical[1])
                el = BasisElement(0, f"[{ei.name},{ej.name}]", [{}], Fraction(1), d,
                                  ei.eigenvalue + ej.eigenvalue, canonical, lam,
                                  {i: elements[i - 1] for _, i in lam}, order)
                el.extend(n)
                expr = span.insert(_vectorize(el.slots), el)
                if expr is not None and n < order:
                    # the window may see a relation that full order breaks:
                    # this degree is decided at full order from here on
                    n, span = order, LinearSpan()
                    for z in (*new_here, el):
                        z.extend(order)
                        expr = span.insert(_vectorize(z.slots), z)
                if expr is None:
                    # a second reduction of lam, but only for a new element:
                    # inserting before the jets decide would leave a row for
                    # every pair that the jets find dependent
                    connections.insert(lam, el)
                    new_here.append(el)
                    expr = {el: Fraction(1)}
            raw_expr[(ei.index, ej.index)] = expr
        # reference index order within a degree: eigenvalue descending, then
        # discovery (the sort is stable)
        for el in sorted(new_here, key=lambda e: -e.eigenvalue):
            el.index = len(elements) + 1
            el.name = f"{prefix}{el.index}"
            elements.append(el)

    raw_expr = {key: tuple(sorted((el.index, c) for el, c in expr.items()))
                for key, expr in raw_expr.items()}
    scales = _normalization_scales(elements, raw_expr, target)
    for el, c in zip(elements, scales):
        el.norm_scale = c
    brackets = {}
    for (i, j), coeffs in raw_expr.items():
        ci, cj = scales[i - 1], scales[j - 1]
        brackets[(i, j)] = tuple((k, ci * cj * lam / scales[k - 1]) for k, lam in coeffs)
    return ClosureResult(order, max_degree, f"{prefix}0", elements, brackets, certs)


def _normalization_scales(elements, raw_expr, target) -> list:
    """Scale factors c with normalized_n = c_n * raw_n, from the target rule."""
    n_el = len(elements)
    scales = [Fraction(1)] * n_el
    if target is None:
        return scales
    for n in range(3, n_el + 1):
        for q in range(1, (n + 1) // 2):
            l = n - q
            if l > n_el:
                continue
            kappa = target(q, l)
            if not kappa:
                continue
            coeffs = dict(raw_expr.get((q, l), ()))
            lam = coeffs.get(n)
            if lam is None or set(coeffs) != {n}:
                raise MismatchError(
                    f"[{q},{l}] should be {kappa} * element {n} but the jet side gives {coeffs}")
            scales[n - 1] = scales[q - 1] * scales[l - 1] * lam / kappa
            break
        else:
            raise MismatchError(f"no defining bracket with nonzero target constant for element {n}")
    return scales


# ---------------------------------------------------------------------------
# growth functions
# ---------------------------------------------------------------------------

def growth_function(result: ClosureResult, n: int) -> int:
    """F(n) of the commutant: cumulative dimension through natural degree n."""
    if n > result.max_degree:
        raise ClosureError(f"degree {n} outside the computed window {result.max_degree}")
    return sum(1 for el in result.elements if el.degree <= n)


def _abstract_bracket(result: ClosureResult, v: dict, w: dict) -> dict:
    out: dict = {}
    for a, ca in v.items():
        for b, cb in w.items():
            out = xr.vec_add_scaled(out, dict(result.bracket_coeffs(a, b)), ca * cb)
    return out


def _word_span_dims(result: ClosureResult, generators: list) -> dict:
    span = LinearSpan()
    frontier = []
    gen_vecs = []
    for g in generators:
        vec = {g: Fraction(1)}
        gen_vecs.append(vec)
        if span.insert(dict(vec), ("g", g)) is None:
            frontier.append(vec)
    dims = {1: len(span)}
    for n in range(2, result.max_degree + 1):
        new_frontier = []
        for g in gen_vecs:
            for w in frontier:
                b = _abstract_bracket(result, g, w)
                if b and span.insert(b, ("w", n, len(span))) is None:
                    new_frontier.append(b)
        dims[n] = len(span)
        frontier = new_frontier
    return dims


def commutant_growth_offset(result: ClosureResult) -> int:
    """Verify F_chi(n) - F_commutant(n) is one constant over the window; return it.

    Both growth functions are recomputed from scratch as word spans over the
    structure table (products of generators of length <= n), independently of
    the degree bookkeeping.
    """
    gens = [el.index for el in result.elements if el.degree == 1]
    full = _word_span_dims(result, [0] + gens)
    comm = _word_span_dims(result, gens)
    offsets = {n: full[n] - comm[n] for n in full}
    values = set(offsets.values())
    if values != {1}:
        raise MismatchError(f"growth offset not the constant 1: {offsets}")
    # the word-span commutant growth must agree with the graded count
    for n in comm:
        if comm[n] != growth_function(result, n):
            raise MismatchError(
                f"word-span F({n}) = {comm[n]} != graded count {growth_function(result, n)}")
    return 1


# ---------------------------------------------------------------------------
# finitely presented graded algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PresentedAlgebra:
    """Basis labels with degrees and a closed-form bracket rule on label pairs."""
    name: str
    degree_of: Callable[[str], int]
    rule: Callable[[str, str], tuple]        # (a, b) -> tuple[(label, int), ...]
    labels_up_to: Callable[[int], list]

    def bracket(self, a: str, b: str) -> tuple:
        return self.rule(a, b)


def _e_degree(label: str) -> int:
    i = int(label[1:])
    return 1 if i == 1 else i - 1


def presented_m0() -> PresentedAlgebra:
    """[e_1, e_i] = e_{i+1} for i >= 2; all other brackets vanish: m0^S with S empty."""
    return replace(presented_m0_S(frozenset()), name="m0")


def presented_m2() -> PresentedAlgebra:
    """m0's rule plus [e_2, e_j] = e_{j+2} for j >= 3."""
    def rule(a, b):
        i, j = int(a[1:]), int(b[1:])
        if i > j:
            return tuple((lbl, -c) for lbl, c in rule(b, a))
        if i == 1 and j >= 2:
            return ((f"e{j + 1}", 1),)
        if i == 2 and j >= 3:
            return ((f"e{j + 2}", 1),)
        return ()
    return PresentedAlgebra(
        "m2", _e_degree, rule, lambda d: [f"e{i}" for i in range(1, d + 2)])


def presented_witt_plus() -> PresentedAlgebra:
    """[e_i, e_j] = (j - i) e_{i+j}."""
    def rule(a, b):
        i, j = int(a[1:]), int(b[1:])
        return ((f"e{i + j}", j - i),) if i != j else ()
    return PresentedAlgebra(
        "W+", _e_degree, rule, lambda d: [f"e{i}" for i in range(1, d + 2)])


def presented_n2_central() -> PresentedAlgebra:
    """One-dimensional central extension of the twisted positive part:
    the n2 rule plus [f_2, f_3] = c, with c central."""
    def degree(label):
        return 3 if label == "c" else natural_degree("n2", int(label[1:]))

    def rule(a, b):
        if a == "c" or b == "c":
            return ()
        q, l = int(a[1:]), int(b[1:])
        out = []
        d = sl3_bracket_constant(q, l)
        if d:
            out.append((f"f{q + l}", d.numerator))  # the twisted constants are integers
        if (q, l) == (2, 3):
            out.append(("c", 1))
        elif (q, l) == (3, 2):
            out.append(("c", -1))
        return tuple(out)

    def labels(d):
        out = [f"f{i}" for i in range(1, 1 + max(0, 8 * (d + 6) // 6))
               if natural_degree("n2", i) <= d]
        if d >= 3:
            out.append("c")
        return out
    return PresentedAlgebra("n2^3", degree, rule, labels)


def presented_m0_S(S: frozenset) -> PresentedAlgebra:
    """Central extension of m0 by one c_{2s+1} per odd 2s+1 in S:
    [e_1, e_l] = e_{l+1} (l >= 2); [e_i, e_k] = (-1)^i c_{i+k} when i, k >= 2
    and i + k in S, and 0 otherwise; the c's are central."""
    if any(s < 3 or s % 2 == 0 for s in S):
        raise ValueError(f"S must contain odd integers >= 3, got {sorted(S)}")

    def degree(label):
        if label.startswith("c"):
            return int(label[1:]) - 2  # c_{2s+1} = [e_2, e_{2s-1}], word length 2s-1
        return _e_degree(label)

    def rule(a, b):
        if a.startswith("c") or b.startswith("c"):
            return ()
        i, j = int(a[1:]), int(b[1:])
        if i == 1 and j >= 2:
            return ((f"e{j + 1}", 1),)
        if j == 1 and i >= 2:
            return ((f"e{i + 1}", -1),)
        if i >= 2 and j >= 2 and i != j and i + j in S:
            return ((f"c{i + j}", (-1) ** i),)
        return ()

    def labels(d):
        out = [f"e{i}" for i in range(1, d + 2)]
        out.extend(f"c{s}" for s in sorted(S) if s - 2 <= d)
        return out
    return PresentedAlgebra(f"m0^S{sorted(S)}", degree, rule, labels)


PRESENTED = {
    "m0": presented_m0,
    "m2": presented_m2,
    "W+": presented_witt_plus,
    "n2^3": presented_n2_central,
}


def jacobi_check(alg: PresentedAlgebra, degree_bound: int) -> dict:
    """Jacobi identity over all label triples with degrees <= the bound.

    Repeated-label triples hold identically by antisymmetry of the rules and
    are skipped.  The rule is evaluated once per label pair.  Returns
    {"ok", "triples", "violation"}.
    """
    labels = alg.labels_up_to(degree_bound)
    memo: dict = {}

    def bracket(x: str, y: str) -> tuple:
        out = memo.get((x, y))
        if out is None:
            out = memo[(x, y)] = alg.rule(x, y)
        return out

    checked = 0
    for a, b, c in itertools.combinations(labels, 3):
        acc: dict = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for lbl, cxy in bracket(x, y):
                for k, v in bracket(lbl, z):
                    acc[k] = acc.get(k, 0) + cxy * v
        checked += 1
        residual = {k: v for k, v in acc.items() if v}
        if residual:
            return {"ok": False, "triples": checked, "violation": (a, b, c, residual)}
    return {"ok": True, "triples": checked, "violation": None}


def presented_growth(alg: PresentedAlgebra, n: int) -> int:
    return sum(1 for lbl in alg.labels_up_to(n) if alg.degree_of(lbl) <= n)
