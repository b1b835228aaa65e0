"""Bracket closure of the characteristic algebra of u_xy = f(u), plus
finitely-presented graded algebras with closed-form structure constants.

generate() builds the algebra breadth-first by natural degree and keeps the
toral element d/du = X_0 separate, so the result splits as <X_0> acting on
the commutant-side basis.  Every pair of elements whose degrees add up to d
gets a table entry, exact on jets up to the order (the closure's one
certificate).  Only the generator pairs, those led by a generator (in index
order the first pairs of each degree), are decided; the Jacobi identity
gives every other entry.

Each generator pair is decided by its connection vector (ad_D, the classical
tool of characteristic Lie rings).  With D = sum_k u_{k+1} d/du_k, every
element Z of bigrading (d, r) satisfies

    [D, Z] = sum_i lam_i e^{(r - r_i) u} Z_i

over the elements Z_i of degree d - 1 (X_0 at d = 1).  Each BasisElement
keeps its connection vector lam, keyed by (r - r_i, i) with i = 0 for X_0:
+-X(e^{alpha u}) has {(alpha, 0): -+1}, as [D, X(g)] = -g X_0 for g(u); since
Z_i and B annihilate functions of u, [D, [A, B]] = [[D, A], B] + [A, [D, B]]
gives

    lam^{[A,B]} = sum_i lam^A_i [Z_i, B] + sum_j lam^B_j [A, Z_j]

from table entries one degree lower ([X_0, B] = r_B B).  W = [A, B] with
[D, W] = 0 and an empty u slot is zero, since [D, W]_k = D w_k - w_{k+1} and
w_0 = 0; so the D-recursion (jetfield.bracket_from_connection) builds [A, B]
slot by slot from lam alone, z_0 = 0 and z_{k+1} = D z_k - sum_i lam_i
e^{(r - r_i) u} (Z_i)_k, the jet bracket on every slot it builds.  Once the
lower slots are fixed the recursion is linear in lam.  The generators come
from the same recursion over X_0: z_1 = +-e^{alpha u} and z_{k+1} = D z_k.

The connection vectors of a degree go into LinearSpans, in ints: a raw table
entry is (nums, den), int numerators over one positive denominator in lowest
terms, and a pair's vector is summed as L * lam, over the lcm of the
denominators it reads (the element keeps lam itself).  Below full order
each generator pair's vector is reduced once in its block's connection span,
whose rows stand for elements, sum_e C_e Z_e: a vector in the span,
L lam = sum y_R R, gets the entry sum y_R C_R / L with no field, as by
linearity its recursion would build that combination.  A vector that grows
the span, and each one at full order, is decided by its lower sum

    F(lam)_k = sum_i lam_i e^{(r - r_i) u} (Z_i)_k,    k = 0..n - 1,

a sparse combination of the lower elements' slots.  As F_k = D z_k -
z_{k+1}, F maps to the slots 1..n linearly and invertibly, by one map for
the whole block, so a pair's slots 0..n depend on the elements' exactly when
its lower sum depends on theirs, with the same unique coordinates.  The
block's jet span reduces the lower sum of L lam (int: L (D z_k - z_{k+1})
over int fields) against the elements' by exact sparse elimination; a new
one makes the pair's field an element, whose rows stand for L times it, and
coordinates x give the entry sum_e x_e L_e Z_e / L.  No pair is integrated:
an element's slots are built when a later degree's lower sum, or field_raw,
reads them.  Fractions are built once, for ClosureResult.brackets, and in a
non-integral lam.

Every other pair is summed, with no reduction and no field.  Degree d is
spanned by the brackets of a generator with a degree-(d - 1) element, so
each element is the raw field of a defining pair led by a generator, A =
[Z_g, Q] (BasisElement.pair), and by the Jacobi identity

    [A, B] = [Z_g, [Q, B]] - [Q, [Z_g, B]]:

[Q, B] and [Z_g, B] are entries of lower degree, and each of their terms Z
brackets to [Z_g, Z], a generator pair of degree d, or to [Q, Z], whose
first member Q precedes A in index order.  Slot j of a bracket reads only
slots <= j of its arguments, so the fields that vanish on slots 0..N form an
ideal and the order-N table is a Lie algebra, where Jacobi holds; and the
coordinates over independent elements are unique, so the sum is the entry
that the connection span and the jets would give.

The lower sums decide on a weight window.  Slot j of a degree-d element has
weight j - d, and the recursion builds slot k + 1 from slot k of the lower
elements, all of weight k + 1 - d.  So with N = order, degree d is decided
on slots 0..n = min(d + w, N), from lower sums on slots 0..n - 1, and w = 1
at degree 2.  The window is a projection of the order-N jet vector, and a
projection is linear, so a candidate new on the window is new at order N.
A relation the window finds and the connection span does not may be one
that order N breaks (a truncated closure undercounts a non-integrable f);
then w doubles, up to n = N and kept by the later degrees, and the degree's
elements and that candidate are re-decided on the wider window.  Hence below
N every connection row stands for an element; at n = N none is kept, as a
candidate's row may stand for a relation there.  So every relation comes
from the connection vectors or from the lower sums at order N, every
decision, table entry and undercount is the order-N jets', and every
certificate is N: a relation holds on the min(N_A, N_B) = N slots that the
jet bracket of two full-order fields keeps.

A pair is decided inside its bigrading block.  [A, B] has bigrading
(d, r) = (d_A + d_B, r_A + r_B), and every key (s, i) of its connection
vector has s + r_i = r with Z_i of degree d - 1, so the connection vectors
of distinct blocks have disjoint supports; every term of a (d, r) element's
slots carries e^{r u} (the homogeneity guard), and so does every term of a
lower sum, so a lower sum keys on the slot and the monomial alone and
distinct r have disjoint ones too.  Elimination never mixes disjoint
supports, so one connection span and one jet span per block give the same
decisions and the same unique coordinates as one span for all of them,
while each reduction visits only its block's rows.  A doubling still
re-decides every block of its degree.

An element is stored as packed slots, built, read and extended only by the
D-recursion; the lower sums and the homogeneity guard, which checks every
slot the closure builds, key on its packed monomials.  Its JetField,
field_raw, wraps those same slots, extended to valid order N on first read.
When a target structure-constant rule is supplied, the table is in reference
normalization: Z_n = (1/k_{q,l}) [Z_q, Z_l] for the first pair q < l,
q + l = n with a nonzero target constant k.  The scales are int pairs p_n/q_n
from the raw int entries, so a coefficient c p_i p_j q_k / (den q_i q_j p_k)
is one Fraction; each element keeps its scale p_n/q_n as norm_scale.
The rule reproduces the defining recursions of both reference bases, so the
tables compare literally.  Without a target the table is the raw one.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Optional

from . import exactring as xr
from . import jetfield as jf
from .jetfield import Bigrading, JetField
from .linalg import LinearSpan, cleared
from .loopalg import matrix_structure_constant, natural_degree


class ClosureError(ValueError):
    pass


class MismatchError(ArithmeticError):
    """The generated algebra contradicts the supplied target structure constants."""


class BasisElement:
    def __init__(self, index: int, name: str, slots: list, norm_scale: Fraction, degree: int,
                 eigenvalue: int, connection: dict, lower: dict, order: int, pair=None):
        self.index = index            # position in the reference basis; name = prefix + index
        self.name = name
        self.slots = slots            # packed slots 0..N built so far; 0 = the (empty) u slot
        self.norm_scale = norm_scale
        self.degree = degree          # natural degree (= d of the operator bigrading)
        self.eigenvalue = eigenvalue  # ad-X_0 eigenvalue (= r of the operator bigrading)
        self.connection = connection  # [D, Z] = sum c e^{s*u} Z_i over {(s, i): c}; Z_0 = X_0
        self.lower = lower            # i -> the element Z_i of the connection
        self.order = order            # the valid order of field_raw
        self.pair = pair              # (g, q) if field_raw is the table pair [Z_g, Z_q]

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


def serre_rungs(x: BasisElement, y: BasisElement, m: int) -> list:
    """ad_x^k y, k = 0..m, from the generators alone: [D, x] = c_x e^{a u} X_0,
    [D, y] = c_y e^{b u} X_0 and x(g(u)) = 0 give [D, ad_x^k y] = c_x (r_0 + ...
    + r_{k-1}) e^{a u} ad_x^{k-1} y (and -a c_y e^{b u} x at k = 1), r_i = b + i a."""
    a, b = x.eigenvalue, y.eigenvalue
    rungs = [y]
    for k in range(1, m + 1):
        lam = {(a, k - 1): x.connection[(a, 0)] * sum(b + i * a for i in range(k))}
        if k == 1:
            lam[(b, -1)] = -a * y.connection[(b, 0)]   # lower element -1 is x
        lam = {key: c for key, c in lam.items() if c}
        rungs.append(BasisElement(0, f"ad^{k} {x.name} ({y.name})", [{}], Fraction(1), k + 1,
                                  b + k * a, lam,
                                  {i: rungs[i] if i >= 0 else x for _, i in lam}, x.order))
    return rungs


class ClosureResult:
    def __init__(self, order: int, max_degree: int, toral_name: str, elements: list,
                 brackets: dict):
        self.order = order
        self.max_degree = max_degree
        self.toral_name = toral_name
        self.elements = elements    # BasisElement, by index 1..n
        self.brackets = brackets    # (i, j) index pair, i<j -> tuple[(k, Fraction), ...]
                                    # normalized, each built once, exact on jets to `order`

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


def _vectorize(slots: list, start: int = 0) -> dict:
    """Coefficient vector of packed slots start.., keyed by m << 16 | j for
    the term c e^{r u} m of slot j: the homogeneity guard gives every term of
    an element the one exponent r of its block, and j < order < 2^15."""
    return {m << 16 | j: c for j, q in enumerate(slots, start) for p in q.values()
            for m, c in p.items()}


def _int_sum(terms) -> tuple:
    """sum_t num_t/den_t * vec_t over int vectors vec_t, as (nums, L) in lowest
    terms: int numerators without zeros over L > 0, summed over lcm(den_t)."""
    L = lcm(*(den for _, den, _ in terms))
    out: dict = {}
    for num, den, vec in terms:
        m = num * (L // den)
        for k, v in vec.items():
            out[k] = out.get(k, 0) + m * v
    g = gcd(L, *out.values())
    return {k: v // g for k, v in out.items() if v}, L // g


def generate(
    f: xr.Quasi,
    order: int,
    max_degree: int,
    prefix: str = "Z",
    target: Optional[Callable[[int, int], Fraction]] = None,
) -> ClosureResult:
    """Closure of <X_0, X(f)> through natural degree max_degree at truncation order.

    Pairs are taken by degree, from the slices of elements whose degrees add
    up to it.  Below full order a pair led by a generator has its connection
    vector reduced once in its block's connection span, and a vector in the
    span gives the pair's coordinates without a field.  Any other such pair
    is decided by its lower sum sum_i lam_i e^{(r - r_i) u} Z_i, which the
    pair's jets would decide alike, on a weight window that starts at 1 and
    doubles, up to the full order, on each relation the connections miss.
    Every other pair is summed from earlier entries by the Jacobi identity.
    An element's slots are built only when a later degree or field_raw reads
    them.  Every entry is exact up to `order` (the module docstring says why
    this is the order-N jet closure's table).

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
    w = 1                               # the weight window; doubles on a relation it finds
    elements: list[BasisElement] = []   # by index; a degree's elements join after its pairs
    raw_expr: dict = {}                 # (idx_i, idx_j) -> ({element: int}, den)

    x0 = BasisElement(0, f"{prefix}0", [{0: {0: 1}}], Fraction(1), 0, 0, {}, {}, order)
    for alpha in sorted(f, reverse=True):
        idx = len(elements) + 1
        # each ad-X_0 eigencomponent c X(e^{alpha u}) of X(f) is normalized to
        # sign(c) X(e^{alpha u}), and [D, X(g)] = -g X_0
        sign = 1 if f[alpha][xr.MONO_ONE] > 0 else -1
        elements.append(BasisElement(idx, f"{prefix}{idx}", [{}], Fraction(1), 1, alpha,
                                     {(alpha, 0): -sign}, {0: x0}, order))
    bounds = {1: (0, len(elements))}    # degree -> its slice of elements

    def entry(i: int, j: int) -> tuple:
        """(sign, nums, den) of the raw [Z_i, Z_j] = sign * sum nums[el]/den el, Z_0 = X_0."""
        if i == j:
            return 1, {}, 1
        if i == 0 or j == 0:
            el = elements[i + j - 1]
            return (1 if i == 0 else -1), {el: el.eigenvalue}, 1
        return (1, *raw_expr[(i, j)]) if i < j else (-1, *raw_expr[(j, i)])

    def lower_sum(lam: dict) -> dict:
        """The int vector of sum_i lam_i e^{(r - r_i) u} (Z_i)_k on slots 0..n - 1."""
        out: dict = {}
        for (_, i), c in lam.items():
            if i not in lower_vecs:
                elements[i - 1].extend(n - 1)
                lower_vecs[i] = _vectorize(elements[i - 1].slots[:n])
            xr.vec_iadd_scaled(out, lower_vecs[i], c)
        return out

    for d in range(2, max_degree + 1):
        new_here: list[BasisElement] = []
        scaled: dict = {}                       # element -> (L * lam, L), its rows' vectors
        connections = defaultdict(LinearSpan)   # r -> L * connection vectors, rows over elements
        spans = defaultdict(LinearSpan)         # r -> their lower sums
        n = min(d + w, order)           # the slots this degree is decided on
        lower_vecs: dict = {}           # index -> slots 0..n - 1 of a degree-(d - 1) element
        for a, ei in enumerate(elements):
            lo, hi = bounds.get(d - ei.degree, (0, 0))   # empty past ei
            for ej in elements[max(lo, a + 1):hi]:
                pair = (ei.index, ej.index)
                if ei.pair:
                    # ei = [Z_g, Q], so [ei, ej] = [Z_g, [Q, ej]] - [Q, [Z_g, ej]]
                    g, q = ei.pair
                    terms = []
                    for k, sign, (nums, den) in ((g, 1, raw_expr[(q, ej.index)]),
                                                 (q, -1, raw_expr[(g, ej.index)])):
                        for e, v in nums.items():
                            knums, kden = raw_expr[(k, e.index)]
                            terms.append((sign * v, den * kden, knums))
                    raw_expr[pair] = _int_sum(terms)
                    continue
                r = ei.eigenvalue + ej.eigenvalue
                # [D, [A, B]] = [[D, A], B] + [A, [D, B]], and [e^{su} Z, B] = e^{su} [Z, B]
                # because B annihilates functions of u; lam is summed in ints, as L * lam,
                # and a term Z of an entry it reads has the key (r - r_Z, Z)
                parts = [(c, entry(i, ej.index)) for (_, i), c in ei.connection.items()]
                parts += [(c, entry(ei.index, j)) for (_, j), c in ej.connection.items()]
                lam, L = _int_sum([(sign * c.numerator, den * c.denominator, nums)
                                   for c, (sign, nums, den) in parts])
                lam = {(r - el.eigenvalue, el.index): v for el, v in lam.items()}
                el = BasisElement(0, f"[{ei.name},{ej.name}]", [{}], Fraction(1), d, r, {
                    key: c // L if not c % L else Fraction(c, L) for key, c in lam.items()},
                    {i: elements[i - 1] for _, i in lam}, order, pair)
                scaled[el] = lam, L
                # below full order the connection span may give a relation; else
                # the lower sum decides, as the pair's jets would
                expr = connections[r].insert(lam, el) if n < order else None
                if expr is None:
                    expr = spans[r].insert(lower_sum(lam), el)
                    while expr is not None and n < order:
                        # the window may see a relation that full order breaks:
                        # it doubles, and this degree's candidates are re-decided
                        w *= 2
                        m, n, spans = n, min(d + w, order), defaultdict(LinearSpan)
                        for i, vec in lower_vecs.items():
                            elements[i - 1].extend(n - 1)
                            vec.update(_vectorize(elements[i - 1].slots[m:n], m))
                        for z in (*new_here, el):
                            expr = spans[z.eigenvalue].insert(lower_sum(scaled[z][0]), z)
                    if expr is None:
                        new_here.append(el)
                        expr = {el: 1}, 1
                # a tag t's rows are L_t times its element's vectors
                nums, den = expr
                nums, den = {e: v * scaled[e][1] for e, v in nums.items()}, den * L
                g = gcd(den, *nums.values())
                raw_expr[pair] = {e: v // g for e, v in nums.items()}, den // g
        # reference index order within a degree: eigenvalue descending, then
        # discovery (the sort is stable)
        bounds[d] = len(elements), len(elements) + len(new_here)
        for el in sorted(new_here, key=lambda e: -e.eigenvalue):
            el.index = len(elements) + 1
            el.name = f"{prefix}{el.index}"
            elements.append(el)

    if target is None:
        brackets = {key: tuple(sorted((el.index, Fraction(c, den)) for el, c in nums.items()))
                    for key, (nums, den) in raw_expr.items()}
        return ClosureResult(order, max_degree, f"{prefix}0", elements, brackets)
    s = _normalization_scales(elements, raw_expr, target)
    for el in elements:
        el.norm_scale = Fraction(*s[el.index])
    brackets = {}
    for (i, j), (nums, den) in raw_expr.items():
        (pi, qi), (pj, qj) = s[i], s[j]     # [s_i Z_i, s_j Z_j] = sum s_i s_j c_k / s_k (s_k Z_k)
        brackets[i, j] = tuple(sorted((e.index, Fraction(c * pi * pj * s[e.index][1],
                                                         den * qi * qj * s[e.index][0]))
                                      for e, c in nums.items()))
    return ClosureResult(order, max_degree, f"{prefix}0", elements, brackets)


def _normalization_scales(elements, raw_expr, target) -> list:
    """Scale factors (p_n, q_n) by basis index, X_0's (1, 1) first, q_n > 0 in lowest
    terms: normalized_n = (p_n / q_n) raw_n, from the target rule and raw_expr."""
    scales = [(1, 1)] * (len(elements) + 1)
    for n in range(3, len(scales)):
        for q in range(1, (n + 1) // 2):
            l = n - q
            kappa = target(q, l)
            if not kappa:
                continue
            nums, den = raw_expr.get((q, l), ({}, 1))
            if [e.index for e in nums] != [n]:
                coeffs = dict(sorted((e.index, Fraction(c, den)) for e, c in nums.items()))
                raise MismatchError(
                    f"[{q},{l}] should be {kappa} * element {n} but the jet side gives {coeffs}")
            (pq, qq), (pl, ql), (lam,) = scales[q], scales[l], nums.values()
            num, div = pq * pl * lam * kappa.denominator, qq * ql * den * kappa.numerator
            g = gcd(num, div) if div > 0 else -gcd(num, div)
            scales[n] = num // g, div // g
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
            xr.vec_iadd_scaled(out, dict(result.bracket_coeffs(a, b)), ca * cb)
    return out


def _word_span_dims(result: ClosureResult, generators: list) -> dict:
    span = LinearSpan()
    for g in generators:    # distinct unit vectors
        span.insert({g: 1}, ("g", g))
    frontier = gen_vecs = [{g: Fraction(1)} for g in generators]
    dims = {1: len(span)}
    for n in range(2, result.max_degree + 1):
        new_frontier = []
        for g in gen_vecs:
            for w in frontier:
                b = _abstract_bracket(result, g, w)
                if b and span.insert(cleared(b)[0], ("w", n, len(span))) is None:
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

# Basis labels with degrees and a closed-form bracket rule on label pairs:
# degree_of(label) -> int, rule(a, b) -> tuple[(label, int), ...] and
# labels_up_to(degree) -> list.
PresentedAlgebra = namedtuple("PresentedAlgebra", "name degree_of rule labels_up_to")


def _e_degree(label: str) -> int:
    i = int(label[1:])
    return 1 if i == 1 else i - 1


def presented_m0() -> PresentedAlgebra:
    """[e_1, e_i] = e_{i+1} for i >= 2; all other brackets vanish: m0^S with S empty."""
    return presented_m0_S(frozenset())._replace(name="m0")


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
        d = matrix_structure_constant("n2", q, l)
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
    """Jacobi identity over all triples of distinct labels of
    labels_up_to(degree_bound), in label order.

    Repeated-label triples hold identically by antisymmetry of the rules and
    are skipped.  The labels are interned to ints, and rows[x][z] = [x, z]
    is built once over the labels z, for each label x and each x that a
    bracket of two labels reaches: the rule runs at most once per ordered
    pair, and a triple only indexes lists.  Returns {"ok", "triples",
    "violation"}, the violation in labels.
    """
    labels = alg.labels_up_to(degree_bound)
    names = list(labels)
    ids = {lbl: x for x, lbl in enumerate(names)}

    def intern(terms) -> list:
        out = []
        for lbl, c in terms:
            if lbl not in ids:
                ids[lbl] = len(names)
                names.append(lbl)
            out.append((ids[lbl], c))
        return out

    n = len(labels)
    rows = [[intern(alg.rule(a, b)) for b in labels] for a in labels]
    rows += [[intern(alg.rule(a, b)) for b in labels] for a in names[n:]]
    checked = 0
    for i in range(n):
        row_i = rows[i]
        for j in range(i + 1, n):
            ab, row_j = row_i[j], rows[j]
            for k in range(j + 1, n):
                acc: dict = {}
                for x, cxy in ab:               # [[a, b], c]
                    for t, v in rows[x][k]:
                        acc[t] = acc.get(t, 0) + cxy * v
                for x, cxy in row_j[k]:         # [[b, c], a]
                    for t, v in rows[x][i]:
                        acc[t] = acc.get(t, 0) + cxy * v
                for x, cxy in rows[k][i]:       # [[c, a], b]
                    for t, v in rows[x][j]:
                        acc[t] = acc.get(t, 0) + cxy * v
                checked += 1
                if any(acc.values()):
                    residual = {names[t]: v for t, v in acc.items() if v}
                    return {"ok": False, "triples": checked,
                            "violation": (labels[i], labels[j], labels[k], residual)}
    return {"ok": True, "triples": checked, "violation": None}


def presented_growth(alg: PresentedAlgebra, n: int) -> int:
    return sum(1 for lbl in alg.labels_up_to(n) if alg.degree_of(lbl) <= n)
