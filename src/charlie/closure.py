"""Bracket closure of the characteristic algebra of u_xy = f(u), plus
finitely-presented graded algebras with closed-form structure constants.

generate() builds the algebra breadth-first by natural degree with exact
independence detection (sparse Gaussian elimination over the rationals on
truncated coefficient vectors), records for every computed pair -- those that
gave a new element as well as the dependent ones -- the valid order of its
bracket as a certificate, and keeps the toral element d/du separate so the
result splits as <X_0> acting on the commutant-side basis.

Discovered elements are stored raw (first-found bracket) and, when a target
structure-constant rule is supplied, also in reference normalization:
Z_n = (1/k_{q,l}) [Z_q, Z_l] for the first pair q < l, q + l = n with a
nonzero target constant k.  That rule reproduces the defining recursions
of both reference bases, so reported tables compare literally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import exactring as xr
from . import jetfield as jf
from .jetfield import Bigrading, JetField
from .linalg import LinearSpan
from .loopalg import n2_natural_degree, sl3_bracket_constant


class ClosureError(ValueError):
    pass


class MismatchError(ArithmeticError):
    """The generated algebra contradicts the supplied target structure constants."""


@dataclass
class BasisElement:
    index: int                  # position in the reference basis; name = prefix + index
    name: str
    field_raw: JetField         # first-found bracket result
    field: JetField             # normalized: norm_scale * field_raw
    norm_scale: Fraction
    degree: int                 # natural degree (= d of the operator bigrading)
    eigenvalue: int             # ad-X_0 eigenvalue (= r of the operator bigrading)
    bigrading: Bigrading
    canonical: Optional[tuple]  # generator-count bigrading (p, q); None if undefined
    pid: int = -1               # stable discovery id; .index is the reference position


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


def _vectorize(X: JetField) -> dict:
    """Coefficient vector keyed by (slot, exp index, monomial); slot 0 = u slot."""
    vec: dict = {}
    for alpha, p in X.u_slot.items():
        for m, c in p.items():
            vec[(0, alpha, m)] = c
    for j in range(1, X.valid_order + 1):
        for alpha, p in X.slots[j - 1].items():
            for m, c in p.items():
                vec[(j, alpha, m)] = c
    return vec


def eigencomponents(f: xr.Quasi, order: int) -> list[tuple[int, JetField]]:
    """(alpha, field) per exponential index of f, alpha descending.

    Each ad-X_0 eigencomponent of X(f) is c_alpha * X(e^{alpha u}); the
    reference normalization scales it to sign(c_alpha) * X(e^{alpha u}),
    built directly as X(sign * e^{alpha u}) with int coefficients.
    """
    if not xr.qp_is_exponential_only(f) or not f:
        raise ClosureError("closure needs a nonzero pure exponential sum f(u)")
    out = []
    for alpha in sorted(f, reverse=True):
        sign = 1 if f[alpha][xr.MONO_ONE] > 0 else -1
        out.append((alpha, jf.make_Xf(xr.qp_exp(alpha, sign), order)))
    return out


def generate(
    f: xr.Quasi,
    order: int,
    max_degree: int,
    prefix: str = "Z",
    target: Optional[Callable[[int, int], Fraction]] = None,
) -> ClosureResult:
    """Closure of <X_0, X(f)> through natural degree max_degree at truncation order.

    target, when given, maps an index pair (q, l) to the reference structure
    constant used for normalization; a contradiction raises MismatchError.
    """
    if max_degree < 1:
        raise ClosureError(f"degree {max_degree} must be at least 1")
    if order <= max_degree + 2:
        raise ClosureError(f"order {order} too small for degree {max_degree} (need order > degree+2)")
    span = LinearSpan()                 # tags = stable discovery ids (pids)
    elements: list[BasisElement] = []   # in discovery order; .index assigned per degree
    raw_expr: dict = {}                 # (idx_i, idx_j) -> tuple[(pid_k, Fraction)]
    certs: dict = {}
    by_index: dict = {}

    def settle(el: BasisElement, idx: int) -> None:
        el.index = idx
        el.name = f"{prefix}{idx}"
        by_index[idx] = el

    degree_one = eigencomponents(f, order)
    for alpha, fld in degree_one:
        pid = len(elements)
        big = jf.bigrading_of(fld)
        assert big == Bigrading(1, alpha)
        canonical = (1, 0) if pid == 0 else ((0, 1) if pid == 1 else None)
        if len(degree_one) > 2:
            canonical = None
        el = BasisElement(0, "", fld, fld, Fraction(1), 1, alpha, big, canonical)
        el.pid = pid
        elements.append(el)
        settle(el, pid + 1)
        span.insert(_vectorize(fld), pid)

    for d in range(2, max_degree + 1):
        pair_sums = {a.degree + b.degree for a, b in itertools.combinations(elements, 2)}
        if not pair_sums or max(pair_sums) < d:
            break  # no candidate brackets remain
        candidates = sorted(
            (min(a.index, b.index), max(a.index, b.index))
            for a, b in itertools.combinations(elements, 2) if a.degree + b.degree == d)
        new_here: list[BasisElement] = []
        for (i, j) in candidates:
            ei, ej = by_index[i], by_index[j]
            br = jf.bracket(ei.field_raw, ej.field_raw)
            vec = _vectorize(br)
            expr = span.express(vec)
            certs[(i, j)] = br.valid_order
            if expr is not None:
                raw_expr[(i, j)] = tuple(sorted(expr.items()))
                continue
            big = jf.bigrading_of(br)
            if big is None or big.d != d or big.r != ei.eigenvalue + ej.eigenvalue:
                raise ClosureError(f"inhomogeneous bracket [{ei.name},{ej.name}]: {big}")
            pid = len(elements)
            canonical = None
            if ei.canonical is not None and ej.canonical is not None:
                canonical = (ei.canonical[0] + ej.canonical[0], ei.canonical[1] + ej.canonical[1])
            el = BasisElement(0, "", br, br, Fraction(1), d, big.r, big, canonical)
            el.pid = pid
            elements.append(el)
            span.insert(vec, pid)
            new_here.append(el)
            raw_expr[(i, j)] = ((pid, Fraction(1)),)
        # reference index order within a degree: eigenvalue descending, then discovery
        start = max(by_index) + 1 if by_index else 1
        for offset, el in enumerate(sorted(new_here, key=lambda e: (-e.eigenvalue, e.pid))):
            settle(el, start + offset)

    pid_to_index = {el.pid: el.index for el in elements}
    raw_expr = {key: tuple(sorted((pid_to_index[p], c) for p, c in coeffs))
                for key, coeffs in raw_expr.items()}
    elements = sorted(elements, key=lambda e: e.index)

    scales = _normalization_scales(elements, raw_expr, target)
    for el, c in zip(elements, scales):
        el.norm_scale = c
        if c != 1:
            el.field = jf.field_scale(el.field_raw, c)
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


def _word_span_dims(result: ClosureResult, generators: list, n_max: int) -> dict:
    span = LinearSpan()
    frontier = []
    gen_vecs = []
    for g in generators:
        vec = {g: Fraction(1)}
        gen_vecs.append(vec)
        if span.insert(dict(vec), ("g", g)):
            frontier.append(vec)
    dims = {1: len(span)}
    for n in range(2, n_max + 1):
        new_frontier = []
        for g in gen_vecs:
            for w in frontier:
                b = _abstract_bracket(result, g, w)
                if b and span.insert(b, ("w", n, len(span))):
                    new_frontier.append(b)
        dims[n] = len(span)
        frontier = new_frontier
    return dims


def commutant_growth_offset(result: ClosureResult, n_max: Optional[int] = None) -> int:
    """Verify F_chi(n) - F_commutant(n) is one constant over the window; return it.

    Both growth functions are recomputed from scratch as word spans over the
    structure table (products of generators of length <= n), independently of
    the degree bookkeeping.
    """
    n_max = n_max or result.max_degree
    gens = [el.index for el in result.elements if el.degree == 1]
    full = _word_span_dims(result, [0] + gens, n_max)
    comm = _word_span_dims(result, gens, n_max)
    offsets = {n: full[n] - comm[n] for n in full}
    values = set(offsets.values())
    if values != {1}:
        raise MismatchError(f"growth offset not the constant 1: {offsets}")
    # the word-span commutant growth must agree with the graded count
    for n in range(1, n_max + 1):
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
    """[e_1, e_i] = e_{i+1} for i >= 2; all other brackets vanish."""
    def rule(a, b):
        i, j = int(a[1:]), int(b[1:])
        if i == 1 and j >= 2:
            return ((f"e{j + 1}", 1),)
        if j == 1 and i >= 2:
            return ((f"e{i + 1}", -1),)
        return ()
    return PresentedAlgebra(
        "m0", _e_degree, rule, lambda d: [f"e{i}" for i in range(1, d + 2)])


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
        return 3 if label == "c" else n2_natural_degree(int(label[1:]))

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
               if n2_natural_degree(i) <= d]
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
