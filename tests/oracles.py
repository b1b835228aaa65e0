"""Exact references that the tests check charlie against and that no charlie
command runs, so they live here and not in src/charlie.

One section per program module they restate or build beside: exactring's
substitution, exponentials, partial derivatives and term-by-term text;
jetfield's linear structure on fields, D and the bigrading of a field; the
normalized field and the lookups of a closure, and the Jacobi check of a
presented algebra by label strings; the 2x2 systems of the paper's introduction;
and loopalg's closed-form sl(2) constants, the sl(3) twist, the natural
grading components, the recursive canonical bigrading and the real forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from charlie import exactring as xr
from charlie import jetfield as jf
from charlie import loopalg as la


# ---------------------------------------------------------------------------
# exactring
# ---------------------------------------------------------------------------

def poly_substitute(a: xr.Poly, images: dict) -> xr.Poly:
    """Substitute u_i -> images[i] (missing indices keep u_i)."""
    out: xr.Poly = {}
    for m, c in a.items():
        term = xr.poly_const(c)
        for idx, exp in m:
            base = images.get(idx, xr.poly_var(idx))
            for _ in range(exp):
                term = xr.poly_mul(term, base)
        out = xr.vec_add_scaled(out, term, 1)
    return out


def qp_exp(alpha: int, coeff=1) -> xr.Quasi:
    """coeff * e^{alpha*u}"""
    p = xr.poly_const(coeff)
    return {alpha: p} if p else {}


def qp_scale(a: xr.Quasi, c) -> xr.Quasi:
    c = Fraction(c)
    if not c:
        return {}
    return {al: xr.poly_scale(p, c) for al, p in a.items()}


def qp_derive_uk(a: xr.Quasi, k: int) -> xr.Quasi:
    if k < 1:
        raise ValueError(f"jet variable index must be >= 1, got {k}")
    return {al: d for al, p in a.items() if (d := xr.poly_diff(p, k))}


def qp_max_index(a: xr.Quasi) -> int:
    return max((xr.poly_max_index(p) for p in a.values()), default=0)


def qp_to_text(a: xr.Quasi, homogeneous: bool = False) -> str:
    """The canonical text, term by term: terms by exponential index
    descending, then by (weight, lex) monomial order, or lex alone when
    `homogeneous`; each monomial joined from its own factors."""
    if not a:
        return "0"
    chunks: list[str] = []
    for alpha in sorted(a, reverse=True):
        p = a[alpha]
        for m in sorted(p) if homogeneous else sorted(p, key=xr.mono_key):
            c = p[m]
            parts = [xr.frac_text(abs(c))]
            if alpha != 0:
                parts.append(xr._exp_text(alpha))
            if m:
                parts.append("*".join(f"u{i}" if e == 1 else f"u{i}^{e}" for i, e in m))
            term = " * ".join(parts)
            if not chunks:
                chunks.append(term if c > 0 else "-" + term)
            else:
                chunks.append(("+ " if c > 0 else "- ") + term)
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# jetfield: fields as values
# ---------------------------------------------------------------------------

def slot(X: jf.JetField, j: int) -> xr.Quasi:
    """Coefficient j of X (0 = the u slot), unpacked."""
    if not 0 <= j <= X.valid_order:
        raise jf.TruncationError(f"slot {j} outside valid order {X.valid_order}")
    return jf._unpacked(X.coeffs[j])


def is_zero(X: jf.JetField) -> bool:
    return not any(X.coeffs)


def zero_field(order: int) -> jf.JetField:
    return jf.make_field({}, [{} for _ in range(order)])


def make_D(order: int) -> jf.JetField:
    """D = u_1 d/du + u_2 d/du_1 + u_3 d/du_2 + ...; operator bigrading (-1, 0)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    u = [{0: {((k, 1),): 1}} for k in range(1, order + 2)]    # u_1 .. u_{order+1}, int 1
    return jf.make_field(u[0], u[1:])


def field_add(X: jf.JetField, Y: jf.JetField) -> jf.JetField:
    return jf.JetField(tuple(xr.qp_add(a, b) for a, b in zip(X.coeffs, Y.coeffs)))


def field_scale(X: jf.JetField, c) -> jf.JetField:
    return jf.JetField(tuple(qp_scale(q, c) for q in X.coeffs))


def truncate(X: jf.JetField, order: int) -> jf.JetField:
    if order < 1:
        raise ValueError(f"valid order must be >= 1, got {order}")
    if order > X.valid_order:
        raise jf.TruncationError(f"cannot extend valid order {X.valid_order} to {order}")
    return jf.JetField(X.coeffs[:order + 1])


def fields_equal(X: jf.JetField, Y: jf.JetField) -> bool:
    """Equality on the common valid range (and u slots)."""
    return all(a == b for a, b in zip(X.coeffs, Y.coeffs))


def bigrading_of(X: jf.JetField):
    """Homogeneity type: slot j = e^{r*u} * (weight j-d), u slot e^{r*u} * (weight -d)."""
    return jf.packed_bigrading(X.coeffs)


# ---------------------------------------------------------------------------
# closure results
# ---------------------------------------------------------------------------

def field(el) -> jf.JetField:
    """A closure element's normalized field, norm_scale * field_raw."""
    return el.field_raw if el.norm_scale == 1 else field_scale(el.field_raw, el.norm_scale)


def pair_connection(res, a, b):
    """lam of [Z_a, Z_b] from the table: sum_i lam^A_i [Z_i, B] + sum_j lam^B_j [A, Z_j],
    keyed (r - r_k, k) for each element Z_k it names."""
    A, B = res.elements[a - 1], res.elements[b - 1]
    lam: dict = {}
    for (_, i), c in A.connection.items():
        for k, x in res.bracket_coeffs(i, b):
            xr.vec_iadd_scaled(lam, {k: x}, c)
    for (_, j), c in B.connection.items():
        for k, x in res.bracket_coeffs(a, j):
            xr.vec_iadd_scaled(lam, {k: x}, c)
    r = A.eigenvalue + B.eigenvalue
    return {(r - res.elements[k - 1].eigenvalue, k): c for k, c in lam.items()}


def by_name(res, name: str):
    for el in res.elements:
        if el.name == name:
            return el
    raise KeyError(name)


def dims_by_degree(res) -> dict:
    dims: dict = {}
    for el in res.elements:
        dims[el.degree] = dims.get(el.degree, 0) + 1
    return dims


def jacobi_check(alg, degree_bound: int) -> dict:
    """closure.jacobi_check by label strings: the rule is cached per label
    pair and every bracket is looked up by its pair of labels."""
    labels = alg.labels_up_to(degree_bound)
    bracket = cache(alg.rule)
    checked = 0
    for i, a in enumerate(labels):
        for j in range(i + 1, len(labels)):
            b = labels[j]
            ab = bracket(a, b)
            for c in labels[j + 1:]:
                acc: dict = {}
                for xy, z in ((ab, c), (bracket(b, c), a), (bracket(c, a), b)):
                    for lbl, cxy in xy:
                        for k, v in bracket(lbl, z):
                            acc[k] = acc.get(k, 0) + cxy * v
                checked += 1
                if any(acc.values()):
                    residual = {k: v for k, v in acc.items() if v}
                    return {"ok": False, "triples": checked, "violation": (a, b, c, residual)}
    return {"ok": True, "triples": checked, "violation": None}


# ---------------------------------------------------------------------------
# analysis: the 2x2 exponential systems of the introduction
# ---------------------------------------------------------------------------

INTRO_MATRICES = (
    ((2, 0), (0, 2)),
    ((2, -1), (-1, 2)),
    ((2, -2), (-1, 2)),
    ((2, -3), (-1, 2)),
    ((2, -2), (-2, 2)),
    ((2, -4), (-1, 2)),
)


# ---------------------------------------------------------------------------
# loopalg
# ---------------------------------------------------------------------------

def sl2_bracket_constant(i: int, j: int) -> Fraction:
    """c_{i,j} of [e_i, e_j] = c_{i,j} e_{i+j}: +1 / 0 / -1 as j-i = 1 / 0 / -1 mod 3."""
    s = (j - i) % 3
    return Fraction(0) if s == 0 else (Fraction(1) if s == 1 else Fraction(-1))


# eigenspaces of the diagram automorphism: g_0 (eigenvalue +1), g_1 (eigenvalue -1)
G0_KEYS = (-1, 0, 1)
G1_KEYS = (2, 3, 4, 5, 6)


def mu_twist(m: dict) -> dict:
    """Diagram automorphism of sl(3) on each t-power component: entry (i, j)
    goes to (2 - j, 2 - i) with sign -(-1)^(i + j)."""
    return la.lm({(2 - j, 2 - i, p): v if (i + j) % 2 else -v for (i, j, p), v in m.items()})


def twist_check(m: dict) -> bool:
    """True iff every t^p component lies in the (-1)^p eigenspace of the twist."""
    return mu_twist(m) == {(i, j, p): -v if p % 2 else v for (i, j, p), v in m.items()}


def natural_grading_basis(algebra: str, degree: int) -> list:
    """Labels of the homogeneous component of the given natural degree."""
    row = la.ALGEBRAS[algebra]
    return [f"{row.prefix}{i}" for i in range(1, row.period * (degree + 1))
            if la.natural_degree(algebra, i) == degree]


def canonical_bigrading_recursive(algebra: str, index: int) -> tuple:
    """Canonical bigradings computed by recursion over generating brackets of
    the matrices, checking that all generating pairs agree."""
    memo: dict = {0: (0, 0), 1: (1, 0), 2: (0, 1)}  # index 0 is toral

    def grade(n: int) -> tuple:
        if n in memo:
            return memo[n]
        results = set()
        for q in range(1, n // 2 + 1):
            l = n - q
            if q != l and la.matrix_structure_constant(algebra, q, l):
                gq, gl = grade(q), grade(l)
                results.add((gq[0] + gl[0], gq[1] + gl[1]))
        if len(results) != 1:
            raise ArithmeticError(f"canonical grading of index {n} not determined: {results}")
        memo[n] = results.pop()
        return memo[n]

    return grade(index)


# real forms: u, v+/-, w+/- inside so(3)[t] and so(2,1)[t]

def real_u(k: int) -> dict:
    """u_{2k-1} = (E12 - E21) t^{2k-1}."""
    if k < 1:
        raise ValueError("u is indexed by odd 2k-1 with k >= 1")
    p = 2 * k - 1
    return la.lm({(0, 1, p): 1, (1, 0, p): -1})


def real_v(sign: int, k: int) -> dict:
    """v^{+-}_{2k-1} = (E23 -+ E32) t^{2k-1}."""
    if k < 1 or sign not in (1, -1):
        raise ValueError("v is indexed by odd 2k-1 with k >= 1 and sign +-1")
    p = 2 * k - 1
    return la.lm({(1, 2, p): 1, (2, 1, p): -sign})


def real_w(sign: int, k: int) -> dict:
    """w^{+-}_{2k} = (E13 -+ E31) t^{2k}."""
    if k < 1 or sign not in (1, -1):
        raise ValueError("w is indexed by even 2k with k >= 1 and sign +-1")
    p = 2 * k
    return la.lm({(0, 2, p): 1, (2, 0, p): -sign})


def real_form_bracket(sign: int, family: tuple, k: int, l: int):
    """Exact bracket of two real-form elements with its expected label.

    Relations (indices chosen so the t-degrees add up):
      [u_{2k-1}, v_{2l-1}] = w_{2(k+l)-2}
      [v_{2k-1}, w_{2l}]   = sign * u_{2(k+l)-1}
      [w_{2k},   u_{2l-1}] = v_{2(k+l)-1}
    Returns (computed, expected, label) with exact matrices.
    """
    if family == ("u", "v"):
        got = la.lm_commutator(real_u(k), real_v(sign, l))
        return got, real_w(sign, k + l - 1), f"w{2 * (k + l) - 2}"
    if family == ("v", "w"):
        got = la.lm_commutator(real_v(sign, k), real_w(sign, l))
        label = f"{'+' if sign > 0 else '-'}u{2 * (k + l) - 1}"
        return got, la.lm_add(real_u(k + l), {}, sign), label
    if family == ("w", "u"):
        got = la.lm_commutator(real_w(sign, k), real_u(l))
        return got, real_v(sign, k + l), f"v{2 * (k + l) - 1}"
    raise ValueError(f"unknown relation family {family!r}")
