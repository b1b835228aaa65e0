"""Higher-level verifications: x-integral search, the defining equation of
higher symmetries, two-dimensional exponential systems, and the table-level
comparison between the generated jet-side algebra and its matrix realization.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import groupby
from typing import Optional

from . import closure as cl
from . import exactring as xr
from . import jetfield as jf
from . import loopalg as la
from .bell import complete_bell
from .linalg import cleared, nullspace

# canonical right-hand sides f(u), as quasipolynomials
EQUATIONS = {
    "liouville": xr.qp_parse("e^(u)"),
    "sinh": xr.qp_parse("1/2 * e^(u) - 1/2 * e^(-u)"),
    "tzitzeica": xr.qp_parse("e^(u) + e^(-2*u)"),
}

# loop algebra (a key of loopalg.ALGEBRAS, whose matrices give the
# normalizing structure constants) and reference basis-name prefix per equation
TARGETS = {
    "liouville": (None, "X"),
    "sinh": ("n1", "X"),
    "tzitzeica": ("n2", "Y"),
}


def identify_equation(f: xr.Quasi) -> Optional[str]:
    return next((name for name, g in EQUATIONS.items() if g == f), None)


# ---------------------------------------------------------------------------
# x-integrals
# ---------------------------------------------------------------------------

def integral_candidates(weight_bound: int) -> list:
    """Nonconstant u-free jet monomials of weight <= bound, canonically ordered.
    The monomials of B_w are the partitions of w, one each."""
    return sorted((m for w in range(1, weight_bound + 1) for m in complete_bell(w)),
                  key=xr.mono_key)


def find_x_integrals(f: xr.Quasi, weight_bound: int) -> list:
    """Basis of nonconstant x-integrals of weight <= bound: the exact nullspace
    of w -> X(f)w on u-free polynomials, each exponential component of X(f)w
    vanishing separately.  Constants are excluded by construction.  A
    candidate of weight <= bound uses u_k only for k <= bound, so X(f) at
    valid order bound gives every image exactly through apply_field: no
    truncation order enters.  X(f) lowers weight by exactly one, so the system
    is block-diagonal: the candidates of weight w only meet rows of weight
    w - 1, and one nullspace per weight, in the candidates' weight-first
    order, gives the basis of the global one."""
    if weight_bound < 1:
        return []
    candidates = integral_candidates(weight_bound)
    Xf = jf.make_Xf(f, weight_bound)
    images = zip(candidates, jf.apply_field(Xf, [{0: {m: 1}} for m in candidates]))
    basis: list = []
    for _, block in groupby(images, key=lambda pair: xr.mono_weight(pair[0])):
        rows: dict = {}  # (alpha, out-monomial) -> {candidate: coeff}
        columns = []
        for m, img in block:
            columns.append(m)
            for alpha, p in img.items():
                for om, c in p.items():
                    rows.setdefault((alpha, om), {})[m] = c
        basis += nullspace(list(rows.values()), columns)
    return basis


def annihilates(f: xr.Quasi, ws: list) -> list:
    """Exact check X(f) w = 0, one bool per w.
    It runs the same apply_field as find_x_integrals, so re-verifying a found
    integral checks the nullspace solution, not a second kernel.  X(f) is built
    only through the ws' top index, the last slot read, so no truncation order
    enters, and each w is cleared to int coefficients: a nonzero scale does
    not change whether X(f) w = 0."""
    top = max((xr.poly_max_index(w) for w in ws), default=0)
    Xf = jf.make_Xf(f, max(1, top))
    qs = [xr.qp_from_poly(cleared(w)[0]) for w in ws]
    return [xr.qp_is_zero(q) for q in jf.apply_field(Xf, qs)]


# ---------------------------------------------------------------------------
# defining equation of higher symmetries:  D X(f) phi = f'(u) phi
# ---------------------------------------------------------------------------

def check_defining_equation(f: xr.Quasi, phi: xr.Poly, order: Optional[int] = None):
    """(holds, residual) with residual = D X(f) phi - f'(u) phi, exact.
    X(f) is read only through phi's top index, whatever the order."""
    top = xr.poly_max_index(phi)
    order = order or top + 2
    if order < top + 2:
        raise ValueError(f"order {order} too small for phi with top index {top}")
    Xf = jf.make_Xf(f, max(1, top))
    lhs = jf.apply_total_derivative(jf.apply_field(Xf, [xr.qp_from_poly(phi)])[0])
    residual = xr.qp_sub(lhs, xr.qp_mul(xr.qp_derive_u(f), xr.qp_from_poly(phi)))
    return xr.qp_is_zero(residual), residual


# ---------------------------------------------------------------------------
# two-dimensional exponential systems  u^a_xy = e^{rho_a}
# ---------------------------------------------------------------------------

def _dvar(component: int, i: int) -> int:
    """Variable index for u^component_i in the doubled jet space (component 1 or 2)."""
    return 2 * (i - 1) + component


ExpSystem2D = namedtuple("ExpSystem2D", (
    "matrix",                     # ((a11, a12), (a21, a22)) as Fractions
    "fields",                     # (X_1, X_2) over the interleaved u_{_dvar(a, k)}
))


def build_exp_system(A, order: int) -> ExpSystem2D:
    """Fields X_a = sum_k B_{k-1}(rho_a^1, ..., rho_a^{k-1}) d/du^a_k with
    rho_a^i = a_{a1} u^1_i + a_{a2} u^2_i over u^a_k = u_{_dvar(a, k)}, built
    only through u^a_2, the top variable w2 reads, whatever the order: slot 1
    is B_0 = 1 and slot 2 is rho_a^1."""
    M = tuple(tuple(Fraction(x) for x in row) for row in A)
    if len(M) != 2 or any(len(r) != 2 for r in M):
        raise ValueError("expected a 2x2 matrix")
    if order < 2:
        raise ValueError(f"order {order} too small: w2 uses u^a_2, so the order must be >= 2")
    fields = []
    for a in (1, 2):
        rho = xr.vec_add_scaled(xr.poly_scale(xr.poly_var(_dvar(1, 1)), M[a - 1][0]),
                                xr.poly_var(_dvar(2, 1)), M[a - 1][1])
        slots = [{} for _ in range(_dvar(2, 2))]
        slots[_dvar(a, 1) - 1] = xr.qp_from_poly(xr.poly_const(1))
        slots[_dvar(a, 2) - 1] = xr.qp_from_poly(rho)
        fields.append(jf.make_field({}, slots))
    return ExpSystem2D(M, tuple(fields))


def w2_integral(A) -> xr.Poly:
    """Second-order integral 2 a21 u^1_2 + 2 a12 u^2_2 - a11 a21 (u^1_1)^2
    - 2 a12 a21 u^1_1 u^2_1 - a22 a12 (u^2_1)^2."""
    M = tuple(tuple(Fraction(x) for x in row) for row in A)
    (a11, a12), (a21, a22) = M
    terms = {
        ((_dvar(1, 2), 1),): 2 * a21,
        ((_dvar(2, 2), 1),): 2 * a12,
        ((_dvar(1, 1), 2),): -a11 * a21,
        ((_dvar(1, 1), 1), (_dvar(2, 1), 1)): -2 * a12 * a21,
        ((_dvar(2, 1), 2),): -a22 * a12,
    }
    return {m: c for m, c in terms.items() if c}


def check_w2_integral(sys: ExpSystem2D):
    """X_1 w2 = X_2 w2 = 0, exact, through apply_field; returns (ok, residuals)."""
    w2 = xr.qp_from_poly(w2_integral(sys.matrix))
    r1, r2 = (jf.apply_field(X, [w2])[0].get(0, {}) for X in sys.fields)
    return (not r1 and not r2), (r1, r2)


# ---------------------------------------------------------------------------
# grading tables (reference rows regenerated per basis index)
# ---------------------------------------------------------------------------

def expected_gradings(equation: str, index: int) -> dict:
    """Reference grading-table row for basis element `index` (0 = toral):
    natural degree, canonical bigrading, (natural, eigenvalue) pair, with the
    eigenvalue c of [b_0, b_index] = c b_index from the matrices."""
    algebra = TARGETS[equation][0]
    canonical = la.canonical_bigrading(algebra, index)
    natural = sum(canonical)
    return {"natural": natural, "canonical": canonical,
            "pair": (natural, la.matrix_structure_constant(algebra, 0, index))}


def grading_rows(result: cl.ClosureResult, equation: str) -> list:
    """Computed vs reference grading columns; empty diff means Table match.
    The canonical bigrading (p, q) counts an element's letters X(e^{au}) and
    X(e^{bu}), the first two elements (a > b): the one solution of p + q = d
    and pa + qb = r for the element's (degree, eigenvalue) = (d, r)."""
    rows = []
    a, b = (el.eigenvalue for el in result.elements[:2])
    computed = [(result.toral_name, 0, 0, 0)]
    computed += [(el.name, el.index, el.degree, el.eigenvalue) for el in result.elements]
    for name, index, d, r in computed:
        row = {"name": name, "natural": d,
               "canonical": ((r - d * b) // (a - b), (d * a - r) // (a - b)), "pair": (d, r)}
        row["match"] = all(row[k] == v for k, v in expected_gradings(equation, index).items())
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# isomorphism verification
# ---------------------------------------------------------------------------

IsoReport = namedtuple("IsoReport", (
    "equation",
    "order",
    "degree",
    "status",                      # "verified" | "mismatch"
    "basis_size",
    "bracket_pairs",
    "zero_confirmations",          # truncation-zero claims confirmed exact on matrices
    "mismatches",
    "grading_mismatches",
    "serre_jet",                   # relation -> is_zero_up_to string
    "serre_matrix",                # relation -> bool
    "closure",                     # the cl.ClosureResult the tables were read from
))


def closure_for(f, order: int, degree: int) -> cl.ClosureResult:
    """The closure of f(u) through `degree`, the one route from an equation to
    cl.generate.  `f` is f(u) or a name in EQUATIONS; a known equation gets
    its reference prefix and is normalized by its loop algebra's matrix
    structure constants."""
    f = EQUATIONS[f] if isinstance(f, str) else f
    algebra, prefix = TARGETS.get(identify_equation(f), (None, "Z"))
    target = partial(la.matrix_structure_constant, algebra) if algebra else None
    return cl.generate(f, order, degree, prefix, target)


def verify_isomorphism(equation: str, degree: int, order: int) -> IsoReport:
    """Generate the closure, map basis element n to matrix basis element n, and
    demand the two structure tables agree exactly on the whole degree window;
    every jet-side zero-by-truncation must be exactly zero on the matrix side."""
    algebra = TARGETS[equation][0]
    if algebra is None:
        raise ValueError(f"no matrix realization registered for {equation!r}")
    result = closure_for(equation, order, degree)
    mismatches = []
    zero_confirmed = 0
    for (i, j), coeffs in sorted(result.entries.items()):
        want = la.matrix_structure_constant(algebra, i, j)
        # the result index i+j always sits inside the window: its natural degree
        # is deg_i + deg_j <= max_degree, so the basis element was computed
        if coeffs != (((i + j, want.numerator, want.denominator),) if want else ()):
            mismatches.append({"pair": (i, j), "jet": _coeff_text(result, coeffs),
                               "matrix": xr.frac_text(want)})
        elif not want:
            zero_confirmed += 1
    # the ad-X0 eigenvalues are checked in the grading rows' pair column
    grading_bad = [r for r in grading_rows(result, equation) if not r["match"]]
    # defining ad-power relations: the jet side certifies up to the truncation
    # order, the matrix side is exact
    serre_jet = la.serre_check(algebra, "jet", result.elements[:2])
    serre_matrix = la.serre_check(algebra, "matrix")
    status = "verified" if not mismatches and not grading_bad and all(serre_matrix.values()) \
        and all(s.startswith("ZERO_UP_TO") for s in serre_jet.values()) else "mismatch"
    return IsoReport(equation, order, degree, status, len(result.elements),
                     len(result.entries), zero_confirmed, mismatches, grading_bad,
                     serre_jet, serre_matrix, result)


def _coeff_text(result: cl.ClosureResult, coeffs) -> str:
    if not coeffs:
        return "0"
    return " + ".join(f"{xr.frac_text(n, d)}*{result.elements[k - 1].name}" for k, n, d in coeffs)
