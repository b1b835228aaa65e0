"""Exact sparse arithmetic for the coefficient ring of jet-space computations.

Three layers, all represented by plain dicts with exact (int or Fraction)
coefficients so that equality is dict equality and every operation is exact:

  Mono  = tuple[tuple[int, int], ...]     sorted ((var_index, exponent), ...) pairs,
                                          var_index >= 1 names the jet variable u_i,
                                          no zero exponents; () is the monomial 1.
  Poly  = dict[Mono, int | Fraction]      sparse polynomial in u_1, u_2, ...; {} is 0.
  Quasi = dict[int, Poly]                 maps an exponential index a to the polynomial
                                          multiplying e^{a*u}; {} is 0.

Where the coefficients live: constructors, scaling and parsing (poly_const,
poly_var, poly_scale, qp_parse) return Fractions, which is
what bell, the integral search and the symmetry check see.  Sums, products
and derivatives use plain arithmetic and keep the type they are given, so the
jet bracket kernel in jetfield, fed int fields, computes in int throughout.
An int and a Fraction of equal value compare and hash alike, so dict equality
does not depend on which one a coefficient is.

vec_iadd_scaled (out += c*b in place on any such dict, zeros dropped) is
the one sparse accumulate: linalg's row operations and the closure's lower
sums call it on the vectors they own, and
vec_add_scaled, its copying wrapper, serves qp_add, qp_mul and the 2x2
exponential systems of analysis.  Only the jet bracket kernel in jetfield
fuses its own multiply-accumulate over packed monomials.  The matrix oracle
in loopalg shares no arithmetic code with the jet side it checks: it
cross-multiplies the exact entries of its t-free matrices, plain
{(row, col): entry} dicts, into structure constants.

The weight of u_i is i; a polynomial is weight-homogeneous when all its monomials
share one weight.  Zero-coefficient terms and zero polynomial parts are never stored,
so canonical form is automatic and two values are equal iff their dicts are equal.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional

Mono = tuple  # tuple[tuple[int, int], ...]
Poly = dict   # dict[Mono, int | Fraction]
Quasi = dict  # dict[int, Poly]

MONO_ONE: Mono = ()


def vec_iadd_scaled(out: dict, b: dict, c) -> dict:
    """out += c*b in place for sparse exact dicts, zeros dropped; returns out."""
    if c:
        for k, v in b.items():
            s = out.get(k, 0) + c * v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def vec_add_scaled(a: dict, b: dict, c) -> dict:
    """a + c*b as a new dict, zero entries dropped."""
    return vec_iadd_scaled(dict(a), b, c)


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

def mono_from_pairs(pairs: Iterable[tuple[int, int]]) -> Mono:
    """Build a monomial from (index, exponent) pairs, dropping zero exponents."""
    acc: dict[int, int] = {}
    for idx, exp in pairs:
        if idx < 1:
            raise ValueError(f"jet variable index must be >= 1, got {idx}")
        if exp:
            acc[idx] = acc.get(idx, 0) + exp
    return tuple(sorted((i, e) for i, e in acc.items() if e))


def mono_var(i: int) -> Mono:
    if i < 1:
        raise ValueError(f"jet variable index must be >= 1, got {i}")
    return ((i, 1),)


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for idx, exp in b:
        acc[idx] = acc.get(idx, 0) + exp
    return tuple(sorted(acc.items()))


def mono_weight(m: Mono) -> int:
    return sum(i * e for i, e in m)


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_max_index(m: Mono) -> int:
    return m[-1][0] if m else 0


def mono_diff(m: Mono, k: int) -> Optional[tuple[int, Mono]]:
    """d/du_k of the monomial: (old exponent, lowered monomial), or None.

    No command calls it or poly_diff: bench/tracer.py rebinds both by name,
    so they stay until the tracer drops them (ROADMAP items 6 and 7)."""
    for pos, (idx, exp) in enumerate(m):
        if idx == k:
            rest = m[:pos] + ((idx, exp - 1),) + m[pos + 1:] if exp > 1 else m[:pos] + m[pos + 1:]
            return exp, rest
    return None


def mono_key(m: Mono):
    """Deterministic sort key: (weight, lexicographic on the pair tuple)."""
    return (mono_weight(m), m)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def poly_const(c) -> Poly:
    c = Fraction(c)
    return {MONO_ONE: c} if c else {}


def poly_var(i: int) -> Poly:
    return {mono_var(i): Fraction(1)}


def poly_neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def poly_scale(a: Poly, c) -> Poly:
    c = Fraction(c)
    if not c:
        return {}
    return {m: v * c for m, v in a.items()}


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            s = out.get(m)
            out[m] = ca * cb if s is None else s + ca * cb
    return {m: c for m, c in out.items() if c}


def poly_diff(a: Poly, k: int) -> Poly:
    out: Poly = {}
    for m, c in a.items():
        d = mono_diff(m, k)
        if d is None:
            continue
        exp, rest = d
        s = out.get(rest)
        v = c * exp
        out[rest] = v if s is None else s + v
    return {m: c for m, c in out.items() if c}


def weight_of(a: Poly) -> Optional[int]:
    """Common weight of a homogeneous polynomial; None when mixed or zero.

    The zero polynomial is homogeneous of any weight, reported as None here and
    as "any" in text reports.
    """
    w: Optional[int] = None
    for m in a:
        mw = mono_weight(m)
        if w is None:
            w = mw
        elif w != mw:
            return None
    return w


def weight_report(a: Poly) -> str:
    if not a:
        return "any"
    w = weight_of(a)
    return str(w) if w is not None else "mixed"


def poly_max_index(a: Poly) -> int:
    return max((mono_max_index(m) for m in a), default=0)


# ---------------------------------------------------------------------------
# quasipolynomials  e^{a*u} * P(u_1, u_2, ...)
# ---------------------------------------------------------------------------

def qp_from_poly(p: Poly) -> Quasi:
    return {0: dict(p)} if p else {}


def _qp_norm(q: Quasi) -> Quasi:
    return {a: p for a, p in q.items() if p}


def qp_add(a: Quasi, b: Quasi) -> Quasi:
    out = {k: dict(v) for k, v in a.items()}
    for al, p in b.items():
        out[al] = vec_add_scaled(out.get(al, {}), p, 1)
    return _qp_norm(out)


def qp_sub(a: Quasi, b: Quasi) -> Quasi:
    return qp_add(a, qp_neg(b))


def qp_neg(a: Quasi) -> Quasi:
    return {al: poly_neg(p) for al, p in a.items()}


def qp_mul(a: Quasi, b: Quasi) -> Quasi:
    out: Quasi = {}
    for aa, pa in a.items():
        for ab, pb in b.items():
            al = aa + ab
            prod = poly_mul(pa, pb)
            out[al] = vec_add_scaled(out[al], prod, 1) if al in out else prod
    return _qp_norm(out)


def qp_derive_u(a: Quasi) -> Quasi:
    """d/du: each e^{a*u} part is multiplied by a (parts carry no explicit u)."""
    return {al: {m: al * c for m, c in p.items()} for al, p in a.items() if al}


def qp_is_zero(a: Quasi) -> bool:
    return not a


def qp_is_exponential_only(a: Quasi) -> bool:
    """True when every part is constant, i.e. a is a pure sum of c*e^{a*u}."""
    return all(set(p) <= {MONO_ONE} for p in a.values())


# ---------------------------------------------------------------------------
# canonical text form:  c * e^(a*u) * u1^e1*u2^e2...
# ---------------------------------------------------------------------------

def frac_text(c: Fraction, den: int = 1) -> str:
    """c/den, an int or a Fraction c over an int den > 0 (coprime to an int c), as `n` or `n/d`."""
    n, d = c.numerator, c.denominator * den
    return str(n) if d == 1 else f"{n}/{d}"


def _exp_text(alpha: int) -> str:
    if alpha == 1:
        return "e^(u)"
    if alpha == -1:
        return "e^(-u)"
    return f"e^({alpha}*u)"


class _Factors(dict):
    """(i, e) -> the factor text `u{i}^{e}` (`u{i}` for e = 1), built on first use."""

    def __missing__(self, f) -> str:
        i, e = f
        text = self[f] = f"u{i}" if e == 1 else f"u{i}^{e}"
        return text


def qp_to_text(a: Quasi, homogeneous: bool = False) -> str:
    """Canonical serialization: terms by exponential index descending, then by
    (weight, lex) monomial order; reparsing yields an identical dict.

    `homogeneous` says that the monomials of each exponential part share one
    weight, so the order is lex alone and no weight is computed.  Each factor
    u{i}^{e} is rendered once per call, and each term by one f-string."""
    if not a:
        return "0"
    factors = _Factors()
    chunks: list[str] = []
    for alpha in sorted(a, reverse=True):
        p = a[alpha]
        exp = f" * {_exp_text(alpha)}" if alpha else ""
        for m in sorted(p) if homogeneous else sorted(p, key=mono_key):
            c = p[m]
            sign = ("" if c > 0 else "-") if not chunks else ("+ " if c > 0 else "- ")
            mono = " * " + "*".join(map(factors.__getitem__, m)) if m else ""
            chunks.append(f"{sign}{frac_text(abs(c))}{exp}{mono}")
    return " ".join(chunks)


def poly_to_text(p: Poly, homogeneous: bool = False) -> str:
    return qp_to_text(qp_from_poly(p), homogeneous)


_FRAC_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_EXP_RE = re.compile(r"^e\^\(?\s*(-?\d*)\s*\*?\s*u\s*\)?$")
_VAR_RE = re.compile(r"^u(\d+)(?:\^(-?\d+))?$")


class ParseError(ValueError):
    def __init__(self, text: str, pos: int, why: str):
        super().__init__(f"cannot parse {text!r} at position {pos}: {why}")
        self.pos = pos


def qp_parse(text: str) -> Quasi:
    """Parse terms joined by + and -, each a product of factors joined by '*':
    a rational c or c/d, where a sign right after '*' belongs to it
    (`u1 * -1`); an exponential e^(k*u), where the parentheses, '*' and
    the integer k are each optional but '^' is not (`e^u`, `e^(-2u)`); or
    a jet variable u<i> or u<i>^<e>, e >= 1.  A number directly before `e^` multiplies it with no
    '*' (`2e^u`, `3 e^(-2u)`).  Inverse of qp_to_text on its own output."""
    s = text.strip()
    if not s:
        raise ParseError(text, 0, "empty input")
    if s == "0":
        return {}
    out: Quasi = {}
    sign = 1
    # split into signed terms at top level (no nesting beyond e^(...))
    term = ""
    terms: list[tuple[int, str, int]] = []  # (sign, body, start_pos)
    start = 0
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if (ch in "+-" and depth == 0 and i > 0 and s[i - 1] not in "(^*/eE"
                and term.strip() and term.rstrip()[-1] != "*"):
            terms.append((sign, term, start))
            sign = 1 if ch == "+" else -1
            term = ""
            start = i + 1
            continue
        if ch in "+-" and depth == 0 and not term.strip():
            sign = sign if ch == "+" else -sign
            start = i + 1
            continue
        term += ch
    if depth != 0:
        raise ParseError(text, len(s), "unbalanced parentheses")
    if not term.strip():
        raise ParseError(text, len(s), "missing last term")
    terms.append((sign, term, start))
    for tsign, body, tpos in terms:
        coeff = Fraction(tsign)
        alpha = 0
        mono_pairs: list[tuple[int, int]] = []
        factors = [f.strip() for f in re.split(r"\*(?!\s*u\s*\))|(?<=\d)\s*(?=e\^)", body)]
        # the split keeps "e^(2*u)" together by not splitting before "u)", and
        # splits a number from the e^ right after it
        for f in factors:
            if not f:
                raise ParseError(text, tpos, "empty factor")
            m = _FRAC_RE.match(f)
            if m:
                if m.group(2) and not int(m.group(2)):
                    raise ParseError(text, tpos + body.find(f), "zero denominator")
                coeff *= Fraction(int(m.group(1)), int(m.group(2) or 1))
                continue
            m = _EXP_RE.match(f)
            if m:
                g = m.group(1)
                alpha += int(g) if g not in ("", "-") else (-1 if g == "-" else 1)
                continue
            m = _VAR_RE.match(f)
            if m:
                e = int(m.group(2) or 1)
                if e < 1:
                    raise ParseError(text, tpos, f"bad exponent in {f!r}")
                mono_pairs.append((int(m.group(1)), e))
                continue
            raise ParseError(text, tpos + body.find(f), f"unrecognized factor {f!r}")
        mono = mono_from_pairs(mono_pairs)
        part = out.setdefault(alpha, {})
        c = part.get(mono, Fraction(0)) + coeff
        if c:
            part[mono] = c
        elif mono in part:
            del part[mono]
    return _qp_norm(out)


def poly_parse(text: str) -> Poly:
    q = qp_parse(text)
    if set(q) - {0}:
        raise ValueError(f"expected a plain jet polynomial, got exponential parts {sorted(set(q) - {0})}")
    return q.get(0, {})
