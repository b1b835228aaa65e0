"""Command-line surface: equation parsing, report serialization, subcommands.

Reports are deterministic: given identical flags the JSON bytes are identical
across runs (wall-clock timing goes to stderr only, never into the report).
Exit codes: 0 verified (or zero-up-to), 2 mismatch, 1 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from . import analysis as an
from . import closure as cl
from . import exactring as xr
from . import loopalg as la
from .bell import complete_bell, incomplete_bell

SCHEMA = "charlie-report/1"


class UsageError(ValueError):
    pass


def parse_equation(text: str) -> xr.Quasi:
    """f(u) from exponential sums `[c] e^(k u)` joined by +/-, or from a
    named equation; its terms are ordered by exponent descending."""
    key = text.strip().lower()
    if key == "sin":
        raise UsageError(
            "equation 'sin' is rejected: over the reals chi(sin u) is a different real form "
            "with non-rational structure constants; use 'sinh'")
    if key in an.EQUATIONS:
        return an.EQUATIONS[key]
    # the term grammar is `[c] e^(k u)`: allow the coefficient to sit next to
    # the exponential without an explicit '*'
    normalized = re.sub(r"(\d)\s*e\^", r"\1*e^", text)
    try:
        q = xr.qp_parse(normalized)
    except ValueError as e:
        raise UsageError(f"bad equation: {e}") from e
    if not q:
        raise UsageError("equation right-hand side must be a nonzero exponential sum")
    if not xr.qp_is_exponential_only(q):
        raise UsageError("equation right-hand side must not contain jet variables u1, u2, ...")
    return dict(sorted(q.items(), reverse=True))


# ---------------------------------------------------------------------------
# payload builders (status, payload, certificates)
# ---------------------------------------------------------------------------

def _table_payload(result: cl.ClosureResult) -> dict:
    basis = [{"name": result.toral_name, "d": 0, "r": 0}]
    basis += [{"name": el.name, "d": el.degree, "r": el.eigenvalue} for el in result.elements]
    brackets = []
    for el in result.elements:
        if el.eigenvalue:
            brackets.append({"i": result.toral_name, "j": el.name,
                             "out": [[el.name, xr.frac_text(Fraction(el.eigenvalue))]]})
    for (i, j) in sorted(result.brackets):
        coeffs = result.brackets[(i, j)]
        brackets.append({
            "i": result.elements[i - 1].name,
            "j": result.elements[j - 1].name,
            "out": [[result.elements[k - 1].name, xr.frac_text(c)] for k, c in coeffs],
        })
    return {"basis": basis, "brackets": brackets}


def _closure_certs(result: cl.ClosureResult) -> dict:
    return {
        f"{result.elements[i - 1].name},{result.elements[j - 1].name}": f"zero-up-to-{n}"
        for (i, j), n in sorted(result.certificates.items())
    }


def cmd_bell(args) -> tuple:
    if args.incomplete is not None:
        n, k = args.incomplete
        p = incomplete_bell(n, k)
        name = f"B({n},{k})"
    else:
        if args.complete is None:
            raise UsageError("bell needs --complete N or --incomplete N K")
        p = complete_bell(args.complete)
        name = f"B{args.complete}"
    return "verified", {"name": name, "polynomial": xr.poly_to_text(p),
                        "weight": xr.weight_report(p)}, {}


def cmd_charalg(args) -> tuple:
    f = parse_equation(args.equation)
    result = an.closure_for(f, args.order, args.degree)
    payload = {
        "equation": xr.qp_to_text(f),
        "order": args.order,
        "degree": args.degree,
        "dimension_with_toral": len(result.elements) + 1,
        "table": _table_payload(result),
    }
    return "verified", payload, _closure_certs(result)


def cmd_loops(args) -> tuple:
    # the loop algebra of each --algebra name, and what lists the cells where
    # its transcribed table disagrees with the matrices
    algebra, typos = {"sl2": ("n1", None), "sl3t": ("n2", la.twisted_table_diff)}.get(
        args.algebra, (None, None))
    if algebra is None:
        raise UsageError(f"unknown algebra {args.algebra!r} (choose sl2 or sl3t)")
    if args.max < 1:
        raise UsageError(f"--max {args.max} must be at least 1")
    prefix = la.ALGEBRAS[algebra].prefix
    table = la.matrix_table(algebra, args.max)
    payload = {
        "algebra": args.algebra,
        "max_index": args.max,
        "basis": [{"name": f"{prefix}{i}", "natural": la.natural_degree(algebra, i),
                   "canonical": list(la.canonical_bigrading(algebra, i))}
                  for i in range(0, args.max + 1)],
        "brackets": [{"i": f"{prefix}{i}", "j": f"{prefix}{j}",
                      "out": ([[f"{prefix}{i + j}", xr.frac_text(c)]] if c else [])}
                     for (i, j), c in sorted(table.items())],
    }
    if typos:
        payload["transcribed_table_suspected_typos"] = [
            {"row_residue": q, "col_residue": l, "transcribed": printed,
             "matrix": xr.frac_text(computed)}
            for q, l, printed, computed in typos()
        ]
    return "verified", payload, {"arithmetic": "exact"}


def cmd_integrals(args) -> tuple:
    f = parse_equation(args.equation)
    if args.weight < 1:
        raise UsageError(f"--weight {args.weight} must be at least 1")
    order = args.order or args.weight + 1
    if order < args.weight + 1:
        raise UsageError(f"order {order} too small for weight bound {args.weight}")
    basis = an.find_x_integrals(f, args.weight)
    # re-verify each reported integral at a higher order
    reverify_order = order + 4
    for w, ok in zip(basis, an.annihilates(f, basis, reverify_order)):
        if not ok:
            return "mismatch", {"error": f"reported integral fails re-verification: {xr.poly_to_text(w)}"}, {}
    payload = {
        "equation": xr.qp_to_text(f),
        "weight_bound": args.weight,
        "dimension": len(basis),
        "basis": [xr.poly_to_text(w) for w in basis],
    }
    return "verified", payload, {"re-verified-at-order": reverify_order}


def cmd_symmetry(args) -> tuple:
    f = parse_equation(args.equation)
    try:
        phi = xr.poly_parse(args.phi)
    except ValueError as e:
        raise UsageError(f"bad --phi: {e}") from e
    holds, residual = an.check_defining_equation(f, phi, args.order or None)
    payload = {
        "equation": xr.qp_to_text(f),
        "phi": xr.poly_to_text(phi),
        "holds": holds,
        "residual": xr.qp_to_text(residual),
    }
    return ("verified" if holds else "mismatch"), payload, {"arithmetic": "exact"}


def cmd_verify_iso(args) -> tuple:
    name = an.identify_equation(parse_equation(args.equation))
    if name not in ("sinh", "tzitzeica"):
        raise UsageError("verify-iso supports --equation sinh or tzitzeica")
    rep = an.verify_isomorphism(name, args.degree, args.order)
    payload = {
        "equation": name,
        "order": rep.order,
        "degree": rep.degree,
        "basis_size": rep.basis_size,
        "bracket_pairs": rep.bracket_pairs,
        "zero_confirmations": rep.zero_confirmations,
        "mismatches": rep.mismatches,
        "grading_mismatches": rep.grading_mismatches,
        "serre_jet": rep.serre_jet,
        "serre_matrix": rep.serre_matrix,
    }
    return rep.status, payload, _closure_certs(rep.closure)


def cmd_exp2d(args) -> tuple:
    try:
        vals = [Fraction(x.strip()) for x in args.matrix.split(",")]
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad --matrix: {e}") from e
    if len(vals) != 4:
        raise UsageError("--matrix needs four comma-separated rationals a11,a12,a21,a22")
    A = ((vals[0], vals[1]), (vals[2], vals[3]))
    system = an.build_exp_system(A, args.order or 6)
    ok, (r1, r2) = an.check_w2_integral(system)
    payload = {
        "matrix": [[xr.frac_text(x) for x in row] for row in A],
        "w2": xr.poly_to_text(an.w2_integral(A)),
        "annihilated": ok,
        "residuals": [xr.poly_to_text(r1), xr.poly_to_text(r2)],
    }
    return ("verified" if ok else "mismatch"), payload, {"arithmetic": "exact"}


def cmd_growth(args) -> tuple:
    if args.degree < 1:
        raise UsageError(f"--degree {args.degree} must be at least 1")
    if args.algebra:
        factory = cl.PRESENTED.get(args.algebra)
        if factory is None:
            raise UsageError(f"unknown presented algebra {args.algebra!r}; "
                             f"choose from {sorted(cl.PRESENTED)}")
        alg = factory()
        values = {n: cl.presented_growth(alg, n) for n in range(1, args.degree + 1)}
        payload = {"algebra": alg.name,
                   "F": [{"n": n, "value": v} for n, v in values.items()]}
        return "verified", payload, {"arithmetic": "exact"}
    if not args.equation:
        raise UsageError("growth needs --equation or --algebra")
    f = parse_equation(args.equation)
    order = args.order or args.degree + 4
    result = an.closure_for(f, order, args.degree)
    offset = cl.commutant_growth_offset(result)
    rows = []
    for n in range(1, args.degree + 1):
        F = cl.growth_function(result, n)
        rows.append({"n": n, "commutant": F, "full": F + offset})
    payload = {
        "equation": xr.qp_to_text(f),
        "degree": args.degree,
        "order": order,
        "toral_offset": offset,
        "F": rows,
    }
    return "verified", payload, {"offset-verified-by": "word spans over the table"}


def cmd_jacobi(args) -> tuple:
    if args.degree < 1:
        raise UsageError(f"--degree {args.degree} must be at least 1")
    name = args.algebra
    if name == "m0S":
        if not args.s:
            raise UsageError("jacobi --algebra m0S needs --s like --s 3,5")
        try:
            S = frozenset(int(x) for x in args.s.split(","))
        except ValueError as e:
            raise UsageError(f"bad --s: {e}") from e
        alg = cl.presented_m0_S(S)
    else:
        factory = cl.PRESENTED.get(name)
        if factory is None:
            raise UsageError(f"unknown algebra {name!r}; choose from "
                             f"{sorted(cl.PRESENTED) + ['m0S']}")
        alg = factory()
    rep = cl.jacobi_check(alg, args.degree)
    violation = None
    if rep["violation"]:
        a, b, c, residual = rep["violation"]
        violation = [a, b, c, [[lbl, xr.frac_text(v)] for lbl, v in sorted(residual.items())]]
    payload = {"algebra": alg.name, "degree_bound": args.degree,
               "triples_checked": rep["triples"], "ok": rep["ok"], "violation": violation}
    return ("verified" if rep["ok"] else "mismatch"), payload, {"arithmetic": "exact"}


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _render_text(report: dict) -> str:
    lines = [f"{report['command']}: {report['status']}"]
    for k, v in report["inputs"].items():
        lines.append(f"  {k} = {v}")

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)):
                    yield f"{pad}{k}:"
                    yield from walk(v, indent + 1)
                else:
                    yield f"{pad}{k}: {v}"
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    yield from walk(v, indent)
                else:
                    yield f"{pad}- {v}"

    lines.extend(walk(report["payload"], 1))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="charlie",
                                description="exact characteristic Lie algebras of u_xy = f(u)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, order_default=None):
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out", default=None, help="write the report to a file")
        if order_default is not None:
            sp.add_argument("--order", type=int, default=order_default,
                            help="truncation order (0 = choose automatically)"
                            if order_default == 0 else "truncation order")

    sp = sub.add_parser("bell", help="complete/incomplete Bell polynomials")
    sp.add_argument("--complete", type=int, metavar="N")
    sp.add_argument("--incomplete", type=int, nargs=2, metavar=("N", "K"))
    common(sp)
    sp.set_defaults(fn=cmd_bell)

    sp = sub.add_parser("charalg", help="generate the characteristic algebra table")
    sp.add_argument("--equation", required=True)
    sp.add_argument("--degree", type=int, default=8)
    common(sp, order_default=12)
    sp.set_defaults(fn=cmd_charalg)

    sp = sub.add_parser("loops", help="matrix-side loop algebra tables")
    sp.add_argument("--algebra", required=True, help="sl2 or sl3t")
    sp.add_argument("--table", action="store_true", help="emit the structure table")
    sp.add_argument("--max", type=int, default=16)
    common(sp)
    sp.set_defaults(fn=cmd_loops)

    sp = sub.add_parser("integrals", help="search x-integrals up to a weight bound")
    sp.add_argument("--equation", required=True)
    sp.add_argument("--weight", type=int, required=True)
    common(sp)
    sp.add_argument("--order", type=int, default=0,
                    help="sets the re-verification order, order + 4; the search itself is "
                         "exact at any order (0 = weight + 1, the smallest allowed)")
    sp.set_defaults(fn=cmd_integrals)

    sp = sub.add_parser("symmetry", help="check the defining equation for a candidate phi")
    sp.add_argument("--equation", required=True)
    sp.add_argument("--phi", required=True)
    common(sp, order_default=0)
    sp.set_defaults(fn=cmd_symmetry)

    sp = sub.add_parser("verify-iso", help="compare the jet-side table with its matrix realization")
    sp.add_argument("--equation", required=True)
    sp.add_argument("--degree", type=int, default=8)
    common(sp, order_default=12)
    sp.set_defaults(fn=cmd_verify_iso)

    sp = sub.add_parser("exp2d", help="second-order integral of a 2D exponential system")
    sp.add_argument("--matrix", required=True, help="a11,a12,a21,a22")
    common(sp, order_default=0)
    sp.set_defaults(fn=cmd_exp2d)

    sp = sub.add_parser("growth", help="growth functions of closures or presented algebras")
    sp.add_argument("--equation", default=None)
    sp.add_argument("--algebra", default=None, help="presented algebra: m0, m2, W+, n2^3")
    sp.add_argument("--degree", type=int, default=12)
    common(sp, order_default=0)
    sp.set_defaults(fn=cmd_growth)

    sp = sub.add_parser("jacobi", help="Jacobi identity sweep for presented algebras")
    sp.add_argument("--algebra", required=True, help="m0, m2, W+, n2^3, or m0S with --s")
    sp.add_argument("--s", default=None, help="comma-separated odd integers for m0S")
    sp.add_argument("--degree", type=int, default=20)
    common(sp)
    sp.set_defaults(fn=cmd_jacobi)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code else 0
    started = time.monotonic()
    try:
        status, payload, certificates = args.fn(args)
    except ValueError as e:  # UsageError, ClosureError and parse errors among them
        print(f"error: {e}", file=sys.stderr)
        return 1
    except cl.MismatchError as e:
        print(f"mismatch: {e}", file=sys.stderr)
        return 2
    inputs = {k: v for k, v in sorted(vars(args).items())
              if k not in ("fn", "out", "format") and v is not None}
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": inputs,
        "status": status,
        "certificates": certificates,
        "payload": payload,
    }
    rendered = (json.dumps(report, indent=2) + "\n") if args.format == "json" \
        else _render_text(report)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(rendered.encode("utf-8"))
        except OSError as e:
            print(f"error: cannot write {args.out}: {e.strerror or e}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return 0 if status in ("verified", "zero-up-to") else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
