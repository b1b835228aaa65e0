"""Command-line surface: equation parsing, report serialization, subcommands.

Reports are deterministic: given identical flags the JSON bytes are identical
across runs (wall-clock timing goes to stderr only, never into the report).
_render_json writes the bytes of json.dumps(report, indent=2) from json's C
scalar encoders; with an indent set, json would use its pure-Python encoder.
Exit codes: 0 verified (or zero-up-to), 2 mismatch, 1 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import analysis as an
from . import closure as cl
from . import exactring as xr
from . import loopalg as la
from .bell import complete_bell, incomplete_bell

SCHEMA = "charlie-report/1"
_enc = json.encoder.encode_basestring_ascii


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
    try:
        q = xr.qp_parse(text)
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
                             "out": [[el.name, xr.frac_text(el.eigenvalue)]]})
    for (i, j) in sorted(result.brackets):
        coeffs = result.brackets[(i, j)]
        brackets.append({
            "i": result.elements[i - 1].name,
            "j": result.elements[j - 1].name,
            "out": [[result.elements[k - 1].name, xr.frac_text(c)] for k, c in coeffs],
        })
    return {"basis": basis, "brackets": brackets}


def _closure_certs(result: cl.ClosureResult) -> dict:
    """Every table entry is exact on jets up to the closure's order."""
    return {
        f"{result.elements[i - 1].name},{result.elements[j - 1].name}": f"zero-up-to-{result.order}"
        for i, j in sorted(result.brackets)
    }


def cmd_bell(args) -> tuple:
    if args.complete is not None and args.incomplete is not None:
        raise UsageError("bell takes --complete N or --incomplete N K, not both")
    if args.incomplete is not None:
        n, k = args.incomplete
        p = incomplete_bell(n, k)
        name = f"B({n},{k})"
    else:
        if args.complete is None:
            raise UsageError("bell needs --complete N or --incomplete N K")
        p = complete_bell(args.complete)
        name = f"B{args.complete}"
    weight = xr.weight_report(p)    # the one pass over the monomials' weights
    return "verified", {"name": name, "polynomial": xr.poly_to_text(p, weight != "mixed"),
                        "weight": weight}, {}


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
    supported = [eq for eq, (algebra, _) in an.TARGETS.items() if algebra]
    if name not in supported:
        raise UsageError(f"verify-iso supports --equation {' or '.join(supported)}")
    rep = an.verify_isomorphism(name, args.degree, args.order)
    payload = {k: v for k, v in rep._asdict().items() if k not in ("status", "closure")}
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
        if args.equation:
            raise UsageError("growth takes --equation or --algebra, not both")
        if args.order:
            raise UsageError("--order applies to growth --equation only")
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
    if args.s is not None and name != "m0S":
        raise UsageError("--s applies to jacobi --algebra m0S only")
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

def _render_json(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, with every string from
    encode_basestring_ascii and every other scalar from the compact encoder."""
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return _enc(obj) if isinstance(obj, str) else json.dumps(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        body = ("," + inner).join([
            _enc(k if isinstance(k, str) else json.dumps(k)) + ": "
            + (_enc(v) if type(v) is str else _render_json(v, inner))
            for k, v in obj.items()])
        return f"{{{inner}{body}{pad}}}"
    body = ("," + inner).join([_enc(v) if type(v) is str else _render_json(v, inner) for v in obj])
    return f"[{inner}{body}{pad}]"


def _render_text(report: dict) -> str:
    lines = [f"{report['command']}: {report['status']}"]
    for k, v in report["inputs"].items():
        lines.append(f"  {k} = {v}")

    def walk(obj, indent):
        # a list item opens with "- ", a nonempty container on its first line
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v:
                    yield f"{pad}{k}:"
                    yield from walk(v, indent + 1)
                else:
                    yield f"{pad}{k}: {v}"
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)) and v:
                    first, *rest = walk(v, indent + 1)
                    yield f"{pad}- {first[len(pad) + 2:]}"
                    yield from rest
                else:
                    yield f"{pad}- {v}"

    lines.extend(walk(report["payload"], 1))
    return "\n".join(lines) + "\n"


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone when it names
    one (its usage line still lists them all, so every message is the same)."""
    p = argparse.ArgumentParser(prog="charlie",
                                description="exact characteristic Lie algebras of u_xy = f(u)")
    sub = p.add_subparsers(dest="command", required=True)
    names = []

    def add(name, help_, fn):
        names.append(name)
        if command in (None, name):
            sp = sub.add_parser(name, help=help_)
            sp.set_defaults(fn=fn)
            return sp

    def common(sp, order_default=None):
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out", default=None, help="write the report to a file")
        if order_default is not None:
            sp.add_argument("--order", type=int, default=order_default,
                            help="truncation order (0 = choose automatically)"
                            if order_default == 0 else "truncation order")

    if sp := add("bell", "complete/incomplete Bell polynomials", cmd_bell):
        sp.add_argument("--complete", type=int, metavar="N")
        sp.add_argument("--incomplete", type=int, nargs=2, metavar=("N", "K"))
        common(sp)
    if sp := add("charalg", "generate the characteristic algebra table", cmd_charalg):
        sp.add_argument("--equation", required=True)
        sp.add_argument("--degree", type=int, default=8)
        common(sp, order_default=12)
    if sp := add("loops", "matrix-side loop algebra tables", cmd_loops):
        sp.add_argument("--algebra", required=True, help="sl2 or sl3t")
        sp.add_argument("--table", action="store_true", help="emit the structure table")
        sp.add_argument("--max", type=int, default=16)
        common(sp)
    if sp := add("integrals", "search x-integrals up to a weight bound", cmd_integrals):
        sp.add_argument("--equation", required=True)
        sp.add_argument("--weight", type=int, required=True)
        common(sp)
        sp.add_argument("--order", type=int, default=0,
                        help="sets the re-verification order, order + 4; the search itself is "
                             "exact at any order (0 = weight + 1, the smallest allowed)")
    if sp := add("symmetry", "check the defining equation for a candidate phi", cmd_symmetry):
        sp.add_argument("--equation", required=True)
        sp.add_argument("--phi", required=True)
        common(sp, order_default=0)
    if sp := add("verify-iso", "compare the jet-side table with its matrix realization",
                 cmd_verify_iso):
        sp.add_argument("--equation", required=True)
        sp.add_argument("--degree", type=int, default=8)
        common(sp, order_default=12)
    if sp := add("exp2d", "second-order integral of a 2D exponential system", cmd_exp2d):
        sp.add_argument("--matrix", required=True, help="a11,a12,a21,a22")
        common(sp, order_default=0)
    if sp := add("growth", "growth functions of closures or presented algebras", cmd_growth):
        sp.add_argument("--equation", default=None)
        sp.add_argument("--algebra", default=None, help="presented algebra: m0, m2, W+, n2^3")
        sp.add_argument("--degree", type=int, default=12)
        common(sp, order_default=0)
    if sp := add("jacobi", "Jacobi identity sweep for presented algebras", cmd_jacobi):
        sp.add_argument("--algebra", required=True, help="m0, m2, W+, n2^3, or m0S with --s")
        sp.add_argument("--s", default=None, help="comma-separated odd integers for m0S")
        sp.add_argument("--degree", type=int, default=20)
        common(sp)
    if command in names:
        sub.metavar = "{" + ",".join(names) + "}"
    return p if command in (None, *names) else build_parser()


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
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
    rendered = (_render_json(report) + "\n") if args.format == "json" \
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
