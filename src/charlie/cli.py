"""Command-line surface: equation parsing, report serialization, subcommands.

Each command and its flags are one row of COMMANDS, which parse_args reads and
--help prints; a bad argv raises UsageError, so run prints one `error:` line.
Reports are deterministic: given identical flags the JSON bytes are identical
across runs (wall-clock timing goes to stderr only, never into the report).
_render_json writes the bytes of json.dumps(report, indent=2): ints by str and
empty containers as [] or {}, the rest from json's C encoders (with an indent
json would use its Python one).
Exit codes: 0 verified (or zero-up-to), 2 mismatch, 1 usage error.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
import types
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
    names = [b["name"] for b in basis]     # by index, X_0 first
    brackets = [{"i": names[0], "j": el.name, "out": [[el.name, xr.frac_text(el.eigenvalue)]]}
                for el in result.elements if el.eigenvalue]
    brackets += [{"i": names[i], "j": names[j],
                  "out": [[names[k], xr.frac_text(n, d)] for k, n, d in coeffs]}
                 for (i, j), coeffs in sorted(result.entries.items())]
    return {"basis": basis, "brackets": brackets}


def _closure_certs(result: cl.ClosureResult) -> dict:
    """Every table entry is exact on jets up to the closure's order."""
    return {
        f"{result.elements[i - 1].name},{result.elements[j - 1].name}": f"zero-up-to-{result.order}"
        for i, j in sorted(result.entries)
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
    # each integral comes from one weight block, so its monomials share a weight
    for w, ok in zip(basis, an.annihilates(f, basis)):
        if not ok:
            return "mismatch", {"error": f"reported integral fails re-verification: {xr.poly_to_text(w, True)}"}, {}
    payload = {
        "equation": xr.qp_to_text(f),
        "weight_bound": args.weight,
        "dimension": len(basis),
        "basis": [xr.poly_to_text(w, True) for w in basis],
    }
    # re-verified-at-order names no order annihilates reads; ROADMAP item 2 removes it
    return "verified", payload, {"re-verified-at-order": order + 4}


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
    vals = []
    for k, x in enumerate(args.matrix.split(","), 1):
        try:
            vals.append(Fraction(x.strip()))
        except ValueError as e:
            raise UsageError(f"bad --matrix: {e}") from e
        except ZeroDivisionError:
            raise UsageError(f"bad --matrix: entry {k} {x.strip()!r}: zero denominator") from None
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
    encode_basestring_ascii, every int (a bool is not one) from str, every
    empty container written out and every other scalar from the compact
    encoder."""
    if not isinstance(obj, (dict, list, tuple)):
        return _enc(obj) if isinstance(obj, str) else json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = pad + "  "
    if isinstance(obj, dict):
        body = ("," + inner).join([
            _enc(k if isinstance(k, str) else json.dumps(k)) + ": "
            + (_enc(v) if type(v) is str else str(v) if type(v) is int else _render_json(v, inner))
            for k, v in obj.items()])
        return f"{{{inner}{body}{pad}}}"
    body = ("," + inner).join([_enc(v) if type(v) is str else str(v) if type(v) is int
                               else _render_json(v, inner) for v in obj])
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


# COMMANDS[name] = (fn, help, options), options[flag] = (kind, default, help).
# A kind is str or int (one value), bool (a switch), a tuple of choices, or a
# list of types (one value each, kept as a list); a default of ... is required.
_EQ = "f(u): an exponential sum, or liouville, sinh, tzitzeica"
_IO = {"format": (("json", "text"), "json", "json or text"),
       "out": (str, None, "write the report to a file")}
_KEPT = "; accepted because report inputs record it, until ROADMAP item 2 deletes it"
COMMANDS = {
    "bell": (cmd_bell, "complete/incomplete Bell polynomials", {
        "complete": (int, None, "N: the complete Bell polynomial B_N"),
        "incomplete": ([int, int], None, "N K: the partial Bell polynomial B(N, K)"), **_IO}),
    "charalg": (cmd_charalg, "generate the characteristic algebra table", {
        "equation": (str, ..., _EQ), "degree": (int, 8, "top degree of the table"),
        "order": (int, 12, "truncation order"), **_IO}),
    "loops": (cmd_loops, "matrix-side loop algebra tables", {
        "algebra": (str, ..., "sl2 or sl3t"), "max": (int, 16, "largest basis index"),
        "table": (bool, False, "selects nothing: the table is always emitted" + _KEPT), **_IO}),
    "integrals": (cmd_integrals, "search x-integrals up to a weight bound", {
        "equation": (str, ..., _EQ), "weight": (int, ..., "weight bound"),
        "order": (int, 0, "sets the re-verification order, order + 4; the search itself is "
                          "exact at any order (0 = weight + 1, the smallest allowed)"), **_IO}),
    "symmetry": (cmd_symmetry, "check the defining equation for a candidate phi", {
        "equation": (str, ..., _EQ), "phi": (str, ..., "a polynomial in u1, u2, ..."),
        "order": (int, 0, "selects nothing: X(f) is read only through phi's top index, and an "
                          "order below that index + 2 is rejected" + _KEPT), **_IO}),
    "verify-iso": (cmd_verify_iso, "compare the jet-side table with its matrix realization", {
        "equation": (str, ..., "sinh or tzitzeica"), "degree": (int, 8, "top degree of the table"),
        "order": (int, 12, "truncation order"), **_IO}),
    "exp2d": (cmd_exp2d, "second-order integral of a 2D exponential system", {
        "matrix": (str, ..., "a11,a12,a21,a22"),
        "order": (int, 0, "selects nothing: w2 reads only u^a_1 and u^a_2, and an order "
                          "below 2 is rejected" + _KEPT), **_IO}),
    "growth": (cmd_growth, "growth functions of closures or presented algebras", {
        "equation": (str, None, _EQ), "degree": (int, 12, "largest n of F(n)"),
        "algebra": (str, None, "presented algebra: m0, m2, W+, n2^3"),
        "order": (int, 0, "truncation order of --equation (0 = degree + 4)"), **_IO}),
    "jacobi": (cmd_jacobi, "Jacobi identity sweep for presented algebras", {
        "algebra": (str, ..., "m0, m2, W+, n2^3, or m0S with --s"),
        "s": (str, None, "comma-separated odd integers for m0S"),
        "degree": (int, 20, "degree bound"), **_IO}),
}


def _help(command=None) -> None:
    """Print the --help text: every command, or every flag of `command`."""
    rows = [(name, text) for name, (_, text, _) in COMMANDS.items()] if command is None else [
        (f"--{flag}", text + (" (required)" if default is ... else "" if default is None
                              or kind is bool else f" (default {default})"))
        for flag, (kind, default, text) in COMMANDS[command][2].items()]
    sys.stdout.write("\n".join([
        f"usage: charlie {command or 'COMMAND'} [--flag VALUE ...]",
        COMMANDS[command][1] if command else "charlie COMMAND --help lists its flags",
        *(f"  {a:<14}{b}" for a, b in rows)]) + "\n")


def _value(flag, kind, text):
    """One token read as a value of its kind."""
    if kind is str or isinstance(kind, tuple) and text in kind:
        return text
    if kind is int:
        try:
            return int(text)
        except ValueError:
            pass
    raise UsageError(f"{flag} takes {'an int' if kind is int else ' or '.join(kind)}, "
                     f"not {text!r}")


def parse_args(argv):
    """The namespace the cmd_* functions read, or None once --help is printed.
    Flags are exact names, as --flag value or --flag=value; the token after a
    flag is its value, and a repeated flag keeps its last value."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return _help()
    if command not in COMMANDS:
        raise UsageError(f"{'no command' if command is None else f'unknown command {command!r}'}"
                         f"; choose from {', '.join(COMMANDS)}")
    fn, _, options = COMMANDS[command]
    ns = types.SimpleNamespace(command=command, fn=fn, **{k: v[1] for k, v in options.items()})
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return _help(command)
        flag, eq, text = token.partition("=")
        kind = options[flag[2:]][0] if flag.startswith("--") and flag[2:] in options else None
        if kind is None or kind is bool and eq:
            raise UsageError(f"unrecognized argument {token!r} for {command}")
        kinds = [] if kind is bool else kind if isinstance(kind, list) else [kind]
        texts = [text] * bool(eq) + list(itertools.islice(tokens, len(kinds) - bool(eq)))
        if len(texts) < len(kinds):
            raise UsageError(f"{flag} needs {len(kinds)} value{'s' * (len(kinds) > 1)}")
        values = [_value(flag, k, t) for k, t in zip(kinds, texts)]
        setattr(ns, flag[2:], values if isinstance(kind, list) else values[0] if values else True)
    if missing := [f"--{flag}" for flag, value in vars(ns).items() if value is ...]:
        raise UsageError(f"{command} needs {' and '.join(missing)}")
    return ns


def build_parser():
    """An object whose parse_args(argv) is parse_args.  No command calls it:
    bench/worker.py times it by name, so it stays until the worker changes."""
    return types.SimpleNamespace(parse_args=parse_args)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if (args := parse_args(argv)) is None:  # --help was printed
            return 0
        started = time.monotonic()
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
