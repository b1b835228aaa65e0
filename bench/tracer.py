"""Outside-in tracing of charlie's public functions, for the traced benchmark run.

`Tracer.install()` rebinds module attributes inside the already-imported
`charlie` package: every name that refers to a traced function (the defining
module's attribute and every `from .x import y` alias) is pointed at a wrapper.
Nothing under `src/` is edited.

Layer boundaries get spans, kept in memory as `[name, parent, start_ns, end_ns]`
with the list index as the span id.  The hottest callees (`mono_diff` is called
millions of times at the benchmark sizes) and the per-slot helpers get counters
only, because a span there would cost more than the work it measures.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

# (module, attribute) of every function traced with a span; the span name is
# "<module>.<attribute>".
SPAN_FUNCTIONS = (
    ("cli", "run"),
    ("analysis", "verify_isomorphism"),
    ("analysis", "find_x_integrals"),
    ("closure", "generate"),
    ("closure", "jacobi_check"),
    ("jetfield", "bracket"),
    ("jetfield", "make_Xf"),
    ("linalg", "nullspace"),
    ("loopalg", "matrix_structure_constant"),
    ("loopalg", "matrix_table"),
    ("loopalg", "serre_check"),
    ("bell", "complete_bell"),
)
SPAN_METHODS = (("linalg", "LinearSpan", "express"), ("linalg", "LinearSpan", "insert"))
COUNTED_FUNCTIONS = (
    ("exactring", "poly_diff"),
    ("jetfield", "apply_field"),
    ("bell", "d_power_exp"),
)


def _charlie_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "charlie" or name.startswith("charlie.")]


def _rebind(original, replacement) -> None:
    """Point every charlie module attribute bound to `original` at `replacement`."""
    for module in _charlie_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _field_monomials(field) -> int:
    return sum(len(p) for q in (field.u_slot, *field.slots) for p in q.values())


class Tracer:
    """Spans and counters for one process; install once, read after the run."""

    def __init__(self) -> None:
        self.spans: list = []      # [name, parent id or -1, start_ns, end_ns]
        self._stack: list = []     # ids of the open spans
        self.counts: dict = {}
        self._mono_diff = [0, 0]   # calls, non-None returns
        self._poly_mul = [0, 0]    # calls, coefficient products

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import charlie.cli  # noqa: F401  (loads every charlie module)
        mods = {m.__name__.rpartition(".")[2]: m for m in _charlie_modules()}
        counts = self.counts

        def bracket_after(args, result):
            counts["jetfield.bracket.out_monomials"] += _field_monomials(result)

        def insert_after(args, result):
            counts["linalg.span_rank"] = max(counts["linalg.span_rank"], len(args[0]))

        def generate_after(args, result):
            counts["closure.new_elements"] += sum(1 for el in result.elements if el.degree > 1)

        after = {"jetfield.bracket": bracket_after, "closure.generate": generate_after}
        for key in ("jetfield.bracket.out_monomials", "linalg.span_rank", "closure.new_elements"):
            counts[key] = 0

        for mod, attr in SPAN_FUNCTIONS:
            fn = getattr(mods[mod], attr)
            name = f"{mod}.{attr}"
            if name == "loopalg.serre_check":
                wrapper = self._serre_wrapper(fn)
            else:
                wrapper = self._spanned(name, fn, after.get(name))
            _rebind(fn, wrapper)
        for mod, cls, attr in SPAN_METHODS:
            klass = getattr(mods[mod], cls)
            name = f"{mod}.{cls}.{attr}"
            fn = getattr(klass, attr)
            setattr(klass, attr, self._spanned(name, fn, insert_after if attr == "insert" else None))
        for mod, attr in COUNTED_FUNCTIONS:
            fn = getattr(mods[mod], attr)
            _rebind(fn, self._counted(f"{mod}.{attr}.calls", fn))
        _rebind(mods["exactring"].mono_diff, self._mono_diff_wrapper(mods["exactring"].mono_diff))
        _rebind(mods["exactring"].poly_mul, self._poly_mul_wrapper(mods["exactring"].poly_mul))

    def _serre_wrapper(self, fn):
        """serre_check gets one span name per realization (jet or matrix)."""
        jet = self._spanned("loopalg.serre_check.jet", fn)
        matrix = self._spanned("loopalg.serre_check.matrix", fn)

        def serre_check(algebra, realization="matrix", generators=None):
            inner = jet if realization == "jet" else matrix
            return inner(algebra, realization, generators)

        serre_check.__wrapped__ = fn
        return serre_check

    def _mono_diff_wrapper(self, fn):
        cell = self._mono_diff

        def mono_diff(m, k):
            cell[0] += 1
            result = fn(m, k)
            if result is not None:
                cell[1] += 1
            return result

        mono_diff.__wrapped__ = fn
        return mono_diff

    def _poly_mul_wrapper(self, fn):
        cell = self._poly_mul

        def poly_mul(a, b):
            cell[0] += 1
            cell[1] += len(a) * len(b)
            return fn(a, b)

        poly_mul.__wrapped__ = fn
        return poly_mul

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Additive per-process totals: exact counts (int) and span times (float s).

        busy_s sums the outermost spans of a name; self_s subtracts from each
        span the time its direct child spans cover.  A bracket counts toward
        closure.brackets_computed when closure.generate is among its ancestors.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        busy: dict = {}
        self_ns: dict = {}
        calls: dict = {}
        in_generate = 0
        for sid, (name, parent, start, end) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[sid])
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][1]
            if name not in ancestors:
                busy[name] = busy.get(name, 0) + (end - start)
            if name == "jetfield.bracket" and "closure.generate" in ancestors:
                in_generate += 1
        out = dict(self.counts)
        out["exactring.mono_diff.calls"], out["exactring.mono_diff.hits"] = self._mono_diff
        out["exactring.poly_mul.calls"], out["exactring.poly_mul.term_products"] = self._poly_mul
        out["closure.brackets_computed"] = in_generate
        for name in ("jetfield.bracket", "loopalg.matrix_structure_constant"):
            out[f"{name}.calls"] = calls.get(name, 0)
        for name, ns in busy.items():
            out[f"{name}.busy_s"] = ns / 1e9
        for name, ns in self_ns.items():
            out[f"{name}.self_s"] = ns / 1e9
        return out

    def span_records(self) -> list:
        return [{"id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
                for sid, (name, parent, start, end) in enumerate(self.spans)]


class AllocTracer:
    """Peak traced allocation inside closure.generate, measured with tracemalloc.

    Kept apart from Tracer so that tracemalloc's per-allocation cost does not
    distort the span times.
    """

    def __init__(self) -> None:
        self.peak_bytes = 0

    def install(self) -> None:
        import charlie.closure as closure
        fn = closure.generate

        def generate(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        generate.__wrapped__ = fn
        _rebind(fn, generate)
