"""The names bench/tracer.py looks up by getattr exist in charlie.

The traced benchmark run (`bench/run.py --trace 1`) rebinds these functions
by name; deleting or renaming one breaks tracing only at run time.  The
tracer module is imported read-only from the checkout.
"""

import importlib
import inspect
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    # executed from its source text, so no bytecode cache is written under bench/
    module = types.ModuleType("charlie_bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_traced_names_exist_and_are_callable():
    tracer = _tracer()
    functions = (*tracer.SPAN_FUNCTIONS, *tracer.COUNTED_FUNCTIONS,
                 ("exactring", "mono_diff"), ("exactring", "poly_mul"))
    for mod, attr in functions:
        assert callable(getattr(importlib.import_module(f"charlie.{mod}"), attr)), (mod, attr)
    for mod, cls, attr in tracer.SPAN_METHODS:
        klass = getattr(importlib.import_module(f"charlie.{mod}"), cls)
        assert callable(getattr(klass, attr)), (mod, cls, attr)


def test_serre_check_binds_the_tracer_call():
    # the tracer's wrapper calls serre_check(algebra, realization, generators)
    from charlie import loopalg

    params = inspect.signature(loopalg.serre_check).parameters
    assert list(params) == ["algebra", "realization", "generators"]
    inspect.signature(loopalg.serre_check).bind("n1", "matrix", None)


def test_tracer_counts_bracket_monomials():
    # jetfield.bracket.out_monomials is read through the result's u_slot and
    # slots; [D, X(e^u)] = -e^u X_0 has one monomial
    from charlie import exactring as xr
    from charlie import jetfield as jf
    import oracles as orc

    result = jf.bracket(orc.make_D(4), jf.make_Xf(xr.qp_parse("e^(u)"), 4))
    assert _tracer()._field_monomials(result) == 1
