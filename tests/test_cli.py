import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from charlie import analysis as an
from charlie import cli
from charlie import closure as cl
from charlie import exactring as xr
from charlie import jetfield as jf


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_parse_equation_aliases():
    f = cli.parse_equation("sinh")
    assert f == xr.qp_parse("1/2 * e^(u) - 1/2 * e^(-u)")
    assert an.identify_equation(f) == "sinh"
    f = cli.parse_equation("e^u + e^(-2u)")
    assert f == xr.qp_parse("e^(u) + e^(-2*u)")
    assert an.identify_equation(f) == "tzitzeica"
    f = cli.parse_equation("e^u")
    assert f == xr.qp_parse("e^(u)") and an.identify_equation(f) == "liouville"


def test_parse_equation_juxtaposed_coefficient():
    f = cli.parse_equation("2e^(u) + e^(-u)")
    assert f == xr.qp_parse("2 * e^(u) + e^(-u)")
    assert an.identify_equation(f) is None
    assert an.identify_equation(cli.parse_equation("1/2 e^u - 1/2 e^(-u)")) == "sinh"
    assert an.identify_equation(cli.parse_equation("-1/2 e^(-u) + 1/2 e^u")) == "sinh"


def test_parse_equation_reports_the_text_as_typed():
    with pytest.raises(cli.UsageError, match=r"cannot parse '2e\^u2'"):
        cli.parse_equation("2e^u2")


def test_parse_equation_rejects_sin():
    with pytest.raises(cli.UsageError, match="real form"):
        cli.parse_equation("sin")


def test_parse_equation_rejects_jet_variables():
    with pytest.raises(cli.UsageError):
        cli.parse_equation("e^u * u1")
    with pytest.raises(cli.UsageError):
        cli.parse_equation("u_xy")
    with pytest.raises(cli.UsageError):
        cli.parse_equation("0")


def test_bell_command(capsys):
    code, rep = run_json(capsys, ["bell", "--complete", "2"])
    assert code == 0
    assert rep["status"] == "verified"
    assert rep["payload"]["polynomial"] == "1 * u1^2 + 1 * u2"
    code, rep = run_json(capsys, ["bell", "--incomplete", "4", "2"])
    assert code == 0
    assert rep["payload"]["polynomial"] == "4 * u1*u3 + 3 * u2^2"


def test_bell_usage_error(capsys):
    assert cli.run(["bell"]) == 1


def test_charalg_liouville(capsys):
    code, rep = run_json(capsys, ["charalg", "--equation", "liouville",
                                  "--order", "9", "--degree", "6"])
    assert code == 0
    assert rep["payload"]["dimension_with_toral"] == 2
    assert rep["payload"]["table"]["brackets"] == [
        {"i": "X0", "j": "X1", "out": [["X1", "1"]]}]


def test_charalg_table_wire_format(capsys):
    code, rep = run_json(capsys, ["charalg", "--equation", "tzitzeica",
                                  "--order", "10", "--degree", "5"])
    assert code == 0
    table = rep["payload"]["table"]
    assert {"name": "Y3", "d": 2, "r": -1} in table["basis"]
    assert {"i": "Y1", "j": "Y2", "out": [["Y3", "1"]]} in table["brackets"]
    assert {"i": "Y1", "j": "Y4", "out": [["Y5", "-3"]]} in table["brackets"]
    assert rep["certificates"]["Y1,Y2"] == "zero-up-to-10"


def test_verify_iso_exit_code_and_status(capsys):
    code, rep = run_json(capsys, ["verify-iso", "--equation", "sinh",
                                  "--degree", "6", "--order", "10"])
    assert code == 0 and rep["status"] == "verified"
    assert rep["payload"]["mismatches"] == []


@pytest.mark.parametrize("equation", ["liouville", "e^u+e^(-3u)"])
def test_verify_iso_rejects_equations_without_a_loop_algebra(capsys, equation):
    assert cli.run(["verify-iso", "--equation", equation]) == 1
    assert capsys.readouterr() == (
        "", "error: verify-iso supports --equation sinh or tzitzeica\n")


def test_symmetry_mismatch_exit_code(capsys):
    code, rep = run_json(capsys, ["symmetry", "--equation", "sinh", "--phi", "u2"])
    assert code == 2 and rep["status"] == "mismatch"
    code, rep = run_json(capsys, ["symmetry", "--equation", "sinh",
                                  "--phi", "u3 - 1/2*u1^3"])
    assert code == 0 and rep["status"] == "verified"


def test_integrals_command(capsys):
    code, rep = run_json(capsys, ["integrals", "--equation", "liouville", "--weight", "2"])
    assert code == 0
    assert rep["payload"]["basis"] == ["1 * u1^2 - 2 * u2"]


def test_integrals_order_sets_reverification_order(capsys):
    # the search is exact at any order; --order only moves the re-verification
    reports = {}
    for order in (13, 17):
        code, reports[order] = run_json(capsys, ["integrals", "--equation", "liouville",
                                                 "--weight", "12", "--order", str(order)])
        assert code == 0 and reports[order]["status"] == "verified"
        assert reports[order]["certificates"] == {"re-verified-at-order": order + 4}
    assert reports[13]["payload"] == reports[17]["payload"]
    assert reports[13]["payload"]["dimension"] > 0
    assert cli.run(["integrals", "--equation", "liouville", "--weight", "12",
                    "--order", "5"]) == 1
    assert capsys.readouterr().err == "error: order 5 too small for weight bound 12\n"


def test_integrals_builds_x_f_only_through_the_weight(capsys, monkeypatch):
    # apply_field reads slot k only where a candidate depends on u_k, so a
    # large --order must not build the exponentially growing slots past it
    orders = []
    make_Xf = jf.make_Xf

    def recording_make_Xf(f, order):
        orders.append(order)
        return make_Xf(f, order)

    monkeypatch.setattr(jf, "make_Xf", recording_make_Xf)
    reports = {}
    for order in (5, 60):
        code, reports[order] = run_json(capsys, ["integrals", "--equation", "e^u",
                                                 "--weight", "2", "--order", str(order)])
        assert code == 0 and reports[order]["status"] == "verified"
    assert reports[5]["payload"] == reports[60]["payload"]
    assert reports[60]["certificates"] == {"re-verified-at-order": 64}
    assert orders and max(orders) <= 2


def test_exp2d_command(capsys):
    code, rep = run_json(capsys, ["exp2d", "--matrix", "2,-4,-1,2"])
    assert code == 0 and rep["payload"]["annihilated"] is True
    assert cli.run(["exp2d", "--matrix", "1,2,3"]) == 1


def test_exp2d_rejects_orders_below_two(capsys):
    # w2 uses u^a_2: order 1 truncates it away and order -1 checks nothing
    for order in ("1", "-1"):
        assert cli.run(["exp2d", "--matrix", "2,-4,-1,2", "--order", order]) == 1
        assert capsys.readouterr() == (
            "", f"error: order {order} too small: w2 uses u^a_2, so the order must be >= 2\n")
    code, rep = run_json(capsys, ["exp2d", "--matrix", "2,-4,-1,2", "--order", "2"])
    assert code == 0 and rep["payload"]["annihilated"] is True


@pytest.mark.parametrize("argv", [
    ["charalg", "--equation", "sinh", "--degree", "-3", "--order", "12"],
    ["verify-iso", "--equation", "sinh", "--degree", "0"],
    ["growth", "--equation", "sinh", "--degree", "0"],
    ["growth", "--algebra", "m0", "--degree", "0"],
    ["integrals", "--equation", "liouville", "--weight", "-1"],
    ["jacobi", "--algebra", "W+", "--degree", "-1"],
    ["loops", "--algebra", "sl3t", "--max", "-2"],
])
def test_non_positive_window_bounds_are_rejected(capsys, argv):
    assert cli.run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_order_beyond_the_packed_kernel_is_a_usage_error(capsys):
    # rejected before X(f) is built: building it to this order would not end
    assert cli.run(["charalg", "--equation", "sinh", "--degree", "4", "--order", "40000"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: order 40000 too large") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["charalg", "--equation", "1/0e^u"],
    ["integrals", "--equation", "3/0*e^u", "--weight", "2"],
    ["symmetry", "--equation", "sinh", "--phi", "2/0*u1"],
])
def test_zero_denominator_is_a_usage_error(capsys, argv):
    assert cli.run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.endswith(": zero denominator\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["symmetry", "--equation", "sinh", "--phi", "u1^"],
    ["symmetry", "--equation", "sinh", "--phi", "u1*"],
    ["charalg", "--equation", "e^u + 2e"],
    ["charalg", "--equation", "e^(u)+"],
    ["charalg", "--equation", "-"],
])
def test_truncated_last_term_is_a_usage_error(capsys, argv):
    # a last term cut short is an error, not a term silently dropped
    assert cli.run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("equation", ["e-u", "eu", "e2u", "e^u + e(-2u)", "2eu"])
def test_an_exponential_without_its_caret_is_a_usage_error(capsys, equation):
    # `e-u` once read as e^(-u) and `e2u` as e^(2u): the '^' is required
    assert cli.run(["charalg", "--equation", equation]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad equation: ") and err.count("\n") == 1
    assert "unrecognized factor" in err


@pytest.mark.parametrize("argv, message", [
    (["loops", "--algebra", "sl4"], "error: unknown algebra 'sl4' (choose sl2 or sl3t)\n"),
    # the rest of the line is Fraction's own text
    (["exp2d", "--matrix", "1,x,2,3"], "error: bad --matrix: "),
    (["growth", "--algebra", "foo", "--degree", "3"],
     "error: unknown presented algebra 'foo'; choose from ['W+', 'm0', 'm2', 'n2^3']\n"),
    (["growth", "--degree", "3"], "error: growth needs --equation or --algebra\n"),
    (["jacobi", "--algebra", "m0S"], "error: jacobi --algebra m0S needs --s like --s 3,5\n"),
    # the two terms cancel, leaving f = 0
    (["charalg", "--equation", "e^u - e^u"],
     "error: equation right-hand side must be a nonzero exponential sum\n"),
    (["symmetry", "--equation", "sinh", "--phi", "u3", "--order", "3"],
     "error: order 3 too small for phi with top index 3\n"),
    (["exp2d", "--matrix", "1,2,3,1/0"], "error: bad --matrix: entry 4 '1/0': zero denominator\n"),
])
def test_command_input_errors_print_one_line(capsys, argv, message):
    assert cli.run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message) and err.count("\n") == 1


def test_a_mismatch_exits_2_with_one_line(capsys, monkeypatch):
    def contradict(result):
        raise cl.MismatchError("x")
    monkeypatch.setattr(cl, "commutant_growth_offset", contradict)
    assert cli.run(["growth", "--equation", "sinh", "--degree", "3"]) == 2
    assert capsys.readouterr() == ("", "mismatch: x\n")


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    argv = ["charalg", "--equation", "sinh", "--degree", "4", "--order", "8", "--out", str(path)]
    assert cli.run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1 and not path.exists()


def test_loops_command_lists_suspected_typos(capsys):
    code, rep = run_json(capsys, ["loops", "--algebra", "sl3t", "--table", "--max", "8"])
    assert code == 0
    typos = rep["payload"]["transcribed_table_suspected_typos"]
    assert {(t["row_residue"], t["col_residue"]) for t in typos} == {(5, 7), (7, 5)}
    code, rep = run_json(capsys, ["loops", "--algebra", "sl2", "--table", "--max", "6"])
    assert code == 0
    assert {"i": "e1", "j": "e2", "out": [["e3", "1"]]} in rep["payload"]["brackets"]


def test_growth_command(capsys):
    code, rep = run_json(capsys, ["growth", "--equation", "sinh", "--degree", "6",
                                  "--order", "10"])
    assert code == 0
    assert rep["payload"]["toral_offset"] == 1
    assert [r["commutant"] for r in rep["payload"]["F"]] == [2, 3, 5, 6, 8, 9]
    code, rep = run_json(capsys, ["growth", "--algebra", "m0", "--degree", "5"])
    assert [r["value"] for r in rep["payload"]["F"]] == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("equation, period", [
    ("sinh", (2, 1)), ("tzitzeica", (2, 1, 1, 1, 2, 1)),
])
def test_growth_rates_at_degree_120(capsys, equation, period):
    # the paper's growth rates on the jet side, at the automatic order 124:
    # the per-degree dimensions repeat with the period, so F(n) grows at
    # exactly 3/2 (sinh) and 4/3 (Tzitzeica), F(120) = 180 and 160
    code, rep = run_json(capsys, ["growth", "--equation", equation, "--degree", "120"])
    assert code == 0 and rep["status"] == "verified" and rep["payload"]["order"] == 124
    F = [r["commutant"] for r in rep["payload"]["F"]]
    assert [r["full"] for r in rep["payload"]["F"]] == [v + 1 for v in F]
    assert [b - a for a, b in zip([0, *F], F)] == [period[n % len(period)] for n in range(120)]
    assert F[-1] == {"sinh": 180, "tzitzeica": 160}[equation] \
        == Fraction(sum(period), len(period)) * 120


@pytest.mark.parametrize("argv, reason", [
    (["growth", "--equation", "sinh", "--algebra", "m0"],
     "growth takes --equation or --algebra, not both"),
    (["growth", "--algebra", "m0", "--order", "8"], "--order applies to growth --equation only"),
    (["bell", "--complete", "3", "--incomplete", "3", "2"],
     "bell takes --complete N or --incomplete N K, not both"),
    (["jacobi", "--algebra", "m0", "--s", "3,5"], "--s applies to jacobi --algebra m0S only"),
], ids=["growth-equation-and-algebra", "growth-algebra-order", "bell-both", "jacobi-s-without-m0S"])
def test_an_input_the_command_would_ignore_is_a_usage_error(capsys, argv, reason):
    # the report's inputs would name a flag the payload never read
    assert cli.run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {reason}\n"


def test_jacobi_command(capsys):
    code, rep = run_json(capsys, ["jacobi", "--algebra", "W+", "--degree", "8"])
    assert code == 0 and rep["payload"]["ok"] is True
    code, rep = run_json(capsys, ["jacobi", "--algebra", "m0S", "--s", "3,5",
                                  "--degree", "8"])
    assert code == 0 and rep["payload"]["ok"] is True
    assert cli.run(["jacobi", "--algebra", "nope"]) == 1
    assert cli.run(["jacobi", "--algebra", "m0S", "--s", "3,x"]) == 1
    assert capsys.readouterr().err.endswith(
        "error: bad --s: invalid literal for int() with base 10: 'x'\n")


def test_jacobi_violation_payload(capsys, monkeypatch, bad_algebra):
    monkeypatch.setitem(cl.PRESENTED, "bad", lambda: bad_algebra)
    code, rep = run_json(capsys, ["jacobi", "--algebra", "bad", "--degree", "6"])
    assert code == 2 and rep["status"] == "mismatch"
    assert rep["payload"] == {"algebra": "bad", "degree_bound": 6, "triples_checked": 1,
                              "ok": False, "violation": ["e1", "e2", "e3", [["e6", "2"]]]}


def test_out_file_byte_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify-iso", "--equation", "tzitzeica", "--degree", "6", "--order", "10"]
    assert cli.run(args + ["--out", str(a)]) == 0
    assert cli.run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["schema"] == cli.SCHEMA


def test_cross_process_byte_determinism(tmp_path):
    # different hash seeds in different interpreters must not change the bytes
    import os
    import subprocess
    import sys
    # the child imports charlie from the same sources as this process
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outs = []
    for n, seed in enumerate(("1", "271828")):
        path = tmp_path / f"r{n}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        subprocess.run(
            [sys.executable, "-m", "charlie.cli", "charalg", "--equation", "sinh",
             "--degree", "5", "--order", "9", "--out", str(path)],
            check=True, env=env, capture_output=True)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_text_format(capsys):
    code = cli.run(["bell", "--complete", "3", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("bell: verified")
    assert "u1^3" in out


def test_text_format_of_nested_payloads(capsys):
    # dicts inside the payload indent their keys; an empty list prints as []
    code = cli.run(["verify-iso", "--equation", "sinh", "--degree", "3", "--order", "7",
                    "--format", "text"])
    assert code == 0
    assert capsys.readouterr().out == """\
verify-iso: verified
  command = verify-iso
  degree = 3
  equation = sinh
  order = 7
  equation: sinh
  order: 7
  degree: 3
  basis_size: 5
  bracket_pairs: 3
  zero_confirmations: 0
  mismatches: []
  grading_mismatches: []
  serre_jet:
    ad^3 g1 (g2): ZERO_UP_TO(7)
    ad^3 g2 (g1): ZERO_UP_TO(7)
  serre_matrix:
    ad^3 e1 (e2): True
    ad^3 e2 (e1): True
"""


def test_text_format_opens_each_list_item_with_a_dash(capsys):
    # a dict or list that is an item of a list opens with "- ": the basis
    # rows stay apart, and a [name, coeff] term is one item with two parts
    assert cli.run(["charalg", "--equation", "sinh", "--degree", "3", "--order", "7",
                    "--format", "text"]) == 0
    assert capsys.readouterr().out == """\
charalg: verified
  command = charalg
  degree = 3
  equation = sinh
  order = 7
  equation: 1/2 * e^(u) - 1/2 * e^(-u)
  order: 7
  degree: 3
  dimension_with_toral: 6
  table:
    basis:
      - name: X0
        d: 0
        r: 0
      - name: X1
        d: 1
        r: 1
      - name: X2
        d: 1
        r: -1
      - name: X3
        d: 2
        r: 0
      - name: X4
        d: 3
        r: 1
      - name: X5
        d: 3
        r: -1
    brackets:
      - i: X0
        j: X1
        out:
          - - X1
            - 1
      - i: X0
        j: X2
        out:
          - - X2
            - -1
      - i: X0
        j: X4
        out:
          - - X4
            - 1
      - i: X0
        j: X5
        out:
          - - X5
            - -1
      - i: X1
        j: X2
        out:
          - - X3
            - 1
      - i: X1
        j: X3
        out:
          - - X4
            - -1
      - i: X2
        j: X3
        out:
          - - X5
            - 1
"""


# (argv, exit code, report inputs) pinned from the argparse parser: the
# flag table must give every command the same inputs, defaults and types
PARSE_PINS = [
    (["charalg", "--equation", "sinh", "--degree=16", "--order=20"], 0,
     {"command": "charalg", "degree": 16, "equation": "sinh", "order": 20}),
    (["charalg", "--equation", "sinh", "--degree", "3", "--degree", "5", "--order", "9"], 0,
     {"command": "charalg", "degree": 5, "equation": "sinh", "order": 9}),
    (["bell", "--incomplete", "5", "2"], 0, {"command": "bell", "incomplete": [5, 2]}),
    (["loops", "--algebra", "sl2", "--max", "3"], 0,
     {"algebra": "sl2", "command": "loops", "max": 3, "table": False}),
    (["loops", "--algebra", "sl2", "--max", "3", "--table"], 0,
     {"algebra": "sl2", "command": "loops", "max": 3, "table": True}),
    (["integrals", "--equation", "liouville", "--weight", "2"], 0,
     {"command": "integrals", "equation": "liouville", "order": 0, "weight": 2}),
]


@pytest.mark.parametrize("argv, code, inputs", PARSE_PINS, ids=[" ".join(a) for a, _, _ in PARSE_PINS])
def test_parse_pins_report_inputs(capsys, argv, code, inputs):
    assert cli.run(argv) == code
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"] == inputs
    assert [type(v) for v in report["inputs"].values()] == [type(v) for v in inputs.values()]


def test_parse_pins_text_format_and_a_command_check(capsys):
    assert cli.run(["bell", "--complete", "3", "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "bell: verified\n  command = bell\n  complete = 3\n  name: B3\n"
        "  polynomial: 3 * u1*u2 + 1 * u1^3 + 1 * u3\n  weight: 3\n")
    # a value that starts with '-' reaches the command's own check
    assert cli.run(["charalg", "--equation", "sinh", "--degree", "-3"]) == 1
    assert capsys.readouterr() == ("", "error: degree -3 must be at least 1\n")


def test_usage_error_unknown_subcommand(capsys):
    assert cli.run(["frobnicate"]) == 1


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    [],
    ["charalg", "--equation", "sinh", "--foo"],
    ["charalg", "--equation", "sinh", "--deg", "3"],
    ["charalg", "--degree", "3"],
    ["charalg", "--equation"],
    ["bell", "--incomplete", "3"],
    ["charalg", "--equation", "sinh", "--degree", "x"],
    ["charalg", "--equation", "sinh", "--format", "xml"],
], ids=["unknown-command", "no-argv", "unknown-flag", "prefix", "missing-required",
        "no-value", "incomplete-one-value", "non-int", "bad-choice"])
def test_a_bad_argv_is_one_error_line(capsys, argv):
    # no usage block: the reason alone, and exact flag names only
    assert cli.run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_a_flag_value_may_start_with_a_dash(capsys):
    code, rep = run_json(capsys, ["symmetry", "--equation", "sinh", "--phi", "-u3"])
    assert code == 2 and rep["inputs"]["phi"] == "-u3"
    assert rep["payload"]["phi"] == "-1 * u3"


def test_the_parser_namespace_lacks_flags_its_command_does_not_take():
    args = cli.build_parser().parse_args(["bell", "--complete", "2"])
    assert getattr(args, "equation", None) is None
    with pytest.raises(AttributeError):
        args.equation


def test_help_lists_every_command_and_every_flag(capsys):
    assert cli.run(["--help"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and all(f"  {name} " in out for name in cli.COMMANDS)
    assert cli.run(["charalg", "--help"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: charlie charalg")
    assert all(f"  --{flag} " in out for flag in ("equation", "degree", "order", "format", "out"))
    assert cli.run(["loops", "-h"]) == 0
    assert "--table" in capsys.readouterr().out


json_text = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\u00e9\U0001f600')))
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), json_text)
json_keys = st.one_of(json_text, st.integers(), st.floats(), st.booleans(), st.none())
json_trees = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(json_keys, inner, max_size=4)),
    max_leaves=25)


@given(json_trees)
@example([True, 1, False, 0, -7, 2**70, None])     # bools are ints, but render as true/false
@example({"d": 0, "ok": True})
@example({"out": [], "m": {}, "t": ()})              # empty containers, written out directly
@settings(max_examples=300, deadline=None)
def test_render_json_equals_indented_dumps(tree):
    assert cli._render_json(tree) == json.dumps(tree, indent=2)


def test_out_file_bytes_equal_stdout_bytes(capsys, tmp_path):
    argv = ["charalg", "--equation", "tzitzeica", "--degree", "5", "--order", "9"]
    assert cli.run(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    path = tmp_path / "report.json"
    assert cli.run([*argv, "--out", str(path)]) == 0
    assert path.read_bytes() == stdout
    assert stdout == (json.dumps(json.loads(stdout), indent=2) + "\n").encode("utf-8")
