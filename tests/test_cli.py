import json

import pytest

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


def test_usage_error_unknown_subcommand(capsys):
    assert cli.run(["frobnicate"]) == 1
