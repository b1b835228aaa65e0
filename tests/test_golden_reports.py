"""Reports stay byte-identical: three benchmark commands, run in-process
through cli.run, must hash to the sha256 recorded in bench/golden.json."""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from charlie import cli

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())


@pytest.mark.parametrize("workload", ["closure-nonint-d10", "iso-tzitzeica-d14", "closure-sinh-d16"])
def test_report_matches_golden_hash(workload):
    (command, digest), = GOLDEN[workload].items()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(shlex.split(command))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest
