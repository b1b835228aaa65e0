"""Reports stay byte-identical: every benchmark command, run in-process
through cli.run, must hash to the sha256 recorded in bench/golden.json.
The file is only read here, never written."""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from charlie import cli

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())
SWEEP = sorted(GOLDEN["oracle-sweep"].items())


def _report_digest(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(shlex.split(command))
    assert code == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload", ["closure-nonint-d10", "iso-tzitzeica-d14", "closure-sinh-d16"])
def test_report_matches_golden_hash(workload):
    (command, digest), = GOLDEN[workload].items()
    assert _report_digest(command) == digest


@pytest.mark.parametrize("command, digest", SWEEP, ids=[c for c, _ in SWEEP])
def test_sweep_report_matches_golden_hash(command, digest):
    assert _report_digest(command) == digest
