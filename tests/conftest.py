from fractions import Fraction

import pytest

from charlie import analysis as an
from charlie import closure as cl


@pytest.fixture(scope="session")
def sinh_small():
    """sinh-Gordon closure through degree 8 at order 12 (desk scale)."""
    return an.closure_for("sinh", order=12, degree=8)


@pytest.fixture(scope="session")
def tz_small():
    return an.closure_for("tzitzeica", order=12, degree=8)


@pytest.fixture(scope="session")
def sinh_big():
    """Degree-12 window at order 16: covers the full q+l <= 16 bracket sweep."""
    return an.closure_for("sinh", order=16, degree=12)


@pytest.fixture(scope="session")
def tz_big():
    return an.closure_for("tzitzeica", order=16, degree=12)


@pytest.fixture
def bad_algebra():
    """[e_i, e_j] = e_{i+j} for i != j: antisymmetry fails, so Jacobi does too."""
    return cl.PresentedAlgebra(
        "bad", lambda lbl: int(lbl[1:]),
        lambda a, b: (("e" + str(int(a[1:]) + int(b[1:])), Fraction(1)),) if a != b else (),
        lambda d: [f"e{i}" for i in range(1, d + 1)])


# one pass/fail line per acceptance criterion at the end of the run
_acceptance: dict = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if "test_criterion_" in name:
        _acceptance[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance):
        label = name.replace("test_criterion_", "criterion ")
        outcome = _acceptance[name].upper()
        terminalreporter.write_line(f"{'PASS' if outcome == 'PASSED' else 'FAIL'}  {label}")
