"""Shared pytest plumbing: the package path for subprocess runs, and the
acceptance report."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

_CRITERION_LINES: list[tuple[int, str]] = []


@pytest.fixture
def criterion():
    """Record and assert one acceptance criterion.

    Usage: criterion(n, ok, detail). Prints the verdict line, stores it for
    the end-of-run summary (which bypasses output capture), then asserts.
    """

    def _report(num: int, ok: bool, detail: str) -> None:
        line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        print(line)
        _CRITERION_LINES.append((num, line))
        assert ok, line

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)


def pytest_configure(config):
    # pytest's pythonpath setting reaches this process only; the CLI tests run
    # `python -m rqbm` in subprocesses, which find the package through this
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
