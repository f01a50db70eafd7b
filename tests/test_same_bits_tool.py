"""Smoke test of ``tools/same_bits.py``, the digest printer that every
same-bits check runs.  The tool is loaded from its file, unchanged, so that
an API change that breaks it fails this suite, not only the next check."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bits.py"


def load(monkeypatch):
    spec = importlib.util.spec_from_file_location("same_bits", TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends its src
    spec.loader.exec_module(module)
    return module


def test_same_bits_rows_repeat_within_one_process(monkeypatch):
    tool = load(monkeypatch)
    desk = tool.desk_suite()
    assert [row.rsplit(" ", 1)[0] for row in desk] == ["desk-suite solves",
                                                      "desk-suite traces"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", row.rsplit(" ", 1)[1]) for row in desk)
    # The gate compares two runs' digests, so one process must repeat them.
    assert tool.desk_suite() == desk
    kernel = tool.kernel()
    assert [row.rsplit(" ", 1)[0] for row in kernel] == [
        f"kernel n={n} m={m}" for n in (10, 1_000, 100_000) for m in (2, 6)]
    assert all(re.fullmatch(r"[0-9a-f]{16}", row.rsplit(" ", 1)[1]) for row in kernel)
    assert tool.kernel() == kernel


@pytest.mark.parametrize("mode", ["accelerated", "plain"])
def test_same_bits_large_n_rows_name_each_problem(mode, monkeypatch):
    # Rows 3 (accelerated) and 7 (plain) of the tool's output.
    tool = load(monkeypatch)
    rows = tool.large_n(20, mode=mode)
    short = r"[0-9a-f]{16}"
    fields = {"accelerated": rf"accepted {short} rank \[\d+(, \d+)*\] f_next {short} "
                             rf"nu {short} x {short}",
              "plain": rf"f_next {short} x {short}"}[mode]
    prefix = "plain " if mode == "plain" else ""
    for name, row in zip(("broyden-tri", "trigexp"), rows, strict=True):
        assert re.fullmatch(rf"{prefix}{name} 20: iter=\d+ fcnt=\d+ istop=0 {fields}", row), row
    assert tool.large_n(20, mode=mode) == rows
