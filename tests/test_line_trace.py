"""Smoke test of tools/line_trace.py: it sees the lines a call runs and no others."""

import importlib.util
import os
from pathlib import Path

from cvteleport import GridSpec

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_trace.py"


def _line_trace():
    spec = importlib.util.spec_from_file_location("line_trace", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unreached_lists_the_raise_that_a_valid_grid_skips():
    line_trace = _line_trace()
    missed = line_trace.unreached(lambda: GridSpec(-4.0, 0.5, 16))
    grid = line_trace.PACKAGE / "grid.py"
    source = grid.read_text(encoding="utf-8").splitlines()
    check = next(i for i, text in enumerate(source, 1) if "if self.n < 8" in text)
    assert "must be a power of two" in source[check]  # the raise below it
    name = os.path.realpath(grid)
    assert (name, check + 1) in missed
    assert (name, check) not in missed
