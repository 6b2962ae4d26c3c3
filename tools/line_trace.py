"""List the lines of src/cvteleport/*.py that a pytest run never executes.

Usage, from the repository root::

    python3 tools/line_trace.py [pytest arguments ...]

It runs ``pytest.main(sys.argv[1:])`` in this process under ``sys.settrace``
and ``threading.settrace``, tracing only frames whose code lives in
``src/cvteleport/*.py``.  A line counts as reachable when a code object of
its module maps an instruction to it (``co_lines()``); each reachable line
that no traced frame executed is printed as ``path:line: source``, then
``<count> unreached lines``, and the exit status is pytest's.

Code run in child processes is not seen: the tests that run
``python -m cvteleport.cli`` reach ``cli.py``'s ``__main__`` guard and the
end of its ``main`` that way, and those lines are listed here.  The standard
library alone is used, and no file is written.

``unreached(call)`` runs ``call()`` under the same tracer and returns the
(path, line) pairs it did not execute.  Lines run before the call, such as
the top level of a module that is already imported, count as unreached.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cvteleport"


def _sources() -> dict[str, Path]:
    return {os.path.realpath(path): path for path in sorted(PACKAGE.glob("*.py"))}


def _reachable(path: Path) -> set[int]:
    """Every line a code object compiled from ``path`` maps an instruction to."""
    lines, pending = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def unreached(call) -> list[tuple[str, int]]:
    """The (path, line) pairs of src/cvteleport/*.py that ``call()`` leaves unrun."""
    sources = _sources()
    resolved: dict[str, str | None] = {}  # a code object's file name -> its source
    executed: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((resolved[frame.f_code.co_filename], frame.f_lineno))
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            real = os.path.realpath(name)
            resolved[name] = real if real in sources else None
        if resolved[name] is None:
            return None
        executed.add((resolved[name], frame.f_lineno))
        return local

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(trace)
    threading.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return [
        (name, line)
        for name, path in sources.items()
        for line in sorted(_reachable(path))
        if (name, line) not in executed
    ]


def main(argv: list[str]) -> int:
    import pytest

    status = []
    missed = unreached(lambda: status.append(pytest.main(argv)))
    for name, line in missed:
        source = Path(name).read_text(encoding="utf-8").splitlines()[line - 1].strip()
        print(f"{os.path.relpath(name, ROOT)}:{line}: {source}")
    print(f"{len(missed)} unreached lines")
    return int(status[0])


if __name__ == "__main__":
    sys.path.insert(0, str(PACKAGE.parent))
    sys.exit(main(sys.argv[1:]))
