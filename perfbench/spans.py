"""In-memory span tracing of cvteleport, installed from outside the package.

:class:`Tracer` replaces each traced function, in every ``cvteleport`` module
namespace that holds it, with a wrapper that records a span (name, start,
end, parent span, thread, run identifier).  Callers look the names up at call
time, so the wrappers see every call, including calls a module makes to its
own functions (``grid.moments`` calling ``grid.to_momentum``).  Nothing under
``src/`` is edited, and :meth:`Tracer.uninstall` restores the originals.

``run_sweep`` hands scenarios to pool threads; a span opened on a thread with
no open span takes the innermost open ``run_sweep`` span as its parent.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

#: (module, function) pairs that get a span.  ``analysis._run_one`` is the
#: per-scenario task of ``run_sweep``; its spans give ``run_sweep.busy_s``.
TRACED = (
    ("cli", "main"),
    ("config", "parse_config"),
    ("runner", "run"),
    ("signals", "load_signal"),
    ("signals", "save_signal"),
    ("signals", "atomic_write_text"),
    ("grid", "moments"),
    ("grid", "resample"),
    ("grid", "to_momentum"),
    ("grid", "normalize"),
    ("channel", "teleport"),
    ("channel", "sample_outcome"),
    ("channel", "build_outcome_distribution"),
    ("analysis", "run_sweep"),
    ("analysis", "_run_one"),
    ("analysis", "fidelity"),
    ("analysis", "kernel_profile"),
    ("analysis", "envelope_profile"),
    ("images", "load_image"),
    ("images", "save_image"),
    ("images", "teleport_image"),
)

# Functions whose first argument is the path of a file they write.
_WRITERS = {"signals.save_signal", "signals.atomic_write_text", "images.save_image"}


@dataclass
class Span:
    name: str
    parent: int | None
    thread: int
    run: int
    start: int = 0  # perf_counter_ns
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    """Records the spans of one run (``run`` is its identifier) while installed.

    Span parents are indices into ``spans``.

    ``inspect`` (optional) is called as ``inspect(span, args, result)`` after
    each traced call returns, outside the span's own interval; the
    correctness gate uses it to look at teleported states and sampled
    outcomes.
    """

    def __init__(self, run: int, inspect=None):
        self.spans: list[Span] = []
        self.run = run
        self.inspect = inspect
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fork_parents: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cvteleport" or name.startswith("cvteleport."))
        ]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"cvteleport.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func):
        tracer = self
        is_teleport = name == "channel.teleport"
        is_sweep = name == "analysis.run_sweep"
        is_writer = name in _WRITERS
        is_image = name == "images.teleport_image"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._fork_parents[-1] if tracer._fork_parents else None
            span = Span(name, parent, threading.get_ident(), tracer.run)
            if is_teleport:
                span.name = f"{name}.{type(args[1]).__name__}"
                if span.name == "channel.teleport.General":
                    # Kernel entries a dense quadrature evaluates: n x nonzero input bins.
                    psi = args[0]
                    span.attrs["pairs"] = psi.grid.n * int(np.count_nonzero(psi.amplitudes))
            if is_writer:
                span.attrs["path"] = str(args[0])
            with tracer._lock:
                tracer.spans.append(span)
                index = len(tracer.spans) - 1
            stack.append(index)
            if is_sweep:
                tracer._fork_parents.append(index)
            span.start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if is_sweep:
                    tracer._fork_parents.pop()
            if is_image:
                span.attrs["columns"] = int(result.column_fidelities.size)
            if tracer.inspect is not None:
                tracer.inspect(span, args, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------


def children_of(spans: list[Span]) -> dict[int | None, list[int]]:
    kids: dict[int | None, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        kids[span.parent].append(index)
    return kids


def self_seconds(spans: list[Span], kids) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0, span.start
        intervals = sorted((spans[k].start, spans[k].end) for k in kids.get(index, ()))
        for lo, hi in intervals:
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start - covered) * 1e-9)
    return out


def nesting_errors(spans: list[Span]) -> int:
    """Spans that start before or end after their parent."""
    return sum(
        1
        for s in spans
        if s.parent is not None
        and (s.start < spans[s.parent].start or s.end > spans[s.parent].end)
    )


def blocking_path(spans: list[Span], kids, root: int) -> dict[int, float]:
    """Seconds of ``root``'s interval charged to each span on its blocking path.

    Every instant of the root's interval is charged to exactly one span: walk
    down from the root, at each level taking the child that covers the
    instant and ends last (the one a join waits for).  A span whose children
    run one after another is charged its self time; of overlapping pool
    tasks, only the parts that delay the join are charged.
    """
    charged: dict[int, float] = defaultdict(float)

    def walk(node: int, lo: int, hi: int) -> None:
        children = sorted(kids.get(node, ()), key=lambda k: spans[k].start)
        points = {lo, hi}
        for k in children:
            points.update(t for t in (spans[k].start, spans[k].end) if lo < t < hi)
        points = sorted(points)
        active: list[int] = []
        i = 0
        for a, b in zip(points, points[1:]):
            while i < len(children) and spans[children[i]].start <= a:
                active.append(children[i])
                i += 1
            active = [k for k in active if spans[k].end >= b]
            if active:
                walk(max(active, key=lambda k: spans[k].end), a, b)
            else:
                charged[node] += (b - a) * 1e-9

    walk(root, spans[root].start, spans[root].end)
    return dict(charged)
