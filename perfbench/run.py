"""Benchmark of ``teleport run``: end-to-end metrics, or per-layer metrics from spans.

Usage, from the repository root::

    python3 perfbench/run.py --workload reference_run --seed 1 --seconds 25 --trace 0

It drives ``cvteleport.cli.main(["run", <config>])`` in this process on inputs
that ``workloads.py`` generates from the seed.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``,
holding the end-to-end metrics with ``--trace 0`` and the per-layer metrics
with ``--trace 1``.  The lines before it give the same figures by name and
unit, the failure fraction and the run metadata.  See README.md here.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for setup_s, spread over the timed window; the
#: median counts.  Machine load here drifts over seconds, so one burst of
#: probes would sample a single moment of it.
SETUP_PROBES = 9
MB = 1e6

END_TO_END = {
    "run_s_p50": "s",
    "run_s_p90": "s",
    "setup_s": "s",
    "peak_mb": "MB",
}

#: Per-layer metrics, ``<module>.<function>.<quantity>``.  ``s`` sums span
#: durations over one run, ``self_s`` subtracts child spans, and counts are
#: exact.  A layer that does not run in a workload reports 0.
PER_LAYER = {
    "config.parse_config.s": "s",
    "signals.load_signal.s": "s",
    "signals.save_signal.s": "s",
    "signals.save_signal.calls": "count",
    "signals.save_signal.bytes": "B",
    "signals.atomic_write_text.s": "s",
    "signals.atomic_write_text.bytes": "B",
    "grid.moments.s": "s",
    "grid.moments.calls": "count",
    "grid.resample.s": "s",
    "grid.to_momentum.s": "s",
    "grid.normalize.s": "s",
    "grid.normalize.calls": "count",
    "channel.teleport.ConvolutionOnly.s": "s",
    "channel.teleport.ConvolutionOnly.calls": "count",
    "channel.teleport.MultiplicationOnly.s": "s",
    "channel.teleport.MultiplicationOnly.calls": "count",
    "channel.teleport.General.s": "s",
    "channel.teleport.General.calls": "count",
    "channel.teleport.General.pairs": "count",
    "channel.teleport.General.pairs_per_s": "1/s",
    "channel.sample_outcome.s": "s",
    "channel.build_outcome_distribution.s": "s",
    "channel.build_outcome_distribution.peak_mb": "MB",
    "analysis.run_sweep.s": "s",
    "analysis.run_sweep.busy_s": "s",
    "analysis.run_sweep.concurrency": "ratio",
    "analysis.fidelity.s": "s",
    "analysis.kernel_profile.s": "s",
    "analysis.envelope_profile.s": "s",
    "images.load_image.s": "s",
    "images.save_image.s": "s",
    "images.save_image.bytes": "B",
    "images.teleport_image.s": "s",
    "images.teleport_image.self_s": "s",
    "images.teleport_image.columns": "count",
    "runner.run.s": "s",
    "runner.run.self_s": "s",
    "runner.run.bytes": "B",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


#: Per-layer metrics that do not come from the spans of one run.
MEASURED_APART = ("channel.build_outcome_distribution.peak_mb", "trace.overhead_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cvteleport" / "cli.py").is_file():
        print(f"error: no cvteleport sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cvteleport
    import workloads

    if Path(cvteleport.__file__).resolve().parent != SRC / "cvteleport":
        print(f"error: imported cvteleport from {cvteleport.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    state = ROOT / ".perfbench"
    work = state / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(workloads.prepare(args.workload, args.seed, ROOT, work))
        if args.trace:
            metrics, lines = bench.traced(args.seconds)
            bench.write_spans(state / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            metrics, lines = bench.untraced(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(bench.failed)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"failed_frac {failed / bench.attempted!r} fraction ({failed} of {bench.attempted} operations)")
    for line in lines + [f"gate: {note}" for note in bench.notes[:20]]:
        print(f"# {line}")
    print("# meta " + json.dumps(run_metadata(args), sort_keys=True))
    result = {
        "correct": failed == 0 and bench.consistent,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


class Bench:
    """Runs one workload, checks the outputs of every run and counts operations."""

    def __init__(self, workload):
        from gate import Gate

        self.workload = workload
        self.gate = Gate(workload)
        self.notes = self.gate.notes
        self.attempted = 0
        self.failed: set = set()  # (run, operation)
        self.consistent = True  # the span tree passed the blocking-path check
        self.runs = 0
        self.traces = []  # Tracer of every traced run

    def _run(self, tracer=None) -> float:
        """Time one ``teleport run`` of the workload config, traced if asked."""
        from cvteleport import cli

        argv = ["run", str(self.workload.config)]
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            cli.main(argv)
            return time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()

    def _check(self, tracer=None, first=False) -> int:
        """Check the run's outputs, then remove them; returns the bytes written."""
        out = self.workload.out_dir
        run = self.runs
        self.runs += 1
        ops = self.gate.ops()
        self.attempted += len(ops)
        if not out.is_dir():
            self.notes.append(f"run {run}: no output directory")
            self.failed |= {(run, op) for op in ops}
            return 0
        if first:
            failed = self.gate.check_first(out, tracer.spans)
        else:
            failed = self.gate.check_repeat(out)
        self.failed |= {(run, op) for op in failed}
        if tracer is not None:
            for span in tracer.spans:
                if "path" in span.attrs:
                    path = Path(span.attrs["path"])
                    span.attrs["bytes"] = path.stat().st_size if path.exists() else 0
        written = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
        return written

    def _first_run(self) -> None:
        """Traced run with the gate's hooks; its outputs become the reference."""
        from spans import Tracer

        tracer = Tracer(run=self.runs, inspect=self.gate.inspect)
        self._run(tracer)
        self._check(tracer, first=True)

    # -- --trace 0: end-to-end metrics -----------------------------------

    def untraced(self, seconds: float):
        """Timed runs for ``seconds``, with the setup probes spread evenly among them."""
        self._first_run()
        peak = self._peak(threads="1")
        threaded_peak = self._peak(threads=None)
        self._probe()  # warms the file cache and the bytecode cache
        samples, written, setup = [], [], []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
                setup.append(self._probe())
            elif samples and elapsed >= seconds:
                break
            else:
                samples.append(self._run())
                written.append(self._check())
        pct, tail = tail_percentile(samples)
        values = {
            "run_s_p50": statistics.median(samples),
            "run_s_p90": tail,
            "setup_s": statistics.median(setup),
            "peak_mb": peak / MB,
        }
        lines = [
            f"run_s_p90 is the p{pct:.1f} of {len(samples)} runs: the highest "
            "percentile, at most 90, with ten runs beyond it",
            f"setup_s is the median of {len(setup)} fresh interpreters",
            "peak_mb is measured with TELEPORT_THREADS=1; with the default "
            f"threads this run peaked at {threaded_peak / MB:.1f} MB",
            f"bytes written per run: {statistics.median(written):.0f}",
        ]
        return _with_units(values, END_TO_END), lines

    def _peak(self, threads: str | None) -> int:
        """``tracemalloc`` peak of one run; ``threads`` sets ``TELEPORT_THREADS``."""
        saved = os.environ.get("TELEPORT_THREADS")
        if threads is not None:
            os.environ["TELEPORT_THREADS"] = threads
        tracemalloc.start()
        try:
            self._run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            if saved is None:
                os.environ.pop("TELEPORT_THREADS", None)
            else:
                os.environ["TELEPORT_THREADS"] = saved
            self._check()

    def _probe(self) -> float:
        """Wall time of a fresh interpreter that imports the CLI, parses and loads."""
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(self.workload.config)]
        start = time.perf_counter()
        # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which quantises the measured time.
        subprocess.run(cmd, check=True)
        return time.perf_counter() - start

    # -- --trace 1: per-layer metrics ------------------------------------

    def traced(self, seconds: float):
        """Alternate untraced and traced runs; per-layer medians over the traced ones."""
        from spans import Tracer

        self._first_run()
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            if len(plain) == len(traced):
                plain.append(self._run())
                self._check()
            else:
                tracer = Tracer(run=self.runs)
                elapsed = self._run(tracer)
                written = self._check(tracer)
                traced.append((elapsed, self._layer_values(tracer, written)))
                self.traces.append(tracer)
        values = {}
        for name in traced[0][1]:
            value = statistics.median(run[name] for _, run in traced)
            values[name] = round(value) if PER_LAYER[name] in ("count", "B") else value
        values["channel.build_outcome_distribution.peak_mb"] = self._outcome_peak() / MB
        values["trace.overhead_s"] = statistics.median(t for t, _ in traced) - statistics.median(plain)
        lines = [f"medians over {len(traced)} traced runs; overhead against {len(plain)} untraced runs"]
        return _with_units(values, PER_LAYER), lines

    def _layer_values(self, tracer, written: int) -> dict[str, float]:
        from spans import blocking_path, children_of, nesting_errors, self_seconds

        spans = tracer.spans
        kids = children_of(spans)
        agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        own_s = self_seconds(spans, kids)
        for span, own in zip(spans, own_s):
            layer = agg[span.name]
            layer["s"] += span.seconds
            layer["self_s"] += own
            layer["calls"] += 1
            for key in ("bytes", "pairs", "columns"):
                layer[key] += span.attrs.get(key, 0)
        general = agg["channel.teleport.General"]
        general["pairs_per_s"] = general["pairs"] / general["s"] if general["s"] else 0.0
        sweep = agg["analysis.run_sweep"]
        sweep["busy_s"] = agg["analysis._run_one"]["s"]
        sweep["concurrency"] = sweep["busy_s"] / sweep["s"] if sweep["s"] else 0.0
        agg["runner.run"]["bytes"] = written

        roots = [i for i, s in enumerate(spans) if s.name == "runner.run"]
        if nesting_errors(spans) or len(roots) != 1:
            self.notes.append(f"run {tracer.run}: spans do not nest under one runner.run")
            self.consistent = False
        else:
            # The charges partition runner.run; on the calling thread, outside
            # the pool, each span's charge must equal its self_s.
            charged = blocking_path(spans, kids, roots[0])
            gap = sum(charged.values()) - agg["runner.run"]["s"]
            main = spans[roots[0]].thread
            off = [
                spans[i].name
                for i in charged
                if spans[i].thread == main
                and spans[i].name != "analysis.run_sweep"
                and abs(charged[i] - own_s[i]) > 1e-6
            ]
            if abs(gap) > 1e-6 or off:
                self.notes.append(
                    f"run {tracer.run}: blocking-path self times miss runner.run by "
                    f"{gap:.3g} s; charge differs from self_s for {sorted(set(off))}"
                )
                self.consistent = False

        values = {}
        for metric in PER_LAYER:
            layer, _, quantity = metric.rpartition(".")
            if metric not in MEASURED_APART:
                values[metric] = agg[layer][quantity]  # 0 when the layer did not run
        return values

    def _outcome_peak(self) -> int:
        """Largest peak allocation of the first run's outcome-density builds.

        Each build is repeated on its own, so concurrent scenarios do not add
        to its peak.
        """
        from cvteleport.channel import build_outcome_distribution

        peaks = [0]
        for psi, params in self.gate.outcome_args:
            tracemalloc.start()
            try:
                build_outcome_distribution(psi, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return max(peaks)

    def write_spans(self, path: Path) -> None:
        """All spans of the traced runs, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for tracer in self.traces:
                for index, span in enumerate(tracer.spans):
                    record = {
                        "run": span.run,
                        "id": index,
                        "parent": span.parent,
                        "name": span.name,
                        "thread": span.thread,
                        "start_ns": span.start,
                        "end_ns": span.end,
                        **span.attrs,
                    }
                    fh.write(json.dumps(record) + "\n")


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest percentile, at most 90, with at least ten samples beyond it.

    With fewer than 21 samples no percentile above the median has ten beyond
    it, and the median is returned.
    """
    n = len(samples)
    pct = min(90.0, 100.0 * (n - 11) / (n - 1)) if n > 11 else 50.0
    pct = max(pct, 50.0)
    ordered = sorted(samples)
    rank = pct / 100.0 * (n - 1)
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    return pct, ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_metadata(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "TELEPORT_THREADS": os.environ.get("TELEPORT_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _commit() -> str:
    """git HEAD when available, else a digest of the sources under src/."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return func()
    return None


if __name__ == "__main__":
    sys.exit(main())
