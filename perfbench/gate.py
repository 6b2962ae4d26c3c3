"""Correctness gate: which operations of one ``teleport run`` failed.

An operation is a scenario of a signal workload or one image column of an
image workload.  The first run of a benchmark process is checked in full:

* the report has a finite fidelity for every scenario, and fixed-outcome
  fidelities are within ``FIDELITY_TOL`` of the recorded or independently
  computed values;
* every state ``teleport`` returns has unit norm to ``NORM_TOL``;
* every sampled outcome coordinate lies within ``SIGMA_LIMIT`` standard
  deviations of ``channel.outcome_moments``;
* image intensities match an independent direct quadrature, and no column
  is annihilated.

Every later run must write byte-identical files (``report.csv`` included),
so it passes exactly the checks the first run passed.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from cvteleport.channel import outcome_moments
from cvteleport.grid import moments
from workloads import FIDELITY_TOL, IMAGE_SIZE, Workload

NORM_TOL = 1e-9
SIGMA_LIMIT = 6.0
#: Image intensities may differ from the direct quadrature by this share of
#: their peak.  The two routes agree to about 1e-14 at d170c08.
INTENSITY_TOL = 1e-6


def snapshot(out_dir: Path) -> dict[str, tuple[int, bytes]]:
    """File name -> (size, digest) for every file a run wrote."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        files[path.name] = (len(data), hashlib.blake2b(data, digest_size=16).digest())
    return files


def _report_rows(out_dir: Path) -> dict[str, list[str]]:
    path = out_dir / "report.csv"
    if not path.exists():
        return {}
    lines = path.read_text(encoding="utf-8").splitlines()
    return {line.split(",")[0]: line.split(",") for line in lines[1:]}


class Gate:
    def __init__(self, workload: Workload):
        self.workload = workload
        self.reference: dict[str, tuple[int, bytes]] | None = None
        self.reference_rows: dict[str, list[str]] = {}
        self.reference_failed: set = set()
        self.notes: list[str] = []
        # Captured before any tracer is installed, so checks open no spans.
        self._moments = moments
        self._outcome_moments = outcome_moments
        self.outcome_args = []  # (psi, params) of every outcome-density build

    def ops(self) -> set:
        """Every operation of one run."""
        return {op for label in self.workload.labels for op in self._ops_of(label)}

    # -- hooks for the traced first run ----------------------------------

    def inspect(self, span, args, result) -> None:
        """Tracer hook: record what the checks need on the span."""
        if span.name == "analysis._run_one":
            span.attrs["label"] = args[0].label
        elif span.name.startswith("channel.teleport."):
            psi = result
            norm = float(np.sum(np.abs(psi.amplitudes) ** 2) * psi.grid.dx)
            span.attrs["norm_err"] = abs(norm - 1.0)
        elif span.name == "channel.sample_outcome":
            psi, params = args[0], args[1]
            mx, vx, mp, vp = self._outcome_moments(self._moments(psi), params)
            span.attrs["sigmas"] = [
                float(abs(value - mean) / math.sqrt(var))
                for value, mean, var in ((result.x3, mx, vx), (result.p4, mp, vp))
                if math.isfinite(var)
            ]
        elif span.name == "channel.build_outcome_distribution":
            self.outcome_args.append((args[0], args[1]))

    # -- checks -----------------------------------------------------------

    def check_first(self, out_dir: Path, spans) -> set:
        """Full check of the first run; its files become the reference."""
        failed = set()
        rows = _report_rows(out_dir)
        if self.workload.kind == "image":
            failed |= self._check_image(out_dir, rows, spans)
        else:
            failed |= self._check_signal(out_dir, rows, spans)
        self.reference = snapshot(out_dir)
        self.reference_rows = rows
        self.reference_failed = failed
        return failed

    def check_repeat(self, out_dir: Path) -> set:
        """Operations that failed in the first run or whose files differ from it."""
        if self.reference is None:  # the first run wrote nothing to compare with
            return self.ops()
        current = snapshot(out_dir)
        rows = _report_rows(out_dir)
        failed = set(self.reference_failed)
        for label in self.workload.labels:
            mine = {k: v for k, v in current.items() if _belongs(k, label)}
            ref = {k: v for k, v in self.reference.items() if _belongs(k, label)}
            if mine != ref or rows.get(label) != self.reference_rows.get(label):
                self.notes.append(f"{label}: output differs from the first run")
                failed |= self._ops_of(label)
        return failed

    def _ops_of(self, label: str) -> set:
        if self.workload.kind == "image":
            return {(label, j) for j in range(IMAGE_SIZE)}
        return {label}

    def _check_signal(self, out_dir: Path, rows, spans) -> set:
        failed = set()
        by_label = {s.attrs.get("label"): i for i, s in enumerate(spans) if s.name == "analysis._run_one"}
        for label in self.workload.labels:
            problems = []
            row = rows.get(label)
            fid = _float(row[5]) if row else math.nan
            if not math.isfinite(fid):
                problems.append("no finite fidelity in report.csv")
            expected = self.workload.expected_fidelity.get(label)
            if expected is not None and not abs(fid - expected) <= FIDELITY_TOL:
                problems.append(f"fidelity {fid!r} vs recorded {expected!r}")
            for suffix in ("_teleported.txt", "_teleported_p.txt"):
                if not (out_dir / f"{label}{suffix}").exists():
                    problems.append(f"missing {label}{suffix}")
            task = by_label.get(label)
            below = [s for s in spans if task is not None and _under(spans, s, task)]
            if task is None or not any(s.name.startswith("channel.teleport.") for s in below):
                problems.append("teleport did not run")
            for s in below:
                if s.attrs.get("norm_err", 0.0) > NORM_TOL:
                    problems.append(f"output norm off by {s.attrs['norm_err']:.3g}")
                if any(sig > SIGMA_LIMIT for sig in s.attrs.get("sigmas", ())):
                    problems.append(f"sampled outcome {max(s.attrs['sigmas']):.3g} sigma from the mean")
            if problems:
                self.notes.append(f"{label}: " + "; ".join(problems))
                failed.add(label)
        return failed

    def _check_image(self, out_dir: Path, rows, spans) -> set:
        failed = set()
        calls = [i for i, s in enumerate(spans) if s.name == "images.teleport_image"]
        for index, label in enumerate(self.workload.labels):
            row = rows.get(label)
            fid = _float(row[5]) if row else math.nan
            expected = self.workload.expected_fidelity[label]
            if not abs(fid - expected) <= FIDELITY_TOL:
                self.notes.append(f"{label}: mean fidelity {fid!r} vs reference {expected!r}")
                failed |= self._ops_of(label)
                continue
            path = out_dir / f"{label}_intensity.txt"
            if not path.exists() or not (out_dir / f"{label}.pgm").exists():
                self.notes.append(f"{label}: missing image outputs")
                failed |= self._ops_of(label)
                continue
            got = np.loadtxt(path, ndmin=2)
            want = self.workload.expected_intensity[label]
            if got.shape != want.shape:
                self.notes.append(f"{label}: intensity shape {got.shape}")
                failed |= self._ops_of(label)
                continue
            err = np.abs(got - want).max(axis=0) / want.max()
            bad = (err > INTENSITY_TOL) | ~np.any(got > 0.0, axis=0)
            if index < len(calls):
                tele = [s for s in spans if s.parent == calls[index] and s.name.startswith("channel.teleport.")]
                if len(tele) != got.shape[1]:
                    self.notes.append(f"{label}: {len(tele)} teleport calls for {got.shape[1]} columns")
                    bad[:] = True
                for j, s in enumerate(tele[: got.shape[1]]):
                    if "error" in s.attrs or s.attrs.get("norm_err", 0.0) > NORM_TOL:
                        bad[j] = True
            else:
                bad[:] = True
            if bad.any():
                self.notes.append(f"{label}: {int(bad.sum())} columns failed")
            failed |= {(label, int(j)) for j in np.flatnonzero(bad)}
        return failed


def _belongs(filename: str, label: str) -> bool:
    return filename.startswith(label + "_") or filename.startswith(label + ".")


def _under(spans, span, ancestor: int) -> bool:
    parent = span.parent
    while parent is not None:
        if parent == ancestor:
            return True
        parent = spans[parent].parent
    return False


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan
