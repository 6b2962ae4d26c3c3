"""Deterministic execution of a run configuration."""

from __future__ import annotations

import logging
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    FidelityReport,
    SampleWithSeed,
    Scenario,
    ScenarioResult,
    envelope_profile,
    kernel_profile,
    run_sweep,
)
from .channel import regime_for
from .config import RunConfig
from .errors import ParseError, TeleportError
from .grid import to_momentum
from .optics import IDEAL
from .images import load_image, save_image, teleport_image
from .signals import (
    atomic_write_text,
    bundled_silhouette_path,
    load_signal,
    save_signal,
    write_table,
)

log = logging.getLogger(__name__)

REPORT_HEADER = "label,sigma_a,sigma_b,x3,p4,fidelity,l2_distortion"

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_PARTIAL_FAILURE = 2


def resolve_input_path(spec: str) -> Path:
    """Map the special ``bundled:silhouette`` spec to the packaged asset."""
    if spec == "bundled:silhouette":
        return bundled_silhouette_path()
    return Path(spec)


def _is_graymap(path: Path) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read(2) in (b"P2", b"P5")
    except OSError:
        return False


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(path, report: FidelityReport) -> None:
    """Each report column is the ScenarioResult attribute that its header names."""
    fields = REPORT_HEADER.split(",")
    lines = [REPORT_HEADER] + [
        ",".join(_fmt(getattr(row, name)) for name in fields) for row in report.rows
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_kernel_profile(path, sigma_a: float, p4: float, window) -> None:
    prof = kernel_profile(sigma_a, p4, window)
    table = np.column_stack((prof.u, prof.real, prof.imag))
    write_table(path, "u,real,imag\n", table, "%r,%r,%r\n")


def write_envelope_profile(path, sigma_b: float, x3: float, window) -> None:
    prof = envelope_profile(sigma_b, x3, window)
    write_table(path, "x,value\n", np.column_stack((prof.x, prof.values)), "%r,%r\n")


def _write_profiles(out_dir: Path, row: ScenarioResult, window) -> None:
    if row.sigma_a is not IDEAL:
        sa = row.sigma_a
        window_a = (-12.0 * sa, 12.0 * sa)
        write_kernel_profile(out_dir / f"{row.label}_kernel.csv", sa, row.p4, window_a)
    if row.sigma_b is not IDEAL:
        sb = row.sigma_b
        write_envelope_profile(out_dir / f"{row.label}_envelope.csv", sb, row.x3, window)


def _seeded(scenario: Scenario, config_seed: int, index: int) -> Scenario:
    """The scenario, with a seed from (master seed, index) if it draws without one."""
    outcome = scenario.outcome
    if not isinstance(outcome, SampleWithSeed) or outcome.seed is not None:
        return scenario
    seed = int(np.random.SeedSequence((config_seed, index)).generate_state(1)[0])
    return replace(scenario, outcome=replace(outcome, seed=seed))


def _log_row(row: ScenarioResult) -> None:
    if row.failed:
        log.error("scenario %s failed: %s", row.label, row.error)
    else:
        log.info(
            "scenario %s: %s, x3 %r, p4 %r, fidelity %r",
            row.label, row.regime, row.x3, row.p4, row.fidelity,
        )


def run(config: RunConfig) -> int:
    """Execute a configuration; returns the process exit status.

    Config and I/O failures raise (the CLI maps them to exit 1); scenario
    failures are recorded in the report and yield exit 2.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    input_path = resolve_input_path(config.input_path)
    if not input_path.exists():
        raise ParseError("no such input file", path=str(input_path))
    if _is_graymap(input_path):
        return _run_image(config, input_path, out_dir)
    return _run_signal(config, input_path, out_dir)


def _run_signal(config: RunConfig, input_path: Path, out_dir: Path) -> int:
    state = load_signal(input_path, config.grid)
    scenarios = [_seeded(s, config.seed, i) for i, s in enumerate(config.scenarios)]
    report = run_sweep(scenarios, state, enforce_span_rule=True)
    write_report(out_dir / "report.csv", report)
    for row in report.rows:
        _log_row(row)
        if row.failed:
            continue
        save_signal(out_dir / f"{row.label}_teleported.txt", row.output)
        save_signal(
            out_dir / f"{row.label}_teleported_p.txt",
            to_momentum(row.output),
            representation="p",
        )
        mid, half = row.input_moments.mean_x, 0.75 * row.input_moments.support_length
        window = (mid - half, mid + half)
        _write_profiles(out_dir, row, window)
    return EXIT_PARTIAL_FAILURE if report.any_failed else EXIT_OK


def _run_image(config: RunConfig, input_path: Path, out_dir: Path) -> int:
    for scenario in config.scenarios:
        if isinstance(scenario.outcome, SampleWithSeed):
            raise ParseError(
                f"scenario {scenario.label!r}: sampled outcomes are not supported "
                "for image inputs"
            )
    asset = load_image(input_path)
    line_length = asset.height if config.image_mode == "column-wise" else asset.width
    rows = []
    for scenario in config.scenarios:
        outcome = scenario.outcome
        row = ScenarioResult.of(scenario, x3=outcome.x3, p4=outcome.p4)
        rows.append(row)
        regime = regime_for(scenario.params)
        try:
            result = teleport_image(asset, regime, outcome, config.image_mode)
        except TeleportError as exc:
            row.error = f"{type(exc).__name__}: {exc}"
        else:
            save_image(out_dir / f"{row.label}.pgm", result.display)
            row_format = " ".join(["%r"] * result.raw.shape[1]) + "\n"
            write_table(out_dir / f"{row.label}_intensity.txt", "", result.raw, row_format)
            valid = result.column_fidelities[~np.isnan(result.column_fidelities)]
            if valid.size:
                row.fidelity = float(valid.mean())
            _write_profiles(out_dir, row, (0.0, float(line_length)))
        _log_row(row)
    report = FidelityReport(rows=rows)
    write_report(out_dir / "report.csv", report)
    return EXIT_PARTIAL_FAILURE if report.any_failed else EXIT_OK
