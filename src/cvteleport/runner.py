"""Deterministic execution of a run configuration."""

from __future__ import annotations

import logging
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
from .channel import MeasurementOutcome, regime_for
from .config import SAMPLE, RunConfig, ScenarioSpec
from .errors import ParseError, TeleportError
from .grid import to_momentum
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


def scenario_seed(config_seed: int, spec: ScenarioSpec, index: int) -> int:
    """Per-scenario random seed: explicit, or derived from (master, index)."""
    if spec.seed is not None:
        return spec.seed
    return int(np.random.SeedSequence((config_seed, index)).generate_state(1)[0])


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


def _write_profiles(
    out_dir: Path, spec: ScenarioSpec, x3: float | None, p4: float | None, window
) -> None:
    if not spec.params.a_is_ideal and p4 is not None:
        sa = spec.params.sigma_a
        window_a = (-12.0 * sa, 12.0 * sa)
        write_kernel_profile(out_dir / f"{spec.label}_kernel.csv", sa, p4, window_a)
    if not spec.params.b_is_ideal and x3 is not None:
        sb = spec.params.sigma_b
        write_envelope_profile(out_dir / f"{spec.label}_envelope.csv", sb, x3, window)


def _build_scenarios(config: RunConfig) -> list[Scenario]:
    scenarios = []
    for index, spec in enumerate(config.scenarios):
        if spec.needs_sampling:
            outcome = SampleWithSeed(
                seed=scenario_seed(config.seed, spec, index),
                fixed_x3=None if spec.x3 == SAMPLE else spec.x3,
                fixed_p4=None if spec.p4 == SAMPLE else spec.p4,
            )
        else:
            outcome = MeasurementOutcome(spec.x3, spec.p4)
        scenarios.append(
            Scenario(
                label=spec.label,
                params=spec.params,
                outcome=outcome,
                grid=spec.grid or config.grid,
            )
        )
    return scenarios


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
    scenarios = _build_scenarios(config)
    report = run_sweep(scenarios, state, enforce_span_rule=True)
    write_report(out_dir / "report.csv", report)
    for spec, row in zip(config.scenarios, report.rows):
        if row.failed:
            log.error("scenario %s failed: %s", row.label, row.error)
            continue
        save_signal(out_dir / f"{row.label}_teleported.txt", row.output)
        save_signal(
            out_dir / f"{row.label}_teleported_p.txt",
            to_momentum(row.output),
            representation="p",
        )
        mid, half = row.input_moments.mean_x, 0.75 * row.input_moments.support_length
        window = (mid - half, mid + half)
        _write_profiles(out_dir, spec, row.x3, row.p4, window)
    return EXIT_PARTIAL_FAILURE if report.any_failed else EXIT_OK


def _run_image(config: RunConfig, input_path: Path, out_dir: Path) -> int:
    for spec in config.scenarios:
        if spec.needs_sampling:
            raise ParseError(
                f"scenario {spec.label!r}: sampled outcomes are not supported "
                "for image inputs"
            )
    asset = load_image(input_path)
    line_length = asset.height if config.image_mode == "column-wise" else asset.width
    rows = []
    for spec in config.scenarios:
        regime = regime_for(spec.params)
        outcome = MeasurementOutcome(spec.x3, spec.p4)
        row = ScenarioResult(
            label=spec.label,
            regime=type(regime).__name__,
            sigma_a=spec.sigma_a,
            sigma_b=spec.sigma_b,
            x3=float(spec.x3),
            p4=float(spec.p4),
            fidelity=float("nan"),
            l2_distortion=None,
        )
        rows.append(row)
        try:
            result = teleport_image(asset, regime, outcome, config.image_mode)
        except TeleportError as exc:
            log.error("scenario %s failed: %s", spec.label, exc)
            row.error = f"{type(exc).__name__}: {exc}"
            continue
        save_image(out_dir / f"{spec.label}.pgm", result.display)
        row_format = " ".join(["%r"] * result.raw.shape[1]) + "\n"
        write_table(out_dir / f"{spec.label}_intensity.txt", "", result.raw, row_format)
        valid = result.column_fidelities[~np.isnan(result.column_fidelities)]
        if valid.size:
            row.fidelity = float(valid.mean())
        _write_profiles(out_dir, spec, spec.x3, spec.p4, (0.0, float(line_length)))
    report = FidelityReport(rows=rows)
    write_report(out_dir / "report.csv", report)
    return EXIT_PARTIAL_FAILURE if report.any_failed else EXIT_OK
