"""Deterministic execution of a run configuration."""

from __future__ import annotations

import logging
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import (
    Scenario,
    ScenarioResult,
    envelope_profile,
    kernel_profile,
    run_sweep,
)
from .channel import MeasurementOutcome
from .config import DEFAULT_GRID, RunConfig, parse_grid
from .errors import EmptyScenarioListError, ParseError, TeleportError
from .grid import to_momentum
from .images import ImageAsset, load_image, save_image, teleport_image
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
    with open(path, "rb") as fh:
        return fh.read(2) in (b"P2", b"P5")


def _fmt(name: str, value) -> str:
    if value is None:
        return ""
    if name.startswith("sigma_") and value in (0.0, np.inf):
        return "ideal"  # a width at its limit, spelled as in configs
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(path, rows: list[ScenarioResult]) -> None:
    """Each report column is the ScenarioResult attribute that its header names."""
    fields = REPORT_HEADER.split(",")
    lines = [REPORT_HEADER] + [
        ",".join(_fmt(name, getattr(row, name)) for name in fields) for row in rows
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_kernel_profile(path, sigma_a: float, p4: float, window) -> None:
    u, k = kernel_profile(sigma_a, p4, window)
    write_table(path, "u,real,imag\n", (u, k.real, k.imag), "%r,%r,%r\n")


def write_envelope_profile(path, sigma_b: float, x3: float, window) -> None:
    x, e = envelope_profile(sigma_b, x3, window)
    write_table(path, "x,value\n", (x, e), "%r,%r\n")


def _write_profiles(out_dir: Path, row: ScenarioResult, window) -> None:
    if row.sigma_a > 0.0:
        sa = row.sigma_a
        window_a = (-12.0 * sa, 12.0 * sa)
        write_kernel_profile(out_dir / f"{row.label}_kernel.csv", sa, row.p4, window_a)
    if row.sigma_b < np.inf:
        sb = row.sigma_b
        write_envelope_profile(out_dir / f"{row.label}_envelope.csv", sb, row.x3, window)


def _seeded(scenario: Scenario, config_seed: int, index: int) -> Scenario:
    """The scenario, with a seed from (master seed, index) if it draws without one."""
    if not scenario.draws or scenario.seed is not None:
        return scenario
    seed = int(np.random.SeedSequence((config_seed, index)).generate_state(1)[0])
    return replace(scenario, seed=seed)


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
    failures are recorded in the report and yield exit 2.  The output
    directory is created only once the input has been found, has passed the
    refusals of its kind and has loaded, so a config error writes nothing.
    Each scenario is written, logged and dropped before the next one runs,
    so a run holds one scenario's result at a time whatever their number.
    A scenario whose profiles cannot be written fails its row by name, with
    none of its files written: each writer writes the profiles first.
    """
    if not config.scenarios:
        raise EmptyScenarioListError("no scenarios to run")
    input_path = resolve_input_path(config.input_path)
    if not input_path.exists():
        raise ParseError("no such input file", path=str(input_path))
    if _is_graymap(input_path):
        _refuse_image_keys(config)
        asset, mode = load_image(input_path), config.image_mode or "column-wise"
        rows = (_image_row(asset, scenario, mode) for scenario in config.scenarios)
        length = asset.height if mode == "column-wise" else asset.width
        write = partial(_write_image, length=length)
    elif config.image_mode is not None:
        raise ParseError("image_mode applies to image inputs only; the input is a signal")
    else:
        state = load_signal(input_path, config.grid or parse_grid(DEFAULT_GRID))
        scenarios = [_seeded(s, config.seed, i) for i, s in enumerate(config.scenarios)]
        # a scenario on the run's grid shares its state; one on another grid
        # places the file's samples there, for that scenario only
        load = lambda grid: state if grid in (None, state.grid) else load_signal(input_path, grid)
        rows, write = run_sweep(scenarios, load), _write_signal
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = []
    for row in rows:
        report.append(row)
        if not row.failed:
            try:
                write(out_dir, row)
            except TeleportError as exc:
                row.fail(exc)
        _log_row(row)
        row.output = None
    write_report(out_dir / "report.csv", report)
    return EXIT_PARTIAL_FAILURE if any(row.failed for row in report) else EXIT_OK


def _write_signal(out_dir: Path, row: ScenarioResult) -> None:
    mid, half = row.input_moments.mean_x, 0.75 * row.input_moments.support_length
    _write_profiles(out_dir, row, (mid - half, mid + half))
    save_signal(out_dir / f"{row.label}_teleported.txt", row.output)
    p_path = out_dir / f"{row.label}_teleported_p.txt"
    save_signal(p_path, to_momentum(row.output), representation="p")


def _refuse_image_keys(config: RunConfig) -> None:
    if config.grid is not None:
        raise ParseError(
            "grid applies to signal inputs only (from the config or --grid); "
            "an image's grid follows the image"
        )
    for scenario in config.scenarios:
        if scenario.draws:
            raise ParseError(
                f"scenario {scenario.label!r}: sampled outcomes are not supported "
                "for image inputs"
            )
        if scenario.grid is not None:
            raise ParseError(
                f"scenario {scenario.label!r}: a scenario grid is not supported "
                "for image inputs, whose grid follows the image"
            )


def _image_row(asset: ImageAsset, scenario: Scenario, mode: str) -> ScenarioResult:
    """The scenario's row; its output is the `ImageTeleportResult`, its fidelity the mean."""
    row = ScenarioResult.of(scenario)
    outcome = MeasurementOutcome(scenario.x3, scenario.p4)
    try:
        row.output = teleport_image(asset, scenario.regime, outcome, mode)
    except TeleportError as exc:
        row.fail(exc)
    else:
        fidelities = row.output.column_fidelities
        row.fidelity = float(fidelities[~np.isnan(fidelities)].mean())
    return row


def _write_image(out_dir: Path, row: ScenarioResult, length: int) -> None:
    _write_profiles(out_dir, row, (0.0, float(length)))
    result = row.output
    save_image(out_dir / f"{row.label}.pgm", result.display)
    row_format = " ".join(["%r"] * result.raw.shape[1]) + "\n"
    write_table(out_dir / f"{row.label}_intensity.txt", "", result.raw.T, row_format)
