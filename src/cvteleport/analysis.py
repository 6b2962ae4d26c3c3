"""Fidelity metrics, kernel/envelope profiles, and scenario sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import (
    MeasurementOutcome,
    _require_width,
    convolution_kernel,
    envelope,
    regime_for,
    sample_outcome,
    teleport,
    validate_span,
)
from .errors import EmptyScenarioListError, TeleportError
from .grid import (
    GridSpec,
    MomentSummary,
    SampledWaveFunction,
    inner_product,
    moments,
    resample,
)
from .optics import SqueezingParams

_SQRT2 = np.sqrt(2.0)


def fidelity(psi_in: SampledWaveFunction, psi_tel: SampledWaveFunction) -> float:
    """Squared overlap |<psi_in|psi_tel>|^2 of two normalized states."""
    value = abs(inner_product(psi_in, psi_tel)) ** 2
    return float(min(value, 1.0))


def l2_distortion(psi_in: SampledWaveFunction, psi_tel: SampledWaveFunction) -> float:
    """L2 norm of the difference, phase included (0 for perfect teleportation)."""
    diff = psi_tel.amplitudes - psi_in.amplitudes
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) * psi_in.grid.dx))


@dataclass(frozen=True)
class KernelProfile:
    """Sampled convolution kernel with real and imaginary parts split out."""

    u: np.ndarray
    values: np.ndarray

    @property
    def real(self) -> np.ndarray:
        return self.values.real

    @property
    def imag(self) -> np.ndarray:
        return self.values.imag


@dataclass(frozen=True)
class EnvelopeProfile:
    x: np.ndarray
    values: np.ndarray


def kernel_profile(
    sigma_a: float, p4: float, window: tuple[float, float], num: int = 1001
) -> KernelProfile:
    """Convolution kernel k(u) = exp(i*sqrt(2)*p4*u) exp(-(u/(2 sigma_a))^2)."""
    _require_width("sigma_a", sigma_a)
    u = np.linspace(window[0], window[1], num)
    return KernelProfile(u, convolution_kernel(sigma_a, p4, u))


def envelope_profile(
    sigma_b: float, x3: float, window: tuple[float, float], num: int = 1001
) -> EnvelopeProfile:
    """Multiplication envelope exp(-((x - sqrt(2)*x3)/sigma_b)^2)."""
    _require_width("sigma_b", sigma_b)
    x = np.linspace(window[0], window[1], num)
    return EnvelopeProfile(x, envelope(sigma_b, x3, x))


@dataclass(frozen=True)
class SampleWithSeed:
    """Marker asking the sweep to draw the outcome itself.

    Either coordinate may be pinned; only the remaining one is taken from
    the sampled pair.  A seed of None must be filled in before the sweep.
    """

    seed: int | None
    fixed_x3: float | None = None
    fixed_p4: float | None = None


@dataclass(frozen=True)
class Scenario:
    """One sweep entry: squeezing, an outcome (fixed or sampled), and a grid."""

    label: str
    params: SqueezingParams
    outcome: MeasurementOutcome | SampleWithSeed
    grid: GridSpec | None = None


@dataclass
class ScenarioResult:
    label: str
    regime: str
    sigma_a: object
    sigma_b: object
    x3: float | None = None
    p4: float | None = None
    fidelity: float = float("nan")
    l2_distortion: float | None = None
    input_moments: MomentSummary | None = None
    output_moments: MomentSummary | None = None
    output: SampledWaveFunction | None = None
    error: str | None = None

    @classmethod
    def of(cls, scenario: Scenario, **fields) -> ScenarioResult:
        """A row naming the scenario, its regime and widths; the rest from ``fields``."""
        params = scenario.params
        regime = type(regime_for(params)).__name__
        return cls(scenario.label, regime, params.sigma_a, params.sigma_b, **fields)

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class FidelityReport:
    rows: list[ScenarioResult] = field(default_factory=list)

    def by_label(self, label: str) -> ScenarioResult:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    @property
    def any_failed(self) -> bool:
        return any(row.failed for row in self.rows)


def run_sweep(
    scenarios: list[Scenario],
    input_state: SampledWaveFunction,
    enforce_span_rule: bool = False,
) -> FidelityReport:
    """Teleport the input through every scenario, in order, and assemble the report.

    Scenario failures (ZeroNorm, GridTooNarrow, ...) are recorded per row and
    do not abort the sweep.  Identical seeds give identical reports.
    """
    if not scenarios:
        raise EmptyScenarioListError("no scenarios to run")
    labels = [s.label for s in scenarios]
    if len(set(labels)) != len(labels):
        raise ValueError("scenario labels must be unique within a sweep")
    rows = [_run_one(s, input_state, enforce_span_rule) for s in scenarios]
    return FidelityReport(rows=rows)


def _run_one(
    scenario: Scenario,
    input_state: SampledWaveFunction,
    enforce_span_rule: bool = False,
) -> ScenarioResult:
    request = scenario.outcome
    if isinstance(request, SampleWithSeed) and request.seed is None:
        raise ValueError(f"scenario {scenario.label!r}: a sampled outcome needs a seed")
    params = scenario.params
    row = ScenarioResult.of(scenario, l2_distortion=float("nan"))
    try:
        state = resample(input_state, scenario.grid or input_state.grid)
        if isinstance(request, SampleWithSeed):
            drawn = sample_outcome(state, params, request.seed)
            outcome = MeasurementOutcome(
                drawn.x3 if request.fixed_x3 is None else request.fixed_x3,
                drawn.p4 if request.fixed_p4 is None else request.fixed_p4,
            )
        else:
            outcome = request
        row.x3, row.p4 = outcome.x3, outcome.p4
        row.input_moments = moments(state)
        if enforce_span_rule:
            validate_span(
                state.grid, row.input_moments.support_length, outcome.x3, params.sigma_b
            )
        tele = teleport(state, regime_for(params), outcome)
        row.output = tele
        row.fidelity = fidelity(state, tele)
        row.l2_distortion = l2_distortion(state, tele)
        row.output_moments = moments(tele)
    except TeleportError as exc:
        row.error = f"{type(exc).__name__}: {exc}"
    return row
