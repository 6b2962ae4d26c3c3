"""Fidelity metrics, kernel/envelope profiles, and scenario sweeps."""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .channel import (
    KernelRegime,
    MeasurementOutcome,
    _SQRT2,
    _require_width,
    sample_outcome,
    teleport,
    validate_span,
)
from .errors import (
    EmptyScenarioListError,
    GridMismatchError,
    PhaseOverflowError,
    TeleportError,
)
from .grid import (
    GridSpec,
    MomentSummary,
    SampledWaveFunction,
    inner_product,
    moments,
)


def fidelity(psi_in: SampledWaveFunction, psi_tel: SampledWaveFunction) -> float:
    """Squared overlap |<psi_in|psi_tel>|^2 / (<psi_in|psi_in> <psi_tel|psi_tel>).

    Dividing by both squared norms makes it exactly 1.0 for identical states,
    whose norms are 1 only to rounding; the clamp keeps it at most 1.
    """
    value = abs(inner_product(psi_in, psi_tel)) ** 2 / (
        inner_product(psi_in, psi_in).real * inner_product(psi_tel, psi_tel).real
    )
    return float(min(value, 1.0))


def l2_distortion(psi_in: SampledWaveFunction, psi_tel: SampledWaveFunction) -> float:
    """L2 norm of the difference, phase included (0 for perfect teleportation)."""
    if psi_in.grid != psi_tel.grid:
        raise GridMismatchError("L2 distortion requires a common grid")
    diff = psi_tel.amplitudes - psi_in.amplitudes
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) * psi_in.grid.dx))


def kernel_profile(
    sigma_a: float, p4: float, window: tuple[float, float], num: int = 1001
) -> tuple[np.ndarray, np.ndarray]:
    """(u, k(u)) at ``num`` points across ``window``, both arrays.

    k(u) = exp(i*sqrt(2)*p4*u) exp(-(u/(2 sigma_a))^2) is the complex
    convolution kernel.  k is 0 where its Gaussian is, so the phase, whose
    argument can overflow far out, is taken only where the Gaussian is not;
    a phase that still overflows there has no value to write and raises
    PhaseOverflowError.
    """
    _require_width("sigma_a", sigma_a)
    u = np.linspace(window[0], window[1], num)
    # A tiny width sends the ratio's square to inf, whose exp is the exact 0
    # wanted; an overflowing phase is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        gaussian = np.exp(-((u / (2.0 * sigma_a)) ** 2))
        phase = 1j * _SQRT2 * p4 * np.where(gaussian > 0.0, u, 0.0)
    if not np.isfinite(phase).all():
        raise PhaseOverflowError(
            f"the kernel phase sqrt(2)*p4*u overflows float64 where its Gaussian "
            f"is not 0 (sigma_a {sigma_a!r}, p4 {p4!r}, window {window[0]!r}:{window[1]!r})"
        )
    return u, np.exp(phase) * gaussian


def envelope_profile(
    sigma_b: float, x3: float, window: tuple[float, float], num: int = 1001
) -> tuple[np.ndarray, np.ndarray]:
    """(x, e(x)) at ``num`` points across ``window``, both arrays.

    e(x) = exp(-((x - sqrt(2)*x3)/sigma_b)^2) is the multiplication envelope.
    """
    _require_width("sigma_b", sigma_b)
    x = np.linspace(window[0], window[1], num)
    # A tiny width sends the ratio's square to inf, whose exp is the exact 0 wanted.
    with np.errstate(over="ignore"):
        return x, np.exp(-(((x - _SQRT2 * x3) / sigma_b) ** 2))


@dataclass(frozen=True)
class Scenario:
    """One sweep entry: a kernel regime, the homodyne outcome and a grid.

    ``x3`` and ``p4`` are taken as the channel takes them: a number is a
    fixed result, and None is drawn from its density given the other, with
    ``seed``.  ``grid`` None means the run's own grid.
    """

    label: str
    regime: KernelRegime
    x3: float | None
    p4: float | None
    seed: int | None = None
    grid: GridSpec | None = None

    @property
    def draws(self) -> bool:
        return self.x3 is None or self.p4 is None


@dataclass
class ScenarioResult:
    """One scenario's report row.

    ``output`` holds the scenario's result until the runner writes it: the
    teleported state, or an image's `ImageTeleportResult`.
    """

    label: str
    regime: str
    sigma_a: float
    sigma_b: float
    x3: float | None = None
    p4: float | None = None
    fidelity: float = float("nan")
    l2_distortion: float | None = None
    input_moments: MomentSummary | None = None
    output: object = None
    error: str | None = None

    @classmethod
    def of(cls, scenario: Scenario, **fields) -> ScenarioResult:
        """A row naming the scenario, its regime, widths and fixed outcome
        coordinates; the rest from ``fields``.  A drawn coordinate is filled
        in once drawn."""
        regime = scenario.regime
        return cls(
            scenario.label, type(regime).__name__, regime.sigma_a, regime.sigma_b,
            scenario.x3, scenario.p4, **fields,
        )

    @property
    def failed(self) -> bool:
        return self.error is not None

    def fail(self, exc: TeleportError) -> None:
        """Mark the row failed by the error's name and message, unscored."""
        self.error = f"{type(exc).__name__}: {exc}"
        self.fidelity = float("nan")
        if self.l2_distortion is not None:
            self.l2_distortion = float("nan")


def run_sweep(
    scenarios: list[Scenario], load: Callable[[GridSpec | None], SampledWaveFunction]
) -> Iterator[ScenarioResult]:
    """Teleport the input through every scenario, in order, yielding one row each.

    Each row is yielded as its scenario finishes, and the next scenario runs
    only when the caller asks for it, so a caller that drops a row's
    ``output`` before asking holds one scenario's states at a time.
    ``load(grid)`` returns the input placed on ``grid``, None meaning the
    run's own grid; each scenario runs on ``load(scenario.grid)`` as it is,
    and is scored against that same state.  An empty list, duplicate labels
    and a scenario that draws without a seed are refused here, before any
    scenario runs; a state on another grid than the scenario's own is a
    caller fault and raises ValueError when its scenario runs.  Each
    scenario's grid must satisfy the span rule of `channel.validate_span`.
    Scenario failures (ZeroNorm, GridTooNarrow, ...) are recorded per row and
    do not abort the sweep.  Identical seeds give identical rows.
    """
    if not scenarios:
        raise EmptyScenarioListError("no scenarios to run")
    labels = [s.label for s in scenarios]
    if len(set(labels)) != len(labels):
        raise ValueError("scenario labels must be unique within a sweep")
    for scenario in scenarios:
        if scenario.draws and scenario.seed is None:
            raise ValueError(f"scenario {scenario.label!r}: a sampled outcome needs a seed")
    return (_run_one(s, load) for s in scenarios)


def _run_one(scenario: Scenario, load) -> ScenarioResult:
    regime = scenario.regime
    row = ScenarioResult.of(scenario, l2_distortion=float("nan"))
    try:
        state = load(scenario.grid)
        if scenario.grid is not None and state.grid != scenario.grid:
            raise ValueError(
                f"scenario {scenario.label!r}: the input was placed on {state.grid}, "
                f"not on the scenario's grid {scenario.grid}"
            )
        if scenario.draws:
            outcome = sample_outcome(state, regime, scenario.seed, scenario.x3, scenario.p4)
        else:
            outcome = MeasurementOutcome(scenario.x3, scenario.p4)
        row.x3, row.p4 = outcome.x3, outcome.p4
        row.input_moments = moments(state)
        validate_span(state.grid, row.input_moments.support_length, outcome.x3, regime.sigma_b)
        tele = teleport(state, regime, outcome)
        row.output = tele
        row.fidelity = fidelity(state, tele)
        row.l2_distortion = l2_distortion(state, tele)
    except TeleportError as exc:
        row.fail(exc)
    return row
