"""Run configuration: line-based ``key = value`` files with [scenario] sections.

Example::

    input = bundled:silhouette
    grid = -256:256:1024
    output_dir = out
    seed = 42

    [scenario]
    label = strong
    sigma_a = 0.0055555555555555558
    sigma_b = ideal
    x3 = 0
    p4 = 180

Each key appears at most once per section.  A width at its ideal limit,
sigma_a = 0 or sigma_b = inf, is spelled exactly ``ideal`` (a number must be
positive and finite); an outcome coordinate may be ``sample``, and a scenario
``seed`` is accepted only where one of them is.  The global ``grid`` (signal
inputs) and ``image_mode`` (image inputs) stay unset in ``RunConfig`` unless
given, so the runner can refuse the one its input cannot use.  The scenarios
come back as ``analysis.Scenario`` objects: the kernel regime of the two
widths, and each coordinate as a number, or None where it is ``sample``.  A
scenario that draws and sets no seed gets one from the runner, derived from
the master seed and the scenario index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import Scenario
from .channel import regime_for
from .errors import ParseError
from .grid import GridSpec
from .signals import read_text

_GLOBAL_KEYS = {"input", "grid", "output_dir", "seed", "image_mode"}
_SCENARIO_KEYS = {"label", "sigma_a", "sigma_b", "x3", "p4", "seed", "grid"}

#: Outcome-coordinate spelling that requests sampling.
SAMPLE = "sample"

#: The grid of a signal run whose config and command line set none.
DEFAULT_GRID = "-256:256:1024"

#: Largest grid a config may request.  A run peaks at about 100 bytes per
#: grid point (tracemalloc, one scenario of each regime, n = 65536 and
#: 262144), so 2^21 points stay well under the 1 GiB that
#: ``channel.OUTCOME_MAX_BYTES`` allows an outcome density.
MAX_GRID_POINTS = 1 << 21


@dataclass
class RunConfig:
    input_path: str
    output_dir: str
    scenarios: list[Scenario] = field(default_factory=list)
    seed: int = 0
    grid: GridSpec | None = None  # signal inputs; DEFAULT_GRID when None
    image_mode: str | None = None  # image inputs; column-wise when None


def parse_grid(spec: str, path=None, line=None) -> GridSpec:
    """Parse ``xmin:xmax:n`` into a grid covering [xmin, xmax)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid must be xmin:xmax:n, got {spec!r}", path, line)
    try:
        x_min, x_max, n = float(parts[0]), float(parts[1]), int(parts[2])
        grid = GridSpec.from_bounds(x_min, x_max, n)
    except ValueError as exc:
        raise ParseError(f"bad grid {spec!r}: {exc}", path, line)
    if n > MAX_GRID_POINTS:
        raise ParseError(
            f"grid {spec!r} has {n} points, over the limit of {MAX_GRID_POINTS}", path, line
        )
    return grid


#: The limit each width spelled ``ideal`` stands for.
_IDEAL_WIDTHS = {"sigma_a": 0.0, "sigma_b": math.inf}


def _parse_width(value: str, key: str, path, line) -> float:
    if value == "ideal":
        return _IDEAL_WIDTHS[key]
    try:
        width = float(value)
    except ValueError:
        raise ParseError(f"{key} must be a number or 'ideal', got {value!r}", path, line)
    if not (math.isfinite(width) and width > 0):
        raise ParseError(f"{key} must be positive and finite, got {value!r}", path, line)
    return width


def _parse_coordinate(value: str, key: str, path, line) -> float | None:
    """A finite coordinate, or None when it is to be sampled."""
    if value == SAMPLE:
        return None
    try:
        coordinate = float(value)
    except ValueError:
        raise ParseError(f"{key} must be a number or 'sample', got {value!r}", path, line)
    if not math.isfinite(coordinate):
        raise ParseError(f"{key} must be finite, got {value!r}", path, line)
    return coordinate


def _parse_seed(value: str, key: str, path, line) -> int:
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ParseError(f"{key} must be a non-negative integer, got {value!r}", path, line)
    return seed


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    text = read_text(path)
    pstr = str(path)

    globals_raw: dict[str, tuple[str, int]] = {}
    seed = 0
    grid = None
    scenario_raws: list[dict] = []
    current: dict | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "[scenario]":
            current = {"_line": lineno}
            scenario_raws.append(current)
            continue
        if stripped.startswith("["):
            raise ParseError(f"unknown section {stripped!r}", pstr, lineno)
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", pstr, lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        section = globals_raw if current is None else current
        if current is None and key not in _GLOBAL_KEYS:
            raise ParseError(f"unknown key {key!r}", pstr, lineno)
        if current is not None and key not in _SCENARIO_KEYS:
            raise ParseError(f"unknown scenario key {key!r}", pstr, lineno)
        if key in section:
            raise ParseError(
                f"key {key!r} given twice (first at line {section[key][1]})", pstr, lineno
            )
        if current is None and key == "seed":
            seed = _parse_seed(value, "seed", pstr, lineno)
        elif current is None and key == "grid":
            grid = parse_grid(value, pstr, lineno)
        section[key] = (value, lineno)

    if "input" not in globals_raw:
        raise ParseError("missing required key 'input'", pstr)
    if "output_dir" not in globals_raw:
        raise ParseError("missing required key 'output_dir'", pstr)
    output_dir, dir_line = globals_raw["output_dir"]
    # A comment has its own line: a '#' after a value would be part of it.
    if "#" in output_dir:
        raise ParseError(f"output_dir must not contain '#', got {output_dir!r}", pstr, dir_line)
    image_mode, mode_line = globals_raw.get("image_mode", (None, None))
    if image_mode not in (None, "column-wise", "row-wise"):
        raise ParseError("image_mode must be column-wise or row-wise", pstr, mode_line)

    scenarios = []
    labels = set()
    for raw in scenario_raws:
        start = raw.pop("_line")
        missing = {"label", "sigma_a", "sigma_b", "x3", "p4"} - set(raw)
        if missing:
            raise ParseError(
                f"scenario is missing {sorted(missing)}", pstr, start
            )
        label, label_line = raw["label"]
        # A label names the scenario's output files and its report.csv field.
        if not label or not label.isprintable() or any(c in label for c in "/\\,#"):
            message = "label must be printable and non-empty, without '/', '\\', ',' or '#'"
            raise ParseError(f"{message}, got {label!r}", pstr, label_line)
        if label in labels:
            raise ParseError(f"duplicate scenario label {label!r}", pstr, start)
        labels.add(label)
        sigma_a = _parse_width(raw["sigma_a"][0], "sigma_a", pstr, raw["sigma_a"][1])
        sigma_b = _parse_width(raw["sigma_b"][0], "sigma_b", pstr, raw["sigma_b"][1])
        x3 = _parse_coordinate(raw["x3"][0], "x3", pstr, raw["x3"][1])
        p4 = _parse_coordinate(raw["p4"][0], "p4", pstr, raw["p4"][1])
        scen_seed = None
        if "seed" in raw:
            scen_seed = _parse_seed(raw["seed"][0], "scenario seed", pstr, raw["seed"][1])
        scen_grid = parse_grid(raw["grid"][0], pstr, raw["grid"][1]) if "grid" in raw else None
        scenario = Scenario(label, regime_for(sigma_a, sigma_b), x3, p4, scen_seed, scen_grid)
        if scen_seed is not None and not scenario.draws:
            raise ParseError(
                f"scenario {label!r} sets a seed but samples neither x3 nor p4",
                pstr, raw["seed"][1],
            )
        scenarios.append(scenario)

    return RunConfig(
        input_path=globals_raw["input"][0],
        grid=grid,
        output_dir=output_dir,
        scenarios=scenarios,
        seed=seed,
        image_mode=image_mode,
    )
