"""Seeded inputs of the benchmark workloads and the values their outputs are checked against.

Every workload writes its own config (and, for images, its own graymap) into
a work directory; the program only ever sees those generated files.  The
config's ``output_dir`` points at one fixed path that the benchmark removes
after every iteration, so each ``teleport run`` starts from a missing output
directory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("reference_run", "image_columns", "sampled_outcomes")

#: Fixed-outcome fidelities of configs/reference_scenarios.cfg, recorded at
#: commit d170c08 (they equal the frozen values of the acceptance tests).
RECORDED_FIDELITIES = {
    "fig4a": 0.9999936489600971,
    "fig4b": 0.9993212109655758,
    "fig4c": 0.9985625360753045,
    "fig4d": 0.8357068099391806,
    "fig7a": 0.9464584100391454,
    "fig7b": 0.22893150519864716,
    "fig7c": 0.18329251896797993,
    "fig7d": 0.13847004640039853,
    "fig9b": 0.9464584100391454,
    "fig9c": 0.22893150519864716,
}

#: Absolute fidelity tolerance.  Wide enough to admit the expected revision
#: of the sub-grid sigma_a scenarios (fig9b/fig9c move by about 1e-3).
FIDELITY_TOL = 2e-3

IMAGE_SIZE = 256
IMAGE_LEVELS = (20, 230)

# Two image scenarios share one outcome: General carries the quadrature cost,
# ConvolutionOnly isolates the per-column call overhead.
IMAGE_SCENARIOS = (
    ("general", 2.0, 60.0),
    ("convolution", 2.0, None),
)
IMAGE_OUTCOME = (10.0, 0.2)

_FIG9_SIGMA_A = 0.005555555555555556
_MODERATE_SIGMA_A = 0.18518518518518517

# Sampled scenarios over the bundled silhouette.  The 4096-point grids leave
# the span rule satisfied for any x3 within 6 sigma of its mean (the default
# 1024-point grid rejects x3 beyond about 2 sigma), so no seed makes a
# scenario fail.
SAMPLED_SCENARIOS = (
    ("joint_fig9b", _FIG9_SIGMA_A, 280.0, "sample", "sample", "-4096:4096:16384"),
    ("joint_moderate", _MODERATE_SIGMA_A, 8.4, "sample", "sample", "-1024:1024:4096"),
    ("p4_only", _MODERATE_SIGMA_A, "ideal", 0.0, "sample", None),
    ("x3_only", "ideal", 8.4, "sample", 0.0, "-1024:1024:4096"),
)


@dataclass
class Workload:
    """A generated workload: its config, its operations and how to check them."""

    name: str
    config: Path
    out_dir: Path
    kind: str  # "signal" or "image"
    labels: list[str]
    #: label -> fidelity every run must reproduce within FIDELITY_TOL
    expected_fidelity: dict[str, float] = field(default_factory=dict)
    #: label -> (H, W) |psi_tel|^2 matrix computed independently of the program
    expected_intensity: dict[str, np.ndarray] = field(default_factory=dict)


def prepare(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    out_dir = work / "out"
    config = work / f"{name}.cfg"
    if name == "reference_run":
        text = _reference_config(root, out_dir, seed)
        labels = re.findall(r"^label = (\S+)$", text, flags=re.M)
        config.write_text(text, encoding="utf-8")
        return Workload(
            name, config, out_dir, "signal", labels, dict(RECORDED_FIDELITIES)
        )
    if name == "image_columns":
        pixels = _seeded_image(seed)
        image = work / "image.pgm"
        header = f"P5\n{IMAGE_SIZE} {IMAGE_SIZE}\n255\n".encode()
        image.write_bytes(header + pixels.astype(np.uint8).tobytes())
        lines = [f"input = {image}", f"output_dir = {out_dir}", f"seed = {seed}"]
        x3, p4 = IMAGE_OUTCOME
        for label, sigma_a, sigma_b in IMAGE_SCENARIOS:
            lines += _scenario(label, sigma_a, sigma_b or "ideal", x3, p4)
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        workload = Workload(
            name, config, out_dir, "image", [s[0] for s in IMAGE_SCENARIOS]
        )
        for label, sigma_a, sigma_b in IMAGE_SCENARIOS:
            intensity, fid = reference_image_teleport(pixels, sigma_a, sigma_b, x3, p4)
            workload.expected_intensity[label] = intensity
            workload.expected_fidelity[label] = fid
        return workload
    if name == "sampled_outcomes":
        lines = [
            "input = bundled:silhouette",
            "grid = -256:256:1024",
            f"output_dir = {out_dir}",
            f"seed = {seed}",
        ]
        for label, sigma_a, sigma_b, x3, p4, grid in SAMPLED_SCENARIOS:
            lines += _scenario(label, sigma_a, sigma_b, x3, p4, grid)
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return Workload(
            name, config, out_dir, "signal", [s[0] for s in SAMPLED_SCENARIOS]
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _scenario(label, sigma_a, sigma_b, x3, p4, grid=None) -> list[str]:
    lines = [
        "",
        "[scenario]",
        f"label = {label}",
        f"sigma_a = {sigma_a}",
        f"sigma_b = {sigma_b}",
        f"x3 = {x3}",
        f"p4 = {p4}",
    ]
    if grid is not None:
        lines.append(f"grid = {grid}")
    return lines


def _reference_config(root: Path, out_dir: Path, seed: int) -> str:
    """The shipped reference config with only its output directory and seed replaced.

    Its outcomes are all fixed, so the master seed does not change any result.
    """
    text = (root / "configs" / "reference_scenarios.cfg").read_text(encoding="utf-8")
    text, n_out = re.subn(r"^output_dir = .*$", f"output_dir = {out_dir}", text, flags=re.M)
    text, n_seed = re.subn(r"^seed = .*$", f"seed = {seed}", text, count=1, flags=re.M)
    if n_out != 1 or n_seed != 1:
        raise ValueError("configs/reference_scenarios.cfg no longer has one output_dir and seed")
    return text


def _seeded_image(seed: int) -> np.ndarray:
    lo, hi = IMAGE_LEVELS
    rng = np.random.default_rng(seed)
    return rng.integers(lo, hi + 1, size=(IMAGE_SIZE, IMAGE_SIZE), dtype=np.uint8)


def reference_image_teleport(pixels, sigma_a, sigma_b, x3, p4):
    """Independent column-wise teleportation of an image by direct quadrature.

    Evaluates the closed-form kernel of the README on the same zero-padded
    pixel grid the program uses (n = 512, pixel r at x = r) for all columns
    at once.  Returns the |psi_tel|^2 matrix on the pixel window and the mean
    column fidelity.
    """
    height, width = pixels.shape
    n = 8
    while n < 2 * height:
        n *= 2
    offset = (n - height) // 2
    xs = np.arange(n) - float(offset)
    psi = np.zeros((n, width))
    psi[offset : offset + height] = np.sqrt(pixels.astype(float))
    psi /= np.sqrt((psi**2).sum(axis=0))
    x5, v = xs[:, None], xs[None, :]
    kernel = np.exp(-(((x5 - v) / (2.0 * sigma_a)) ** 2)) * np.exp(
        -1j * np.sqrt(2.0) * (v - x5) * p4
    )
    if sigma_b is not None:
        kernel = kernel * np.exp(
            -(((x5 + v - 2.0 * np.sqrt(2.0) * x3) / (2.0 * sigma_b)) ** 2)
        )
    out = kernel @ psi
    out /= np.sqrt((np.abs(out) ** 2).sum(axis=0))
    fidelity = np.abs((psi * out).sum(axis=0)) ** 2
    intensity = np.abs(out[offset : offset + height]) ** 2
    return intensity, float(fidelity.mean())
