"""Portable graymap I/O and image teleportation.

Columns (or rows) of a grayscale image are teleported as independent
real-amplitude wave functions that all share one regime and one measurement
outcome, which mirrors visualizing a single teleportation event across a
whole figure.  A column enters as the square root of its intensities, so the
output probability |psi_tel|^2 is directly an intensity profile; for display
each column is rescaled back to its original peak intensity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import KernelRegime, MeasurementOutcome, teleport
from .errors import UnsupportedFormatError, ZeroNormError
from .grid import GridSpec, SampledWaveFunction, normalize
from .signals import atomic_write_bytes

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ImageAsset:
    """A grayscale image: float pixel matrix (rows x cols) plus the max level."""

    pixels: np.ndarray
    maxval: int

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2 or px.shape[0] < 8 or px.shape[1] < 8:
            raise ValueError("images must be at least 8x8")
        if self.maxval not in (255, 65535):
            raise ValueError("maxval must be 255 or 65535")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _read_header_tokens(data: bytes, count: int):
    """Yield the first `count` whitespace tokens after the magic, skipping comments."""
    tokens = []
    i = 2  # past the magic
    while len(tokens) < count:
        if i >= len(data):
            raise UnsupportedFormatError("truncated graymap header")
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            start = i
            while i < len(data) and not data[i : i + 1].isspace():
                i += 1
            tokens.append(data[start:i])
    return tokens, i + 1  # header ends after one whitespace byte


def load_image(path) -> ImageAsset:
    """Read a P2 (ASCII) or P5 (binary) portable graymap."""
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise UnsupportedFormatError(f"not a P2/P5 graymap: magic {magic!r}")
    (w_tok, h_tok, max_tok), offset = _read_header_tokens(data, 3)
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError:
        raise UnsupportedFormatError("malformed graymap header")
    if width < 8 or height < 8:
        raise UnsupportedFormatError(f"graymap is {width}x{height}, below 8x8")
    if maxval <= 0 or maxval > 65535:
        raise UnsupportedFormatError(f"unsupported max value {maxval}")
    maxval = 255 if maxval <= 255 else 65535
    if magic == b"P2":
        try:
            values = np.array(data[offset - 1 :].split(), dtype=float)
        except ValueError:
            raise UnsupportedFormatError("non-numeric P2 sample")
        if not np.isfinite(values).all():
            raise UnsupportedFormatError("non-finite P2 sample")
        if values.size != width * height:
            raise UnsupportedFormatError("P2 pixel count mismatch")
        pixels = values.reshape(height, width)
    else:
        raw = data[offset:]
        if maxval == 255:
            need = width * height
            if len(raw) < need:
                raise UnsupportedFormatError("P5 payload too short")
            pixels = np.frombuffer(raw[:need], dtype=np.uint8).astype(float)
        else:
            need = 2 * width * height
            if len(raw) < need:
                raise UnsupportedFormatError("P5 payload too short")
            pixels = np.frombuffer(raw[:need], dtype=">u2").astype(float)
        pixels = pixels.reshape(height, width)
    return ImageAsset(pixels=pixels, maxval=maxval)


def save_image(path, asset: ImageAsset) -> None:
    """Write a binary (P5) graymap; 16-bit samples are big-endian."""
    px = np.clip(np.rint(asset.pixels), 0, asset.maxval)
    header = f"P5\n{asset.width} {asset.height}\n{asset.maxval}\n".encode()
    payload = px.astype(np.uint8 if asset.maxval == 255 else ">u2").tobytes()
    atomic_write_bytes(path, header + payload)


def _column_grid(length: int):
    """Pixel-unit grid with zero margins around the column.

    Pixel r sits at coordinate x = r; the margins absorb convolution spill so
    full-height columns do not trip the edge-mass check.  Returns the grid and
    the index offset of pixel 0.
    """
    n = 8
    while n < 2 * length:
        n *= 2
    offset = (n - length) // 2
    return GridSpec(x_min=-float(offset), dx=1.0, n=n), offset


@dataclass(frozen=True)
class ImageTeleportResult:
    """Display image, raw |psi_tel|^2 profiles, and per-column fidelities."""

    display: ImageAsset
    raw: np.ndarray
    column_fidelities: np.ndarray


def teleport_image(
    asset: ImageAsset,
    regime: KernelRegime,
    outcome: MeasurementOutcome,
    mode: str = "column-wise",
) -> ImageTeleportResult:
    """Teleport every column (or row) with one shared regime and outcome.

    The raw matrix holds the unnormalized |psi_tel|^2 profiles; the display
    image rescales each column to its original peak so distortion stays
    visually comparable to the input.  Columns whose intensities vanish (or
    are annihilated by the kernel) are logged, rendered black, and carry a
    NaN fidelity.
    """
    if mode not in ("column-wise", "row-wise"):
        raise ValueError("mode must be 'column-wise' or 'row-wise'")
    pixels = asset.pixels if mode == "column-wise" else asset.pixels.T
    length, count = pixels.shape
    grid, offset = _column_grid(length)
    out_display = np.zeros_like(pixels)
    out_raw = np.zeros_like(pixels)
    fidelities = np.full(count, np.nan)
    for j in range(count):
        column = pixels[:, j]
        peak = column.max()
        padded = np.zeros(grid.n, dtype=np.complex128)
        padded[offset : offset + length] = np.sqrt(np.clip(column, 0.0, None))
        try:
            state = normalize(SampledWaveFunction(grid, padded))
            tele = teleport(state, regime, outcome)
        except ZeroNormError:
            log.warning("column %d annihilated; rendered black", j)
            continue
        overlap = np.vdot(state.amplitudes, tele.amplitudes) * grid.dx
        fidelities[j] = min(abs(overlap) ** 2, 1.0)
        prob = tele.probability()[offset : offset + length]
        out_raw[:, j] = prob
        top = prob.max()
        if top > 0.0:
            out_display[:, j] = prob * (peak / top)
    if mode == "row-wise":
        out_display = out_display.T
        out_raw = out_raw.T
    return ImageTeleportResult(
        display=ImageAsset(pixels=out_display, maxval=asset.maxval),
        raw=out_raw,
        column_fidelities=fidelities,
    )
