"""Text signal files and the bundled silhouette asset.

Signal format: UTF-8 text, ``#`` comments, two or three numeric columns
(position, real amplitude, optional imaginary amplitude), comma or whitespace
separated.  Positions must be strictly increasing with uniform spacing.
Files written here carry 17 significant digits so save/load round trips are
exact at double precision; momentum-space emissions add a
``# representation: p`` header line.  The bundled silhouette ships as such a
file; the profile that generated it is kept in ``tests/conftest.py``, where a
test checks that it still reproduces the asset.
"""

from __future__ import annotations

import logging
import math
import os
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import GridTooNarrowError, NonUniformSpacingError, ParseError
from .grid import GridSpec, SampledWaveFunction, place_samples

log = logging.getLogger(__name__)

_ASSET_NAME = "silhouette.txt"


#: Values formatted per block of `write_table`: whole rows, at least one.
_BLOCK_VALUES = 4096


def _atomic_write(path, parts) -> None:
    """Write each bytes part of ``parts`` in turn to a temp file, then rename.

    A failure, in a part or in the rename, leaves any old file as it was and
    no temp file behind.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as f:
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text) -> None:
    """Write ``text``, one str or an iterable of str parts, as UTF-8, atomically."""
    parts = (text,) if isinstance(text, str) else text
    _atomic_write(path, (part.encode("utf-8") for part in parts))


def write_table(path, head: str, columns, row: str) -> None:
    """Write ``head``, then ``row`` %-formatted with each row of the table
    whose columns are ``columns``: equal-length 1-D columns.

    The rows are gathered from the columns, formatted, encoded and written a
    block of about _BLOCK_VALUES values at a time, so neither the whole table
    nor a file's text ever sits in memory.  ``tolist()`` hands ``%r`` Python
    floats: numpy 2 scalars repr as np.float64(...).
    """
    rows = max(1, _BLOCK_VALUES // len(columns))

    def parts():
        yield head
        for lo in range(0, len(columns[0]), rows):
            values = np.column_stack([c[lo : lo + rows] for c in columns])
            yield (row * len(values)) % tuple(values.ravel().tolist())

    atomic_write_text(path, parts())


def read_text(path: Path) -> str:
    """The UTF-8 text of the file at ``path``.

    A missing file, or a byte that is not UTF-8, raises `ParseError`; the
    latter names the bad byte's line, counted as the parsers count lines.
    """
    if not path.exists():
        raise ParseError("no such file", path=str(path))
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte, plus one character standing for it
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(
            f"byte {data[exc.start]:#04x} is not UTF-8 text", path=str(path), line=line
        )


def parse_signal_text(text: str, path=None):
    """Parse signal text into (positions, complex amplitudes)."""
    positions: list[float] = []
    values: list[complex] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.replace(",", " ").split()
        if len(tokens) not in (2, 3):
            raise ParseError(
                f"expected 2 or 3 columns, found {len(tokens)}", path=path, line=lineno
            )
        try:
            numbers = [float(tok) for tok in tokens]
        except ValueError:
            raise ParseError(f"non-numeric value in {tokens!r}", path=path, line=lineno)
        if not all(map(math.isfinite, numbers)):
            raise ParseError(f"non-finite value in {tokens!r}", path=path, line=lineno)
        if positions and numbers[0] <= positions[-1]:
            raise NonUniformSpacingError(
                "positions must be strictly increasing", path=path, line=lineno
            )
        positions.append(numbers[0])
        values.append(complex(numbers[1], numbers[2] if len(numbers) == 3 else 0.0))
    if len(positions) < 2:
        raise ParseError("signal needs at least two samples", path=path)
    pos = np.array(positions)
    spacing = np.diff(pos)
    step = spacing[0]
    if np.any(np.abs(spacing - step) > 1e-9 * max(abs(step), 1.0)):
        raise NonUniformSpacingError("sample spacing is not uniform", path=path)
    return pos, np.array(values, dtype=np.complex128)


def load_signal(path, grid: GridSpec) -> SampledWaveFunction:
    """Load a signal file onto the requested grid and normalize.

    Amplitudes are placed by linear interpolation at the grid points (exact
    when sample positions coincide with grid points) and are zero outside the
    sampled range.  The sampled range must fit inside the grid.
    """
    path = Path(path)
    pos, values = parse_signal_text(read_text(path), path=str(path))
    if pos[0] < grid.x_min - grid.dx / 2 or pos[-1] > grid.x_max + grid.dx / 2:
        raise GridTooNarrowError(
            f"signal spans [{pos[0]:g}, {pos[-1]:g}] but the grid covers "
            f"[{grid.x_min:g}, {grid.x_max:g}]"
        )
    # hypot scales internally, so huge amplitudes give no overflow (inf at worst)
    scale = math.hypot(*values.view(np.float64).tolist()) * math.sqrt(pos[1] - pos[0])
    log.debug("loaded %s: %d samples, raw L2 scale %.6g", path, len(pos), scale)
    return place_samples(pos, values, grid)


def save_signal(path, psi: SampledWaveFunction, representation: str = "x") -> None:
    """Write a signal file (17 significant digits; exact round trip)."""
    if representation not in ("x", "p"):
        raise ValueError("representation must be 'x' or 'p'")
    head = "# cvteleport signal\n"
    if representation == "p":
        head += "# representation: p\n"
    amps = psi.amplitudes
    write_table(path, head, (psi.grid.points, amps.real, amps.imag), "%.17g %.17g %.17g\n")


# ---------------------------------------------------------------------------
# Bundled silhouette asset
# ---------------------------------------------------------------------------


def bundled_silhouette_path() -> Path:
    """Filesystem path of the packaged silhouette signal."""
    return Path(resources.files("cvteleport").joinpath("assets", _ASSET_NAME))


def load_bundled_silhouette(grid: GridSpec) -> SampledWaveFunction:
    return load_signal(bundled_silhouette_path(), grid)
