import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cvteleport import (
    GridSpec,
    GridTooNarrowError,
    NonUniformSpacingError,
    ParseError,
    SampledWaveFunction,
    gaussian_packet,
    load_signal,
    moments,
    save_signal,
    to_momentum,
)
from cvteleport.cli import main
from cvteleport.signals import (
    _BLOCK_VALUES,
    atomic_write_text,
    bundled_silhouette_path,
    load_bundled_silhouette,
    parse_signal_text,
    write_table,
)

from conftest import rel_l2, write_silhouette_asset


def test_round_trip_17_digits(tmp_path, unit_grid):
    psi = gaussian_packet(unit_grid, 0.37, 1.21, momentum=0.53)
    path = tmp_path / "sig.txt"
    save_signal(path, psi)
    back = load_signal(path, unit_grid)
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-12


def test_momentum_representation_header(tmp_path, unit_grid):
    phi = to_momentum(gaussian_packet(unit_grid, 0.0, 1.0))
    path = tmp_path / "sig_p.txt"
    save_signal(path, phi, representation="p")
    text = path.read_text()
    assert "# representation: p" in text.splitlines()[1]
    with pytest.raises(ValueError, match="representation must be 'x' or 'p'"):
        save_signal(tmp_path / "sig_q.txt", phi, representation="q")
    assert not (tmp_path / "sig_q.txt").exists()


def test_gaussian_two_column_file(tmp_path):
    xs = np.arange(-6.0, 6.0001, 0.125)
    lines = ["# unit gaussian"] + [f"{x}, {np.exp(-x*x/2)}" for x in xs]
    path = tmp_path / "gauss.txt"
    path.write_text("\n".join(lines))
    g = GridSpec(-8.0, 0.125, 128)
    m = moments(load_signal(path, g))
    assert m.mean_x == pytest.approx(0.0, abs=1e-6)
    assert m.std_x == pytest.approx(1 / np.sqrt(2), abs=1e-6)


def test_parse_error_reports_line(tmp_path, capsys):
    with pytest.raises(ParseError) as err:
        parse_signal_text("0 1\n0.5 bogus\n1.0 1\n", path="x.txt")
    assert err.value.line == 2
    signal, cfg = tmp_path / "bad.txt", tmp_path / "bad.cfg"
    cfg.write_text(
        f"input = {signal}\noutput_dir = {tmp_path / 'out'}\n\n[scenario]\n"
        "label = m\nsigma_a = ideal\nsigma_b = 50\nx3 = 0\np4 = 0\n"
    )
    for line in ("0.5 nan", "0.5 -inf", "0.5 1 nan", "0.5 1 inf", "nan 1", "inf 1"):
        text = f"0 1\n{line}\n1.0 1\n"
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_signal_text(text, path="x.txt")
        assert (err.value.path, err.value.line) == ("x.txt", 2), line
        signal.write_text(text)
        for argv in (["run", str(cfg)], ["info", str(signal)]):
            capsys.readouterr()
            assert main(argv) == 1, (line, argv)
            assert capsys.readouterr().err.startswith(f"error: {signal}:2:"), (line, argv)


def test_huge_amplitudes_run_and_info(tmp_path, capsys):
    # amplitudes whose squared norm overflows load as the unscaled state
    g = GridSpec(0.0, 0.5, 256)
    psi = gaussian_packet(g, 50.0, 10.0)
    signal, cfg = tmp_path / "huge.txt", tmp_path / "huge.cfg"
    save_signal(signal, SampledWaveFunction(g, psi.amplitudes * 1e200))
    assert np.max(np.abs(load_signal(signal, g).amplitudes - psi.amplitudes)) <= 1e-15
    cfg.write_text(
        f"input = {signal}\noutput_dir = {tmp_path / 'out'}\n\n[scenario]\n"
        "label = m\nsigma_a = 0.5\nsigma_b = 10\nx3 = 0\np4 = 0\n"
    )
    assert main(["run", str(cfg)]) == 0
    assert main(["info", str(signal)]) == 0
    assert "mean_x = 50\n" in capsys.readouterr().out


def test_wrong_column_count():
    with pytest.raises(ParseError):
        parse_signal_text("0 1 2 3\n1 2 3 4\n")
    with pytest.raises(ParseError, match="at least two samples"):
        parse_signal_text("# one sample\n0 1\n")


def test_decreasing_positions_rejected():
    with pytest.raises(NonUniformSpacingError):
        parse_signal_text("0 1\n1 1\n0.5 1\n")
    # reported at its own line, past save_signal's two header lines
    text = "# cvteleport signal\n# representation: p\n0 1 0\n1 1 0\n2 1 0\n1.5 1 0\n"
    with pytest.raises(NonUniformSpacingError) as info:
        parse_signal_text(text)
    assert info.value.line == 6


def test_nonuniform_spacing_rejected():
    with pytest.raises(NonUniformSpacingError):
        parse_signal_text("0 1\n1 1\n2.5 1\n")


def test_signal_beyond_grid_rejected(tmp_path):
    xs = np.arange(-20.0, 20.0001, 0.5)
    path = tmp_path / "wide.txt"
    path.write_text("\n".join(f"{x} 1.0" for x in xs))
    with pytest.raises(GridTooNarrowError):
        load_signal(path, GridSpec(-8.0, 0.5, 32))


def test_missing_file():
    with pytest.raises(ParseError):
        load_signal("/nonexistent/signal.txt", GridSpec(-8.0, 0.5, 32))


def test_complex_three_column_round_trip(tmp_path):
    g = GridSpec(-4.0, 0.25, 32)
    psi = gaussian_packet(g, 0.5, 0.8, momentum=1.1)
    path = tmp_path / "c.txt"
    save_signal(path, psi)
    again = load_signal(path, g)
    assert rel_l2(psi, again) < 1e-14


# frozen reference values for the bundled asset, cross-checked below against
# independent plain-sum / explicit-DFT quadrature
SILHOUETTE_MEAN_X = 49.956785559019565
SILHOUETTE_STD_X = 27.94673478061991
SILHOUETTE_SUPPORT = 100.5
SILHOUETTE_STD_P = 0.16035962697428308


def test_bundled_silhouette_frozen_moments():
    g = GridSpec(-256.0, 0.5, 1024)
    m = moments(load_bundled_silhouette(g))
    assert m.mean_x == pytest.approx(SILHOUETTE_MEAN_X, abs=1e-9)
    assert m.std_x == pytest.approx(SILHOUETTE_STD_X, abs=1e-9)
    assert m.support_length == pytest.approx(SILHOUETTE_SUPPORT, abs=1e-12)
    assert m.mean_p == pytest.approx(0.0, abs=1e-6)
    assert m.std_p == pytest.approx(SILHOUETTE_STD_P, abs=1e-9)


def test_bundled_silhouette_moments_against_direct_quadrature():
    g = GridSpec(-256.0, 0.5, 1024)
    psi = load_bundled_silhouette(g)
    xs = g.points
    rho = np.abs(psi.amplitudes) ** 2 * g.dx
    mean_x = float(np.sum(xs * rho))
    std_x = float(np.sqrt(np.sum((xs - mean_x) ** 2 * rho)))
    ps = g.conjugate().points
    dft = np.exp(-1j * np.outer(ps, xs)) * (g.dx / np.sqrt(2 * np.pi))
    phi = dft @ psi.amplitudes
    rho_p = np.abs(phi) ** 2
    rho_p /= rho_p.sum()
    mean_p = float(np.sum(ps * rho_p))
    std_p = float(np.sqrt(np.sum((ps - mean_p) ** 2 * rho_p)))
    assert mean_x == pytest.approx(SILHOUETTE_MEAN_X, abs=1e-9)
    assert std_x == pytest.approx(SILHOUETTE_STD_X, abs=1e-9)
    assert std_p == pytest.approx(SILHOUETTE_STD_P, abs=1e-9)
    assert abs(mean_p) < 1e-6


def test_silhouette_generator_reproduces_bundled_asset(tmp_path):
    bundled = bundled_silhouette_path()
    pos, amps = parse_signal_text(bundled.read_text(), path=str(bundled))
    regenerated = tmp_path / "silhouette.txt"
    write_silhouette_asset(regenerated)
    pos2, amps2 = parse_signal_text(regenerated.read_text())
    assert np.array_equal(pos, pos2)
    assert np.max(np.abs(amps2 - amps)) <= 1e-15


# Finite floats, with the values whose text is easiest to get wrong drawn often.
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308, 1e300, -1e300]
_FINITE = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
_TABLES = arrays(
    np.float64, st.tuples(st.integers(0, 6), st.integers(1, 4)), elements=_FINITE
)
_SETTINGS = settings(max_examples=150)


@_SETTINGS
@given(table=_TABLES)
@example(table=np.array([_EDGE_FLOATS[:4], _EDGE_FLOATS[3:]]))
def test_write_table_matches_per_element_formatting(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("table") / "t.txt"
    cols = table.shape[1]
    write_table(path, "# head\n", table.T, " ".join(["%.17g"] * cols) + "\n")
    want = "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in table)
    assert path.read_bytes() == ("# head\n" + want).encode()
    write_table(path, "", table.T, ",".join(["%r"] * cols) + "\n")
    want = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in table)
    assert path.read_bytes() == want.encode()


_BLOCK_ROWS = _BLOCK_VALUES // 3  # rows of one block at 3 columns


@pytest.mark.parametrize(
    "shape",
    [
        (0, 3), (1, 3), (_BLOCK_ROWS - 1, 3), (_BLOCK_ROWS, 3), (_BLOCK_ROWS + 1, 3),
        (3 * _BLOCK_ROWS + 7, 3), (40, 256), (3, _BLOCK_VALUES + 904),
    ],
    ids=["empty", "one-row", "block-1", "block", "block+1", "blocks", "256-cols", "wide-row"],
)
def test_write_table_blocks_keep_every_byte(tmp_path, shape):
    # tables that cross block edges, and rows wider than a block
    rng = np.random.default_rng(shape[0] * 7919 + shape[1])
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    k = min(table.size, len(_EDGE_FLOATS))
    table.flat[:k] = _EDGE_FLOATS[:k]
    path = tmp_path / "t.txt"
    cols = shape[1]
    write_table(path, "# head\n", table.T, " ".join(["%.17g"] * cols) + "\n")
    want = "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in table)
    assert path.read_bytes() == ("# head\n" + want).encode()
    write_table(path, "", table.T, ",".join(["%r"] * cols) + "\n")
    want = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in table)
    assert path.read_bytes() == want.encode()


def test_save_signal_formats_straight_from_the_columns(tmp_path):
    # at n = 32768 the positions are 0.26 MB; an n x 3 table would add 0.79 MB
    grid = GridSpec(-256.0, 1 / 64, 32768)
    psi = gaussian_packet(grid, 3.0, 20.0)
    tracemalloc.start()
    try:
        save_signal(tmp_path / "s.txt", psi, representation="p")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8e6


def test_write_table_memory_stays_bounded(tmp_path):
    # 262144 x 3 values: 47.9 MB of text and its copies when formatted whole
    table = np.random.default_rng(3).standard_normal((262144, 3))
    tracemalloc.start()
    try:
        write_table(tmp_path / "t.txt", "# head\n", table.T, "%.17g %.17g %.17g\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


def test_streamed_write_that_fails_leaves_the_old_file(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"old bytes\n")

    def parts():
        yield "first part\n"
        raise RuntimeError("a later part fails")

    with pytest.raises(RuntimeError, match="later part"):
        atomic_write_text(path, parts())
    # a value %.17g cannot format, in the table's second block
    table = np.zeros((2 * _BLOCK_ROWS, 3), dtype=object)
    table[_BLOCK_ROWS, 1] = "text"
    with pytest.raises(TypeError):
        write_table(path, "# head\n", table.T, "%.17g %.17g %.17g\n")
    assert path.read_bytes() == b"old bytes\n"
    assert not list(tmp_path.glob("*.tmp-*"))


@_SETTINGS
@given(
    parts=arrays(np.float64, st.sampled_from([16, 32, 64]), elements=_FINITE),
    dx=st.sampled_from([0.125, 0.1, 0.5, 3.0]),
)
def test_save_signal_round_trips_bit_for_bit(tmp_path_factory, parts, dx):
    # (re, im) pairs viewed as complex, so signed zeros reach the file as drawn
    grid = GridSpec(-1.0, dx, len(parts) // 2)
    psi = SampledWaveFunction(grid, parts.view(np.complex128))
    path = tmp_path_factory.mktemp("signal") / "s.txt"
    save_signal(path, psi)
    pos, back = parse_signal_text(path.read_text())
    assert np.array_equal(pos.view(np.int64), grid.points.view(np.int64))
    assert np.array_equal(back.view(np.int64), psi.amplitudes.view(np.int64))
