import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport import (
    ConvolutionOnly,
    General,
    Ideal,
    ImageAsset,
    MeasurementOutcome,
    MultiplicationOnly,
    UnsupportedFormatError,
    ZeroNormError,
    load_image,
    save_image,
    teleport_image,
)
from cvteleport.cli import main
from cvteleport.images import _column_grid


def stripes_image(h=48, w=48, maxval=255):
    r, c = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    px = np.rint(120 + 80 * np.sin(2 * np.pi * r / 12) + 40 * np.cos(2 * np.pi * c / 9))
    return ImageAsset(pixels=px.clip(0, maxval), maxval=maxval)


def test_p5_round_trip(tmp_path):
    img = stripes_image()
    path = tmp_path / "img.pgm"
    save_image(path, img)
    back = load_image(path)
    assert back.maxval == 255
    assert np.array_equal(back.pixels, img.pixels)


def test_p5_sixteen_bit_round_trip(tmp_path):
    img = stripes_image(maxval=65535)
    img = ImageAsset(pixels=img.pixels * 200.0, maxval=65535)
    path = tmp_path / "img16.pgm"
    save_image(path, img)
    back = load_image(path)
    assert back.maxval == 65535
    assert np.array_equal(back.pixels, np.rint(img.pixels))


@pytest.mark.parametrize("maxval, sample_bytes", [(100, 1), (1000, 2)])
def test_p5_round_trip_keeps_any_maxval(tmp_path, maxval, sample_bytes):
    # samples take one byte below a maxval of 256 and two, big-endian, above
    rng = np.random.default_rng(maxval)
    img = ImageAsset(pixels=rng.integers(0, maxval + 1, (10, 12)).astype(float), maxval=maxval)
    path = tmp_path / "img.pgm"
    save_image(path, img)
    header = f"P5\n12 10\n{maxval}\n".encode()
    assert path.read_bytes()[: len(header)] == header
    assert path.stat().st_size == len(header) + sample_bytes * 120
    back = load_image(path)
    assert back.maxval == maxval
    assert np.array_equal(back.pixels, img.pixels)


def test_p2_parsing(tmp_path):
    path = tmp_path / "ascii.pgm"
    rows = [" ".join(str((r * 13 + c * 7) % 256) for c in range(12)) for r in range(10)]
    path.write_text("P2\n# comment line\n12 10\n255\n" + "\n".join(rows) + "\n")
    img = load_image(path)
    assert img.pixels.shape == (10, 12)
    assert img.pixels[3, 4] == (3 * 13 + 4 * 7) % 256


def test_unsupported_format(tmp_path, capsys):
    path = tmp_path / "input.pgm"
    config = tmp_path / "run.cfg"
    config.write_text(
        f"input = {path}\noutput_dir = {tmp_path / 'out'}\n\n[scenario]\n"
        "label = ideal\nsigma_a = ideal\nsigma_b = ideal\nx3 = 0\np4 = 0\n"
    )
    for data in [
        b"P6\n4 4\n255\n" + bytes(48),  # colour
        b"P5\n-8 8\n255\n" + bytes(64),
        b"P5\n0 8\n255\n",
        b"P5\n8 4\n255\n" + bytes(32),
        b"P2\n8 8\n255\n" + b"1 " * 63 + b"x\n",
        b"P2\n8 8\n255\n" + b"1 " * 63 + b"nan\n",
    ]:
        path.write_bytes(data)
        with pytest.raises(UnsupportedFormatError):
            load_image(path)
        assert main(["run", str(config)]) == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5\n8 8", "truncated graymap header"),
        (b"P5\n8 eight\n255\n" + bytes(64), "malformed graymap header"),
        (b"P5\n8 8\n0\n" + bytes(64), "unsupported max value 0"),
        (b"P2\n8 8\n255\n" + b"1 " * 63 + b"\n", "P2 pixel count mismatch"),
        (b"P5\n8 8\n255\n" + bytes(63), "P5 payload too short"),
        (b"P2\n8 8\n255\n-5 " + b"1 " * 63 + b"\n", "sample -5 is outside 0..255"),
        (b"P2\n8 8\n255\n" + b"1 " * 63 + b"300\n", "sample 300 is outside 0..255"),
        (b"P5\n8 8\n100\n" + bytes([200]) + bytes(63), "sample 200 is outside 0..100"),
        (b"P5\n8 8\n1000\n" + bytes(126) + b"\x03\xe9", "sample 1001 is outside 0..1000"),
        (b"P2\n8 8\n255\n1.5 " + b"1 " * 63 + b"\n", "sample 1.5 is not an integer"),
        # the magic must end before the width
        (b"P58 8 255\n" + bytes(64), "truncated graymap header"),
        # one whitespace byte must end the header
        (b"P5\n8 8\n255", "truncated graymap header"),
        # a comment is never a token
        (b"P5 #c\n8 8\n", "truncated graymap header"),
    ],
    ids=[
        "truncated-header", "non-integer-header", "maxval-0", "p2-count", "p5-short",
        "p2-below-0", "p2-above-maxval", "p5-above-maxval", "p5-16-bit-above-maxval",
        "p2-non-integer", "magic-runs-into-width", "no-end-of-header",
        "comment-is-not-a-token",
    ],
)
def test_malformed_graymap_is_refused_by_name(tmp_path, data, message):
    path = tmp_path / "input.pgm"
    path.write_bytes(data)
    with pytest.raises(UnsupportedFormatError, match=message):
        load_image(path)
    config = tmp_path / "run.cfg"
    config.write_text(
        f"input = {path}\noutput_dir = {tmp_path / 'out'}\n\n[scenario]\n"
        "label = ideal\nsigma_a = ideal\nsigma_b = ideal\nx3 = 0\np4 = 0\n"
    )
    assert main(["run", str(config)]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "header",
    [b"P5\n8#x\n8 255\n", b"P5\n8 8\n255#x\n"],
    ids=["after-width", "after-maxval"],
)
def test_a_comment_starts_anywhere_in_the_header(tmp_path, header):
    # as in Netpbm, a `#` starts a comment even in a token; the comment's
    # newline is then the whitespace byte that follows it
    pixels = np.arange(64).reshape(8, 8)
    path = tmp_path / "input.pgm"
    path.write_bytes(header + pixels.astype(np.uint8).tobytes())
    img = load_image(path)
    assert img.maxval == 255
    assert np.array_equal(img.pixels, pixels)


# A gap before a header token: runs of whitespace, CRLFs and whole comment lines.
_HEADER_GAP = st.lists(
    st.one_of(
        st.text(" \t\n\r\v\f", min_size=1, max_size=3),
        st.just("\r\n"),
        st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8).map(
            lambda text: f"#{text}\n"
        ),
    ),
    min_size=1,
    max_size=4,
).map("".join)


@settings(max_examples=60)
@given(magic=st.sampled_from(["P2", "P5"]), gaps=st.tuples(*[_HEADER_GAP] * 3))
def test_header_gaps_do_not_change_the_image(tmp_path_factory, magic, gaps):
    # whitespace and comments between the header tokens are all alike
    pixels = np.random.default_rng(29).integers(0, 201, (8, 8))
    if magic == "P2":
        payload = " ".join(map(str, pixels.ravel())).encode()
    else:
        payload = pixels.astype(np.uint8).tobytes()
    header = magic + "".join(gap + token for gap, token in zip(gaps, ["8", "8", "200"]))
    path = tmp_path_factory.mktemp("gaps") / "input.pgm"
    path.write_bytes(header.encode() + b"\n" + payload)
    img = load_image(path)
    assert img.maxval == 200
    assert np.array_equal(img.pixels, pixels)


def test_teleport_image_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="mode must be 'column-wise' or 'row-wise'"):
        teleport_image(stripes_image(), Ideal(), MeasurementOutcome(0.0, 0.0), "diagonal")


def test_column_grid_is_the_least_power_of_two_past_twice_the_column():
    # the doubling loop the grid size was once found by is the reference
    for length in range(1, 2100):
        n = 8
        while n < 2 * length:
            n *= 2
        grid, offset = _column_grid(length)
        assert (grid.n, offset, grid.x_min) == (n, (n - length) // 2, -float(offset))


def test_minimum_size_enforced():
    with pytest.raises(ValueError):
        ImageAsset(pixels=np.ones((4, 4)), maxval=255)


@pytest.mark.parametrize("maxval", [0, 65536])
def test_maxval_out_of_range_is_refused(maxval):
    with pytest.raises(ValueError, match="maxval"):
        ImageAsset(pixels=np.ones((8, 8)), maxval=maxval)


def test_ideal_image_run_keeps_the_maxval(tmp_path):
    # full white at maxval 100 stays full white, not 100/255 grey
    pixels = np.full((16, 16), 100.0)
    pixels[4:12, 3:9] = np.arange(48).reshape(8, 6)
    image = tmp_path / "input.pgm"
    image.write_bytes(b"P5\n16 16\n100\n" + pixels.astype(np.uint8).tobytes())
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(
        f"input = {image}\noutput_dir = {out}\n\n[scenario]\n"
        "label = ideal\nsigma_a = ideal\nsigma_b = ideal\nx3 = 0\np4 = 0\n"
    )
    assert main(["run", str(config)]) == 0
    assert (out / "ideal.pgm").read_bytes().startswith(b"P5\n16 16\n100\n")
    back = load_image(out / "ideal.pgm")
    assert back.maxval == 100
    assert np.array_equal(back.pixels, pixels)


def test_ideal_image_teleport_lossless(tmp_path):
    img = stripes_image()
    result = teleport_image(img, Ideal(), MeasurementOutcome(0.0, 0.0))
    assert np.max(np.abs(result.display.pixels - img.pixels)) <= 1.0
    # and through the codec
    path = tmp_path / "out.pgm"
    save_image(path, result.display)
    back = load_image(path)
    assert np.max(np.abs(back.pixels - img.pixels)) <= 1.0


def test_convolution_image_regression():
    img = stripes_image()
    result = teleport_image(img, ConvolutionOnly(0.9), MeasurementOutcome(0.0, 1.2))
    assert float(np.nanmean(result.column_fidelities)) == pytest.approx(
        0.6594878663583772, abs=1e-9
    )
    probes = {(0, 0): 240.0, (10, 20): 8.416281, (25, 5): 47.429199, (40, 40): 53.617191}
    for (i, j), value in probes.items():
        assert result.display.pixels[i, j] == pytest.approx(value, abs=1e-5)


@pytest.mark.parametrize(
    "regime, digest",
    [
        (General(2.0, 60.0), "c254aaec71a7f6927b82699acbd5eb6aab62dc99aae44c91e87b7a66c389520b"),
        (ConvolutionOnly(2.0), "8420218c0a345228a86e77e428d9a9528007084e21d3f5f34d9d93ceaa2916ac"),
    ],
    ids=["general", "convolution"],
)
def test_seeded_image_raw_is_frozen(regime, digest):
    # A seeded 256 x 256 image at outcome (10, 0.2): the raw |psi_tel|^2
    # matrix.  Both digests were recorded when every regime became one FFT
    # product with the rounding below eps of each column's peak set to 0;
    # that moved the matrices by at most 1.2e-15 (General) and 8.8e-16
    # (convolution) of their peak from the direct sum and the n-point window.
    rng = np.random.default_rng(1)
    img = ImageAsset(pixels=rng.integers(20, 231, (256, 256), np.uint8), maxval=255)
    result = teleport_image(img, regime, MeasurementOutcome(10.0, 0.2))
    assert hashlib.sha256(result.raw.tobytes()).hexdigest() == digest


def test_multiplication_image_band():
    # a far-off envelope suppresses rows away from its centre
    img = stripes_image()
    result = teleport_image(img, MultiplicationOnly(60.0), MeasurementOutcome(20.0, 0.0))
    assert float(np.nanmean(result.column_fidelities)) == pytest.approx(
        0.9960687856131383, abs=1e-9
    )
    raw = result.raw
    # envelope centre sits at sqrt(2)*20 ~ 28: lower rows keep more weight
    assert raw[28].sum() > raw[0].sum()


def test_zero_norm_column_rendered_black():
    img = stripes_image()
    px = img.pixels.copy()
    px[:, 7] = 0.0
    img = ImageAsset(pixels=px, maxval=255)
    result = teleport_image(img, Ideal(), MeasurementOutcome(0.0, 0.0))
    assert np.all(result.display.pixels[:, 7] == 0.0)
    assert np.isnan(result.column_fidelities[7])
    assert not np.isnan(result.column_fidelities[6])


def test_image_with_no_surviving_column_fails_by_name(tmp_path):
    # an envelope centred at sqrt(2)*1000 annihilates every column
    img = stripes_image(h=16, w=16)
    with pytest.raises(ZeroNormError):
        teleport_image(img, MultiplicationOnly(0.5), MeasurementOutcome(1000.0, 0.0))
    image, out = tmp_path / "input.pgm", tmp_path / "out"
    save_image(image, img)
    config = tmp_path / "run.cfg"
    config.write_text(
        f"input = {image}\noutput_dir = {out}\n\n[scenario]\n"
        "label = far\nsigma_a = ideal\nsigma_b = 0.5\nx3 = 1000\np4 = 0\n"
    )
    assert main(["run", str(config)]) == 2
    assert [p.name for p in out.iterdir()] == ["report.csv"]
    assert (out / "report.csv").read_text().splitlines()[1] == "far,ideal,0.5,1000.0,0.0,nan,"


def test_row_wise_mode_matches_transposed_columns():
    img = stripes_image(h=32, w=16)
    out_rows = teleport_image(
        img, ConvolutionOnly(1.1), MeasurementOutcome(0.0, 0.8), mode="row-wise"
    )
    transposed = ImageAsset(pixels=img.pixels.T.copy(), maxval=255)
    out_cols = teleport_image(
        transposed, ConvolutionOnly(1.1), MeasurementOutcome(0.0, 0.8)
    )
    assert np.allclose(out_rows.display.pixels, out_cols.display.pixels.T)
