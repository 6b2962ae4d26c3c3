import hashlib

import numpy as np
import pytest

from cvteleport import (
    ConvolutionOnly,
    General,
    Ideal,
    ImageAsset,
    MeasurementOutcome,
    MultiplicationOnly,
    UnsupportedFormatError,
    load_image,
    save_image,
    teleport_image,
)
from cvteleport.cli import main


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


def test_minimum_size_enforced():
    with pytest.raises(ValueError):
        ImageAsset(pixels=np.ones((4, 4)), maxval=255)


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
        (General(2.0, 60.0), "423b4028f134305d0417755a22ff4e9ac50f0dc19fdfa5026d22716e3129c6ba"),
        (ConvolutionOnly(2.0), "bc201a0eaaa4449a5f6fa4c56b5590cb436ed7efb5eeee075c98986e99218c05"),
    ],
    ids=["general", "convolution"],
)
def test_seeded_image_raw_is_frozen(regime, digest):
    # A seeded 256 x 256 image at outcome (10, 0.2): the raw |psi_tel|^2
    # matrix, recorded before the kernel factors were kept between columns.
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
