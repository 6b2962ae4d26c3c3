import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvteleport import (
    ParseError,
    envelope_profile,
    kernel_profile,
    parse_config,
    parse_grid,
)
from cvteleport.cli import main
from cvteleport.config import MAX_GRID_POINTS
from cvteleport.optics import IDEAL


BASE = """\
input = bundled:silhouette
grid = -256:256:1024
output_dir = {out}
seed = 11

[scenario]
label = ideal
sigma_a = ideal
sigma_b = ideal
x3 = 0
p4 = 0

[scenario]
label = conv
sigma_a = 0.185185
sigma_b = ideal
x3 = 0
p4 = 2.7
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_config_basics(tmp_path):
    path = write_config(tmp_path, BASE.format(out=tmp_path / "out"))
    cfg = parse_config(path)
    assert cfg.seed == 11
    assert cfg.grid.n == 1024
    assert len(cfg.scenarios) == 2
    assert cfg.scenarios[0].params.sigma_a is IDEAL
    assert cfg.scenarios[1].outcome.p4 == 2.7


def test_parse_grid_spec():
    g = parse_grid("-256:256:1024")
    assert g.x_min == -256.0 and g.n == 1024 and g.dx == 0.5
    with pytest.raises(ParseError):
        parse_grid("0:10")
    with pytest.raises(ParseError):
        parse_grid("0:10:100")  # not a power of two
    assert parse_grid(f"0:1:{MAX_GRID_POINTS}").n == MAX_GRID_POINTS  # allocates nothing
    with pytest.raises(ParseError, match="over the limit"):
        parse_grid(f"0:1:{2 * MAX_GRID_POINTS}")
    with pytest.raises(ParseError, match="over the limit") as err:
        parse_grid("0:1:1099511627776", "run.cfg", 3)
    assert (err.value.path, err.value.line) == ("run.cfg", 3)


def test_parse_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, "input = x\nwhatever = 3\noutput_dir = o\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 2


def test_parse_config_duplicate_labels(tmp_path):
    text = BASE.format(out=tmp_path) + "\n[scenario]\nlabel = conv\nsigma_a = 1\nsigma_b = 1\nx3 = 0\np4 = 0\n"
    with pytest.raises(ParseError):
        parse_config(write_config(tmp_path, text))


def test_parse_config_missing_required(tmp_path):
    with pytest.raises(ParseError):
        parse_config(write_config(tmp_path, "output_dir = o\n"))


def test_parse_config_bad_width(tmp_path):
    text = "input = x\noutput_dir = o\n[scenario]\nlabel = a\nsigma_a = perfect\nsigma_b = 1\nx3 = 0\np4 = 0\n"
    with pytest.raises(ParseError):
        parse_config(write_config(tmp_path, text))


SCENARIO = "[scenario]\nlabel = a\nsigma_a = {sa}\nsigma_b = 1\nx3 = {x3}\np4 = {p4}\n"


@pytest.mark.parametrize(
    "text, line",
    [
        ("seed = -3\n" + SCENARIO.format(sa=1, x3=0, p4=0), 3),
        ("\n" + SCENARIO.format(sa="inf", x3=0, p4=0), 6),
        ("\n" + SCENARIO.format(sa="nan", x3=0, p4=0), 6),
        ("\n" + SCENARIO.format(sa=1, x3="nan", p4=0), 8),
        ("\n" + SCENARIO.format(sa=1, x3=0, p4="inf"), 9),
        ("\n" + SCENARIO.format(sa=1, x3=0, p4="-inf"), 9),
        ("\n" + SCENARIO.format(sa=1, x3=0, p4=0) + "seed = -1\n", 10),
        ("grid = 0:1:1099511627776\n" + SCENARIO.format(sa=1, x3=0, p4=0), 3),
        ("\n" + SCENARIO.format(sa=1, x3=0, p4=0) + "grid = 0:1:4194304\n", 10),
    ],
    ids=[
        "seed", "sigma_a-inf", "sigma_a-nan", "x3-nan", "p4-inf", "p4-neg-inf",
        "scenario-seed", "grid-too-large", "scenario-grid-too-large",
    ],
)
def test_parse_config_rejects_non_finite_and_negative(tmp_path, text, line):
    path = write_config(tmp_path, "input = x\noutput_dir = o\n" + text)
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.path == str(path) and err.value.line == line
    assert main(["run", str(path)]) == 1


@pytest.mark.parametrize(
    "text, line",
    [
        ("seed = 1\nseed = 2\n" + SCENARIO.format(sa=1, x3=0, p4=0), 4),
        ("input = y\n" + SCENARIO.format(sa=1, x3=0, p4=0), 3),
        (SCENARIO.format(sa=1, x3=0, p4=0) + "sigma_a = 2\n", 9),
        (SCENARIO.format(sa=1, x3=0, p4=0) + "seed = 1\nseed = 1\n", 10),
        ("image_mode = diagonal\n" + SCENARIO.format(sa=1, x3=0, p4=0), 3),
    ],
    ids=["global-seed", "global-input", "scenario-sigma_a", "scenario-seed", "image_mode"],
)
def test_parse_config_reports_repeated_keys_and_bad_image_mode_at_their_line(
    tmp_path, capsys, text, line
):
    path = write_config(tmp_path, "input = x\noutput_dir = o\n" + text)
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.path == str(path) and err.value.line == line
    capsys.readouterr()
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:{line}:")


def test_cli_run_success_and_outputs(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, BASE.format(out=out))
    assert main(["run", str(path)]) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "label,sigma_a,sigma_b,x3,p4,fidelity,l2_distortion"
    assert report[1].startswith("ideal,ideal,ideal,0.0,0.0,1.0,")
    assert (out / "conv_teleported.txt").exists()
    assert (out / "conv_teleported_p.txt").exists()
    assert (out / "conv_kernel.csv").exists()


def test_cli_run_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    text = BASE + "\n[scenario]\nlabel = sampled\nsigma_a = 0.5\nsigma_b = 40\nx3 = sample\np4 = sample\nseed = 3\ngrid = -1024:1024:4096\n"
    p1 = write_config(tmp_path, text.format(out=out1), "a.cfg")
    p2 = write_config(tmp_path, text.format(out=out2), "b.cfg")
    assert main(["run", str(p1)]) == 0
    assert main(["run", str(p2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "sampled_teleported.txt").read_bytes() == (
        out2 / "sampled_teleported.txt"
    ).read_bytes()


SAMPLED = (
    "\n[scenario]\nlabel = sampled\nsigma_a = 0.5\nsigma_b = 40\n"
    "x3 = sample\np4 = sample\nseed = 3\ngrid = -1024:1024:4096\n"
)
_DENSITY_LINE = re.compile(
    r"outcome density: factor \d+, stride \d+, \d+ of \d+ s rows, n_d \d+, about [0-9.]+ MB"
)


def _scenario_lines(report: str, regimes: dict) -> list[str]:
    """The INFO line each report row should log, in report order."""
    rows = [line.split(",") for line in report.splitlines()[1:]]
    return [
        f"scenario {label}: {regimes[label]}, x3 {x3}, p4 {p4}, fidelity {fid}"
        for label, _, _, x3, p4, fid, _ in rows
    ]


def test_cli_vv_logs_the_outcome_density_path(tmp_path, caplog):
    cfg = write_config(tmp_path, (BASE + SAMPLED).format(out=tmp_path / "o"))
    root = logging.getLogger()
    level = root.level
    try:
        assert main(["-vv", "run", str(cfg)]) == 0
    finally:
        root.setLevel(level)  # main sets the root level from -v
    lines = [r.getMessage() for r in caplog.records if r.name == "cvteleport.channel"]
    assert len(lines) == 1 and _DENSITY_LINE.fullmatch(lines[0]), lines


def test_cli_verbosity_changes_only_the_log(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    runs = []
    for flags in ([], ["-v"], ["-vv"]):
        out = tmp_path / f"out{len(flags) and flags[0]}"
        cfg = write_config(tmp_path, (BASE + SAMPLED).format(out=out), f"{out.name}.cfg")
        done = subprocess.run(
            [sys.executable, "-m", "cvteleport.cli", *flags, "run", str(cfg)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        runs.append((done.stderr, (out / "report.csv").read_bytes()))
    (quiet, report), (info, info_report), (debug, debug_report) = runs
    assert report == info_report == debug_report
    # nothing at WARNING; -v logs one line per scenario and no density line
    assert quiet == ""
    regimes = {"ideal": "Ideal", "conv": "ConvolutionOnly", "sampled": "General"}
    assert info.splitlines() == _scenario_lines(report.decode(), regimes)
    assert not _DENSITY_LINE.search(info)
    # -vv adds the DEBUG lines, among them the one density line
    assert [line for line in debug.splitlines() if line.startswith("scenario ")] == (
        info.splitlines()
    )
    assert len(_DENSITY_LINE.findall(debug)) == 1


def test_cli_v_logs_one_line_per_image_scenario(tmp_path, caplog):
    from cvteleport import ImageAsset, save_image

    img_path = tmp_path / "input.pgm"
    save_image(img_path, ImageAsset(pixels=np.full((16, 12), 100.0), maxval=255))
    out = tmp_path / "out"
    text = (
        f"input = {img_path}\noutput_dir = {out}\n\n"
        "[scenario]\nlabel = blur\nsigma_a = 1.2\nsigma_b = ideal\nx3 = 0\np4 = 0.4\n\n"
        "[scenario]\nlabel = spill\nsigma_a = 20\nsigma_b = ideal\nx3 = 0\np4 = 0\n"
    )
    root = logging.getLogger()
    level = root.level
    try:
        assert main(["-v", "run", str(write_config(tmp_path, text, "img.cfg"))]) == 2
    finally:
        root.setLevel(level)
    records = [r for r in caplog.records if r.name == "cvteleport.runner"]
    report = (out / "report.csv").read_text()
    assert [r.levelname for r in records] == ["INFO", "ERROR"]
    regimes = {"blur": "ConvolutionOnly", "spill": "ConvolutionOnly"}
    assert records[0].getMessage() == _scenario_lines(report, regimes)[0]
    assert records[1].getMessage().startswith("scenario spill failed: ")


#: x3 and p4 of the derived-seed config below, as report.csv spells them.  An
#: unseeded draw takes its seed from SeedSequence((master seed, scenario index)).
DERIVED_SEED_OUTCOMES = {
    None: [
        ("both", "28.794411016275948", "-0.15987001656024621"),
        ("fixed", "0.0", "0.0"),
        ("seeded", "-0.14892090362406418", "0.4782492968832362"),
        ("p4_only", "0.25", "-0.702718655243616"),
    ],
    5: [
        ("both", "55.75786366407171", "0.7951226189467685"),
        ("fixed", "0.0", "0.0"),
        ("seeded", "-0.14892090362406418", "0.4782492968832362"),
        ("p4_only", "0.25", "0.07726041557752727"),
    ],
}


@pytest.mark.parametrize("seed", [None, 5])
def test_cli_derived_seeds_are_pinned(tmp_path, seed):
    scenario = "\n[scenario]\nlabel = {}\nsigma_a = 0.5\nsigma_b = 40\nx3 = {}\np4 = {}\n"
    out = tmp_path / "out"
    text = (
        f"input = bundled:silhouette\ngrid = -1024:1024:4096\noutput_dir = {out}\nseed = 11\n"
        + scenario.format("both", "sample", "sample")
        + scenario.format("fixed", 0, 0)
        + scenario.format("seeded", "sample", "sample") + "seed = 3\n"
        + scenario.format("p4_only", 0.25, "sample")
    )
    argv = ["run", str(write_config(tmp_path, text))]
    assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
    rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[3], r[4]) for r in rows] == DERIVED_SEED_OUTCOMES[seed]


_INVALID_PROFILE_ARGS = [
    ["kernel", "--sigma-a", "nan", "--p4", "1", "--window", "-3:3"],
    ["kernel", "--sigma-a", "0", "--p4", "1", "--window", "-3:3"],
    ["kernel", "--sigma-a", "-0.5", "--p4", "1", "--window", "-3:3"],
    ["kernel", "--sigma-a", "inf", "--p4", "1", "--window", "-3:3"],
    ["kernel", "--sigma-a", "0.5", "--p4", "nan", "--window", "-3:3"],
    ["kernel", "--sigma-a", "0.5", "--p4", "1", "--window", "1:inf"],
    ["envelope", "--sigma-b", "0", "--x3", "1", "--window", "0:100"],
    ["envelope", "--sigma-b", "280", "--x3", "nan", "--window", "0:100"],
    ["envelope", "--sigma-b", "280", "--x3", "1", "--window", "nan:100"],
    ["envelope", "--sigma-b", "280", "--x3", "1", "--window", "1:inf"],
]


def test_cli_exit_codes(tmp_path, capsys):
    # config failure -> 1
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1
    # usage failure -> 1
    assert main(["kernel", "--sigma-a", "0.5"]) == 1
    # a negative seed override is a usage failure
    cfg = write_config(tmp_path, BASE.format(out=tmp_path / "o"))
    assert main(["run", str(cfg), "--seed", "-5"]) == 1
    assert not (tmp_path / "o").exists()
    # non-finite or non-positive profile numbers are usage failures too
    target = tmp_path / "profile.csv"
    for argv in _INVALID_PROFILE_ARGS:
        capsys.readouterr()
        assert main(argv + ["-o", str(target)]) == 1, argv
        assert capsys.readouterr().err.startswith("error:"), argv
        assert not target.exists(), argv
    # partial scenario failure -> 2, report still written
    out = tmp_path / "out"
    text = BASE.format(out=out) + (
        "\n[scenario]\nlabel = doomed\nsigma_a = ideal\nsigma_b = 1.0\n"
        "x3 = 10000\np4 = 0\n"
    )
    path = write_config(tmp_path, text, "partial.cfg")
    assert main(["run", str(path)]) == 2
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[-1].startswith("doomed,") and lines[-1].endswith(",nan,nan")


def test_cli_failed_write_leaves_no_temp_file(tmp_path):
    out = tmp_path / "out"
    (out / "report.csv").mkdir(parents=True)  # renaming onto a directory fails
    assert main(["run", str(write_config(tmp_path, BASE.format(out=out)))]) == 1
    assert not list(out.glob("*.tmp-*"))


def test_cli_empty_scenarios_is_config_error(tmp_path):
    path = write_config(tmp_path, f"input = bundled:silhouette\noutput_dir = {tmp_path/'o'}\n")
    assert main(["run", str(path)]) == 1


def test_cli_seed_override_changes_sampled_outcomes(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    text = (
        "input = bundled:silhouette\ngrid = -1024:1024:4096\noutput_dir = {out}\n"
        "seed = 1\n\n[scenario]\nlabel = s\nsigma_a = 0.5\nsigma_b = 40\n"
        "x3 = sample\np4 = sample\n"
    )
    p1 = write_config(tmp_path, text.format(out=out1), "s1.cfg")
    p2 = write_config(tmp_path, text.format(out=out2), "s2.cfg")
    assert main(["run", str(p1)]) == 0
    assert main(["run", str(p2), "--seed", "999"]) == 0
    row1 = (out1 / "report.csv").read_text().splitlines()[1]
    row2 = (out2 / "report.csv").read_text().splitlines()[1]
    assert row1 != row2


def test_cli_grid_override(tmp_path, capsys):
    out = tmp_path / "out"
    text = (
        "input = bundled:silhouette\ngrid = -256:256:1024\noutput_dir = {out}\n\n"
        "[scenario]\nlabel = m\nsigma_a = ideal\nsigma_b = 50\nx3 = 100\np4 = 0\n"
    )
    path = write_config(tmp_path, text.format(out=out))
    # default grid violates the span rule for this scenario -> partial failure
    assert main(["run", str(path)]) == 2
    # a wider override grid satisfies it
    assert main(["run", str(path), "--grid", "-1024:1024:4096"]) == 0
    # an override over the point limit is refused before anything is allocated
    huge = "0:1:1099511627776"
    for argv in (
        ["run", str(path), "--grid", huge],
        ["info", "bundled:silhouette", "--grid", huge],
    ):
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith(f"error: grid '{huge}' has"), argv


def test_cli_kernel_and_envelope_outputs(tmp_path):
    kcsv = tmp_path / "k.csv"
    assert main(
        ["kernel", "--sigma-a", "0.185185", "--p4", "2.7", "--window", "-3:3", "-o", str(kcsv)]
    ) == 0
    lines = kcsv.read_text().splitlines()
    assert lines[0] == "u,real,imag"
    u, re, im = map(float, lines[1].split(","))
    assert u == -3.0
    prof = kernel_profile(0.185185, 2.7, (-3.0, 3.0))
    assert lines[1:] == [
        f"{float(u)!r},{float(re)!r},{float(im)!r}"
        for u, re, im in zip(prof.u, prof.real, prof.imag)
    ]

    ecsv = tmp_path / "e.csv"
    assert main(
        ["envelope", "--sigma-b", "280", "--x3", "-280", "--window", "0:100", "-o", str(ecsv)]
    ) == 0
    lines = ecsv.read_text().splitlines()
    assert lines[0] == "x,value"
    x0, v0 = map(float, lines[1].split(","))
    assert v0 == pytest.approx(np.exp(-((0 + np.sqrt(2) * 280.0) / 280.0) ** 2))
    prof = envelope_profile(280.0, -280.0, (0.0, 100.0))
    assert lines[1:] == [f"{float(x)!r},{float(v)!r}" for x, v in zip(prof.x, prof.values)]


def test_cli_info_prints_moments(tmp_path, capsys):
    assert main(["info", "bundled:silhouette"]) == 0
    captured = capsys.readouterr().out
    assert "mean_x = 49.956785559" in captured
    assert "support_length = 100.5" in captured


def test_cli_image_run(tmp_path):
    from cvteleport import ImageAsset, MeasurementOutcome, SqueezingParams, save_image
    from cvteleport import load_image, teleport_image
    from cvteleport.channel import regime_for

    rng = np.random.default_rng(4)
    img = ImageAsset(
        pixels=np.rint(rng.uniform(30, 220, (32, 24))), maxval=255
    )
    img_path = tmp_path / "input.pgm"
    save_image(img_path, img)
    out = tmp_path / "out"
    text = (
        f"input = {img_path}\noutput_dir = {out}\n\n"
        "[scenario]\nlabel = ideal\nsigma_a = ideal\nsigma_b = ideal\nx3 = 0\np4 = 0\n\n"
        "[scenario]\nlabel = blur\nsigma_a = 1.2\nsigma_b = ideal\nx3 = 0\np4 = 0.4\n\n"
        "[scenario]\nlabel = spill\nsigma_a = 20\nsigma_b = ideal\nx3 = 0\np4 = 0\n"
    )
    path = write_config(tmp_path, text, "img.cfg")
    # the wide kernel spills mass into the edge bins: that scenario fails
    assert main(["run", str(path)]) == 2
    assert (out / "report.csv").read_text().splitlines() == [
        "label,sigma_a,sigma_b,x3,p4,fidelity,l2_distortion",
        "ideal,ideal,ideal,0.0,0.0,1.0,",
        "blur,1.2,ideal,0.0,0.4,0.9212757265143382,",
        "spill,20.0,ideal,0.0,0.0,nan,",
    ]
    assert not (out / "spill.pgm").exists()
    assert (out / "ideal.pgm").exists()
    assert (out / "blur.pgm").exists()
    assert (out / "blur_intensity.txt").exists()
    back = load_image(out / "ideal.pgm")
    assert np.max(np.abs(back.pixels - img.pixels)) <= 1.0
    # the intensity text is one repr per pixel, in both image modes
    asset = load_image(img_path)
    rows_out = tmp_path / "rows"
    rows_text = text.replace(f"output_dir = {out}", f"output_dir = {rows_out}\nimage_mode = row-wise")
    assert main(["run", str(write_config(tmp_path, rows_text, "rows.cfg"))]) == 2
    regime = regime_for(SqueezingParams(1.2, IDEAL))
    for mode, directory in (("column-wise", out), ("row-wise", rows_out)):
        raw = teleport_image(asset, regime, MeasurementOutcome(0.0, 0.4), mode).raw
        want = "".join(" ".join(repr(float(v)) for v in line) + "\n" for line in raw)
        assert (directory / "blur_intensity.txt").read_text() == want


def test_cli_row_wise_envelope_spans_one_row(tmp_path):
    from cvteleport import ImageAsset, save_image

    img = ImageAsset(pixels=np.full((32, 24), 100.0), maxval=255)
    img_path = tmp_path / "input.pgm"
    save_image(img_path, img)
    out = tmp_path / "out"
    text = (
        f"input = {img_path}\noutput_dir = {out}\nimage_mode = row-wise\n\n"
        "[scenario]\nlabel = env\nsigma_a = ideal\nsigma_b = 40\nx3 = 8\np4 = 0\n"
    )
    assert main(["run", str(write_config(tmp_path, text, "rows.cfg"))]) == 0
    last = (out / "env_envelope.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[0]) == 24.0  # a row has width 24 pixels


def test_shipped_scenario_config_reproduces_frozen_fidelities(tmp_path, monkeypatch):
    from test_acceptance import FROZEN_FIDELITIES

    shipped = Path(__file__).resolve().parent.parent / "configs" / "reference_scenarios.cfg"
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(shipped)]) == 0
    rows = (tmp_path / "out" / "report.csv").read_text().splitlines()[1:]
    assert len(rows) == 10
    for row in rows:
        fields = row.split(",")
        label, fid = fields[0], float(fields[5])
        assert fid == pytest.approx(FROZEN_FIDELITIES[label], abs=1e-6)


def test_cli_image_rejects_sampling(tmp_path):
    from cvteleport import ImageAsset, save_image

    img = ImageAsset(pixels=np.full((16, 16), 100.0), maxval=255)
    img_path = tmp_path / "input.pgm"
    save_image(img_path, img)
    text = (
        f"input = {img_path}\noutput_dir = {tmp_path/'o'}\n\n"
        "[scenario]\nlabel = s\nsigma_a = 1\nsigma_b = 2\nx3 = sample\np4 = 0\n"
    )
    path = write_config(tmp_path, text, "img.cfg")
    assert main(["run", str(path)]) == 1


def test_cli_run_imports_no_scipy(tmp_path):
    # numpy is the only runtime dependency: a full run must not pull in scipy
    out = tmp_path / "out"
    cfg = write_config(tmp_path, BASE.format(out=out))
    code = (
        "import sys\n"
        "from cvteleport.cli import main\n"
        f"assert main(['run', {str(cfg)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert (out / "report.csv").exists()
