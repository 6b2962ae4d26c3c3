import contextlib
import io
import logging
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport import (
    GridSpec,
    ParseError,
    TeleportError,
    envelope_profile,
    gaussian_packet,
    kernel_profile,
    parse_config,
    parse_grid,
    save_signal,
)
from cvteleport import errors
from cvteleport.analysis import fidelity
from cvteleport.cli import main
from cvteleport.config import MAX_GRID_POINTS

from conftest import oracle_teleport


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


def child_env():
    """The environment of a child Python that imports this checkout's package."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


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
    assert cfg.scenarios[0].regime.sigma_a == 0.0
    assert cfg.scenarios[1].p4 == 2.7


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
        ("\n" + SCENARIO.format(sa=0, x3=0, p4=0), 6),
        ("\n" + SCENARIO.format(sa=1, x3=0, p4=0).replace("b = 1", "b = inf"), 7),
        ("\n" + SCENARIO.format(sa=1, x3=0, p4=0).replace("b = 1", "b = 0"), 7),
        ("\n" + SCENARIO.format(sa="nan", x3=0, p4=0), 6),
        ("\n" + SCENARIO.format(sa=1, x3="nan", p4=0), 8),
        ("\n" + SCENARIO.format(sa=1, x3=0, p4="inf"), 9),
        ("\n" + SCENARIO.format(sa=1, x3=0, p4="-inf"), 9),
        ("\n" + SCENARIO.format(sa=1, x3=0, p4=0) + "seed = -1\n", 10),
        ("grid = 0:1:1099511627776\n" + SCENARIO.format(sa=1, x3=0, p4=0), 3),
        ("\n" + SCENARIO.format(sa=1, x3=0, p4=0) + "grid = 0:1:4194304\n", 10),
    ],
    ids=[
        "seed", "sigma_a-inf", "sigma_a-0", "sigma_b-inf", "sigma_b-0", "sigma_a-nan", "x3-nan", "p4-inf", "p4-neg-inf",
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
    "label",
    ["../escape", "{tmp}/abs", "a,b", "", "a\\b", "a\tb", "strong  # note"],
    ids=["parent", "absolute", "comma", "empty", "backslash", "tab", "hash"],
)
def test_parse_config_refuses_a_label_that_cannot_name_its_files(tmp_path, label):
    # a label names output files and a report.csv field: nothing may leave
    # the output directory or add a field
    work = tmp_path / "work"
    work.mkdir()
    out = work / "out"
    label = label.format(tmp=tmp_path)
    text = (
        f"input = bundled:silhouette\noutput_dir = {out}\n\n[scenario]\n"
        f"label = {label}\nsigma_a = 0.5\nsigma_b = ideal\nx3 = 0\np4 = 0\n"
    )
    path = write_config(tmp_path, text)
    with pytest.raises(ParseError, match="label must be") as err:
        parse_config(path)
    assert err.value.path == str(path) and err.value.line == 5
    assert main(["run", str(path)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "work"]
    assert not list(work.iterdir())


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


_HEAD = "input = x\noutput_dir = {out}\n"
_ONE = SCENARIO.format(sa=1, x3=0, p4=0)


@pytest.mark.parametrize(
    "text, line, message",
    [
        (_HEAD + "[scenarios]\n", 3, "unknown section"),
        (_HEAD + "seed 3\n", 3, "expected 'key = value'"),
        (_HEAD + _ONE + "mode = 1\n", 9, "unknown scenario key"),
        ("input = x\n" + _ONE, None, "missing required key 'output_dir'"),
        (_HEAD + "\n[scenario]\nlabel = a\nsigma_a = 1\n", 4, "scenario is missing"),
        (_HEAD + SCENARIO.format(sa=1, x3="abc", p4=0), 7, "x3 must be a number"),
        (_HEAD + "seed = 1.5\n" + _ONE, 3, "non-negative integer"),
        # a '#' after a value is no comment: it would name the directory
        (
            "input = bundled:silhouette\noutput_dir = {out}  # where\n" + _ONE,
            2,
            "output_dir must not contain '#'",
        ),
        # an empty value would be the current directory: the run once wrote
        # its files there, and an empty input read it as a file
        ("input =\noutput_dir = {out}\n" + _ONE, 1, "input must not be empty"),
        ("input = bundled:silhouette\noutput_dir =  \n" + _ONE, 2, "output_dir must not be empty"),
    ],
    ids=[
        "unknown-section", "no-equals", "unknown-scenario-key", "no-output_dir",
        "scenario-missing-keys", "x3-not-a-number", "seed-not-an-integer",
        "output_dir-comment", "empty-input", "empty-output_dir",
    ],
)
def test_parse_config_refusals_name_their_line_and_write_nothing(
    tmp_path, capsys, text, line, message
):
    out = tmp_path / "out"
    path = write_config(tmp_path, text.format(out=out))
    with pytest.raises(ParseError, match=message) as err:
        parse_config(path)
    assert err.value.path == str(path) and err.value.line == line
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


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
    r"outcome density: x3 and p4, F \d+, rows \d+, N \d+, lags \d+, about [0-9.]+ MB"
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
    # each scenario is logged as it finishes, its density line just before it
    names = ("cvteleport.channel", "cvteleport.runner")
    lines = [r.getMessage() for r in caplog.records if r.name in names]
    assert [line.split(":")[0] for line in lines] == [
        "scenario ideal", "scenario conv", "outcome density", "scenario sampled"
    ]


MARGINALS = (
    "\n[scenario]\nlabel = p4_only\nsigma_a = 0.185185\nsigma_b = ideal\n"
    "x3 = 0\np4 = sample\n"
    "\n[scenario]\nlabel = x3_only\nsigma_a = ideal\nsigma_b = 8.4\n"
    "x3 = sample\np4 = 0\ngrid = -1024:1024:4096\n"
)


def test_cli_vv_logs_each_marginal_path(tmp_path, caplog):
    # one line per single-coordinate draw: its coordinate, lattice factor,
    # largest row count (the silhouette's 201 nonzero samples), transform
    # length (none for x3, whose lag 0 is all it needs), lags and bytes
    cfg = write_config(tmp_path, (BASE + MARGINALS).format(out=tmp_path / "o"))
    root = logging.getLogger()
    level = root.level
    try:
        assert main(["-vv", "run", str(cfg)]) == 0
    finally:
        root.setLevel(level)
    lines = [r.getMessage() for r in caplog.records if r.name == "cvteleport.channel"]
    assert sorted(lines) == [
        "outcome density: p4, F 1, rows 201, N 256, lags 23, about 1.2 MB",
        "outcome density: x3, F 1, rows 201, N 0, lags 1, about 0.7 MB",
    ]


def test_cli_verbosity_changes_only_the_log(tmp_path):
    runs = []
    for flags in ([], ["-v"], ["-vv"]):
        out = tmp_path / f"out{len(flags) and flags[0]}"
        cfg = write_config(tmp_path, (BASE + SAMPLED).format(out=out), f"{out.name}.cfg")
        done = subprocess.run(
            [sys.executable, "-m", "cvteleport.cli", *flags, "run", str(cfg)],
            env=child_env(),
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
#: unseeded draw takes its seed from SeedSequence((master seed, scenario index)),
#: and p4_only draws p4 from its density given the fixed x3.
DERIVED_SEED_OUTCOMES = {
    None: [
        ("both", "28.794411016275948", "-0.15987001656024621"),
        ("fixed", "0.0", "0.0"),
        ("seeded", "-0.14892090362406418", "0.4782492968832362"),
        ("p4_only", "0.25", "-0.644761441298377"),
    ],
    5: [
        ("both", "55.75786366407171", "0.7951226189467685"),
        ("fixed", "0.0", "0.0"),
        ("seeded", "-0.14892090362406418", "0.4782492968832362"),
        ("p4_only", "0.25", "-0.1193760257537513"),
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
    ["kernel", "--sigma-a", "0.5", "--p4", "1", "--window", "3"],
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


def test_run_peak_does_not_grow_with_the_scenario_count(tmp_path, monkeypatch):
    # each scenario's files are written as it finishes and its output is
    # dropped; kept to the end, each output would add 16 B a point (1.05 MB).
    # The signal text is left out, as formatting it under tracemalloc takes
    # about a second a file; the writer's own peak has its test in
    # test_signals.py, and it is the same for one scenario or eight.
    from cvteleport import runner

    monkeypatch.setattr(runner, "save_signal", lambda path, psi, **kw: Path(path).touch())
    scenario = "\n[scenario]\nlabel = s{}\nsigma_a = 0.5\nsigma_b = 40\nx3 = 0\np4 = 0\n"
    peaks = []
    for count in (1, 8):
        out = tmp_path / f"o{count}"
        text = f"input = bundled:silhouette\ngrid = -512:512:65536\noutput_dir = {out}\n"
        text += "".join(scenario.format(i) for i in range(count))
        config = parse_config(write_config(tmp_path, text))
        tracemalloc.start()
        try:
            assert runner.run(config) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(list((tmp_path / "o8").glob("*_teleported.txt"))) == 8
    assert abs(peaks[1] - peaks[0]) < 0.5e6, peaks


def test_interrupted_run_keeps_the_finished_scenarios_files(tmp_path, monkeypatch):
    # the first scenario's files are whole before the second runs, and an
    # interrupt in the second leaves no temp file and no report.csv
    from cvteleport import analysis, teleport

    def interrupt_the_second(psi, regime, outcome):
        if type(regime).__name__ == "ConvolutionOnly":
            raise KeyboardInterrupt
        return teleport(psi, regime, outcome)

    monkeypatch.setattr(analysis, "teleport", interrupt_the_second)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(["run", str(write_config(tmp_path, BASE.format(out=out)))])
    assert sorted(path.name for path in out.iterdir()) == [
        "ideal_teleported.txt", "ideal_teleported_p.txt"
    ]
    assert np.loadtxt(out / "ideal_teleported.txt").shape == (1024, 3)


def test_image_run_drops_each_result_before_the_next_scenario(tmp_path, monkeypatch):
    # as for a signal, each image scenario's files are written and its
    # ImageTeleportResult released before the next scenario teleports, and
    # an interrupt keeps the finished scenarios' files
    import weakref

    from cvteleport import ImageAsset, runner, save_image, teleport_image

    results, alive = [], []

    def tracked(asset, regime, outcome, mode):
        alive.append([ref() is not None for ref in results])
        if len(results) == 2:
            raise KeyboardInterrupt
        result = teleport_image(asset, regime, outcome, mode)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(runner, "teleport_image", tracked)
    image, out = tmp_path / "input.pgm", tmp_path / "out"
    save_image(image, ImageAsset(pixels=np.full((16, 16), 100.0), maxval=255))
    scenario = "\n[scenario]\nlabel = s{}\nsigma_a = 1\nsigma_b = ideal\nx3 = 0\np4 = 0\n"
    text = f"input = {image}\noutput_dir = {out}\n" + "".join(map(scenario.format, range(3)))
    with pytest.raises(KeyboardInterrupt):
        main(["run", str(write_config(tmp_path, text))])
    assert alive == [[], [False], [False, False]]
    assert sorted(path.name for path in out.iterdir()) == [
        f"s{i}{suffix}" for i in range(2) for suffix in (".pgm", "_intensity.txt", "_kernel.csv")
    ]


def test_cli_empty_scenarios_is_config_error(tmp_path, capsys):
    # refused before anything is written, for a signal and an image input alike
    from cvteleport import ImageAsset, save_image

    image = tmp_path / "input.pgm"
    save_image(image, ImageAsset(pixels=np.full((16, 16), 100.0), maxval=255))
    for source in ["bundled:silhouette", image]:
        path = write_config(tmp_path, f"input = {source}\noutput_dir = {tmp_path/'o'}\n")
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == "error: no scenarios to run\n"
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "case",
    [
        "missing-input", "signal-image_mode", "image-global-grid", "image-grid-option",
        "image-sampled", "image-scenario-grid", "unparsable-signal",
    ],
)
def test_cli_config_error_creates_no_output_dir(tmp_path, capsys, case):
    from cvteleport import ImageAsset, save_image

    out = tmp_path / "out"
    image = tmp_path / "input.pgm"
    save_image(image, ImageAsset(pixels=np.full((16, 16), 100.0), maxval=255))
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("0.0 1.0\nnot a number\n")
    head, extra, argv = f"input = {image}\noutput_dir = {out}\n", "", []
    scenario = "\n[scenario]\nlabel = s\nsigma_a = 1\nsigma_b = ideal\nx3 = {x3}\np4 = 0\n"
    if case == "missing-input":
        head = head.replace(str(image), str(tmp_path / "missing.txt"))
    elif case == "signal-image_mode":
        head = f"input = bundled:silhouette\noutput_dir = {out}\nimage_mode = row-wise\n"
    elif case == "image-global-grid":
        head += "grid = -8:8:64\n"
    elif case == "image-grid-option":
        argv = ["--grid", "-8:8:64"]
    elif case == "image-scenario-grid":
        extra = "grid = -8:8:64\n"
    elif case == "unparsable-signal":
        head = head.replace(str(image), str(garbage))
    x3 = "sample" if case == "image-sampled" else "0"
    path = write_config(tmp_path, head + scenario.format(x3=x3) + extra)
    assert main(["run", str(path)] + argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("case", ["config", "signal", "info-image"])
def test_cli_non_utf8_input_fails_at_the_line_of_its_first_bad_byte(tmp_path, capsys, case):
    from cvteleport import ImageAsset, save_image

    out = tmp_path / "out"
    if case == "config":
        bad, line = tmp_path / "run.cfg", 3
        bad.write_bytes(f"input = bundled:silhouette\noutput_dir = {out}\n".encode() + b"# caf\xff\n")
        argv = ["run", str(bad)]
    elif case == "signal":
        bad, line = tmp_path / "signal.txt", 2
        bad.write_bytes(b"0 1\n1 \xff\n2 0\n")
        config = write_config(tmp_path, f"input = {bad}\noutput_dir = {out}\n" + _ONE)
        argv = ["run", str(config)]
    else:
        # the P5 header takes three lines; the first pixel, 0xc8, is not UTF-8
        bad, line = tmp_path / "image.pgm", 4
        save_image(bad, ImageAsset(pixels=np.full((16, 16), 200.0), maxval=255))
        argv = ["info", str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{line}: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_cli_unreadable_input_fails_at_its_first_read(tmp_path, capsys):
    # an input that exists but cannot be read: here a directory
    out, folder = tmp_path / "out", tmp_path / "folder"
    folder.mkdir()
    path = write_config(tmp_path, f"input = {folder}\noutput_dir = {out}\n" + _ONE)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("io error: ")
    assert not out.exists()


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


def test_cli_scenario_grid_runs_the_file_placed_on_that_grid(tmp_path, monkeypatch):
    # The run's grid is -512:512:1024.  The scenario at -256:256:1024 runs
    # load_signal on its own grid bit for bit (a resample of the run's
    # samples missed it by 0.0324 relative L2); the grid-less one runs the
    # state the runner loaded, that object itself.
    from cvteleport import ConvolutionOnly, MeasurementOutcome, analysis, runner, teleport
    from cvteleport.signals import bundled_silhouette_path, load_signal

    loaded, ran = [], {}

    def spy_load(path, grid):
        loaded.append(load_signal(path, grid))
        return loaded[-1]

    def spy_teleport(psi, regime, outcome):
        ran[type(regime).__name__] = psi
        return teleport(psi, regime, outcome)

    monkeypatch.setattr(runner, "load_signal", spy_load)
    monkeypatch.setattr(analysis, "teleport", spy_teleport)
    out = tmp_path / "out"
    text = (
        f"input = bundled:silhouette\ngrid = -512:512:1024\noutput_dir = {out}\n"
        "\n[scenario]\nlabel = own\nsigma_a = 0.5\nsigma_b = ideal\nx3 = 0\np4 = 0.3\n"
        "grid = -256:256:1024\n"
        "\n[scenario]\nlabel = plain\nsigma_a = ideal\nsigma_b = 8.4\nx3 = 35\np4 = 0\n"
    )
    assert main(["run", str(write_config(tmp_path, text))]) == 0
    own = parse_grid("-256:256:1024")
    assert [state.grid for state in loaded] == [parse_grid("-512:512:1024"), own]
    assert ran["MultiplicationOnly"] is loaded[0]
    placed = load_signal(bundled_silhouette_path(), own)
    assert np.array_equal(ran["ConvolutionOnly"].amplitudes, placed.amplitudes)
    x, re, im = np.loadtxt(out / "own_teleported.txt", unpack=True)
    want = teleport(placed, ConvolutionOnly(0.5), MeasurementOutcome(0.0, 0.3))
    assert np.array_equal(x, own.points)
    assert np.array_equal(re + 1j * im, want.amplitudes)
    # the sweep itself places nothing
    assert not {"resample", "place_samples", "normalize"} & set(vars(analysis))


def test_cli_scenario_grid_that_cuts_the_signal_fails_by_name(tmp_path, caplog):
    # The silhouette spans [0, 100]; a scenario grid from 50 once ran its
    # right half alone, resampled from the run's grid, at fidelity 1.0.  The
    # failed row still names its fixed outcome.
    out = tmp_path / "out"
    text = (
        f"input = bundled:silhouette\ngrid = -256:256:1024\noutput_dir = {out}\n"
        "\n[scenario]\nlabel = cut\nsigma_a = ideal\nsigma_b = ideal\nx3 = 0\np4 = 0\n"
        "grid = 50:306:512\n"
    )
    assert main(["run", str(write_config(tmp_path, text))]) == 2
    assert (
        "scenario cut failed: GridTooNarrowError: signal spans [0, 100] but the grid "
        "covers [50, 305.5]"
    ) in caplog.text
    assert (out / "report.csv").read_text().splitlines()[1] == "cut,ideal,ideal,0.0,0.0,nan,nan"


def test_cli_far_fixed_outcomes_fail_by_name_without_a_warning(tmp_path):
    # A fixed p4 of 1e300 lies beyond the input's band, smoothed, so its
    # density row is 0: once a 1e298-MB OutcomeTooLargeError that blamed the
    # grid.  A fixed x3 of 1e300 once overflowed squaring its window
    # distance.  Each now fails its row with ZeroNormError, warning-free.
    # Both fixed: at sigma_a = 1e300 the window once came out all ones, the
    # run reported fidelity 1.0 and then wrote a kernel profile whose phase
    # sqrt(2) p4 u overflowed to NaN; it now keeps the band edge alone, a
    # plane wave that fills the grid.  A Hankel p4 whose sqrt(2) p4
    # overflows once gave NaN phases; the outcome is now void.  A fixed
    # coordinate above 1.27e308 is finite, but sqrt(2) times it is not: the
    # span rule and the outcome density once warned on their way to failing.
    out = tmp_path / "out"
    vanished = "ZeroNormError: outcome density vanished on the outcome grid"
    scenarios = [
        ("far_p4_ideal_b", "0.185", "ideal", "sample", "1e300", vanished,
         "0.185,ideal,,1e+300"),
        ("far_p4", "0.185", "8.4", "sample", "1e300", vanished, "0.185,8.4,,1e+300"),
        ("far_x3", "0.185", "8.4", "1e300", "sample", vanished, "0.185,8.4,1e+300,"),
        ("huge", "1e300", "ideal", "0", "1e300",
         "GridTooNarrowError: 0.00391 of the output mass sits in the outermost bins; "
         "request a wider grid", "1e+300,ideal,0.0,1e+300"),
        ("hankel", "8.4", "1", "0", "1.7e308",
         "ZeroNormError: the teleportation kernel annihilated the state for this outcome",
         "8.4,1.0,0.0,1.7e+308"),
        ("span", "ideal", "8", "1.5e308", "0",
         "GridTooNarrowError: grid span 512 is below the required inf "
         "(support 100.5, x3 1.5e+308, sigma_b 8.0)", "ideal,8.0,1.5e+308,0.0"),
        ("huge_x3", "0.5", "8", "1.5e308", "sample", vanished, "0.5,8.0,1.5e+308,"),
        ("huge_p4", "0.5", "8", "sample", "-1.5e308", vanished, "0.5,8.0,,-1.5e+308"),
    ]
    text = f"input = bundled:silhouette\ngrid = -256:256:1024\noutput_dir = {out}\n"
    for label, sigma_a, sigma_b, x3, p4, _, _ in scenarios:
        text += (
            f"\n[scenario]\nlabel = {label}\nsigma_a = {sigma_a}\nsigma_b = {sigma_b}\n"
            f"x3 = {x3}\np4 = {p4}\n"
        )
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cvteleport.cli", "run",
         str(write_config(tmp_path, text))],
        env=child_env(), capture_output=True, text=True,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.splitlines() == [
        f"scenario {label} failed: {error}" for label, *_, error, _ in scenarios
    ]
    # each failed row still names the coordinate it pinned
    assert (out / "report.csv").read_text().splitlines()[1:] == [
        f"{label},{row},nan,nan" for label, *_, row in scenarios
    ]
    assert not (out / "huge_kernel.csv").exists()


def test_cli_run_row_whose_kernel_phase_overflows_fails_by_name(tmp_path, caplog):
    # At p4 = 1.5e308 the outcome teleports, but sqrt(2) p4 u overflows across
    # the kernel profile's window, where its Gaussian is not 0: the profile
    # once held NaN in all 1001 rows, with a RuntimeWarning.  The row now
    # fails before any of its files is written, and the run goes on.
    out = tmp_path / "out"
    config = str(write_config(tmp_path, (
        f"input = bundled:silhouette\ngrid = -256:256:1024\noutput_dir = {out}\n"
        "\n[scenario]\nlabel = phase\nsigma_a = 0.5\nsigma_b = 8\nx3 = 0\np4 = 1.5e308\n"
        "\n[scenario]\nlabel = kept\nsigma_a = 0.5\nsigma_b = 8\nx3 = 0\np4 = 1\n"
    )))
    failure = (
        "scenario phase failed: PhaseOverflowError: the kernel phase sqrt(2)*p4*u "
        "overflows float64 where its Gaussian is not 0 "
        "(sigma_a 0.5, p4 1.5e+308, window -6.0:6.0)"
    )
    assert main(["run", config]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert errors == [failure]
    report = (out / "report.csv").read_text().splitlines()
    assert report[1] == "phase,0.5,8.0,0.0,1.5e+308,nan,nan"
    assert report[2].startswith("kept,0.5,8.0,0.0,1.0,") and "nan" not in report[2]
    assert sorted(p.name for p in out.iterdir()) == [
        "kept_envelope.csv", "kept_kernel.csv", "kept_teleported.txt",
        "kept_teleported_p.txt", "report.csv",
    ]
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cvteleport.cli", "run", config],
        env=child_env(), capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr.splitlines()) == (2, [failure])


def test_cli_kernel_whose_phase_overflows_fails_by_name(tmp_path):
    # sigma_a = 1e9 keeps the Gaussian nonzero where sqrt(2) p4 u overflows:
    # the profile once had 988 NaN rows of 1001 and two RuntimeWarnings
    kcsv = tmp_path / "k.csv"
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cvteleport.cli", "kernel", "--sigma-a", "1e9",
         "--p4", "1e300", "--window", "-1e10:1e10", "-o", str(kcsv)],
        env=child_env(), capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: the kernel phase sqrt(2)*p4*u overflows float64")
    assert len(done.stderr.splitlines()) == 1
    assert not kcsv.exists()


def test_cli_extreme_widths_fail_their_sampled_scenarios(tmp_path, caplog):
    # Widths whose squares or inverse squares overflow give an outcome spread
    # no grid can tabulate: each such sampled scenario is a failed row, the
    # fixed-outcome one at the same widths still runs.  sigma_a = 1e-100 has
    # a finite spread, and its joint draw runs.
    out = tmp_path / "out"
    sampled = [
        ("tiny_a_joint", "1e-200", "8.4", "sample", "sample"),
        ("tiny_a_p4", "1e-200", "8.4", "0", "sample"),
        ("tiny_a_p4_only", "1e-200", "ideal", "0", "sample"),
        ("huge_b_joint", "1", "1e200", "sample", "sample"),
        ("huge_b_x3", "1", "1e200", "sample", "0"),
        ("huge_b_x3_only", "ideal", "1e200", "sample", "0"),
        ("subnormal_a", "1e-160", "8.4", "sample", "sample"),
    ]
    running = [
        ("lattice", "1e-100", "8.4", "sample", "sample"),
        ("fixed", "1e-200", "8.4", "1", "2"),
    ]
    text = "input = bundled:silhouette\ngrid = -256:256:1024\n"
    text += f"output_dir = {out}\nseed = 1\n"
    for label, sigma_a, sigma_b, x3, p4 in sampled + running:
        text += (
            f"\n[scenario]\nlabel = {label}\nsigma_a = {sigma_a}\nsigma_b = {sigma_b}\n"
            f"x3 = {x3}\np4 = {p4}\n"
        )
    assert main(["run", str(write_config(tmp_path, text))]) == 2
    err = caplog.text
    rows = {
        line.split(",")[0]: line for line in (out / "report.csv").read_text().splitlines()
    }
    for label, *_ in sampled:
        assert f"scenario {label} failed: OutcomeTooLargeError: " in err
        assert rows[label].endswith(",nan,nan")
    for label, *_ in running:
        assert not rows[label].endswith(",nan,nan")


@pytest.mark.parametrize(
    "sigma_a, sigma_b, x3, p4, error",
    [
        # x3 drawn under a window no lattice resolves: 1/(2 sigma_b^2) once
        # ended the run with a ZeroDivisionError
        ("ideal", "1e-300", "sample", "0", "OutcomeTooLargeError"),
        # p4 drawn at a width whose square overflows, once an OverflowError;
        # the kernel then keeps one plane wave, which fills the grid's ends
        ("1e300", "ideal", "0", "sample", "GridTooNarrowError"),
    ],
    ids=["tiny-b-x3-only", "huge-a-p4-only"],
)
def test_cli_extreme_single_widths_fail_by_name(
    tmp_path, caplog, sigma_a, sigma_b, x3, p4, error
):
    out = tmp_path / "out"
    text = (
        f"input = bundled:silhouette\ngrid = -256:256:1024\noutput_dir = {out}\nseed = 1\n"
        f"\n[scenario]\nlabel = extreme\nsigma_a = {sigma_a}\nsigma_b = {sigma_b}\n"
        f"x3 = {x3}\np4 = {p4}\n"
    )
    assert main(["run", str(write_config(tmp_path, text))]) == 2
    header, row = (out / "report.csv").read_text().splitlines()
    assert header == "label,sigma_a,sigma_b,x3,p4,fidelity,l2_distortion"
    assert row.startswith("extreme,") and row.endswith(",nan,nan")
    assert f"scenario extreme failed: {error}: " in caplog.text


#: Runs `teleport run` on each config path it is given, in turn, in one
#: process: a "@@" line on stderr opens each config's log, and stdout gets
#: its exit code, or None where an exception escaped `main`.
_FUZZ_DRIVER = """
import sys, traceback
from cvteleport.cli import main
for path in sys.argv[1:]:
    print("@@ " + path, file=sys.stderr, flush=True)
    try:
        code = main(["run", path])
    except Exception:
        traceback.print_exc()
        code = None
    print(code, flush=True)
"""

#: A fuzz child's address space: above the 1 GiB outcome-density budget
#: that a run may use, so only an allocation past it fails.
_FUZZ_AS_BYTES = 2 << 30

#: Each input with global grids that hold it; scenario grids are any of them.
_FUZZ_INPUTS = {
    "bundled:silhouette": ["-128:128:512", "-256:256:1024"],
    "packet.txt": ["-16:16:64", "-32:32:128", "-64:64:256"],
}
_FUZZ_GRIDS = sorted({grid for grids in _FUZZ_INPUTS.values() for grid in grids})


def _log_uniform(low, high):
    return st.floats(low, high).map(lambda e: 10.0**e)


# Besides the extremes, widths near the grid step and coordinates near the
# input, where a run does its full work.
_fuzz_width = st.one_of(
    st.just("ideal"), _log_uniform(-300.0, 300.0).map(repr), _log_uniform(-2.0, 2.0).map(repr)
)
_fuzz_coordinate = st.one_of(
    st.just("sample"),
    st.sampled_from([0.0, 1e300, -1e300]).map(repr),
    st.floats(-20.0, 20.0).map(repr),
    st.builds(lambda sign, size: repr(sign * size), st.sampled_from([-1.0, 1.0]),
              _log_uniform(-3.0, 300.0)),
)
_fuzz_scenario = st.tuples(
    _fuzz_width, _fuzz_width, _fuzz_coordinate, _fuzz_coordinate,
    st.none() | st.sampled_from(_FUZZ_GRIDS),
)
_fuzz_config = st.sampled_from(sorted(_FUZZ_INPUTS)).flatmap(
    lambda name: st.tuples(
        st.just(name), st.sampled_from(_FUZZ_INPUTS[name]), st.integers(0, 2**32 - 1),
        st.lists(_fuzz_scenario, min_size=1, max_size=3),
    )
)


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_FUZZ_AS_BYTES, _FUZZ_AS_BYTES))


@settings(max_examples=4)
@given(configs=st.lists(_fuzz_config, min_size=10, max_size=10))
def test_every_config_runs_or_fails_its_rows_by_name(tmp_path_factory, configs):
    # Widths ideal or from 1e-300 to 1e300, coordinates fixed (+-1e300
    # included) or sampled, small grids: each config runs, or fails some of
    # its rows by a TeleportError's name, in a child under -W error whose
    # address space is capped.  One child runs a batch of configs.
    work = tmp_path_factory.mktemp("fuzz")
    save_signal(work / "packet.txt", gaussian_packet(GridSpec(-8.0, 0.25, 64), 0.5, 1.0, 0.3))
    paths, fixed = [], []
    for index, (name, grid, seed, scenarios) in enumerate(configs):
        source = name if name.startswith("bundled:") else work / name
        text = f"input = {source}\ngrid = {grid}\noutput_dir = {work / f'out{index}'}\n"
        text += f"seed = {seed}\n"
        for label, (sigma_a, sigma_b, x3, p4, own_grid) in enumerate(scenarios):
            text += (
                f"\n[scenario]\nlabel = s{label}\nsigma_a = {sigma_a}\nsigma_b = {sigma_b}\n"
                f"x3 = {x3}\np4 = {p4}\n" + (f"grid = {own_grid}\n" if own_grid else "")
            )
        paths.append(write_config(work, text, f"c{index}.cfg"))
        fixed.append({f"s{label}": (x3, p4) for label, (_, _, x3, p4, _) in enumerate(scenarios)})
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _FUZZ_DRIVER, *map(str, paths)],
        env={**child_env(), "OPENBLAS_NUM_THREADS": "1"}, preexec_fn=_cap_address_space,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    logs = done.stderr.split("@@ ")[1:]
    codes = done.stdout.split()
    assert len(codes) == len(logs) == len(paths), done.stderr
    names = {cls.__name__ for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, TeleportError)}
    for index, (path, code, log) in enumerate(zip(paths, codes, logs)):
        assert code in ("0", "2"), (path.read_text(), log)
        assert "Traceback" not in log and "Warning" not in log, log
        report = (work / f"out{index}" / "report.csv").read_text().splitlines()
        assert report[0] == "label,sigma_a,sigma_b,x3,p4,fidelity,l2_distortion"
        rows = {line.split(",")[0]: line.split(",") for line in report[1:]}
        failed = dict(re.findall(r"^scenario (\S+) failed: (\w+): ", log, re.MULTILINE))
        assert set(failed.values()) <= names, log
        assert set(failed) == {label for label, row in rows.items() if row[5] == "nan"}, log
        assert (code == "2") == bool(failed)
        assert set(rows) == set(fixed[index])
        for label, coordinates in fixed[index].items():
            for field, value in zip(rows[label][3:5], coordinates):
                assert value == "sample" or field == repr(float(value)), (label, rows[label])


def test_cli_kernel_profile_is_zero_where_its_gaussian_underflows(tmp_path):
    # sqrt(2) p4 u overflows far out, where the Gaussian is already 0: the
    # phase there once gave 988 NaN rows of 1001 and a RuntimeWarning
    kcsv = tmp_path / "k.csv"
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cvteleport.cli", "kernel", "--sigma-a", "1",
         "--p4", "1e300", "--window", "-1e10:1e10", "-o", str(kcsv)],
        env=child_env(), capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert "nan" not in kcsv.read_text()


def test_cli_kernel_and_envelope_outputs(tmp_path):
    kcsv = tmp_path / "k.csv"
    assert main(
        ["kernel", "--sigma-a", "0.185185", "--p4", "2.7", "--window", "-3:3", "-o", str(kcsv)]
    ) == 0
    lines = kcsv.read_text().splitlines()
    assert lines[0] == "u,real,imag"
    u, re, im = map(float, lines[1].split(","))
    assert u == -3.0
    us, k = kernel_profile(0.185185, 2.7, (-3.0, 3.0))
    assert lines[1:] == [
        f"{float(u)!r},{float(re)!r},{float(im)!r}" for u, re, im in zip(us, k.real, k.imag)
    ]

    ecsv = tmp_path / "e.csv"
    assert main(
        ["envelope", "--sigma-b", "280", "--x3", "-280", "--window", "0:100", "-o", str(ecsv)]
    ) == 0
    lines = ecsv.read_text().splitlines()
    assert lines[0] == "x,value"
    x0, v0 = map(float, lines[1].split(","))
    assert v0 == pytest.approx(np.exp(-((0 + np.sqrt(2) * 280.0) / 280.0) ** 2))
    xs, env = envelope_profile(280.0, -280.0, (0.0, 100.0))
    assert lines[1:] == [f"{float(x)!r},{float(v)!r}" for x, v in zip(xs, env)]


def test_cli_kernel_of_a_tiny_width_is_exact_without_a_warning(tmp_path):
    # sigma_a = 1e-300 squares u/(2 sigma_a) past float64's range off u = 0:
    # the exp of that inf is the exact 0 wanted, with no overflow warning
    kcsv = tmp_path / "k.csv"
    assert main(
        ["kernel", "--sigma-a", "1e-300", "--p4", "1", "--window", "-1:1", "-o", str(kcsv)]
    ) == 0
    u, re, im = np.loadtxt(kcsv, delimiter=",", skiprows=1, unpack=True)
    assert np.count_nonzero(u == 0.0) == 1
    assert np.array_equal(re, np.where(u == 0.0, 1.0, 0.0))
    assert not np.any(im)
    # past p4 = 1.27e308 sqrt(2) p4 overflows, and its product with u = 0
    # was NaN: the phase at u = 0 is 0, so the same profile is written, and
    # a window without u = 0 is all zeros; both were PhaseOverflowErrors
    for window, peak in [("-1:1", 1.0), ("-1:2", 0.0)]:
        args = ["--sigma-a", "1e-300", "--p4", "1.5e308", "--window", window]
        assert main(["kernel", *args, "-o", str(kcsv)]) == 0
        u, re, im = np.loadtxt(kcsv, delimiter=",", skiprows=1, unpack=True)
        assert np.array_equal(re, np.where(u == 0.0, peak, 0.0))
        assert not np.any(im)


def test_cli_info_prints_moments(tmp_path, capsys):
    assert main(["info", "bundled:silhouette"]) == 0
    captured = capsys.readouterr().out
    assert "mean_x = 49.956785559" in captured
    assert "support_length = 100.5" in captured


def test_cli_image_run(tmp_path):
    from cvteleport import ImageAsset, MeasurementOutcome, save_image
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
    regime = regime_for(1.2, np.inf)
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


def test_cli_image_rejects_a_scenario_grid_and_keeps_the_global_seed(tmp_path, capsys):
    from cvteleport import ImageAsset, save_image

    img_path = tmp_path / "input.pgm"
    save_image(img_path, ImageAsset(pixels=np.full((16, 16), 100.0), maxval=255))
    text = (
        f"input = {img_path}\noutput_dir = {tmp_path / 'o'}\nseed = 4\n\n"
        "[scenario]\nlabel = s\nsigma_a = 1\nsigma_b = ideal\nx3 = 0\np4 = 0\n"
    )
    assert main(["run", str(write_config(tmp_path, text, "img.cfg"))]) == 0
    capsys.readouterr()
    gridded = write_config(tmp_path, text + "grid = -8:8:64\n", "grid.cfg")
    assert main(["run", str(gridded)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scenario 's': a scenario grid is not supported")


def test_readme_configuration_example_parses(tmp_path):
    # the example under "### Configuration format" is a config as printed
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Configuration format", 1)[1].split("```\n", 2)[1]
    strong, drawn = parse_config(write_config(tmp_path, block)).scenarios
    assert (strong.label, strong.x3, strong.p4, strong.seed) == ("strong", 0.0, 180.0, None)
    assert strong.grid == parse_grid("-4096:4096:16384")
    assert (drawn.label, drawn.x3, drawn.p4, drawn.seed) == ("drawn", None, None, 7)


@pytest.mark.parametrize(
    "x3, p4, line",
    [("0", "0", 9), ("0.25", "-1.5", 9), ("sample", "0", None), ("0", "sample", None)],
)
def test_parse_config_refuses_a_seed_that_cannot_take_effect(tmp_path, x3, p4, line):
    # a scenario seed only picks sampled coordinates; with both fixed it is an error
    text = "input = x\noutput_dir = o\n" + SCENARIO.format(sa=1, x3=x3, p4=p4) + "seed = 3\n"
    path = write_config(tmp_path, text)
    if line is None:
        assert parse_config(path).scenarios[0].seed == 3
        return
    with pytest.raises(ParseError, match="sets a seed but samples neither") as err:
        parse_config(path)
    assert err.value.path == str(path) and err.value.line == line


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
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert (out / "report.csv").exists()


def test_keys_that_cannot_take_effect_are_refused(tmp_path, capsys):
    # A global grid (or --grid) only samples signal inputs, and image_mode
    # only orders image inputs: each is refused, by name, where it would be
    # ignored, and neither is set unless given.
    from cvteleport import ImageAsset, save_image

    bare = "input = x\noutput_dir = o\n" + SCENARIO.format(sa=1, x3=0, p4=0)
    unset = parse_config(write_config(tmp_path, bare))
    assert unset.grid is None and unset.image_mode is None
    text = BASE.replace("seed = 11\n", "seed = 11\nimage_mode = row-wise\n")
    signal = write_config(tmp_path, text.format(out=tmp_path / "s"), "signal.cfg")
    img_path = tmp_path / "input.pgm"
    save_image(img_path, ImageAsset(pixels=np.full((16, 16), 100.0), maxval=255))
    image = (
        f"input = {img_path}\noutput_dir = {tmp_path / 'i'}\n{{grid}}\n"
        "[scenario]\nlabel = s\nsigma_a = 1\nsigma_b = ideal\nx3 = 0\np4 = 0\n"
    )
    plain = write_config(tmp_path, image.format(grid=""), "image.cfg")
    gridded = write_config(tmp_path, image.format(grid="grid = -8:8:64"), "grid.cfg")
    assert main(["run", str(plain)]) == 0
    for argv, key in [
        (["run", str(signal)], "image_mode"),
        (["run", str(gridded)], "grid"),
        (["run", str(plain), "--grid", "-8:8:64"], "grid"),
    ]:
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith(f"error: {key} applies to "), argv


def test_readme_layout_names_every_module():
    # the module lines under src/cvteleport/ in "## Layout" name exactly the
    # package's modules, so a folded or deleted module cannot stay listed
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout\n", 1)[1].split("```\n", 2)[1]
    lines = block.split("src/cvteleport/\n", 1)[1].splitlines()
    listed = []
    for line in lines:
        if not line.startswith(" "):
            break
        listed += re.findall(r"^\s+(\w+\.py)\s", line)
    modules = sorted(p.name for p in (root / "src" / "cvteleport").glob("*.py"))
    assert sorted(listed) == [m for m in modules if m != "__init__.py"]


def test_readme_api_sketch_runs_and_matches_the_oracle(tmp_path):
    # The README's Python API sketch runs as printed, warning-free, so a
    # public name it uses cannot be removed or renamed unnoticed.  The
    # fidelity it prints is the three-mode oracle's for its psi, regime and
    # outcome.
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    sketch = re.search(r"## Python API sketch\n.*?```python\n(.*?)```", readme, re.S)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", sketch.group(1)],
        env=child_env(), capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    names = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(sketch.group(1), names)
    psi = names["psi"]
    reference = fidelity(psi, oracle_teleport(psi, names["regime"], names["outcome"]))
    assert float(done.stdout.split()[-1]) == pytest.approx(reference, abs=1e-6)
