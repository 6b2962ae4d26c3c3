"""Smoke test of tools/output_digest.py on one workload and one seed."""

import hashlib
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def test_output_digest_lists_each_file_the_exit_code_and_a_total():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "sampled_outcomes", "--seeds", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    *lines, last = done.stdout.splitlines()
    assert lines == sorted(lines)
    entries = dict(line.rsplit(" ", 1) for line in lines)
    assert entries.pop("sampled_outcomes/1/exit") == "0"
    assert "sampled_outcomes/1/report.csv" in entries
    assert all(len(digest) == 64 for digest in entries.values())
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert last == f"total {total} {len(lines)}"


def test_output_digest_against_lists_only_what_differs(tmp_path):
    # A copy of the package whose fidelity is 2^-40 lower changes only the
    # fidelity field of report.csv, by that much.
    src = Path(__file__).resolve().parent.parent / "src"
    shutil.copytree(src / "cvteleport", tmp_path / "cvteleport")
    analysis = tmp_path / "cvteleport" / "analysis.py"
    text = analysis.read_text(encoding="utf-8")
    clamp = "return float(min(value, 1.0))"
    assert text.count(clamp) == 1
    analysis.write_text(text.replace(clamp, f"{clamp[:-1]} * (1.0 - 2.0**-40))"))
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "sampled_outcomes", "--seeds", "1",
         "--against", str(tmp_path)],
        capture_output=True, text=True, timeout=240,
    )
    assert done.returncode == 1, done.stderr
    changed, summary = done.stdout.splitlines()
    entry, *measures = changed.split()
    assert entry == "sampled_outcomes/1/report.csv"
    assert measures[0] == "field" and 2.0**-41 < float(measures[1]) < 2.0**-39
    assert measures[2] == "column" and 0.0 < float(measures[3]) < 2.0**-39
    assert summary == "differ 1 of 16 entries"
    same = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "sampled_outcomes", "--seeds", "1",
         "--against", str(src.parent)],
        capture_output=True, text=True, timeout=240,
    )
    assert (same.returncode, same.stdout) == (0, "differ 0 of 16 entries\n")


def test_text_change_counts_a_signed_zero_as_no_change():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.text_change("0 -0\n", "0 0\n") == "field 0 column 0"
    assert tool.text_change("1 -0 nan\n", "1 0 nan\n") == "field 0 column 0"
    assert tool.text_change("2 -0\n", "1 0\n") == "field 0.5 column 1"
