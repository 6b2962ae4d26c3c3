"""Smoke test of tools/output_digest.py on one workload and one seed."""

import hashlib
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
