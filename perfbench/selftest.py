"""Self-test of the benchmark: every workload once at the shortest length.

Run from the repository root::

    python3 perfbench/selftest.py

For each workload it runs ``run.py`` with ``--seconds 1``, untraced and
traced, and asserts that the result line names every end-to-end or per-layer
metric of BENCHMARK.json with its unit, that no operation failed and that the
result is marked correct.  It prints the end-to-end metrics and
``failed_frac`` of every workload.  It then copies only BENCHMARK.json and this
directory into an empty directory and asserts that the benchmark exits with a
non-zero code there without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 600


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            assert result["correct"] is True, proc.stdout[-2000:]
            assert "failed_frac 0.0 fraction" in proc.stdout
            print(f"ok {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations, none failed")
            if trace == 0:
                for line in proc.stdout.splitlines():
                    if line.split(" ")[0] in want or line.startswith("failed_frac"):
                        print(f"   {line}")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark succeeded without the program"
        assert not proc.stdout.strip(), proc.stdout
        print(f"ok without the program: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
