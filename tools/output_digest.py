"""Digest every file a benchmark workload writes, to compare two checkouts bit for bit.

Usage, from the repository root::

    python3 tools/output_digest.py [--workload NAME ...] [--seeds 1-7] [--src DIR]

For each workload (default: all three of ``perfbench/workloads.py``) and each
seed, it writes that workload's inputs into a temporary directory, runs
``cvteleport.cli.main(["run", <config>])`` in this process and hashes what the
run wrote.  It prints one sorted line per entry, ``<workload>/<seed>/<file>
<sha256>`` for each output file and ``<workload>/<seed>/exit <code>`` for the
exit code, then ``total <sha256 of those lines> <entry count>``.  ``--src``
picks the ``cvteleport`` source tree to run, so the same inputs can be run
against another checkout; ``perfbench/`` is only read.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    """``3`` or ``1-7``."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def digest_table(names, seeds) -> list[str]:
    """The sorted entry lines of each (workload, seed) run; no ``names`` runs them all."""
    from cvteleport.cli import main
    import workloads

    lines = []
    for name in names or workloads.WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                work = workloads.prepare(name, seed, ROOT, Path(tmp) / "work")
                code = main(["run", str(work.config)])
                lines.append(f"{name}/{seed}/exit {code}")
                for path in sorted(work.out_dir.rglob("*")):
                    if path.is_file():
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        lines.append(f"{name}/{seed}/{path.relative_to(work.out_dir)} {digest}")
    return sorted(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", dest="workloads", default=[])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-7"))
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or --src
    lines = digest_table(args.workloads, args.seeds)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("\n".join(lines + [f"total {total} {len(lines)}"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
