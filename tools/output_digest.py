"""Digest every file a benchmark workload writes, to compare two checkouts bit for bit.

Usage, from the repository root::

    python3 tools/output_digest.py [--workload NAME ...] [--seeds 1-7] [--src DIR]
                                   [--keep DIR] [--against DIR]

For each workload (default: all three of ``perfbench/workloads.py``) and each
seed, it writes that workload's inputs into a temporary directory, runs
``cvteleport.cli.main(["run", <config>])`` in this process and hashes what the
run wrote.  It prints one sorted line per entry, ``<workload>/<seed>/<file>
<sha256>`` for each output file and ``<workload>/<seed>/exit <code>`` for the
exit code, then ``total <sha256 of those lines> <entry count>``.  ``--src``
picks the ``cvteleport`` source tree to run, so the same inputs can be run
against another checkout; ``perfbench/`` is only read.  ``--keep DIR`` also
copies each file to ``DIR/<workload>/<seed>/<file>``.

``--against DIR`` runs the same inputs through both ``--src`` and ``DIR`` (a
source tree, or a checkout holding one in ``src/``), each in a child process,
and prints only the entries that differ, then ``differ <count> of <entries>``;
the exit status is 1 when any entry differs.  A text file whose non-numeric
fields all match reports ``field``, the largest |a - b| / max(|a|, |b|) over
its numeric fields, and ``column``, the largest ||a - b|| / ||b|| over its
numeric columns (b the ``--against`` side); otherwise it reports where its
text first differs.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    """``3`` or ``1-7``."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _tree(path: Path) -> Path:
    """The source tree ``path`` names: itself, or the ``src/`` of a checkout."""
    return path / "src" if (path / "src" / "cvteleport").is_dir() else path


def digest_table(names, seeds, keep: Path | None = None) -> list[str]:
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
                if keep is not None and work.out_dir.exists():
                    shutil.copytree(work.out_dir, keep / name / str(seed))
    return sorted(lines)


_SEPARATORS = re.compile(r"([,\s]+)")


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def text_change(mine: str, theirs: str) -> str:
    """How two texts differ: ``field <f> column <c>`` or where the text differs."""
    lines, other = mine.splitlines(), theirs.splitlines()
    if len(lines) != len(other):
        return f"text differs: {len(lines)} lines vs {len(other)}"
    field, diff_sq, base_sq = 0.0, {}, {}
    for number, (line, base) in enumerate(zip(lines, other), start=1):
        tokens, reference = _SEPARATORS.split(line), _SEPARATORS.split(base)
        if len(tokens) != len(reference):
            return f"text differs at line {number}"
        for column, (token, ref) in enumerate(zip(tokens, reference)):
            a, b = _number(token), _number(ref)
            if a is None or b is None:
                if token != ref:
                    return f"text differs at line {number}"
                continue
            if math.isfinite(b):
                base_sq[column] = base_sq.get(column, 0.0) + b * b
            if token == ref or a == b:  # a == b: one value in two spellings, as -0 and 0
                continue
            delta = abs(a - b)
            if not math.isfinite(delta):  # inf or nan on one side only
                delta = math.inf
            field = max(field, delta / max(abs(a), abs(b)) if delta < math.inf else delta)
            diff_sq[column] = diff_sq.get(column, 0.0) + delta * delta
    column = max(
        (math.sqrt(d / base_sq[c]) if base_sq.get(c) else math.inf for c, d in diff_sq.items()),
        default=0.0,
    )
    return f"field {field:.3g} column {column:.3g}"


def compare(src: Path, against: Path, names, seeds) -> list[str]:
    """The lines of every entry whose run differs between two source trees."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for side, tree in (("src", src), ("against", against)):
            keep = Path(tmp) / side
            argv = [sys.executable, __file__, "--src", str(tree), "--keep", str(keep)]
            argv += [f"--seeds={seeds[0]}-{seeds[-1]}"]
            argv += [f"--workload={name}" for name in names]
            done = subprocess.run(argv, capture_output=True, text=True, check=True)
            entries = dict(line.rsplit(" ", 1) for line in done.stdout.splitlines()[:-1])
            runs.append((keep, entries))
        (mine, ours), (base, theirs) = runs
        lines, entries = [], sorted(ours.keys() | theirs.keys())
        for entry in entries:
            if ours.get(entry) == theirs.get(entry):
                continue
            if entry not in theirs or entry not in ours:
                side = "--src" if entry in ours else "--against"
                lines.append(f"{entry} only in {side}")
            elif entry.endswith("/exit"):
                lines.append(f"{entry} {ours[entry]} vs {theirs[entry]}")
            else:
                try:
                    texts = [(root / entry).read_text(encoding="utf-8") for root in (mine, base)]
                except UnicodeDecodeError:
                    lines.append(f"{entry} binary differs")
                else:
                    lines.append(f"{entry} {text_change(*texts)}")
        lines.append(f"differ {len(lines)} of {len(entries)} entries")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", dest="workloads", default=[])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-7"))
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--keep", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    src = _tree(args.src.resolve())
    if args.against is not None:
        lines = compare(src, _tree(args.against.resolve()), args.workloads, args.seeds)
        print("\n".join(lines))
        return 1 if len(lines) > 1 else 0
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or --src
    lines = digest_table(args.workloads, args.seeds, args.keep)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("\n".join(lines + [f"total {total} {len(lines)}"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
