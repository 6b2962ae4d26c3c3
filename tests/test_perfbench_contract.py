"""The benchmark under perfbench/ reaches into cvteleport by name.

`perfbench/spans.py` wraps every function in its TRACED table and raises
AttributeError when one is gone, and the other scripts import functions from
the package.  A rename inside the package would break the benchmark without
failing a test, so these tests read the scripts (without running them) and
resolve every name they use.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _traced():
    """The (module, function) pairs of spans.TRACED."""
    for node in _tree("spans.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/spans.py has no TRACED table")


def _imported(tree):
    """(module, name) for each `from cvteleport.m import name` and each
    attribute read off a module brought in by `from cvteleport import m`."""
    used, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "cvteleport"
        ):
            sub = node.module.partition(".")[2]
            for alias in node.names:
                if sub:
                    used.add((sub, alias.name))
                else:
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            used.add((modules[node.value.id], node.attr))
    return used


def _missing(names):
    return sorted(
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"cvteleport.{module}"), name)
    )


def test_every_traced_function_resolves():
    traced = _traced()
    assert ("channel", "build_outcome_distribution") in traced
    assert _missing(traced) == []


def test_every_name_the_benchmark_imports_resolves():
    used = set().union(*(_imported(_tree(p.name)) for p in PERFBENCH.glob("*.py")))
    # gate.py and run.py import these at module level or inside their runs
    assert {
        ("channel", "outcome_moments"),
        ("grid", "moments"),
        ("channel", "build_outcome_distribution"),
    } <= used
    assert _missing(used) == []


def test_every_workload_passes_the_benchmark_gate(tmp_path, monkeypatch):
    # One traced run of each workload at seed 1, checked as the benchmark's
    # first run is: a signature the gate's hooks call that no longer fits, or
    # an output it refuses, fails here.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from gate import Gate
    from spans import Tracer

    from cvteleport import cli

    for name in workloads.WORKLOADS:
        workload = workloads.prepare(name, 1, PERFBENCH.parent, tmp_path / name)
        gate = Gate(workload)
        tracer = Tracer(run=0, inspect=gate.inspect)
        tracer.install()
        try:
            code = cli.main(["run", str(workload.config)])
        finally:
            tracer.uninstall()
        assert code == 0, name
        assert gate.check_first(workload.out_dir, tracer.spans) == set(), (name, gate.notes)
