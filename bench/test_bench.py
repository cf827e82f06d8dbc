"""Determinism of the benchmark's workloads and traced counts.

Run with ``python3 -m pytest bench`` from the repository root.  Each test
runs one traced pass (or part of one) twice in-process.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))
run.OUT.mkdir(exist_ok=True)

# Ops kept per workload, so that a pass stays short.
KEEP = {
    "sweep": lambda op: True,
    "curve": lambda op: "theta=0" in op.props or op.reference is None,
    "mc": lambda op: "reach" in op.props or ("erlang" in op.props and "u=0" in op.props),
}


def traced_counts(workload: str, seed: int) -> dict:
    F, cli = run.import_fresh()
    wl = workloads.BUILDERS[workload](F, cli, seed, run.OUT)
    wl.ops = [op for op in wl.ops if KEEP[workload](op)]
    wl.prepare()
    runner = run.Runner(F, run.Speed(workload))
    tr = tracer.Tracer()
    tr.install(F, cli)
    try:
        results = [runner.op(op, tr) for op in wl.ops]
    finally:
        tr.uninstall()
    names = np.array(tr.names)[tr.arrays()["name"]]
    return {
        "poly_roots.calls": int(np.count_nonzero(names == "polyexp.poly_roots")),
        "expsum_eval.points": tr.counts["polyexp.expsum_eval.points"],
        "pairs_drawn": tr.counts["model.pairs_drawn"],
        "failures": [(i, r[2]) for i, r in enumerate(results) if r[2] is not None],
        "estimates": [(r[3].value, r[3].stderr) for r in results if workload == "mc"],
        "models": [repr(op.call.args[1]) for op in wl.ops] if workload == "sweep" else None,
        "runner_problems": runner.unexpected + runner.messages,
    }


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_same_seed_gives_identical_counts(workload):
    first = traced_counts(workload, 3)
    assert first == traced_counts(workload, 3)
    assert first["runner_problems"] == []


def test_mc_draws_pairs_and_sweep_finds_roots():
    assert traced_counts("mc", 3)["pairs_drawn"] > 0
    sweep = traced_counts("sweep", 3)
    assert sweep["poly_roots.calls"] > 0 and sweep["expsum_eval.points"] > 0
    # Sweep ops may fail with typed solver errors, never with a wrong answer.
    assert {f for _, f in sweep["failures"]} <= {
        "UnsupportedStructureError", "StructuralError", "ConditioningError"}


def test_different_seed_gives_different_sweep_models():
    assert traced_counts("sweep", 3)["models"] != traced_counts("sweep", 4)["models"]


def test_tail_keeps_ten_samples_beyond():
    pct, value = run.tail([float(i) for i in range(200)])
    assert value == 189.0 and pct == pytest.approx(95.0)
    assert run.tail([2.0, 1.0]) == (100.0, 2.0)
