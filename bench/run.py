#!/usr/bin/env python3
"""Run one fgmruin benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): sweep, curve, mc.  One client runs a closed
loop in this process, one op in flight; Monte Carlo runs at workers=1.  The
measured phase runs whole passes over the workload's op list until
``--seconds`` have elapsed, and at least MIN_PASSES of them; every op's
output is checked, and only the time spent inside ops is measured.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints per-layer metrics per pass, with
spans written to bench/out/.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it records the environment, failures by type and the workload's shares.

The package is imported from src/ next to this directory and nowhere else;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads
from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
# Whole passes run until --seconds have passed, and at least MIN_PASSES of
# them: an op's latency is its median over the passes, and a single Monte
# Carlo op drifts by 10-15 % from pass to pass on a shared machine.
MIN_PASSES = 5
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "time_to_1pct_s": "s",
}

SPANS = (
    "bench.op",
    "cli.main",
    "classical.survival_classical",
    "erlang.survival_erlang2.individual",
    "erlang.survival_erlang2.pooled",
    "max_surplus.solve_chi",
    "simulate.engine",
    "model.sample_pairs.poisson",
    "model.sample_pairs.erlang",
    "model.erlang2_ppf",
    "polyexp.poly_roots",
    "polyexp.partial_fractions",
    "polyexp.expsum_eval",
)
LAYERS = ("classical", "erlang", "max_surplus", "cli", "simulate")
FAIL_KINDS = ("UnsupportedStructureError", "StructuralError", "ConditioningError",
              "check", "check.z", "other")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s/pass" for name in SPANS}
    units.update({
        "polyexp.poly_roots.calls": "count/pass",
        "polyexp.poly_roots.p50_us": "us",
        "polyexp.repeated_root_sets": "count/pass",
        "polyexp.expsum_eval.calls": "count/pass",
        "polyexp.expsum_eval.points": "count/pass",
        "model.pairs_drawn": "count/pass",
        "simulate.claim_rounds": "count/pass",
        "simulate.paths_per_s": "1/s",
        "simulate.pairs_per_path": "ratio",
        "simulate.speedup_w2": "ratio",
        "cli.bytes_out": "B/pass",
        "trace.overhead_frac": "ratio",
    })
    units.update({f"{layer}.fails": "count/pass" for layer in LAYERS})
    units.update({f"fails.{kind}": "count/pass" for kind in FAIL_KINDS})
    return units


# -- environment -----------------------------------------------------------


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fgmruin").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "machine": platform.machine(),
    }


# -- set-up ----------------------------------------------------------------


def import_fresh():
    """Import fgmruin from src/ afresh (numpy stays loaded); return (F, cli)."""
    for name in [m for m in sys.modules if m == "fgmruin" or m.startswith("fgmruin.")]:
        del sys.modules[name]
    F = importlib.import_module("fgmruin")
    cli = importlib.import_module("fgmruin.cli")
    if Path(F.__file__).resolve().parent != SRC / "fgmruin":
        raise ImportError(f"fgmruin imported from {F.__file__}, not from {SRC}")
    return F, cli


class Runner:
    """Runs ops and passes, probing machine speed between ops."""

    def __init__(self, F, speed: Speed):
        self.typed = (F.RuinModelError, workloads.CliExit)
        self.speed = speed
        self.unexpected: list[str] = []
        self.messages: list[str] = []
        self.last_w1: dict[int, object] = {}  # outputs of ops that have a workers=2 rerun

    def op(self, op, tracer=None):
        """Run one op; return (start, end, failure kind or None, output)."""
        self.speed.maybe_sample()
        span = tracer.open_op() if tracer is not None else None
        failure, out = None, None
        t0 = time.perf_counter()
        try:
            out = op.call()
        except self.typed as exc:
            failure = getattr(exc, "kind", type(exc).__name__)
        except Exception as exc:  # an untyped error is a defect: record it, keep running
            failure = type(exc).__name__
            self.unexpected.append(traceback.format_exc())
        t1 = time.perf_counter()
        if span is not None:
            tracer.close(span)
        if failure is None:
            try:
                op.check(out, op.ref)
            except workloads.CheckFailed as exc:
                failure = exc.kind
                if len(self.messages) < 5:
                    self.messages.append(f"{op.layer}: {exc}")
        return t0, t1, failure, out

    def pass_(self, ops, tracer=None) -> list[tuple]:
        """One pass; returns [(index, start, end, failure, runs_to_1pct)]."""
        execs = []
        for i, op in enumerate(ops):
            t0, t1, failure, out = self.op(op, tracer)
            runs = 1.0
            if failure is None and op.runs_to_1pct is not None:
                runs = op.runs_to_1pct(out)
            if op.rerun_w2 is not None and tracer is None:
                self.last_w1[i] = out
            execs.append((i, t0, t1, failure, runs))
        self.speed.maybe_sample()
        return execs


# -- metrics ---------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, and its value.

    Below TAIL_MIN_SAMPLES samples that percentile would sit near the median,
    so the maximum stands in.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < TAIL_MIN_SAMPLES:
        return 100.0, xs[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


def latencies(speed: Speed, execs) -> tuple[np.ndarray, np.ndarray]:
    """Raw and speed-scaled latency of each exec."""
    start = np.array([e[1] for e in execs])
    end = np.array([e[2] for e in execs])
    raw = end - start
    return raw, raw * speed.scale(start, end)


def end_to_end(speed: Speed, passes, setups: list[float]) -> tuple[dict, dict]:
    execs = [e for p in passes for e in p]
    raw, lat = latencies(speed, execs)
    ok = np.array([e[3] is None for e in execs])
    per_op = defaultdict(list)
    for e, latency in zip(execs, lat):
        if e[3] is None:
            per_op[e[0]].append(latency)
    # An op's latency is its median over the passes: a stall of the shared
    # machine hits one op in one pass and drops out, the op's own cost stays.
    op_latency = [statistics.median(v) for v in per_op.values()]
    pct, tail_s = tail(op_latency)
    runs = {e[0]: e[4] for e in execs if e[3] is None}
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(op_latency) / sum(op_latency),
        "op_p50_ms": 1e3 * statistics.median(op_latency),
        "op_tail_ms": 1e3 * tail_s,
        "ok_frac": float(ok.mean()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "time_to_1pct_s": sum(statistics.median(v) * runs[i] for i, v in per_op.items()),
    }
    info = {
        "tail_percentile": pct,
        "latency_samples": {"ops": len(op_latency), "executions": int(ok.sum())},
        "mean_ops_per_s": int(ok.sum()) / float(lat.sum()),
        "raw_ops_per_s": int(ok.sum()) / float(raw.sum()),
        "raw_op_p50_ms": 1e3 * float(np.median(raw[ok])),
        "kernel_ms": {"median": 1e3 * statistics.median(speed.dur),
                      "min": 1e3 * min(speed.dur), "max": 1e3 * max(speed.dur),
                      "samples": len(speed.dur), "ref": 1e3 * speed.ref_s},
    }
    return values, info


def layer_metrics(tr, speed: Speed, traced, untraced, ops, w2) -> tuple[dict, list[str]]:
    """Per-pass layer metrics from the traced passes, plus invariant failures."""
    problems = []
    npass = len(traced)
    a = tr.arrays()
    scale = speed.scale(a["start"], a["start"])
    own = tr.self_times() * scale
    dur = (a["end"] - a["start"]) * scale
    names = np.array(tr.names)[a["name"]]

    values = {}
    for name in SPANS:
        values[f"{name}.self_s"] = float(own[names == name].sum()) / npass
    roots_dur = dur[names == "polyexp.poly_roots"]
    values["polyexp.poly_roots.calls"] = roots_dur.size / npass
    values["polyexp.poly_roots.p50_us"] = 1e6 * float(np.median(roots_dur)) if roots_dur.size else 0.0
    values["polyexp.expsum_eval.calls"] = int(np.count_nonzero(names == "polyexp.expsum_eval")) / npass
    rounds = np.isin(names, ["model.sample_pairs.poisson", "model.sample_pairs.erlang"])
    values["simulate.claim_rounds"] = int(np.count_nonzero(rounds)) / npass
    for key in ("polyexp.repeated_root_sets", "polyexp.expsum_eval.points",
                "model.pairs_drawn", "cli.bytes_out"):
        values[key] = tr.counts[key] / npass
    paths = tr.counts["simulate.paths"]
    engine_s = float(dur[names == "simulate.engine"].sum())
    values["simulate.paths_per_s"] = paths / engine_s if engine_s else 0.0
    values["simulate.pairs_per_path"] = tr.counts["model.pairs_drawn"] / paths if paths else 0.0
    values["simulate.speedup_w2"] = w2

    fails = Counter()
    for p in traced:
        for e in p:
            if e[3] is not None:
                fails[f"{ops[e[0]].layer}.fails"] += 1
                fails["fails." + (e[3] if e[3] in FAIL_KINDS else "other")] += 1
    for layer in LAYERS:
        values[f"{layer}.fails"] = fails[f"{layer}.fails"] / npass
    for kind in FAIL_KINDS:
        values[f"fails.{kind}"] = fails[f"fails.{kind}"] / npass

    traced_s = latencies(speed, [e for p in traced for e in p])[1].sum()
    untraced_s = latencies(speed, [e for p in untraced for e in p])[1].sum()
    values["trace.overhead_frac"] = float(traced_s / untraced_s) - 1.0

    gap = tr.op_closure_gap()
    if gap > abs(values["trace.overhead_frac"]) + 1e-9:
        problems.append(f"op self times miss their op span by {gap:.3g}")
    return values, problems


# -- phases ----------------------------------------------------------------


def measure(runner, wl, seconds: float) -> list[list[tuple]]:
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(runner.pass_(wl.ops))
    return passes


def measure_traced(runner, wl, seconds: float, F, cli):
    tr = tracing.Tracer()
    traced, untraced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        untraced.append(runner.pass_(wl.ops))
        tr.install(F, cli)
        try:
            traced.append(runner.pass_(wl.ops, tr))
        finally:
            tr.uninstall()
    return tr, traced, untraced


def scaling_w2(runner, wl, untraced) -> tuple[float, list[str]]:
    """Re-run the w2-capable requests at workers=2; return speed-up and mismatches."""
    problems, t1, t2 = [], 0.0, 0.0
    for i, op in enumerate(wl.ops):
        if op.rerun_w2 is None:
            continue
        t1 += float(np.median(latencies(runner.speed, [p[i] for p in untraced])[1]))
        runner.speed.sample()
        start = time.perf_counter()
        est2 = op.rerun_w2()
        end = time.perf_counter()
        runner.speed.sample()
        t2 += (end - start) * float(runner.speed.scale(start, end))
        if est2 != runner.last_w1[i]:
            problems.append(f"workers=2 estimate {est2} differs from workers=1")
    return (t1 / t2 if t2 else 0.0), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "fgmruin" / "__init__.py").is_file():
        print(f"error: no fgmruin package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    build = workloads.BUILDERS[args.workload]

    # Set-up: import, build the inputs, one warm-up op; median of several.
    speed = Speed(args.workload)
    speed.sample()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = time.perf_counter()
        F, cli = import_fresh()
        wl = build(F, cli, args.seed, OUT)
        try:
            wl.warmup.call()
        except F.RuinModelError:
            pass  # a failing warm-up has still warmed up
        t1 = time.perf_counter()
        speed.sample()
        raw_setups.append(t1 - t0)
        setups.append((t1 - t0) * float(speed.scale(t0, t1)))
    wl.prepare()
    runner = Runner(F, speed)
    gc.collect()

    problems = []
    info = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed),
            "ops_per_pass": len(wl.ops), "shares": wl.share_values(),
            "wait_s": 0.0,
            "wait_note": "no layer queues work: every call runs synchronously in one "
                         "thread, so time waiting is zero by construction"}
    if args.trace:
        tr, traced, untraced = measure_traced(runner, wl, args.seconds, F, cli)
        w2, mismatches = scaling_w2(runner, wl, untraced)
        values, invariant_problems = layer_metrics(tr, speed, traced, untraced, wl.ops, w2)
        problems += mismatches + invariant_problems
        passes = traced + untraced
        units = per_layer_units()
        tr.write(OUT / f"spans-{args.workload}.npz")
        info["passes"] = {"traced": len(traced), "untraced": len(untraced)}
        info["spans"] = len(tr.start)
    else:
        passes = measure(runner, wl, args.seconds)
        values, latency_info = end_to_end(speed, passes, setups)
        units = END_TO_END_UNITS
        info["passes"] = len(passes)
        info.update(latency_info)
        info["raw_setup_s"] = statistics.median(raw_setups)

    kinds = Counter(e[3] for p in passes for e in p if e[3] is not None)
    z_failed = {e[0] for p in passes for e in p if e[3] == workloads.StatisticalCheckFailed.kind}
    info["fails_by_type"] = dict(sorted(kinds.items()))
    info["check_messages"] = runner.messages
    if runner.unexpected:
        problems.append(f"{len(runner.unexpected)} ops raised untyped errors")
        sys.stderr.write(runner.unexpected[0])
    if kinds[workloads.CheckFailed.kind]:
        problems.append("ops returned output that fails its check")
    # One estimate beyond Z_MAX errors happens by chance; two in a run do not.
    if len(z_failed) > 1:
        problems.append(f"{len(z_failed)} Monte Carlo requests miss their closed form")
    # Every pass repeats the same work, so per-pass outcomes must repeat too.
    if len({tuple(e[3] for e in p) for p in passes}) != 1:
        problems.append("op outcomes differ between identical passes")
    info["problems"] = problems

    attempted = sum(len(p) for p in passes)
    failed = sum(e[3] is not None for p in passes for e in p)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
