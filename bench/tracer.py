"""Span tracer for the benchmark's traced run.

The tracer replaces the module-level bindings one layer of ``fgmruin`` uses
to call the next (``fgmruin.classical.poly_roots``,
``fgmruin.simulate.sample_pairs``, ``Erlang2.ppf``, ...) with timing
wrappers, and restores them afterwards.  The package itself is never edited,
and the untraced run installs nothing.

Each span records its name, start, end, parent span and op id.  Spans stay in
memory in flat arrays and are written out once, when the run ends.  A span's
self time is its duration minus the time its child spans cover, so the self
times of one op's spans add up to the op's own span.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter

import numpy as np

OP_SPAN = "bench.op"


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, label: str) -> int:
        ident = self._ids.get(label)
        if ident is None:
            ident = self._ids[label] = len(self.names)
            self.names.append(label)
        i = len(self.start)
        self.name.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        # Read the clock last on entry and first on exit, so the recorder's
        # own bookkeeping lands in the parent's self time.
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def open_op(self) -> int:
        self._op += 1
        return self.open(OP_SPAN)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, owner, attr: str, label, count=None) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.open(label(args, kwargs) if callable(label) else label)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(i)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def install(self, F, cli) -> None:
        """Wrap every layer boundary of the freshly imported package."""
        erlang_cls = F.Erlang2
        default_elim = F.DEFAULT_ELIMINATION

        def erlang_label(args, kwargs):
            elim = _arg(args, kwargs, 2, "elimination", default_elim)
            return f"erlang.survival_erlang2.{elim.value}"

        def pairs_label(args, kwargs):
            kind = "erlang" if isinstance(args[0].arrival, erlang_cls) else "poisson"
            return f"model.sample_pairs.{kind}"

        def count_roots(counts, args, kwargs, result):
            if result.max_multiplicity > 1:
                counts["polyexp.repeated_root_sets"] += 1

        def count_points(counts, args, kwargs, result):
            counts["polyexp.expsum_eval.points"] += int(np.size(_arg(args, kwargs, 1, "u")))

        def count_pairs(counts, args, kwargs, result):
            counts["model.pairs_drawn"] += int(_arg(args, kwargs, 2, "n"))

        def count_paths(index):
            def count(counts, args, kwargs, result):
                counts["simulate.paths"] += int(_arg(args, kwargs, index, "n"))
            return count

        def count_bytes(counts, args, kwargs, result):
            argv = list(_arg(args, kwargs, 0, "argv", ()))
            if result == 0 and "--output" in argv:
                path = argv[argv.index("--output") + 1]
                counts["cli.bytes_out"] += os.path.getsize(path)

        for owner in (F, cli, F.max_surplus):
            self._wrap(owner, "survival_classical", "classical.survival_classical")
        for owner in (F, cli):
            self._wrap(owner, "survival_erlang2", erlang_label)
            self._wrap(owner, "solve_chi", "max_surplus.solve_chi")
        self._wrap(F, "estimate_survival", "simulate.engine", count_paths(2))
        self._wrap(F, "estimate_reach_prob", "simulate.engine", count_paths(3))
        self._wrap(cli, "main", "cli.main", count_bytes)
        for owner in (F.polyexp, F.classical, F.erlang, F.max_surplus):
            self._wrap(owner, "poly_roots", "polyexp.poly_roots", count_roots)
        for owner in (F.polyexp, F.classical, F.erlang):
            self._wrap(owner, "partial_fractions", "polyexp.partial_fractions")
        self._wrap(F.polyexp, "expsum_eval", "polyexp.expsum_eval", count_points)
        self._wrap(F.simulate, "sample_pairs", pairs_label, count_pairs)
        self._wrap(erlang_cls, "ppf", "model.erlang2_ppf")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the duration of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        child = a["parent"] >= 0
        np.add.at(covered, a["parent"][child], dur[child])
        return dur - covered

    def op_closure_gap(self) -> float:
        """Largest |sum of an op's self times - its root span| / root span."""
        a = self.arrays()
        if a["op"].size == 0:
            return 0.0
        own = self.self_times()
        per_op = np.bincount(a["op"], weights=own)
        roots = a["parent"] < 0
        root_dur = np.zeros_like(per_op)
        root_dur[a["op"][roots]] = (a["end"] - a["start"])[roots]
        return float(np.max(np.abs(per_op - root_dur) / np.maximum(root_dur, 1e-12)))

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
