"""Monte Carlo estimates against their references: one table of cells and its runner.

Each cell runs ``python -m fgmruin simulate <args> --format json`` end to
end in a subprocess, which keeps the caller's environment (CI's
``PYTHONWARNINGS=error::RuntimeWarning`` fails a run on a numpy overflow)
apart from ``RUIN_SEED``, so that every cell runs at its own seed.  Each
row of the output must sit at the expected surplus level, and then

    0 < stderr < its bound   and   |z| <= 4,  z = (value - reference) / stderr,

where the reference is a closed form (``survival_classical``,
``survival_erlang2``, ``solve_chi``), the 60-digit
``mp_reference.reference_psi`` or a cited constant.  An exact cell
(``atol``) also holds |value - reference| and its stderr to that bound.

Run it from the repository root with the package importable (installed,
or on ``PYTHONPATH``):

    python tests/agreement.py

It prints one row per cell and level, and exits 1 after the last cell if
any row failed, naming every cell that did.  ``tests/test_agreement.py``
runs the cells at n <= 20 000 and loading >= 0.1.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from fgmruin import (
    Erlang2,
    ExpClaim,
    ExpPoisson,
    FgmParam,
    ModelSpec,
    solve_chi,
    survival_classical,
    survival_erlang2,
)
from mp_reference import reference_psi

Z_MAX = 4.0
ANY = math.inf  # a stderr bound that holds any positive stderr


class Cell(NamedTuple):
    name: str
    args: str  # the arguments of ``fgmruin simulate``, without --format
    u: tuple  # the expected u column
    reference: Callable  # (model, b, u) -> the reference value, a float or a Fraction
    stderr: tuple  # each row's stderr bound
    atol: float | None = None  # an exact cell's bound on |value - reference| and on stderr


def classical(model, b, u):
    return float(survival_classical(model)(u))


def erlang2(model, b, u):
    return float(survival_erlang2(model)(u))


def chi(model, b, u):
    return float(solve_chi(model, b)(u))


def psi60(model, b, u):
    """1 - psi(u), psi at 60 digits, exact as a Fraction: 1 - psi rounds psi to 1e-16."""
    psi = reference_psi(model.c, model.claim.alpha, model.arrival.beta, model.theta, u)
    return 1 - Fraction(psi)


def erlang_reach(model, b, u):
    """chi(1) at c = 1, beta = 1, theta = 0.5, b = 5 by the fluid embedding (ROADMAP item 26)."""
    return 0.847683


CELLS = [
    Cell("Erlang simulation", "--beta 2 --theta -1 --n 20000 --seed 1",
         (0.0,), erlang2, (ANY,)),
    Cell("Reach simulation", "--b 20 --theta 0.5 --n 20000 --seed 1",
         (0.0,), chi, (ANY,)),
    Cell("Large-u survival simulation", "--theta 0.5 --u 0:40:20 --n 20000 --seed 1",
         (0.0, 20.0, 40.0), classical, (ANY,) * 3),
    Cell("Small-loading survival curve", "--c 1.01 --u 0:40:10 --n 20000 --seed 1",
         (0.0, 10.0, 20.0, 30.0, 40.0), classical, (ANY,) * 5),
    Cell("Strong dependence at large loading", "--c 101 --theta 1 --n 200000 --seed 1",
         (0.0,), classical, (ANY,)),
    Cell("Exact survival estimate at independence",
         "--theta 0 --u 0:10:5 --n 2000 --seed 1",
         (0.0, 5.0, 10.0), classical, (ANY,) * 3, atol=1e-12),
    # Nearly every plain weight e^{-R D} underflows here; the weight given
    # the walk before the ruinous step does not.  Stderr bounds at about
    # twice the measured 4.98e-12 and 3.36e-14.
    Cell("Survival at Erlang loading 1000 agrees with the 60-digit reference",
         "--c 1001 --beta 2 --theta 1 --u 0:5:5 --n 200000 --seed 1",
         (0.0, 5.0), psi60, (1e-11, 7e-14)),
    # Stderr bound at about twice the measured 2.35e-5 (1.89e-5 on the tilted walk).
    Cell("Reach estimate agrees with the closed form, b = 20",
         "--b 20 --theta 0.5 --n 200000 --seed 1", (0.0,), chi, (5e-5,)),
    # A distant level, where the model's own walk needed about 200 claims
    # per surviving path.  Stderr bound at about twice the measured 1.88e-5.
    Cell("Reach estimate agrees with the closed form, b = 100",
         "--b 100 --theta 0.5 --n 200000 --seed 1", (0.0,), chi, (4e-5,)),
    Cell("Reach estimate agrees with the fluid embedding, Erlang(2) times",
         "--c 1 --beta 1 --theta 0.5 --u 1 --b 5 --n 200000 --seed 1",
         (1.0,), erlang_reach, (ANY,)),
    # Loading 1e7 - 1 is past the tilt bound (1e6): the walk is the model's
    # own, and not every path stops at its first claim.  Measured |z|
    # 0.44 - 0.88 with stderr 1.78e-15.
    *(Cell(f"Reach past the tilt bound agrees with the closed form, theta = {theta}",
           f"--c 1e7 --b 1 --theta {theta} --n 20000 --seed 1", (0.0,), chi, (4e-15,))
      for theta in ("-1", "0.5", "1")),
    # Stderr bounds at about twice the measured 1.9e-5 (u = 0) and 2.9e-11.
    Cell("Survival estimate agrees with the closed form, Poisson times",
         "--theta 0.5 --u 0:10:5 --n 200000 --seed 1",
         (0.0, 5.0, 10.0), classical, (4e-5,) * 3),
    Cell("Survival estimate agrees with the closed form, Erlang(2) times",
         "--c 101 --beta 2 --theta -1 --u 5 --n 200000 --seed 1",
         (5.0,), erlang2, (6e-11,)),
    # 100 003 paths: three pools' width of them (32768 each) and a remainder.
    Cell("Survival past one pool of paths", "--theta 0.5 --u 0:10:5 --n 100003 --seed 1",
         (0.0, 5.0, 10.0), classical, (ANY,) * 3),
    # The theta = -1 table (one cut, every phase row drawn in full) through
    # refills of the pool and its drain.
    Cell("Reach past one pool of paths", "--b 20 --theta -1 --n 100003 --seed 1",
         (0.0,), chi, (ANY,)),
    # Stderr bounds at about twice the measured 1.86e-5 and 1.56e-6.
    Cell("Erlang survival at positive dependence agrees with the closed form",
         "--beta 2 --theta 0.5 --u 0:5:5 --n 200000 --seed 1",
         (0.0, 5.0), erlang2, (4e-5, 3e-6)),
]


def run(cell: Cell) -> tuple[dict, float]:
    """The JSON output of the cell's ``simulate`` run, and its wall time in seconds."""
    env = {k: v for k, v in os.environ.items() if k != "RUIN_SEED"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "fgmruin", "simulate", *cell.args.split(), "--format", "json"],
        capture_output=True, text=True, env=env)
    seconds = time.perf_counter() - start
    if proc.returncode:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout), seconds


def model_of(payload: dict) -> ModelSpec:
    """The model a ``simulate`` JSON payload ran."""
    m = payload["model"]
    law = m["arrival"]
    arrival = Erlang2(law["beta"]) if law["kind"] == "erlang2" else ExpPoisson(law["lambda"])
    return ModelSpec(m["c"], ExpClaim(m["alpha"]), arrival, FgmParam(m["theta"]))


def check(cell: Cell, payload: dict) -> list[tuple]:
    """(u, value, stderr, reference, z, failures) of each row of the payload."""
    rows = payload["rows"]
    if tuple(r["u"] for r in rows) != cell.u:
        raise RuntimeError(f"u column {[r['u'] for r in rows]}, expected {list(cell.u)}")
    model = model_of(payload)
    out = []
    for r, bound in zip(rows, cell.stderr, strict=True):
        value, stderr = r["value"], r["stderr"]
        reference = cell.reference(model, payload["b"], r["u"])
        error = float(Fraction(value) - Fraction(reference))
        z = error / stderr if stderr > 0.0 else math.inf
        failures = []
        if not 0.0 < stderr < bound:
            failures.append(f"stderr not in (0, {bound:g})")
        if not abs(z) <= Z_MAX:
            failures.append(f"|z| > {Z_MAX:g}")
        if cell.atol is not None and not (abs(error) <= cell.atol and stderr <= cell.atol):
            failures.append(f"error or stderr above {cell.atol:g}")
        out.append((r["u"], value, stderr, float(reference), z, failures))
    return out


def main(cells=CELLS) -> int:
    """Run and check every cell; 1 if any failed, after naming each that did."""
    failed = []
    print("%-70s %6s %-19s %-9s %-19s %6s %6s" % (
        "cell", "u", "value", "stderr", "reference", "z", "s"), flush=True)
    for cell in cells:
        try:
            payload, seconds = run(cell)
            rows = check(cell, payload)
        except Exception as exc:  # a cell that cannot run or be checked fails by name
            print(f"{cell.name}: FAIL {exc}", flush=True)
            failed.append(cell.name)
            continue
        for u, value, stderr, reference, z, failures in rows:
            print("%-70s %6g %-19.17g %-9.3g %-19.17g %+6.2f %6.2f %s" % (
                cell.name, u, value, stderr, reference, z, seconds,
                "FAIL " + "; ".join(failures) if failures else "ok"), flush=True)
        if any(row[-1] for row in rows):
            failed.append(cell.name)
    if failed:
        print(f"{len(failed)} of {len(cells)} cells failed:", file=sys.stderr)
        for name in failed:
            print(f"  {name}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
