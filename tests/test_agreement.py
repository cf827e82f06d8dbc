"""The agreement table's fast cells, and its runner's failure by cell name."""

from concurrent.futures import ThreadPoolExecutor

import pytest

import agreement
from fgmruin.cli import _build_parser


def _fast(cell) -> bool:
    """n <= 20 000 and relative loading >= 0.1: a run dominated by its start-up."""
    args = _build_parser().parse_args(["simulate", *cell.args.split()])
    mean_w = 2.0 / args.beta if args.beta is not None else 1.0 / (args.lam or 1.0)
    return args.n <= 20_000 and args.c * mean_w * args.alpha - 1.0 >= 0.1


FAST = [cell for cell in agreement.CELLS if _fast(cell)]


@pytest.fixture(scope="module")
def payloads():
    # Two runs at a time: each is mostly the start-up of a Python process.
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip([cell.name for cell in FAST],
                        (payload for payload, _ in pool.map(agreement.run, FAST))))


@pytest.mark.parametrize("cell", FAST, ids=[cell.name for cell in FAST])
def test_fast_cell_agrees(cell, payloads):
    rows = agreement.check(cell, payloads[cell.name])
    assert not [row for row in rows if row[-1]], rows


def test_runner_fails_a_shifted_reference_by_name(payloads, capsys):
    # The cell's reference moved by 10 of the run's stderr: z moves by -10.
    cell = FAST[0]
    stderr = payloads[cell.name]["rows"][0]["stderr"]
    shifted = cell._replace(
        reference=lambda model, b, u: float(cell.reference(model, b, u)) + 10.0 * stderr)
    assert agreement.main([shifted]) == 1
    out, err = capsys.readouterr()
    assert "|z| > 4" in out
    assert f"  {cell.name}\n" in err
