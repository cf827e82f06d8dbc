"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

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
from fgmruin.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSurvivalClassical:
    def test_default_grid_csv(self, capsys):
        code, out, err = _run(capsys, "survival-classical")
        assert code == 0
        assert err == ""
        assert "\r" not in out
        lines = out.splitlines()
        assert lines[0] == "u,value"
        assert len(lines) == 22
        u0, value0 = lines[1].split(",")
        assert float(u0) == 0.0
        assert float(value0) == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_json_carries_phi0(self, capsys):
        code, out, _ = _run(
            capsys, "survival-classical", "--theta", "0.5", "--u", "0",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "survival-classical"
        assert payload["phi0"] == pytest.approx(0.3548, abs=1e-3)
        assert payload["model"]["theta"] == 0.5
        assert payload["rows"][0]["value"] == pytest.approx(payload["phi0"])

    def test_comma_grid(self, capsys):
        code, out, _ = _run(capsys, "survival-classical", "--u", "0,2,4")
        assert code == 0
        assert len(out.splitlines()) == 4


class TestSurvivalErlang2:
    def test_exact_elimination_is_default(self, capsys):
        code, out, _ = _run(
            capsys, "survival-erlang2", "--theta", "1", "--u", "0",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["elimination"] == "individual"
        assert payload["variant"] == "plus"
        assert payload["delta0"] == pytest.approx(0.489973, abs=1e-5)

    def test_pooled_elimination_matches_reference_table(self, capsys):
        code, out, _ = _run(
            capsys, "survival-erlang2", "--theta", "1", "--u", "0",
            "--elimination", "pooled", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["delta0"] == pytest.approx(0.4957, abs=1e-3)


class TestMaxSurplus:
    def test_json_schema_and_boundary(self, capsys):
        code, out, _ = _run(
            capsys, "max-surplus", "--theta", "0.5", "--u", "0,20",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "max-surplus"
        assert payload["b"] == 20.0
        assert payload["rows"][-1]["u"] == 20.0
        assert payload["rows"][-1]["value"] == pytest.approx(1.0, abs=1e-9)
        assert payload["rows"][0]["value"] == pytest.approx(0.3546, abs=3e-3)

    def test_oversized_level_exits_4(self, capsys):
        code, out, err = _run(capsys, "max-surplus", "--theta", "-0.5", "--b", "150")
        assert code == 4
        assert out == ""
        assert "error" in err


class TestCurveRows:
    """JSON curve rows are the library's values on the grid, exactly."""

    @pytest.mark.parametrize(
        "command,arrival,solve,step",
        [
            ("survival-classical", ExpPoisson(1.0), survival_classical, 0.25),
            ("survival-erlang2", Erlang2(2.0), survival_erlang2, 0.25),
            ("max-surplus", ExpPoisson(1.0), lambda m: solve_chi(m, 20.0), 0.5),
        ],
    )
    def test_rows_equal_vectorized_solution(self, capsys, command, arrival,
                                            solve, step):
        code, out, _ = _run(capsys, command, "--theta", "0.5",
                            "--u", f"0:{40 * step}:{step}", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        grid = [i * step for i in range(41)]
        assert [r["u"] for r in rows] == grid
        sol = solve(ModelSpec(1.5, ExpClaim(1.0), arrival, FgmParam(0.5)))
        assert [r["value"] for r in rows] == sol(np.array(grid)).tolist()


class TestSimulate:
    def test_csv_header_and_determinism(self, capsys):
        args = ("simulate", "--theta", "0.5", "--u", "0", "--b", "20",
                "--n", "1000", "--seed", "7")
        code1, out1, _ = _run(capsys, *args)
        code2, out2, _ = _run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0] == "u,value,stderr"

    def test_json_reports_bias_bound(self, capsys):
        code, out, _ = _run(
            capsys, "simulate", "--theta", "0", "--n", "2000", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 0
        row = payload["rows"][0]
        assert 0.0 < row["value"] < 1.0
        assert row["stderr"] > 0.0
        assert row["bias_bound"] > 0.0

    def test_reach_mode_has_no_bias_bound(self, capsys):
        code, out, _ = _run(
            capsys, "simulate", "--theta", "0", "--b", "10", "--n", "2000",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["b"] == 10.0
        assert payload["rows"][0]["bias_bound"] is None

    def test_erlang_arrivals_via_beta(self, capsys):
        code, out, _ = _run(
            capsys, "simulate", "--beta", "2", "--theta", "-1",
            "--n", "2000", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["model"]["arrival"] == {"kind": "erlang2", "beta": 2.0}

    def test_both_arrival_laws_rejected(self, capsys):
        code, out, err = _run(
            capsys, "simulate", "--lambda", "1", "--beta", "2", "--n", "100",
        )
        assert code == 2
        assert "not both" in err

    def test_seed_env_override(self, capsys, monkeypatch):
        args = ("simulate", "--theta", "0.5", "--n", "1000", "--seed", "0")
        monkeypatch.setenv("RUIN_SEED", "123")
        _, out_env, _ = _run(capsys, *args)
        monkeypatch.delenv("RUIN_SEED")
        _, out_123, _ = _run(capsys, "simulate", "--theta", "0.5",
                             "--n", "1000", "--seed", "123")
        _, out_0, _ = _run(capsys, *args)
        assert out_env == out_123
        assert out_env != out_0

    def test_invalid_seed_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("RUIN_SEED", "not-a-seed")
        code, _, err = _run(capsys, "simulate", "--n", "100")
        assert code == 2
        assert "RUIN_SEED" in err


class TestReproduce:
    def test_example1_csv_deviations(self, capsys):
        code, out, _ = _run(capsys, "reproduce", "example1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,computed,reference,deviation"
        assert len(lines) > 10
        for line in lines[1:]:
            deviation = float(line.rsplit(",", 1)[1])
            assert deviation < 2e-3

    def test_example2_json(self, capsys):
        code, out, _ = _run(capsys, "reproduce", "example2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["elimination"] == "pooled"
        assert all(r["deviation"] < 2e-3 for r in payload["rows"])
        exact = payload["exact_delta0"]
        assert len(exact) == 4
        assert all(0.0 < e["delta0"] < 1.0 for e in exact)

    def test_example3_json_roundtrip(self, capsys):
        code, out, _ = _run(capsys, "reproduce", "example3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(r["deviation"] < 2e-3 for r in payload["rows"])
        redumped = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert redumped == out

    def test_example2_variant_report(self, capsys):
        code, out, _ = _run(
            capsys, "reproduce", "example2", "--variant-report",
            "--format", "json", "--n", "20000", "--seed", "11",
            "--workers", "2",
        )
        assert code == 0
        payload = json.loads(out)
        blocks = payload["sign_variant"]
        assert len(blocks) == 4
        for block in blocks:
            assert block["selected"] == "plus"
            assert block["mc_ci95"][0] < block["mc_value"] < block["mc_ci95"][1]
            variants = {r["variant"]: r for r in block["rows"]}
            assert variants["plus"]["consistent"]
            assert not variants["minus"]["consistent"]


class TestErrorsAndOutput:
    def test_malformed_grid_exits_2(self, capsys):
        code, _, err = _run(capsys, "survival-classical", "--u", "0:10")
        assert code == 2
        assert "start:stop:step" in err

    def test_out_of_range_theta_exits_2(self, capsys):
        code, _, err = _run(capsys, "survival-classical", "--theta", "1.5")
        assert code == 2

    def test_non_numeric_theta_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["survival-classical", "--theta", "abc"])
        assert exc.value.code == 2

    def test_loading_violation_exits_3(self, capsys):
        code, _, err = _run(capsys, "survival-classical", "--c", "0.5")
        assert code == 3
        assert "loading" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = _run(
            capsys, "survival-classical", "--u", "0:2:1", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        data = target.read_bytes()
        assert b"\r" not in data
        text = data.decode("utf-8")
        code2, direct, _ = _run(capsys, "survival-classical", "--u", "0:2:1")
        assert text == direct

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "curve.csv"
        code, _, err = _run(
            capsys, "survival-classical", "--u", "0", "--output", str(target),
        )
        assert code == 2
        assert "cannot write" in err
