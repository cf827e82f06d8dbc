"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fgmruin import (
    Erlang2,
    ExpClaim,
    ExpPoisson,
    FgmParam,
    ModelSpec,
    estimate_survival,
    solve_chi,
    survival_classical,
    survival_erlang2,
)
from fgmruin import cli
from fgmruin.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reference_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _reference_csv(header, rows):
    def cell(value):
        return value if isinstance(value, str) else f"{value:.6g}"

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


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

    def test_large_level_solves(self, capsys):
        # e^{s b} overflows at b = 150; the growing term is anchored at b.
        code, out, err = _run(capsys, "max-surplus", "--theta", "-0.5",
                              "--b", "150", "--u", "0,20,150",
                              "--format", "json")
        assert (code, err) == (0, "")
        values = [r["value"] for r in json.loads(out)["rows"]]
        phi = survival_classical(
            ModelSpec(1.5, ExpClaim(1.0), ExpPoisson(1.0), FgmParam(-0.5)))
        assert values[:2] == pytest.approx(phi(np.array([0.0, 20.0])).tolist(),
                                           abs=1e-9)
        assert values[2] == pytest.approx(1.0, abs=1e-9)


# Commands whose output must be byte for byte what the reference encoders
# print, in both formats (TestCurveRows).
_ENCODER_CASES = [
    ("classical", ("survival-classical", "--theta", "0.5", "--u", "0:40:0.1")),
    ("classical-extreme-u", ("survival-classical", "--theta", "-1", "--u",
                             "0,1e-300,5e-324,0.1,123456.789,1e300")),
    ("erlang2-individual", ("survival-erlang2", "--theta", "-0.5",
                            "--u", "0:40:0.1")),
    ("erlang2-pooled", ("survival-erlang2", "--theta", "1", "--elimination",
                        "pooled", "--u", "0:40:0.1")),
    ("max-surplus", ("max-surplus", "--theta", "0.5", "--b", "20",
                     "--u", "0:20:0.05")),
    ("simulate-survival", ("simulate", "--theta", "0.5", "--u", "0,2.5",
                           "--n", "2000", "--seed", "3")),
    ("simulate-reach", ("simulate", "--beta", "2", "--theta", "-1", "--b",
                        "10", "--u", "0:10:5", "--n", "2000", "--seed", "3")),
    ("example1", ("reproduce", "example1")),
    ("example2", ("reproduce", "example2")),
    ("example3", ("reproduce", "example3")),
    ("example2-variant-report", ("reproduce", "example2", "--variant-report",
                                 "--n", "2000", "--seed", "5")),
    # The dense grids of the benchmark's curve workload.
    ("classical-dense", ("survival-classical", "--u", "0:50:0.01")),
    ("erlang2-dense", ("survival-erlang2", "--u", "0:50:0.01")),
    ("max-surplus-dense", ("max-surplus", "--b", "20", "--u", "0:20:0.004")),
]


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

    @pytest.mark.parametrize(
        "argv,fmt",
        [
            pytest.param(argv, fmt, id=f"{name}-{fmt}")
            for name, argv in _ENCODER_CASES
            for fmt in ("csv", "json")
            # --variant-report is refused with CSV (TestReproduce).
            if not (name == "example2-variant-report" and fmt == "csv")
        ],
    )
    def test_tables_match_reference_encoders(self, capsys, monkeypatch, argv,
                                             fmt):
        code, out, _ = _run(capsys, *argv, "--format", fmt)
        assert code == 0
        monkeypatch.setattr(cli, "_json_text", _reference_json)
        monkeypatch.setattr(cli, "_csv_table", _reference_csv)
        assert _run(capsys, *argv, "--format", fmt) == (0, out, "")


class TestTableWriters:
    """The writers print what the reference encoders print, cell for cell."""

    @pytest.mark.parametrize("as_array", [False, True], ids=["tuples", "array"])
    def test_csv_extreme_cells(self, as_array):
        rows = [(-0.0, 5e-324), (1e300, float("nan")), (float("inf"), -np.inf),
                (0.1, 123456.789)]
        want = _reference_csv(("u", "value"), rows)
        table = np.array(rows) if as_array else rows
        assert cli._csv_table(("u", "value"), table) == want

    def test_csv_strings_next_to_numpy_floats(self):
        # The shape of reproduce rows; a % in a string cell is printed as is.
        rows = [("theta=-1.0 phi0", np.float64(0.31470004), 0.3147,
                 np.float64(4.4e-09)),
                ("a%sb %d", 1.0, np.float64(-0.0), 2.5e-300)]
        header = ("name", "computed", "reference", "deviation")
        assert cli._csv_table(header, rows) == _reference_csv(header, rows)

    @pytest.mark.parametrize("key", ["a", "z"], ids=["first", "last"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_json_refuses_non_finite_in_any_column(self, key, bad):
        rows = [{"a": 0.0, "m": 1.0, "z": 2.0}, {"a": 3.0, "m": 4.0, "z": 5.0}]
        rows[1][key] = bad
        payload = {"command": "x", "rows": rows}
        with pytest.raises(ValueError):
            _reference_json(payload)
        with pytest.raises(ValueError):
            cli._json_text(payload)

    @pytest.mark.parametrize("rows", [
        [{"u": 0.5}, {"u": 5e-324}, {"u": -0.0}],
        [{"name": "one"}],
        [{"50%": 0.5, "a%s": 1.0, "%%": 2.0, "{}": 3.0},
         {"50%": -1e300, "a%s": 0.1, "%%": 5e-324, "{}": 1e-7}],
    ], ids=["one-float-key", "one-string-key", "percent-keys"])
    def test_json_key_shapes(self, rows):
        payload = {"command": "x", "rows": rows}
        assert cli._json_text(payload) == _reference_json(payload)

    def test_json_strings_next_to_numpy_floats(self):
        rows = [{"name": "theta=+0.5 phi0", "computed": np.float64(0.35480001),
                 "reference": 0.3548, "deviation": np.float64(1e-08)},
                {"name": 'quote " slash \\ e\u0301 %s', "computed": -0.0,
                 "reference": np.float64(1e300), "deviation": 5e-324}]
        payload = {"command": "reproduce", "rows": rows}
        assert cli._json_text(payload) == _reference_json(payload)


class TestSimulate:
    def test_csv_header_and_determinism(self, capsys):
        args = ("simulate", "--theta", "0.5", "--u", "0", "--b", "20",
                "--n", "1000", "--seed", "7")
        code1, out1, _ = _run(capsys, *args)
        code2, out2, _ = _run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0] == "u,value,stderr"

    def test_json_rows_report_value_and_stderr(self, capsys):
        code, out, _ = _run(
            capsys, "simulate", "--theta", "0", "--n", "2000", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 0
        row = payload["rows"][0]
        assert set(row) == {"u", "value", "stderr"}
        assert 0.0 < row["value"] < 1.0
        assert row["stderr"] > 0.0

    def test_reach_mode_json_rows(self, capsys):
        code, out, _ = _run(
            capsys, "simulate", "--theta", "0", "--b", "10", "--n", "2000",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["b"] == 10.0
        assert set(payload["rows"][0]) == {"u", "value", "stderr"}

    def test_survival_grid_rows_are_one_curve_estimate(self, capsys):
        code, out, _ = _run(
            capsys, "simulate", "--theta", "0.5", "--u", "0:10:5", "--n", "3000",
            "--seed", "9", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        model = ModelSpec(1.5, ExpClaim(1.0), ExpPoisson(1.0), FgmParam(0.5))
        want = estimate_survival(model, np.array([0.0, 5.0, 10.0]), n=3000, seed=9)
        assert [r["u"] for r in rows] == [0.0, 5.0, 10.0]
        assert [(r["value"], r["stderr"]) for r in rows] == [
            (e.value, e.stderr) for e in want]

    def test_small_loading_survival_exits_4(self, capsys):
        code, out, err = _run(capsys, "simulate", "--c", "1.001", "--n", "1000")
        assert code == 4
        assert out == ""
        assert "relative loading 0.001" in err

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

    @pytest.mark.parametrize("preset", ["example1", "example2", "example3"])
    def test_variant_report_with_csv_exits_2(self, capsys, monkeypatch, preset):
        # The report exists only in JSON; CSV is refused before any
        # simulation or solve runs.
        def refuse(*args, **kwargs):
            raise AssertionError("computed before the format check")

        monkeypatch.setattr(cli, "sign_variant_report", refuse)
        monkeypatch.setattr(cli, "survival_erlang2", refuse)
        monkeypatch.setattr(cli, "survival_classical", refuse)
        monkeypatch.setattr(cli, "solve_chi", refuse)
        code, out, err = _run(capsys, "reproduce", preset, "--variant-report")
        assert (code, out) == (2, "")
        assert "--variant-report needs --format json" in err

    @pytest.mark.parametrize("preset", ["example1", "example3"])
    def test_variant_report_outside_example2_exits_2(self, capsys, monkeypatch,
                                                     preset):
        # Only example2 has sign variants; the flag is refused for the
        # other presets before any solve runs.
        def refuse(*args, **kwargs):
            raise AssertionError("computed before the preset check")

        monkeypatch.setattr(cli, "survival_classical", refuse)
        monkeypatch.setattr(cli, "solve_chi", refuse)
        code, out, err = _run(capsys, "reproduce", preset, "--variant-report",
                              "--format", "json")
        assert (code, out) == (2, "")
        assert "--variant-report needs --format json and example2" in err

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
        code, out, err = _run(capsys, "survival-classical", "--u", ",")
        assert (code, out) == (2, "")
        assert "empty u grid" in err

    def test_grid_with_more_points_than_the_cap_exits_2(self, capsys):
        # About 1e300 points: refused before any list is built.
        code, out, err = _run(capsys, "survival-classical", "--u", "0:1:1e-300")
        assert (code, out) == (2, "")
        assert "more than 1000000 points" in err

    def test_grid_with_infinite_point_count_exits_2(self, capsys):
        # (stop - start) / step overflows to inf.
        code, out, err = _run(capsys, "survival-classical",
                              "--u", "0:1e300:1e-300")
        assert (code, out) == (2, "")
        assert "more than 1000000 points" in err

    def test_grid_cap_is_inclusive(self):
        assert cli._parse_grid("0:999999:1").size == cli._MAX_GRID_POINTS
        with pytest.raises(cli.InputError):
            cli._parse_grid("0:1000000:1")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                     np.float64("nan")],
                             ids=["nan", "inf", "-inf", "np.nan"])
    def test_json_refuses_non_finite_rows(self, bad):
        payload = {"command": "x", "rows": [{"u": 0.0, "value": 0.5},
                                            {"u": 1.0, "value": bad}]}
        with pytest.raises(ValueError):
            _reference_json(payload)
        with pytest.raises(ValueError):
            cli._json_text(payload)

    def test_parser_reuse_keeps_defaults(self, capsys):
        _, theta_half, _ = _run(capsys, "survival-classical", "--theta", "0.5",
                                "--u", "0")
        _, default, _ = _run(capsys, "survival-classical", "--u", "0")
        _, theta_zero, _ = _run(capsys, "survival-classical", "--theta", "0",
                                "--u", "0")
        assert default == theta_zero != theta_half

    def test_non_finite_or_negative_grid_exits_2(self, capsys):
        for argv in (["--u", "0:inf:1"], ["--u", "nan:1:1"], ["--u", "0:1:nan"],
                     ["--u", "0:1:inf"], ["--u=nan", "--format", "json"],
                     ["--u=-5:0:1"]):
            code, out, err = _run(capsys, "survival-classical", *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error:"), argv

    def test_out_of_range_theta_exits_2(self, capsys):
        code, _, err = _run(capsys, "survival-classical", "--theta", "1.5")
        assert code == 2

    def test_non_numeric_theta_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["survival-classical", "--theta", "abc"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("survival-classical", "--lambda", "1"),
        ("survival-erlang2", "--beta", "1"),
        ("max-surplus", "--lambda", "1", "--b", "1"),
    ])
    def test_overflowing_rates_exit_4(self, capsys, argv):
        code, out, err = _run(capsys, *argv, "--c", "1", "--alpha", "1e160",
                              "--theta", "0.5", "--u", "0:1:1")
        assert (code, out) == (4, "")
        assert "not finite" in err

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


class TestEntryPoint:
    """``python -m fgmruin`` runs ``entry()``, which exits with main's code."""

    @staticmethod
    def _module(*argv):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run([sys.executable, "-m", "fgmruin", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    def test_reproduce_matches_main(self, capsys):
        proc = self._module("reproduce", "example1")
        code, out, _ = _run(capsys, "reproduce", "example1")
        assert proc.returncode == code == 0
        assert proc.stdout == out

    def test_loading_violation_exit_code(self):
        proc = self._module("survival-classical", "--c", "0.5")
        assert proc.returncode == 3
        assert "loading" in proc.stderr

    def test_erlang_basis_overflow_prints_one_error_line(self):
        # The roots near -1e160 overflow the basis values; the process
        # prints the typed error alone, with no numpy warning before it.
        proc = self._module("survival-erlang2", "--c", "1", "--alpha", "1e160",
                            "--beta", "1", "--theta", "0", "--u", "0:1:1")
        assert (proc.returncode, proc.stdout) == (4, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")

    def test_vanished_chi_row_prints_one_error_line(self):
        # The rate-k row of the chi system underflows to zero; the process
        # names it in one typed error, with no numpy warning before it.
        proc = self._module("max-surplus", "--c", "2", "--alpha", "1e50",
                            "--lambda", "1", "--theta", "0.5", "--b", "10",
                            "--u", "0:10:5")
        assert (proc.returncode, proc.stdout) == (4, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "rate k" in lines[0]
