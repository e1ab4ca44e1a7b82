import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mumbounds.cli import main
from mumbounds.engine import ThresholdQuery, run_threshold
from mumbounds.states import save_state

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--d", "3", "--t", "0.01")
        assert code == 0
        values = parse_kv(out)
        assert values["status"] == "pass"
        assert float(values["trace_one_dev"]) < 1e-9
        assert float(values["two_design_residual"]) < 1e-9

    def test_inadmissible_t_prints_interval(self, capsys):
        code, _, err = run(capsys, "verify", "--d", "3", "--t", "0.2")
        assert code == 1
        assert "-0.109390" in err
        assert "0.122008" in err

    def test_d2_mub_limit(self, capsys, t_range_of):
        code, out, _ = run(capsys, "verify", "--d", "2", "--t", str(t_range_of(2).upper))
        assert code == 0
        values = parse_kv(out)
        assert float(values["kappa"]) == pytest.approx(1.0, abs=1e-9)
        assert values["status"] == "pass"


class TestKappaAndRange:
    def test_kappa_output(self, capsys):
        code, out, _ = run(capsys, "kappa", "--d", "3", "--t", "0.12")
        assert code == 0
        values = parse_kv(out)
        assert float(values["kappa"]) == pytest.approx(0.548299, abs=1e-6)
        assert float(values["kappa_optimal"]) == pytest.approx(1 / 3 + 2 / 9, abs=1e-12)
        assert values["t_admissible"] == "yes"

    def test_t_range_output(self, capsys):
        code, out, _ = run(capsys, "t-range", "--d", "3")
        assert code == 0
        values = parse_kv(out)
        assert float(values["t_lower"]) == pytest.approx(-0.10939, abs=1e-5)
        assert float(values["t_upper"]) == pytest.approx(0.122008, abs=1e-5)


class TestBound:
    def test_detected_above_table_threshold(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--state", "horodecki", "--upsilon", "0.2",
            "--q", "0.999", "--t", "0.01",
        )
        assert code == 0
        assert parse_kv(out)["verdict"] == "entangled"

    def test_undetected_below_table_threshold(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--state", "horodecki", "--upsilon", "0.2",
            "--q", "0.99", "--t", "0.01",
        )
        assert code == 0
        assert parse_kv(out)["verdict"] == "undetected"

    def test_maximally_mixed_file(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        save_state(np.eye(9) / 9.0, path)
        code, out, _ = run(capsys, "bound", "--state", "file", "--file", str(path), "--t", "0.05")
        assert code == 0
        values = parse_kv(out)
        assert float(values["bound"]) == 0.0
        assert values["verdict"] == "undetected"

    def test_json_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "bound", "--state", "tiles", "--p", "1.0", "--t", "0.01",
            "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["verdict"] == "entangled"
        assert payload["traceNormP"] == pytest.approx(1.3350415782, abs=1e-9)

    def test_invalid_tolerance_rejected(self, capsys):
        # a negative tolerance would certify the separable I/9, a NaN one
        # would report "undetected" next to a positive bound
        for state_args, tol in (
            (("--state", "tiles", "--p", "0"), "-1"),
            (("--state", "horodecki", "--upsilon", "0.2", "--q", "1"), "nan"),
            (("--state", "tiles", "--p", "1"), "inf"),
        ):
            code, out, err = run(capsys, "bound", *state_args, "--t", "0.05", f"--tol={tol}")
            assert code == 1
            assert "verdict" not in out
            assert "tolerance" in err

    def test_missing_upsilon_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bound", "--state", "horodecki", "--t", "0.01")
        assert code == 1
        assert "upsilon" in err

    def test_conflicting_mixing_weights(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        save_state(np.eye(9) / 9.0, path)
        code, _, err = run(
            capsys, "bound", "--state", "file", "--file", str(path),
            "--p", "0.5", "--q", "0.5", "--t", "0.05",
        )
        assert code == 1
        assert "at most one" in err

    def test_missing_file_path(self, capsys):
        code, _, err = run(capsys, "bound", "--state", "file", "--t", "0.05")
        assert code == 1

    def test_nonexistent_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "bound", "--state", "file",
            "--file", str(tmp_path / "nope.json"), "--t", "0.05",
        )
        assert code == 1


class TestSweep:
    def test_horodecki_upsilon_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--state", "horodecki", "--var", "upsilon",
            "--start", "0", "--stop", "1", "--steps", "5",
            "--q", "0.995", "--t", "0.08", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == (
            "var,traceNormP,traceNormF,kappa,threshold,"
            "bound_literal,bound_derived,verdict"
        )
        assert len(lines) == 6
        values = [float(line.split(",")[0]) for line in lines[1:]]
        assert values == sorted(values)

    def test_deterministic_output(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                capsys, "sweep", "--state", "tiles", "--var", "t",
                "--start", "-0.05", "--stop", "0.1", "--steps", "6",
                "--p", "0.99", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_near_zero_t_grid_rejected(self, capsys, tmp_path):
        # a grid point at t ~ 1e-17 is numerically the degenerate family
        code, _, err = run(
            capsys, "sweep", "--state", "tiles", "--var", "t",
            "--start", "-0.05", "--stop", "0.1", "--steps", "7",
            "--p", "0.99", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "inadmissible" in err

    def test_two_step_degenerate_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "two.csv"
        code, _, _ = run(
            capsys, "sweep", "--state", "tiles", "--var", "p",
            "--start", "0", "--stop", "1", "--steps", "2",
            "--t", "0.01", "--out", str(out_path),
        )
        assert code == 0
        assert len(out_path.read_text().strip().splitlines()) == 3

    def test_single_step_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--state", "tiles", "--var", "p",
            "--start", "0", "--stop", "1", "--steps", "1",
            "--t", "0.01", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "steps" in err

    def test_inadmissible_t_grid_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--state", "tiles", "--var", "t",
            "--start", "0.0", "--stop", "0.3", "--steps", "4",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "inadmissible" in err

    def test_upsilon_not_sweepable_for_tiles(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--state", "tiles", "--var", "upsilon",
            "--start", "0", "--stop", "1", "--steps", "3",
            "--t", "0.01", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "not sweepable" in err

    def test_missing_fixed_t(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--state", "tiles", "--var", "p",
            "--start", "0", "--stop", "1", "--steps", "3",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "--t is required" in err

    def test_unwritable_out_path(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--state", "tiles", "--var", "p",
            "--start", "0", "--stop", "1", "--steps", "2",
            "--t", "0.01", "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 1


class TestThreshold:
    def test_table_reference_point(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--state", "horodecki", "--upsilon", "0.2",
            "--t", "0.01", "--tol", "1e-4",
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["threshold"]) == pytest.approx(0.994054, abs=5e-3)
        assert float(values["margin_at_lower"]) <= 0.0
        assert float(values["margin_at_upper"]) > 0.0

    def test_weight_the_state_ignores_is_rejected(self, capsys):
        for state_args in (
            ("--state", "tiles", "--search-var", "q"),
            ("--state", "horodecki", "--upsilon", "0.2", "--search-var", "p"),
        ):
            code, _, err = run(capsys, "threshold", *state_args, "--t", "0.01")
            assert code == 1
            assert "not a white-noise weight" in err

    def test_prints_evaluation_count(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--state", "horodecki", "--upsilon", "0.2", "--t", "0.01",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-2].startswith("margin_at_upper=")
        assert lines[-1].startswith("evaluations=")
        result, _ = run_threshold(
            ThresholdQuery(
                state_family="horodecki", t=0.01, search_variable="q", fixed={"upsilon": 0.2}
            )
        )
        assert int(parse_kv(out)["evaluations"]) == result.evaluations

    def test_tolerance_below_float_resolution_terminates(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "mumbounds.cli", "threshold", "--state", "horodecki",
                "--upsilon", "0.2", "--t", "0.01", "--tol", "1e-30",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        values = parse_kv(proc.stdout)
        assert float(values["threshold"]) == pytest.approx(0.994054, abs=5e-3)
        assert float(values["margin_at_lower"]) <= 0.0 < float(values["margin_at_upper"])

    def test_separable_file_state_is_undetected(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        save_state(np.eye(9) / 9.0, path)
        code, out, _ = run(
            capsys, "threshold", "--state", "file", "--file", str(path), "--t", "0.05",
        )
        assert code == 0
        assert "undetected on [0, 1]" in out
        assert parse_kv(out)["evaluations"] == "2"

    def test_invalid_tolerance_rejected(self, capsys):
        for tol in ("nan", "inf", "0", "-1e-6"):
            code, out, err = run(
                capsys, "threshold", "--state", "horodecki", "--upsilon", "0.2",
                "--t", "0.01", f"--tol={tol}",
            )
            assert code == 1
            assert "threshold=" not in out
            assert "tolerance" in err

    def test_t_zero_rejected(self, capsys):
        code, _, err = run(
            capsys, "threshold", "--state", "tiles", "--t", "0",
        )
        assert code == 1
        assert "nonzero" in err

    def test_inadmissible_t_rejected(self, capsys):
        code, _, err = run(
            capsys, "threshold", "--state", "horodecki", "--upsilon", "0.2", "--t", "0.5",
        )
        assert code == 1


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("kappa", "--d", "3", "--t={}"),
            ("verify", "--d", "3", "--t={}"),
            ("bound", "--state", "tiles", "--p", "1", "--t={}"),
            ("threshold", "--state", "tiles", "--t={}"),
            ("bound", "--state", "tiles", "--p={}", "--t", "0.01"),
            ("bound", "--state", "horodecki", "--upsilon", "0.2", "--q={}", "--t", "0.01"),
            ("bound", "--state", "horodecki", "--upsilon={}", "--t", "0.01"),
            ("threshold", "--state", "horodecki", "--upsilon={}", "--t", "0.01"),
            ("sweep", "--state", "tiles", "--var", "p", "--start={}", "--stop", "1",
             "--steps", "3", "--t", "0.01"),
            ("sweep", "--state", "tiles", "--var", "p", "--start", "0", "--stop={}",
             "--steps", "3", "--t", "0.01"),
        ],
        ids=lambda argv: " ".join(argv) if isinstance(argv, tuple) else argv,
    )
    def test_rejected_as_usage_error(self, capsys, tmp_path, argv, value):
        argv = [arg.format(value) for arg in argv]
        if argv[0] == "sweep":
            argv += ["--out", str(tmp_path / "x.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 1
        assert "finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()


    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan"])
    def test_space_separated_negative_value(self, capsys, value):
        code, _, err = run(capsys, "kappa", "--d", "3", "--t", value)
        assert code == 1
        assert "must be a finite number" in err
        assert "expected one argument" not in err


class TestNegativeFloatValues:
    """A float-like token after an option is its value, however it is spelled."""

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-.001", "-0.001"])
    def test_t_in_exponent_form(self, capsys, value):
        spaced = run(capsys, "kappa", "--d", "3", "--t", value)
        joined = run(capsys, "kappa", "--d", "3", f"--t={value}")
        assert spaced == joined
        assert spaced[0] == 0
        assert parse_kv(spaced[1])["t_admissible"] == "yes"

    def test_sweep_start(self, capsys, tmp_path):
        outputs = []
        for name, argv in (("spaced", ["--start", "-4e-2"]), ("joined", ["--start=-4e-2"])):
            path = tmp_path / f"{name}.csv"
            code, _, err = run(
                capsys, "sweep", "--state", "tiles", "--var", "t", *argv,
                "--stop", "0.1", "--steps", "4", "--p", "0.99", "--out", str(path),
            )
            assert code == 0, err
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[1].startswith(b"-0.04,")


class TestStateFiles:
    def test_gen_and_verify_roundtrip(self, capsys, tmp_path):
        for args in (
            ("--state", "tiles", "--p", "0.9"),
            ("--state", "horodecki", "--upsilon", "0.3", "--q", "0.99"),
            ("--state", "max-entangled", "--d", "3"),
            ("--state", "random", "--d", "2", "--seed", "5"),
        ):
            path = tmp_path / f"{args[1]}.json"
            code, out, _ = run(capsys, "gen-state", *args, "--out", str(path))
            assert code == 0
            code, out, _ = run(capsys, "verify-state", "--file", str(path))
            assert code == 0
            assert "status=valid" in out

    def test_verify_state_rejects_corrupt_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "re": [[0.9, 0.2], [0.0, 0.3]],
                    "im": [[0.0, 0.0], [0.0, 0.0]],
                }
            )
        )
        code, out, _ = run(capsys, "verify-state", "--file", str(path))
        assert code == 2
        assert "violation" in out
        assert "status=invalid" in out

    def test_gen_state_requires_dimension(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "gen-state", "--state", "random", "--out", str(tmp_path / "x.json")
        )
        assert code == 1
        assert "--d" in err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, *[])[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_bad_choice(self, capsys):
        assert run(capsys, "bound", "--state", "werner", "--t", "0.01")[0] == 1
