import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mumbounds import basis, criteria, engine, mums
from mumbounds.cli import main
from mumbounds.engine import (
    MAX_SWEEP_STEPS,
    SweepSpec,
    ThresholdQuery,
    UsageError,
    format_value,
    run_sweep,
    run_threshold,
)
from mumbounds.mums import standard_family
from mumbounds.states import StateFileError, load_state, random_density, save_state, tiles_state

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

    @pytest.mark.parametrize("t", ["0", "1e-300", "-1e-154", "0.2", "-0.2"])
    def test_every_query_prints_the_rule_text_of_an_inadmissible_t(self, capsys, tmp_path, t):
        # verify, bound, threshold and a sweep admit t by one rule
        # (engine.checked_t) and print its own text, whichever way t fails
        with pytest.raises(mums.InadmissibleTError) as rule:
            mums.standard_grid(3, float(t))
        csv = tmp_path / "p.csv"
        for argv in (
            ["verify", "--d", "3"],
            ["bound", "--state", "tiles"],
            ["threshold", "--state", "tiles"],
            ["sweep", "--state", "tiles", "--var", "p", "--start", "0", "--stop", "1",
             "--steps", "3", "--out", str(csv)],
        ):
            assert run(capsys, *argv, f"--t={t}") == (1, "", f"usage error: {rule.value}\n"), argv
        assert not csv.exists()

    @pytest.mark.parametrize("t", ["0.1", "0"])
    def test_a_dimension_below_two_is_not_a_t_error(self, capsys, t):
        assert run(capsys, "verify", "--d", "1", "--t", t) == (
            1, "", "error: dimension must be at least 2\n"
        )


class TestKappaAndRange:
    def test_kappa_output(self, capsys):
        code, out, _ = run(capsys, "kappa", "--d", "3", "--t", "0.12")
        assert code == 0
        values = parse_kv(out)
        assert float(values["kappa"]) == pytest.approx(0.548299, abs=1e-6)
        assert float(values["kappa_optimal"]) == pytest.approx(1 / 3 + 2 / 9, abs=1e-12)
        assert values["t_admissible"] == "yes"

    @pytest.mark.parametrize("t", ["1e-300", "1e-154", "0"])
    def test_t_giving_kappa_one_over_d_is_not_admissible(self, capsys, t):
        code, out, _ = run(capsys, "kappa", "--d", "3", "--t", t)
        assert code == 0
        assert parse_kv(out)["t_admissible"] == "no"
        assert run(capsys, "verify", "--d", "3", "--t", t)[0] == 1

    def test_tiny_t_is_admissible(self, capsys, tmp_path):
        # kappa d rounds to 1 at t = 1e-9, but kappa - 1/d does not, and
        # `bound` gives the bound of t = 1e-7 to 1e-12
        assert parse_kv(run(capsys, "kappa", "--d", "3", "--t", "1e-9")[1])["t_admissible"] == "yes"
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "bound", "--state", "tiles", "--t", "1e-9", "--out", str(out))
        assert code == 0, err
        near = criteria.concurrence_lower_bound(tiles_state(), standard_family(3, 1e-7))
        got = json.loads(out.read_text())
        assert got["t"] == 1e-9 and got["verdict"] == "entangled"
        assert abs(got["bound_derived"] - near.bound_derived) <= 1e-12 * near.bound_derived

    @pytest.mark.parametrize("end", [None, "lower", "upper"])
    def test_admissible_t_and_exact_endpoints(self, capsys, t_range_of, end):
        t = 0.05 if end is None else getattr(t_range_of(3), end)
        code, out, _ = run(capsys, "kappa", "--d", "3", f"--t={t!r}")
        assert code == 0
        assert parse_kv(out)["t_admissible"] == "yes"
        assert run(capsys, "verify", "--d", "3", f"--t={t!r}")[0] == 0

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

    def test_small_t_verdict_agrees_with_the_bound(self, capsys):
        # the excess shrinks like kappa d - 1, so an absolute margin of 1e-9
        # called this state undetected while its bound was positive
        code, out, _ = run(capsys, "bound", "--state", "tiles", "--p", "1", "--t", "1e-5")
        assert code == 0
        values = parse_kv(out)
        assert float(values["bound_derived"]) == pytest.approx(0.0555476, rel=1e-5)
        assert values["verdict"] == "entangled"

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

    @pytest.mark.parametrize("variant", ["literal", "derived"])
    def test_variant_chooses_the_headline(self, capsys, tmp_path, variant):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "bound", "--state", "tiles", "--p", "1", "--t", "0.05",
            "--variant", variant, "--out", str(out_path),
        )
        assert code == 0
        values = parse_kv(out)
        assert values["bound_literal"] != values["bound_derived"]
        assert values["bound"] == values[f"bound_{variant}"]
        payload = json.loads(out_path.read_text())
        assert payload["variant"] == variant
        assert payload["bound"] == payload[f"bound_{variant}"]
        for key in ("bound", "bound_literal", "bound_derived"):
            assert format_value(payload[key]) == values[key]

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
        assert "the file family does not take --q" in err

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

    def test_variant_is_not_a_sweep_flag(self, capsys, tmp_path):
        # every sweep row carries both bounds, so there is no headline to choose
        code, _, err = run(
            capsys, "sweep", "--state", "tiles", "--p", "1", "--var", "t",
            "--start", "0.01", "--stop", "0.02", "--steps", "2",
            "--variant", "literal", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 1
        assert "--variant" in err
        assert not (tmp_path / "s.csv").exists()

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

    def test_zero_t_grid_rejected_and_near_zero_evaluated(self, capsys, tmp_path):
        # a grid point at t = 0 is the degenerate family; one at 6.9e-18, the
        # rounding of a grid through zero, is not, and gives the bound of small t
        argv = ["sweep", "--state", "tiles", "--var", "t", "--p", "0.99",
                "--out", str(tmp_path / "x.csv")]
        code, _, err = run(capsys, *argv, "--start", "-0.1", "--stop", "0.1", "--steps", "5")
        assert code == 1
        assert "inadmissible: t = 0.0 gives kappa = 1/d" in err
        code, _, err = run(capsys, *argv, "--start", "-0.05", "--stop", "0.1", "--steps", "7")
        assert code == 0, err
        row = (tmp_path / "x.csv").read_text().splitlines()[3].split(",")
        near = criteria.bound_columns(tiles_state()[None], 1e-7, weights=0.99)
        assert float(row[0]) == pytest.approx(6.938893903907228e-18, rel=1e-11)
        assert float(row[6]) == pytest.approx(near["bound_derived"][0], rel=1e-11)

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

    def test_oversized_steps_rejected_before_the_grid_exists(self, capsys, tmp_path, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("the sweep grid must not be allocated")

        monkeypatch.setattr(np, "linspace", no_grid)
        for steps in (MAX_SWEEP_STEPS + 1, 10**12):
            code, out, err = run(
                capsys, "sweep", "--state", "tiles", "--var", "p",
                "--start", "0", "--stop", "1", "--steps", str(steps),
                "--t", "0.01", "--out", str(tmp_path / "x.csv"),
            )
            assert (code, out) == (1, "")
            assert err == (
                f"usage error: sweep allows at most {MAX_SWEEP_STEPS} steps, got {steps}\n"
            )
        assert not (tmp_path / "x.csv").exists()
        # the limit itself is a valid spec
        SweepSpec("p", 0.0, 1.0, MAX_SWEEP_STEPS, "tiles", fixed={"t": 0.01}).validate()

    def test_inadmissible_t_grid_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--state", "tiles", "--var", "t",
            "--start", "0.0", "--stop", "0.3", "--steps", "4",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "inadmissible" in err

    def test_weight_outside_unit_interval_rejected(self, capsys, tmp_path, monkeypatch):
        # the grid's weights are checked before the state is contracted
        contractions = []
        original = criteria._contract
        monkeypatch.setattr(
            criteria, "_contract", lambda *args: contractions.append(1) or original(*args)
        )
        out = tmp_path / "p.csv"
        code, stdout, err = run(
            capsys, "sweep", "--state", "tiles", "--var", "p", "--start", "-0.1",
            "--stop", "1", "--steps", "12", "--t", "0.05", "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert err == "error: mixing weight -0.1 must lie in [0, 1]\n"
        assert not out.exists() and contractions == []

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

    def test_search_var_is_not_a_flag(self, capsys):
        # each family has one white-noise weight, which is always the one searched
        code, out, err = run(
            capsys, "threshold", "--state", "tiles", "--t", "0.01", "--search-var", "p",
        )
        assert code == 1
        assert out == ""
        assert "--search-var" in err

    def test_weight_the_state_ignores_is_rejected(self):
        for query, allowed in (
            (ThresholdQuery("tiles", 0.05, "q"), "p"),
            (ThresholdQuery("horodecki", 0.01, "p", fixed={"upsilon": 0.2}), "q"),
        ):
            message = rf"not a white-noise weight .*\(allowed: {allowed}\)$"
            with pytest.raises(UsageError, match=message):
                run_threshold(query)

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

    def test_t_zero_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "threshold", "--state", "tiles", "--t", "0",
        )
        assert code == 1
        assert "kappa = 1/d" in err
        # kappa = 1/d at t = 0 for every d, so t is rejected before the state
        # file is read: a missing file is not reached
        missing = str(tmp_path / "missing.json")
        for argv in (
            ("threshold", "--state", "file", "--file", missing, "--t", "0"),
            ("bound", "--state", "file", "--file", missing, "--t", "0"),
            ("sweep", "--state", "file", "--file", missing, "--var", "p", "--start", "0",
             "--stop", "1", "--steps", "3", "--t", "0", "--out", str(tmp_path / "x.csv")),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err == (
                "usage error: t = 0.0 gives kappa = 1/d, which is not a mutually "
                "unbiased measurement\n"
            ), argv

    def test_inadmissible_t_rejected(self, capsys):
        code, _, err = run(
            capsys, "threshold", "--state", "horodecki", "--upsilon", "0.2", "--t", "0.5",
        )
        assert code == 1


class TestIgnoredParameters:
    """A state parameter that the family does not take is a usage error, not
    echoed and then ignored: tiles takes p, horodecki q and upsilon, a file
    p, random and max-entangled none.  So is a value for the variable
    that a sweep varies or a threshold searches."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("bound", "--state", "tiles", "--p", "0.99", "--q", "0.3", "--upsilon", "0.5",
              "--t", "0.05"), ("--q", "--upsilon")),
            (("bound", "--state", "file", "--file", "{tmp}/mixed.json", "--upsilon", "0.5",
              "--t", "0.05"), ("--upsilon",)),
            (("sweep", "--state", "horodecki", "--upsilon", "0.2", "--p", "0.9", "--var", "q",
              "--start", "0", "--stop", "1", "--steps", "3", "--t", "0.01",
              "--out", "{tmp}/out"), ("--p",)),
            (("threshold", "--state", "tiles", "--q", "0.3", "--t", "0.05"), ("--q",)),
            (("bound", "--state", "file", "--file", "{tmp}/mixed.json", "--q", "0.5",
              "--t", "0.05"), ("the file family does not take --q",)),
            (("sweep", "--state", "file", "--file", "{tmp}/mixed.json", "--q", "0.5",
              "--var", "p", "--start", "0", "--stop", "1", "--steps", "3", "--t", "0.05",
              "--out", "{tmp}/out"), ("the file family does not take --q",)),
            (("threshold", "--state", "file", "--file", "{tmp}/mixed.json", "--q", "0.5",
              "--t", "0.05"), ("the file family does not take --q",)),
            (("gen-state", "--state", "horodecki", "--upsilon", "0.3", "--p", "0.9",
              "--out", "{tmp}/out"), ("--p",)),
            (("gen-state", "--state", "random", "--d", "3", "--p", "0.5", "--upsilon", "0.2",
              "--out", "{tmp}/out"), ("--p", "--upsilon")),
            (("gen-state", "--state", "max-entangled", "--d", "3", "--q", "0.5",
              "--out", "{tmp}/out"), ("--q",)),
            (("gen-state", "--state", "tiles", "--p", "0.9", "--d", "5", "--out", "{tmp}/out"),
             ("the tiles family does not take --d",)),
            (("gen-state", "--state", "horodecki", "--upsilon", "0.3", "--q", "0.9", "--d", "3",
              "--seed", "2", "--out", "{tmp}/out"),
             ("the horodecki family does not take --d, --seed",)),
            (("gen-state", "--state", "max-entangled", "--d", "3", "--seed", "1",
              "--out", "{tmp}/out"), ("the max-entangled family does not take --seed",)),
            (("threshold", "--state", "tiles", "--p", "0.5", "--t", "0.05"),
             ("--p is the searched variable",)),
            (("threshold", "--state", "horodecki", "--upsilon", "0.2", "--q", "0.5",
              "--t", "0.05"), ("--q is the searched variable",)),
            (("sweep", "--state", "tiles", "--var", "p", "--p", "0.5", "--start", "0",
              "--stop", "1", "--steps", "3", "--t", "0.05", "--out", "{tmp}/out"),
             ("--p is the swept variable",)),
            (("sweep", "--state", "tiles", "--p", "0.9", "--var", "t", "--t", "0.05",
              "--start", "0.01", "--stop", "0.1", "--steps", "3", "--out", "{tmp}/out"),
             ("--t is the swept variable",)),
            (("bound", "--state", "tiles", "--file", "{tmp}/missing.json", "--t", "0.05"),
             ("usage error: the tiles family does not take --file\n",)),
            (("sweep", "--state", "tiles", "--file", "{tmp}/mixed.json", "--var", "p",
              "--start", "0", "--stop", "1", "--steps", "3", "--t", "0.05",
              "--out", "{tmp}/out"), ("usage error: the tiles family does not take --file\n",)),
            (("threshold", "--state", "horodecki", "--upsilon", "0.2", "--p", "0.5",
              "--file", "{tmp}/missing.json", "--t", "0.05"),
             ("usage error: the horodecki family does not take --p, --file\n",)),
        ],
        ids=["bound", "bound-file", "sweep", "threshold", "bound-file-q", "sweep-file-q",
             "threshold-file-q", "gen-state", "gen-state-random",
             "gen-state-max-entangled", "gen-state-tiles-d", "gen-state-horodecki-d-seed",
             "gen-state-max-entangled-seed", "threshold-searched-p", "threshold-searched-q",
             "sweep-swept-p", "sweep-swept-t", "bound-tiles-file", "sweep-tiles-file",
             "threshold-horodecki-p-file"],
    )
    def test_rejected_and_named(self, capsys, tmp_path, argv, named):
        save_state(np.eye(9) / 9.0, tmp_path / "mixed.json")
        code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert code == 1
        assert out == ""
        assert all(name in err for name in named)
        assert not (tmp_path / "out").exists()

    def test_a_file_for_a_built_in_state_is_rejected_in_code(self, tmp_path):
        # the specs reach the same check as the CLI, before the file is read
        missing = str(tmp_path / "missing.json")
        for query in (
            lambda: run_sweep(SweepSpec("t", 0.01, 0.05, 3, "tiles", file=missing)),
            lambda: run_sweep(SweepSpec("q", 0.0, 1.0, 3, "horodecki",
                                        fixed={"t": 0.05, "upsilon": 0.2}, file=missing)),
            lambda: run_threshold(ThresholdQuery("tiles", 0.05, "p", file=missing)),
        ):
            with pytest.raises(UsageError, match=r"family does not take --file$"):
                query()


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


def _clear_family_memos():
    mums._standard_blocks.cache_clear()
    criteria._frame_rows.cache_clear()


def test_cold_queries_make_no_gram_check(capsys, monkeypatch, tmp_path):
    # the Gell-Mann generators are orthonormal by construction and held by
    # tests/test_basis.py; only generators that a caller supplies pass
    # through partition_basis and its Gram product
    state = tmp_path / "mixed4.json"
    save_state(random_density(16, seed=5), state)
    sweep = tmp_path / "sweep.csv"
    commands = [
        ("bound", "--state", "tiles", "--t", "0.05"),
        ("threshold", "--state", "file", "--file", str(state), "--t", "0.03"),
        ("sweep", "--state", "file", "--file", str(state), "--var", "t",
         "--start", "0.01", "--stop", "0.06", "--steps", "6", "--out", str(sweep)),
        ("kappa", "--d", "5", "--t", "0.01"),
        ("t-range", "--d", "5"),
    ]

    def outputs(argv):
        _clear_family_memos()
        sweep.unlink(missing_ok=True)
        code, out, err = run(capsys, *argv)
        return code, out, err, sweep.read_bytes() if sweep.exists() else None

    usual = [outputs(argv) for argv in commands]
    assert [code for code, *_ in usual] == [0] * len(commands)

    def refuse(*args, **kwargs):
        raise AssertionError("a query called partition_basis")

    monkeypatch.setattr(basis, "partition_basis", refuse)
    try:
        for argv, expected in zip(commands, usual):
            assert outputs(argv) == expected, argv
    finally:
        _clear_family_memos()


def test_bound_and_sweeps_build_no_family(capsys, monkeypatch, tmp_path):
    # bound and every sweep read only a checked t: their output and CSV
    # bytes are unchanged when no family can be built
    sweep = tmp_path / "sweep.csv"
    tail = ("--out", str(sweep))
    commands = [
        ("bound", "--state", "tiles", "--t", "0.05"),
        ("bound", "--state", "horodecki", "--upsilon", "0.3", "--q", "0.99", "--t", "-0.05"),
        ("sweep", "--state", "tiles", "--p", "0.99", "--var", "t", "--start", "-0.09",
         "--stop", "0.1", "--steps", "21", *tail),
        ("sweep", "--state", "tiles", "--var", "p", "--start", "0.8", "--stop", "1",
         "--steps", "11", "--t", "0.05", *tail),
        ("sweep", "--state", "horodecki", "--upsilon", "0.2", "--var", "q", "--start", "0",
         "--stop", "1", "--steps", "11", "--t", "0.01", *tail),
        ("sweep", "--state", "horodecki", "--q", "0.995", "--t", "0.08", "--var", "upsilon",
         "--start", "0", "--stop", "1", "--steps", "11", *tail),
    ]

    def outputs(argv):
        _clear_family_memos()
        sweep.unlink(missing_ok=True)
        code, out, err = run(capsys, *argv)
        return code, out, err, sweep.read_bytes() if sweep.exists() else None

    usual = [outputs(argv) for argv in commands]
    assert [code for code, *_ in usual] == [0] * len(commands)

    def refuse(*args, **kwargs):
        raise AssertionError("a bound or sweep built a family")

    monkeypatch.setattr(engine, "standard_family", refuse)
    monkeypatch.setattr(mums, "MumFamily", refuse)
    try:
        for argv, expected in zip(commands, usual):
            assert outputs(argv) == expected, argv
    finally:
        _clear_family_memos()


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

    def test_queries_reject_an_invalid_density_file(self, capsys, tmp_path):
        # the check inside load_state is each query's one check: it names
        # the path and exits 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 4, "re": np.diag([1.2, -0.2, 0.0, 0.0]).tolist(),
                                    "im": np.zeros((4, 4)).tolist()}))
        for argv in (
            ("bound", "--state", "file", "--file", str(path), "--t", "0.05"),
            ("sweep", "--state", "file", "--file", str(path), "--var", "p",
             "--start", "0", "--stop", "1", "--steps", "3", "--t", "0.05",
             "--out", str(tmp_path / "sweep.csv")),
            ("threshold", "--state", "file", "--file", str(path), "--t", "0.05"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: {path}: invalid density matrix: negative eigenvalue -2.000e-01\n"
        assert not (tmp_path / "sweep.csv").exists()

    # strict JSON: literals and commas that json.loads once accepted, and bytes
    # that are not UTF-8, are not valid JSON
    @pytest.mark.parametrize("text", [
        b'{"dim": 2, "re": [[NaN, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}',
        b'{"dim": 2, "re": [[Infinity, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}',
        b'{"dim": 2, "re": [[-Infinity, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}',
        b'{"dim": 2, "re": [[0.5, 0], [0, 0.5],], "im": [[0, 0], [0, 0]]}',
        b'{"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]],}',
        b'{"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]], "note": "\xff"}',
    ], ids=["nan", "infinity", "minus-infinity", "trailing-comma-list",
            "trailing-comma-object", "invalid-utf8"])
    def test_malformed_file_is_invalid_json(self, capsys, tmp_path, text):
        path = tmp_path / "malformed.json"
        path.write_bytes(text)
        with pytest.raises(StateFileError, match="not valid JSON") as caught:
            load_state(path)
        assert str(caught.value).startswith(f"{path}: ")
        code, out, _ = run(capsys, "verify-state", "--file", str(path))
        assert code == 2
        assert f"violation: {path}: not valid JSON" in out
        assert out.splitlines()[-1] == "status=invalid"

    # well-formed JSON that is not a state file: the top level must be an
    # object, dim an integer that is not a bool, re and im rectangles of numbers
    @pytest.mark.parametrize("text, message", [
        (b'"dim re im"', "the top level must be an object"),
        (b'[2, [[1, 0], [0, 0]], [[0, 0], [0, 0]]]', "the top level must be an object"),
        (b'{"dim": 2, "re": "ab", "im": [[0, 0], [0, 0]]}', "must be rectangular arrays"),
        (b'{"dim": 2, "re": [["ab", 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}', "re and im must be"),
        (b'{"dim": 2, "re": [["0.5", 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}', "re and im must be"),
        (b'{"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, null], [0, 0]]}', "re and im must be"),
        (b'{"dim": 2, "re": [[true, 0], [0, false]], "im": [[0, 0], [0, 0]]}', "re and im must be"),
        (b'{"dim": 2, "re": [[true, 0], [0, 0]], "im": [[0, 0], [0, 0]]}', "re and im must be"),
        (b'{"dim": 2, "re": [[0.5, 0], [0]], "im": [[0, 0], [0, 0]]}', "re and im must be"),
        (b'{"dim": "two", "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}', "dim must be"),
        (b'{"dim": 1.5, "re": [[1]], "im": [[0]]}', "dim must be an integer, got 1.5"),
        (b'{"dim": true, "re": [[1]], "im": [[0]]}', "dim must be an integer, got True"),
    ], ids=["string", "list", "re-string", "entry-string", "entry-numeric-string",
            "entry-null", "entries-bool", "entry-bool-among-numbers", "ragged",
            "dim-string", "dim-float", "dim-bool"])
    def test_malformed_state_file_is_invalid(self, capsys, tmp_path, text, message):
        path = tmp_path / "malformed.json"
        path.write_bytes(text)
        with pytest.raises(StateFileError, match=re.escape(message)) as caught:
            load_state(path)
        assert str(caught.value).startswith(f"{path}: ")
        code, out, _ = run(capsys, "verify-state", "--file", str(path))
        assert code == 2
        assert f"violation: {path}: " in out
        assert out.splitlines()[-1] == "status=invalid"
        code, _, err = run(capsys, "bound", "--state", "file", "--file", str(path), "--t", "0.05")
        assert code == 2
        assert f"error: {path}: " in err

    def test_random_state_seed_defaults_to_zero(self, capsys, tmp_path):
        written = []
        for seed in ((), ("--seed", "0"), ("--seed", "1")):
            path = tmp_path / f"random{len(written)}.json"
            code, _, err = run(capsys, "gen-state", "--state", "random", "--d", "2", *seed,
                               "--out", str(path))
            assert code == 0, err
            written.append(path.read_bytes())
        assert written[0] == written[1] != written[2]

    def test_gen_state_requires_dimension(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "gen-state", "--state", "random", "--out", str(tmp_path / "x.json")
        )
        assert code == 1
        assert "--d" in err

    @pytest.mark.parametrize("state", ["random", "max-entangled"])
    @pytest.mark.parametrize("d", ["1", "0", "-3"])
    def test_gen_state_rejects_a_dimension_below_two(self, capsys, tmp_path, state, d):
        path = tmp_path / "x.json"
        code, out, err = run(capsys, "gen-state", "--state", state, "--d", d, "--out", str(path))
        assert code == 1
        assert out == ""
        assert "dimension must be at least 2" in err
        assert not path.exists()


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, *[])[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("t-range", "--d", "20000"),
            ("kappa", "--d", "20000", "--t", "0.001"),
            ("verify", "--d", "20000", "--t", "0.001"),
            ("gen-state", "--state", "random", "--d", "20000", "--out", "{tmp}/x.json"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_dimension_too_large_to_allocate_is_an_error(self, capsys, tmp_path, argv):
        # d = 20000 asks for at least 1 EiB, more than any address space, so
        # the first allocation is refused at once; no smaller d is safe here
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "EiB" in err
        assert not (tmp_path / "x.json").exists()

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_bad_choice(self, capsys):
        assert run(capsys, "bound", "--state", "werner", "--t", "0.01")[0] == 1
