import csv
import inspect
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from alohagame import (
    Game,
    chain_matrix,
    dynamics,
    experiments,
    fit_power_law,
    fully_connected_matrix,
    iterate_game,
    krasovskii_verdict,
    save_topology,
    solver,
    stability,
)
from alohagame.cli import main, parse_args
from conftest import instance_rng, random_game, record_calls
from reference import ascent_cli_lines


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain3.txt"
    save_topology(path, chain_matrix(3))
    return str(path)


class TestSolve:
    def test_stable_instance(self, chain_file, capsys):
        code = main(["solve", "--topology", chain_file, "--rates", "0.15,0.15,0.15"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "NE=[0.1952,0.2316,0.1952] stable=true"

    def test_broadcast_single_rate(self, chain_file, capsys):
        code = main(["solve", "--topology", chain_file, "--rates", "0.15"])
        assert code == 0
        assert "NE=" in capsys.readouterr().out

    def test_infeasible_exits_two(self, chain_file, capsys):
        code = main(["solve", "--topology", chain_file, "--rates", "0.15,0.30,0.15"])
        assert code == 2
        assert capsys.readouterr().out.strip() == "infeasible"

    def test_rates_file(self, chain_file, tmp_path, capsys):
        rates = tmp_path / "rates.txt"
        rates.write_text("0.15\n0.15\n0.15\n")
        code = main(["solve", "--topology", chain_file, "--rates-file", str(rates)])
        assert code == 0

    def test_trajectory_output(self, chain_file, tmp_path, capsys):
        out_csv = tmp_path / "run.csv"
        main(["solve", "--topology", chain_file, "--rates", "0.15", "--output", str(out_csv)])
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "q_1", "q_2", "q_3"]
        assert len(rows) > 2

    def test_output_runs_the_ascent_once(self, chain_file, tmp_path, capsys, monkeypatch):
        ascents = []
        recorded = dynamics.iterate_game

        def counted(*args, **kwargs):
            ascents.append(args)
            return recorded(*args, **kwargs)

        monkeypatch.setattr(dynamics, "iterate_game", counted)
        out_csv = tmp_path / "run.csv"
        code = main(["solve", "--topology", chain_file, "--rates", "0.15", "--output", str(out_csv)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "NE=[0.1952,0.2316,0.1952] stable=true"
        assert len(ascents) == 1
        expected = tmp_path / "expected.csv"
        iterate_game(np.zeros(3), Game(chain_matrix(3), [0.15] * 3), tol=solver.DEFAULT_TOL).to_csv(expected)
        assert out_csv.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("args", [["--rates", "0.15,0.30,0.15"], ["--rates", "0.15", "--max-iter", "5"]])
    def test_output_keeps_the_infeasible_verdict(self, chain_file, tmp_path, args, capsys):
        # An escalation to all-ones is infeasible with and without the
        # trajectory. The budget bounds only the recorded ascent, so
        # without --output it changes nothing.
        budget = "--max-iter" in args
        verdict = "budget_exhausted" if budget else "infeasible"
        plain = main(["solve", "--topology", chain_file, *args])
        expected = (0, "NE=[0.1952,0.2316,0.1952] stable=true\n") if budget else (2, "infeasible\n")
        assert (plain, capsys.readouterr().out) == expected
        code = main(["solve", "--topology", chain_file, *args, "--output", str(tmp_path / "run.csv")])
        assert (code, capsys.readouterr().out) == (2, f"{verdict}\n")

    def test_pair_fold_is_not_stable(self, tmp_path, capsys):
        # The pair's least fixed point at 0.25 is the double root
        # (0.5, 0.5), where the certificate [[2, -2], [-2, 2]] is
        # singular. Newton stops just below it, where the certificate is
        # still positive definite; the decision at a proven upper
        # bracket is not, so the point's verdict is critical.
        path = tmp_path / "pair.txt"
        save_topology(path, chain_matrix(2))
        code = main(["solve", "--topology", str(path), "--rates", "0.25"])
        assert (code, capsys.readouterr().out) == (2, "NE=[0.5000,0.5000] stable=false\n")
        code = main(["stability", "--topology", str(path), "--rates", "0.25"])
        out = capsys.readouterr().out
        assert code == 2 and " stable=false classification=critical " in out
        # a loose tolerance stops the recorded ascent far below the
        # fold, and the verdict stays
        run = ["solve", "--topology", str(path), "--rates", "0.25", "--tol", "1e-3"]
        code = main([*run, "--output", str(tmp_path / "run.csv")])
        assert (code, capsys.readouterr().out) == (2, "NE=[0.5000,0.5000] stable=false\n")

    @pytest.mark.parametrize("command", ["solve", "stability"])
    def test_one_newton_solve(self, chain_file, command, monkeypatch, capsys):
        probes = record_calls(monkeypatch, experiments, "_newton_rows")
        solves = record_calls(monkeypatch, solver, "_newton_rows")
        assert main([command, "--topology", chain_file, "--rates", "0.15"]) == 0
        assert "[0.1952,0.2316,0.1952] stable=true" in capsys.readouterr().out
        assert (len(probes), len(solves)) == (1, 0)

    @pytest.mark.parametrize(
        "rates, verdict",
        [("0.15,0.15,0.15", "budget_exhausted"), ("1.0,0.1", "infeasible"), ("0.3,0.3", "budget_exhausted")],
    )
    def test_infeasible_is_told_from_budget_exhausted(self, tmp_path, rates, verdict, monkeypatch, capsys):
        # with one Newton step, chain3 at 0.15 and the pair at 0.3 are
        # unsolved, and only the pair at (1.0, 0.1) is proven infeasible
        monkeypatch.setattr(experiments, "DEFAULT_MAX_ITER", 1)
        path = tmp_path / "game.txt"
        save_topology(path, chain_matrix(len(rates.split(","))))
        for command in ("solve", "stability"):
            assert main([command, "--topology", str(path), "--rates", rates]) == 2
            assert capsys.readouterr().out == f"{verdict}\n"

    def test_complete_graph_edge_is_not_stable(self, tmp_path, capsys):
        # K5 at its certificate edge (1/5)(4/5)^4, where the least fixed
        # point (0.2, ..., 0.2) has a singular certificate
        path = tmp_path / "k5.txt"
        save_topology(path, fully_connected_matrix(5))
        rates = repr(0.2 * 0.8**4)
        code = main(["solve", "--topology", str(path), "--rates", rates])
        assert (code, capsys.readouterr().out) == (2, "NE=[0.2000,0.2000,0.2000,0.2000,0.2000] stable=false\n")
        code = main(["stability", "--topology", str(path), "--rates", rates])
        out = capsys.readouterr().out
        assert code == 2 and " stable=false classification=critical " in out

    @pytest.mark.parametrize("command", ["solve", "stability"])
    def test_no_ascent_without_output(self, chain_file, command, monkeypatch, capsys):
        def ascent(*args, **kwargs):
            raise AssertionError(f"{command} ran a best-response ascent")

        monkeypatch.setattr(dynamics, "iterate_game", ascent)
        monkeypatch.setattr(solver, "_best_responses", ascent)
        monkeypatch.setattr(dynamics, "_best_responses", ascent)
        assert main([command, "--topology", chain_file, "--rates", "0.15"]) == 0
        assert "[0.1952,0.2316,0.1952] stable=true" in capsys.readouterr().out

    def test_zero_budget_with_output_writes_nothing(self, chain_file, tmp_path, capsys):
        out_csv = tmp_path / "run.csv"
        code = main(["solve", "--topology", chain_file, "--rates", "0.15", "--max-iter", "0", "--output", str(out_csv)])
        assert code == 1
        assert "max_iter must be at least 1" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "geometry, message",
        [
            (["--side", "nan"], "side must be positive and finite"),
            (["--side", "inf"], "side must be positive and finite"),
            (["--density", "nan"], "density must be positive and finite"),
        ],
    )
    def test_nonfinite_geometry_is_an_error(self, geometry, message, capsys):
        code = main(["solve", "--n", "5", *geometry, "--rates", "0.1"])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_nan_tolerance_is_an_error(self, chain_file, capsys):
        code = main(["solve", "--topology", chain_file, "--rates", "0.15", "--tol", "nan"])
        assert code == 1
        assert "tol must be positive" in capsys.readouterr().err

    def test_rate_count_mismatch_is_an_error(self, chain_file, capsys):
        code = main(["solve", "--topology", chain_file, "--rates", "0.1,0.1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, capsys):
        code = main(["solve", "--topology", "/nonexistent.txt", "--rates", "0.1"])
        assert code == 1

    def test_generated_topology(self, capsys):
        code = main(["solve", "--n", "6", "--density", "0.3", "--seed", "5", "--rates", "0.01"])
        assert code in (0, 2)
        assert capsys.readouterr().out


def test_solve_and_stability_print_what_the_ascent_gave(tmp_path, capsys):
    # Newton's point and the bracket's decision print the lines that a
    # CLI reading its point from the ascent printed, on random games
    # away from folds: stable, unstable and infeasible ones
    path = tmp_path / "game.txt"
    for i in range(300):
        game = random_game(instance_rng(777, i), n_max=6)
        save_topology(path, game.matrix)
        rates = ",".join(repr(float(y)) for y in game.rates)
        lines = []
        for command in ("solve", "stability"):
            main([command, "--topology", str(path), "--rates", rates])
            lines.append(capsys.readouterr().out.rstrip("\n"))
        assert tuple(lines) == ascent_cli_lines(game), i


class TestRejectedInputs:
    """Inputs the library refuses: exit 1 with its message on stderr, and no --output file."""

    CHAIN = "<chain3 file>"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["solve", "--topology", CHAIN, "--rates", "0.15", "--tol", "inf"], "tol must be positive and finite"),
            (
                ["stability", "--topology", CHAIN, "--rates", "0.15", "--point", "0.9,0.1,0.9", "--fp-tol", "inf"],
                "fp_tol must be positive and finite",
            ),
            (["simulate", "--topology", CHAIN, "--rates", "0.15", "--tol", "inf"], "tol must be positive and finite"),
            (
                ["simulate", "--topology", CHAIN, "--rates", "0.15", "--ode", "--tol", "inf"],
                "tol must be positive and finite",
            ),
            (["simulate", "--topology", CHAIN, "--rates", "0.15", "--max-iter", "-5"], "max_iter must be at least 1"),
            (["solve", "--n", "-3", "--density", "0.1", "--rates", "0.1"], "n must be at least 1"),
        ],
    )
    def test_exits_one_and_writes_nothing(self, chain_file, tmp_path, args, message, capsys):
        argv = [chain_file if a == self.CHAIN else a for a in args]
        out_csv = tmp_path / "out.csv"
        # stability writes no file; the others run with and without --output
        runs = [argv] if argv[0] == "stability" else [argv, [*argv, "--output", str(out_csv)]]
        for run_argv in runs:
            assert main(run_argv) == 1
            assert message in capsys.readouterr().err
        assert not out_csv.exists()


class TestUsageErrors:
    def test_both_sources_rejected(self, chain_file, capsys):
        code = main(["solve", "--topology", chain_file, "--n", "5", "--side", "3", "--rates", "0.1"])
        assert code == 1

    def test_no_source_rejected(self, capsys):
        assert main(["solve", "--rates", "0.1"]) == 1

    def test_side_and_density_both_rejected(self, capsys):
        assert main(["solve", "--n", "5", "--side", "3", "--density", "0.1", "--rates", "0.1"]) == 1

    def test_missing_rates_rejected(self, chain_file, capsys):
        assert main(["solve", "--topology", chain_file]) == 1

    def test_unknown_command_rejected(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "command", ["solve", "stability", "simulate", "bifurcate", "feasible", "sweep", "fit"]
    )
    def test_help_shows_defaults(self, command, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "usage" in out
        assert "default" in out


class TestDefaults:
    # the shortest argument list each command accepts; parsing reads no file
    ARGV = {
        "solve": ["solve", "--topology", "t.txt", "--rates", "0.1"],
        "simulate": ["simulate", "--topology", "t.txt", "--rates", "0.1"],
        "bifurcate": ["bifurcate", "--topology", "t.txt", "--rates", "0.1"],
        "feasible": ["feasible", "--topology", "t.txt"],
        "sweep": ["sweep"],
        "stability": ["stability", "--topology", "t.txt", "--rates", "0.1"],
        "fit": ["fit", "--input", "r.csv"],
    }

    @pytest.mark.parametrize(
        "command, dest, constant",
        [
            ("solve", "tol", solver.DEFAULT_TOL),
            ("solve", "max_iter", solver.DEFAULT_MAX_ITER),
            ("simulate", "tol", dynamics.DEFAULT_TOL),
            ("simulate", "max_iter", dynamics.DEFAULT_MAX_ITER),
            ("simulate", "dt", dynamics.DEFAULT_DT),
            ("simulate", "t_end", dynamics.DEFAULT_T_END),
            ("bifurcate", "step", experiments.RATE_STEP),
            ("feasible", "step", experiments.RATE_STEP),
            ("sweep", "step", experiments.RATE_STEP),
            ("stability", "fp_tol", stability.DEFAULT_FP_TOL),
            ("fit", "break_x", experiments.DEFAULT_BREAK_X),
        ],
    )
    def test_default_is_the_library_constant(self, command, dest, constant):
        assert getattr(parse_args(self.ARGV[command]), dest) == constant

    @pytest.mark.parametrize(
        "function, param, constant",
        [
            (krasovskii_verdict, "fp_tol", stability.DEFAULT_FP_TOL),
            (fit_power_law, "break_x", experiments.DEFAULT_BREAK_X),
        ],
    )
    def test_signature_default_is_the_constant(self, function, param, constant):
        assert inspect.signature(function).parameters[param].default == constant


class TestStability:
    def test_saddle_point_unstable(self, chain_file, capsys):
        code = main(
            [
                "stability",
                "--topology",
                chain_file,
                "--rates",
                "0.15",
                "--point",
                "0.5451,0.7248,0.5451",
                "--fp-tol",
                "1e-3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "stable=false" in out and "minors=" in out

    def test_default_point_is_the_equilibrium(self, chain_file, capsys):
        code = main(["stability", "--topology", chain_file, "--rates", "0.15"])
        assert code == 0
        assert "stable=true" in capsys.readouterr().out


class TestSimulate:
    def test_cycle_run(self, chain_file, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        code = main(
            [
                "simulate",
                "--topology",
                chain_file,
                "--rates",
                "0.15",
                "--q0",
                "0.5451,0.7248,0.5451",
                "--perturb",
                "1e-6",
                "--output",
                str(out_csv),
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "outcome=cycle" in out and "period=2" in out
        assert out_csv.exists()

    def test_converged_run(self, chain_file, capsys):
        code = main(["simulate", "--topology", chain_file, "--rates", "0.15", "--q0", "zeros"])
        assert code == 0
        assert "outcome=converged" in capsys.readouterr().out

    def test_ode_run(self, chain_file, capsys):
        code = main(["simulate", "--topology", chain_file, "--rates", "0.15", "--q0", "zeros", "--ode"])
        assert code == 0
        assert "outcome=converged" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--ode", "--t-end", "inf"], "t_end must be nonnegative and finite"),
            (["--ode", "--dt", "nan"], "dt must be positive and finite"),
            (["--ode", "--q0", "nan,0,0"], "q0 must be finite"),
            (["--ode", "--tol", "nan"], "tol must be positive"),
            (["--perturb", "nan"], "q0 + perturb must be finite"),
            (["--q0", "nan,0,0"], "q0 + perturb must be finite"),
            (["--ode", "--dt", "1e-320"], "dt must split t_end into a finite number of steps"),
        ],
    )
    def test_nonfinite_input_is_an_error(self, chain_file, args, message, capsys):
        code = main(["simulate", "--topology", chain_file, "--rates", "0.15", *args])
        assert code == 1
        assert message in capsys.readouterr().err


class TestBifurcate:
    def test_reports_critical_value(self, chain_file, tmp_path, capsys):
        out_csv = tmp_path / "branch.csv"
        code = main(
            [
                "bifurcate",
                "--topology",
                chain_file,
                "--rates",
                "0.15",
                "--vary",
                "2",
                "--min",
                "0.24",
                "--max",
                "0.25",
                "--output",
                str(out_csv),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "critical_value=0.2450" in out
        with open(out_csv, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["y2", "branch_id", "q1", "q2", "q3", "stable"]

    def test_bad_vary_index(self, chain_file, capsys):
        assert main(["bifurcate", "--topology", chain_file, "--rates", "0.15", "--vary", "9"]) == 1

    def test_a_step_of_more_than_a_million_values_is_an_error(self, chain_file, capsys):
        assert main(["bifurcate", "--topology", chain_file, "--rates", "0.15", "--step", "1e-12"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("alohagame: error: step 1e-12 over (0, 0.3) asks for 3e+11 values")


class TestFeasible:
    def test_writes_surface(self, chain_file, tmp_path, capsys):
        out_csv = tmp_path / "surface.csv"
        code = main(
            [
                "feasible",
                "--topology",
                chain_file,
                "--y1",
                "0.1,0.15",
                "--y3",
                "0.1,0.15",
                "--output",
                str(out_csv),
            ]
        )
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y1", "y3", "max_y2"]
        assert len(rows) == 5

    @pytest.mark.parametrize("step", ["0", "-0.001", "nan", "inf"])
    def test_invalid_search_step_is_an_error(self, chain_file, step, capsys):
        code = main(["feasible", "--topology", chain_file, "--y1", "0.1", "--y3", "0.1", "--step", step])
        assert code == 1
        assert "step must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:0.3:0", "0:0.3:-0.05", "0:0.3:nan", "0:0.3", "0:0.1:0.05:1", "0.3:0:0.05"])
    @pytest.mark.parametrize("option", ["--y1", "--y3"])
    def test_invalid_grid_is_an_error(self, chain_file, option, grid, capsys):
        code = main(["feasible", "--topology", chain_file, option, grid])
        assert code == 1
        assert repr(grid) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grids, asked",
        [
            (["--y1", "0:1:1e-9"], "1e+09"),
            (["--y3", "0:1:1e-300"], "1e+300"),
            (["--y1", "0:1:1e-3", "--y3", "0:1:1e-3"], "1.002e+06"),
        ],
    )
    def test_grid_of_more_than_a_million_values_is_an_error(self, chain_file, grids, asked, capsys):
        # refused from the range and the step, before the grid is built
        tracemalloc.start()
        try:
            code = main(["feasible", "--topology", chain_file, *grids])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 2**23
        assert f"asks for {asked} values; a grid holds at most 1e+06" in capsys.readouterr().err

    def test_grid_without_a_stable_cell(self, chain_file, capsys):
        # outer rates of 1 leave no stable middle rate in any cell
        code = main(["feasible", "--topology", chain_file, "--y1", "1.0", "--y3", "1.0"])
        assert (code, capsys.readouterr().out) == (0, "grid=1x1 max_y2_range=none\n")


class TestSweepAndFit:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["sweep", "--n", "8", "--density", "0.2,0.6", "--trials", "3", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "density=0.2" in capsys.readouterr().out

    def test_size_mode_with_baseline(self, tmp_path, capsys):
        records = tmp_path / "rec.csv"
        base = tmp_path / "base.csv"
        code = main(
            [
                "sweep",
                "--n",
                "4,6",
                "--density",
                "0.3",
                "--trials",
                "2",
                "--seed",
                "3",
                "--fully-connected",
                "--output",
                str(records),
                "--baseline-output",
                str(base),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "baseline n=4" in out and "baseline n=6" in out
        assert base.exists()

    def test_step_finer_than_the_grid_is_an_error(self, capsys):
        assert main(["sweep", "--n", "4", "--trials", "1", "--step", "1e-320"]) == 1
        assert capsys.readouterr().err.startswith("alohagame: error: step ")

    def test_varying_both_axes_rejected(self, capsys):
        assert main(["sweep", "--n", "4,6", "--density", "0.2,0.3", "--trials", "1"]) == 1

    @pytest.mark.parametrize("counts", ["2.7", "4,6.5", "inf", "nan"])
    def test_non_integer_player_count_rejected(self, counts, capsys):
        assert main(["sweep", "--n", counts, "--trials", "1"]) == 1
        assert "--n expects whole player counts" in capsys.readouterr().err

    def test_fit_round_trip(self, tmp_path, capsys):
        records = tmp_path / "rec.csv"
        main(["sweep", "--n", "8", "--density", "0.2,0.8,3.0", "--trials", "4", "--seed", "2", "--output", str(records)])
        capsys.readouterr()
        code = main(["fit", "--input", str(records)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("c=") + out.count("unfitted") == 2

    def test_fit_synthetic_exact(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["connectivity", "total_throughput"])
            for x in (0.01, 0.05, 0.2, 0.5, 1.0):
                writer.writerow([x, 2.0 * x**-1.0])
        code = main(["fit", "--input", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "low: c=2.0000 e=-1.0000" in out
        assert "high: c=2.0000 e=-1.0000" in out

    def test_fit_drops_the_rows_the_fit_rejects(self, tmp_path, capsys):
        finite = "connectivity,total_throughput\n0.01,200\n0.05,40\n0.2,10\n0.5,4\n"
        clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
        clean.write_text(finite)
        dirty.write_text(finite + "inf,1\n0.3,nan\n")
        assert main(["fit", "--input", str(clean)]) == 0
        expected = capsys.readouterr()
        assert main(["fit", "--input", str(dirty)]) == 0
        out, err = capsys.readouterr()
        assert (out, expected.err) == (expected.out, "")
        assert "dropped 2 nonpositive or nonfinite rows" in err

    def test_fit_nan_break_rejected(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("connectivity,total_throughput\n0.05,1\n0.2,2\n0.5,3\n")
        assert main(["fit", "--input", str(path), "--break-x", "nan"]) == 1
        assert "break_x must not be NaN" in capsys.readouterr().err

    def test_fit_missing_column(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["fit", "--input", str(path)]) == 1


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        topo = tmp_path / "pair.txt"
        save_topology(topo, fully_connected_matrix(2))
        proc = subprocess.run(
            [sys.executable, "-m", "alohagame.cli", "solve", "--topology", str(topo), "--rates", "0.2"],
            capture_output=True,
            text=True,
            # import the package from where this process imported it
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("NE=[0.2764,0.2764]")

    def test_import_loads_no_scipy(self):
        # scipy is a test-only dependency: the library and the CLI run on numpy alone
        code = "import sys, alohagame.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
