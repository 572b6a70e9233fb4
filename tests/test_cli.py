import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from alohagame import chain_matrix, fully_connected_matrix, save_topology
from alohagame.cli import main


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

    def test_varying_both_axes_rejected(self, capsys):
        assert main(["sweep", "--n", "4,6", "--density", "0.2,0.3", "--trials", "1"]) == 1

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
