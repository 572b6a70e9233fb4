"""The package's public names and the exact bytes of its CSV files."""

import ast
from pathlib import Path

import numpy as np

import alohagame
from alohagame import (
    CONVERGED,
    SweepRecord,
    Trajectory,
    bifurcation_sweep,
    chain_matrix,
    dynamics,
    experiments,
    game,
    save_topology,
    solver,
    stability,
    topology,
    write_records_csv,
)
from alohagame.cli import main

SUBMODULES = (game, solver, stability, dynamics, topology, experiments)

PUBLIC_NAMES = [
    "BUDGET_EXHAUSTED", "BifurcationBranch", "BranchPoint", "CONVERGED", "CYCLE",
    "ConsistencyReport", "FIXED_POINT_TOL", "FixedPointSet", "Game", "LfpResult",
    "NodePlacement", "PD_TOL", "PowerLawFit", "RANGE_LONG", "RANGE_SHORT", "RoaEstimate",
    "ScaleResult", "StabilityVerdict", "SweepRecord", "Trajectory", "__version__",
    "achieved_rate", "best_response", "bifurcation_sweep", "chain_matrix",
    "connected_components", "connectivity", "density_sweep", "detect_cycle", "diag_dominant",
    "feasible_contour", "fit_power_law", "fully_connected_matrix", "integrate_ode",
    "is_fixed_point", "iterate_game", "kleene_lfp", "krasovskii_matrix", "krasovskii_verdict",
    "leading_minors", "least_of", "leq", "load_topology", "lyapunov_value", "max_common_rate",
    "max_demand_scale", "max_probability_scale", "multistart_fixed_points", "newton_lfp",
    "pd_margin", "random_topology", "residual", "residual_jacobian", "roa_estimate", "save_topology",
    "side_for_density", "size_sweep", "stability_consistency", "sylvester_pd",
    "write_records_csv",
]  # fmt: skip


class TestPublicNames:
    def test_package_names_are_the_submodule_names(self):
        declared = [name for module in SUBMODULES for name in module.__all__]
        assert alohagame.__all__ == declared + ["__version__"]
        assert len(set(alohagame.__all__)) == len(alohagame.__all__)
        assert sorted(alohagame.__all__) == PUBLIC_NAMES

    def test_each_name_is_its_submodule_object(self):
        for module in SUBMODULES:
            for name in module.__all__:
                assert getattr(alohagame, name) is getattr(module, name), name

    def test_every_import_is_used(self):
        # bench/test_bench.py reads experiments.best_response and
        # solver.best_response, so the benchmark holds those two imports
        held = [("experiments", "best_response"), ("solver", "best_response")]
        unused = []
        for path in sorted(Path(alohagame.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            imported = [
                alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names
            ]
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [(path.stem, name) for name in imported if name not in used]
        assert unused == held

    def test_only_stability_turns_certificates_into_decisions(self):
        # every probe decides through stability._margins_and_slopes, so
        # no other module reaches for the certificate or its margin
        decision = {"_certificate", "_smallest_eigenvalue", "_margin"}
        named = []
        for path in sorted(Path(alohagame.__file__).parent.glob("*.py")):
            if path.name == "stability.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.alias):
                    names = {node.name, node.asname}
                elif isinstance(node, ast.Name):
                    names = {node.id}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                else:
                    continue
                named += [(path.stem, name) for name in names & decision]
        assert named == []

    def test_every_private_definition_is_named(self):
        # a private function or class that no code in the package names,
        # whatever the docstrings say, is a dead helper
        defined, named = [], set()
        for path in sorted(Path(alohagame.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if node.name.startswith("_") and not node.name.endswith("__"):
                        defined.append((path.stem, node.name))
                elif isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
        assert len(defined) >= 80
        assert [(module, name) for module, name in defined if name not in named] == []


class TestCsvBytes:
    """Every CSV writer on tiny inputs, byte for byte: floats as .12g, csv's \\r\\n rows."""

    def test_trajectory(self, tmp_path):
        path = tmp_path / "traj.csv"
        Trajectory(states=[[0.0, 0.123456789012345], [0.5, 1.0]], outcome=CONVERGED, epsilon=1.0).to_csv(path)
        assert path.read_bytes() == b"step,q_1,q_2\r\n0,0,0.123456789012\r\n1,0.5,1\r\n"

    def test_bifurcation_branch(self, tmp_path):
        path = tmp_path / "branch.csv"
        bifurcation_sweep(chain_matrix(3), [0.15] * 3, 1, (0.24, 0.245), step=0.005).to_csv(path)
        assert path.read_bytes() == (
            b"y2,branch_id,q1,q2,q3,stable\r\n"
            b"0.24,0,0.277954906856,0.460344119494,0.277954906856,true\r\n"
            b"0.24,1,0.355951579202,0.578594368548,0.355951579202,false\r\n"
            b"0.245,0,0.3,0.5,0.3,true\r\n"
            b"0.245,1,0.328656977906,0.543597093372,0.328656977906,false\r\n"
        )

    def test_sweep_records(self, tmp_path):
        path = tmp_path / "records.csv"
        record = SweepRecord(
            seed=7,
            n=3,
            side=np.sqrt(10.0),
            connectivity=2 / 3,
            max_common_rate=0.191,
            point=np.array([0.1, 0.2, 0.3]),
            total_throughput=3 * 0.191,
        )
        write_records_csv(path, [record])
        assert path.read_bytes() == (
            b"seed,n,side,connectivity,y_max,total_throughput,avg_q\r\n"
            b"7,3,3.16227766017,0.666666666667,0.191,0.573,0.2\r\n"
        )

    def test_feasible_surface(self, tmp_path, capsys):
        topo, path = tmp_path / "chain3.txt", tmp_path / "surface.csv"
        save_topology(topo, chain_matrix(3))
        # y1 = 1 leaves no interior equilibrium: those cells are NaN
        argv = ["feasible", "--topology", str(topo), "--y1", "0.1,1", "--y3", "0.1,0.2", "--output", str(path)]
        assert main(argv) == 0
        assert path.read_bytes() == b"y1,y3,max_y2\r\n0.1,0.1,0.337\r\n0.1,0.2,0.24\r\n1,0.1,nan\r\n1,0.2,nan\r\n"
