"""Command-line front end.

Subcommands map one-to-one onto the library: solve, stability,
simulate, bifurcate, feasible, sweep, fit. Topologies come either from
a file (see topology.load_topology for the format) or from the seeded
random generator; numbers are printed with four decimals.

``solve`` and ``stability`` (without ``--point``) take one equilibrium
and verdict from one probe call, whatever the tolerance or budget:
Newton's least fixed point from zeros and the certificate at a proven
upper bracket. The best-response ascent from zeros, which rises
monotonically and so never cycles, runs only when ``solve --output``
records it.

Exit codes: 0 success, 2 an infeasible, unstable or budget_exhausted
verdict, 1 anything else (bad usage, missing files, oracle size
limits). Keeping usage errors on 1 leaves 2 unambiguous for scripted
feasibility searches.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import __version__, dynamics, solver
from .dynamics import CONVERGED, integrate_ode
from .experiments import (
    DEFAULT_BREAK_X,
    RATE_STEP,
    _stable_lfps,
    bifurcation_sweep,
    density_sweep,
    feasible_contour,
    fit_power_law,
    size_sweep,
    write_records_csv,
)
from .game import Game, _check_count, _check_positive_finite, _positive_finite, _write_csv
from .stability import DEFAULT_FP_TOL, krasovskii_verdict
from .topology import _whole, load_topology, random_topology, side_for_density

__all__ = ["main", "parse_args", "run"]


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _fmt_vec(vec) -> str:
    return "[" + ",".join(_fmt(v) for v in np.asarray(vec)) + "]"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for verdicts here.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_floats(text: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_grid(text: str) -> np.ndarray:
    """Either 'start:stop:step' with a positive finite step, or a comma list; never empty."""
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3 or not (parts[2] > 0.0 and np.isfinite(parts[2])):
            raise ValueError(f"expected start:stop:step with a positive finite step, got {text!r}")
        start, stop, step = parts
        grid = np.arange(start, stop + step / 2, step)
    else:
        grid = np.asarray(_parse_floats(text))
    if not len(grid):
        raise ValueError(f"expected a grid of at least one value, got {text!r}")
    return grid


def _add_topology_args(sub):
    group = sub.add_argument_group("topology source (exactly one)")
    group.add_argument("--topology", metavar="FILE", help="topology file path")
    group.add_argument("--n", type=int, help="player count for the random generator")
    group.add_argument("--side", type=float, help="square side for the random generator")
    group.add_argument("--density", type=float, help="players per unit area (alternative to --side)")
    group.add_argument("--seed", type=int, default=0, help="generator seed")
    group.add_argument(
        "--edge-rule",
        choices=("min", "max"),
        default="min",
        help="link players within the smaller (min) or larger (max) of their ranges",
    )


def _add_rate_args(sub):
    sub.add_argument(
        "--rates",
        help="comma-separated target rates, or one value broadcast to all players",
    )
    sub.add_argument("--rates-file", metavar="FILE", help="target rates, one per line")


def _check_topology_source(parser, args, require=True):
    has_file = args.topology is not None
    has_gen = args.n is not None
    if has_file and has_gen:
        parser.error("give either --topology or --n, not both")
    if not has_file and not has_gen and require:
        parser.error("a topology is required: --topology FILE or --n N with --side/--density")
    if has_gen and (args.side is None) == (args.density is None):
        parser.error("random topologies need exactly one of --side or --density")


def parse_args(argv=None) -> argparse.Namespace:
    parser = _Parser(
        prog="alohagame",
        description="Equilibria, stability and throughput studies for "
        "slotted-Aloha games with spatial reuse.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = subs.add_parser("solve", formatter_class=fmt, help="least fixed point and its stability")
    _add_topology_args(p)
    _add_rate_args(p)
    p.add_argument("--tol", type=float, default=solver.DEFAULT_TOL, help="ascent stop tolerance (with --output)")
    p.add_argument("--max-iter", type=int, default=solver.DEFAULT_MAX_ITER, help="ascent budget (with --output)")
    p.add_argument("--output", metavar="CSV", help="write the best-response ascent from zeros")

    p = subs.add_parser("stability", formatter_class=fmt, help="stability certificate at a point")
    _add_topology_args(p)
    _add_rate_args(p)
    p.add_argument("--point", help="comma-separated point to certify (default: the solved equilibrium)")
    p.add_argument("--fp-tol", type=float, default=DEFAULT_FP_TOL, help="fixed-point membership tolerance")

    p = subs.add_parser("simulate", formatter_class=fmt, help="run the game dynamics")
    _add_topology_args(p)
    _add_rate_args(p)
    p.add_argument("--q0", default="rates", help="start point: 'zeros', 'rates', or a comma list")
    p.add_argument("--epsilon", type=float, default=1.0, help="relaxation factor in (0, 1]")
    p.add_argument("--perturb", type=float, default=0.0, help="added to every start component")
    p.add_argument("--tol", type=float, default=dynamics.DEFAULT_TOL, help="step-size stop tolerance")
    p.add_argument("--max-iter", type=int, default=dynamics.DEFAULT_MAX_ITER, help="iteration budget")
    p.add_argument("--ode", action="store_true", help="integrate the continuous flow instead")
    p.add_argument("--dt", type=float, default=dynamics.DEFAULT_DT, help="integrator step (with --ode)")
    p.add_argument("--t-end", type=float, default=dynamics.DEFAULT_T_END, help="integration horizon (with --ode)")
    p.add_argument("--output", metavar="CSV", help="write the trajectory")

    p = subs.add_parser("bifurcate", formatter_class=fmt, help="sweep one rate and track the fixed points")
    _add_topology_args(p)
    _add_rate_args(p)
    p.add_argument("--vary", type=int, default=2, help="1-based index of the swept player")
    p.add_argument("--min", dest="lo", type=float, default=0.0, help="sweep start")
    p.add_argument("--max", dest="hi", type=float, default=0.3, help="sweep end")
    p.add_argument("--step", type=float, default=RATE_STEP, help="sweep step")
    p.add_argument("--output", metavar="CSV", help="write the branch table")

    p = subs.add_parser("feasible", formatter_class=fmt, help="max middle rate over outer-rate grid (3 players)")
    _add_topology_args(p)
    p.add_argument("--y1", default="0:0.3:0.05", help="grid for player 1: start:stop:step or comma list")
    p.add_argument("--y3", default="0:0.3:0.05", help="grid for player 3")
    p.add_argument("--step", type=float, default=RATE_STEP, help="rate search step")
    p.add_argument("--output", metavar="CSV", help="write y1,y3,max_y2 rows")

    p = subs.add_parser("sweep", formatter_class=fmt, help="max common rate over random topologies")
    p.add_argument("--n", default="20", help="player count(s), comma-separated")
    p.add_argument("--density", default="0.1", help="player density(ies), comma-separated")
    p.add_argument("--trials", type=int, default=100, help="random topologies per setting")
    p.add_argument("--step", type=float, default=RATE_STEP, help="rate search step")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--edge-rule", choices=("min", "max"), default="min")
    p.add_argument(
        "--fully-connected",
        action="store_true",
        help="also run the fully connected baseline (size sweeps)",
    )
    p.add_argument("--output", metavar="CSV", help="write trial records")
    p.add_argument("--baseline-output", metavar="CSV", help="write fully connected baseline records")

    p = subs.add_parser("fit", formatter_class=fmt, help="piecewise power law on (connectivity, throughput)")
    p.add_argument("--input", required=True, metavar="CSV", help="records file")
    p.add_argument("--x-col", default="connectivity", help="abscissa column")
    p.add_argument("--y-col", default="total_throughput", help="ordinate column")
    p.add_argument("--break-x", type=float, default=DEFAULT_BREAK_X, help="segment break")

    args = parser.parse_args(argv)
    if args.command in ("solve", "stability", "simulate", "bifurcate", "feasible"):
        _check_topology_source(parser, args)
    if args.command in ("solve", "stability", "simulate", "bifurcate"):
        if args.rates is None and args.rates_file is None:
            parser.error("target rates are required: --rates or --rates-file")
        if args.rates is not None and args.rates_file is not None:
            parser.error("give either --rates or --rates-file, not both")
    return args


def _load_matrix(args):
    if args.topology is not None:
        matrix, _ = load_topology(args.topology)
        return matrix
    side = args.side if args.side is not None else side_for_density(args.n, args.density)
    _, matrix = random_topology(args.n, side, args.seed, edge_rule=args.edge_rule)
    return matrix


def _load_rates(args, n: int) -> np.ndarray:
    if getattr(args, "rates_file", None):
        with open(args.rates_file) as fh:
            values = [float(line.strip()) for line in fh if line.strip()]
    else:
        values = _parse_floats(args.rates)
    if len(values) == 1:
        values = values * n
    if len(values) != n:
        raise ValueError(f"got {len(values)} rates for {n} players")
    return np.asarray(values)


def _equilibrium(game: Game):
    """``(point, stable)``: Newton's least fixed point, decided at a proven upper bracket by the
    rate searches' probe; or "infeasible" when Newton proves it unstable or not interior, or "budget_exhausted"."""
    (point,), (margin,), _, (infeasible,) = _stable_lfps(
        game.rates[np.newaxis], _whole(game.matrix.astype(bool)[np.newaxis]), np.zeros((1, game.n)), np.ones(game.n)
    )
    if point is None:
        return "infeasible" if infeasible else "budget_exhausted"
    return point, bool(margin > 0.0)


def _cmd_solve(args) -> int:
    matrix = _load_matrix(args)
    game = Game(matrix, _load_rates(args, matrix.shape[0]))
    _check_positive_finite(args.tol, "tol")
    _check_count(args.max_iter, "max_iter")
    if args.output:
        traj = dynamics.iterate_game(np.zeros(game.n), game, tol=args.tol, max_iter=args.max_iter)
        traj.to_csv(args.output)
    found = "budget_exhausted" if args.output and traj.outcome != CONVERGED else _equilibrium(game)
    if isinstance(found, str):
        print(found)
        return 2
    point, stable = found
    print(f"NE={_fmt_vec(point)} stable={str(stable).lower()}")
    return 0 if stable else 2


def _cmd_stability(args) -> int:
    matrix = _load_matrix(args)
    game = Game(matrix, _load_rates(args, matrix.shape[0]))
    found = _equilibrium(game) if args.point is None else (np.asarray(_parse_floats(args.point)), None)
    if isinstance(found, str):
        print(found)
        return 2
    point, bracket = found
    verdict = krasovskii_verdict(point, game, fp_tol=args.fp_tol)
    stable = verdict.stable if bracket is None else bracket
    # a certificate definite at Newton's point, below the least fixed point, but not at the bracket is critical
    classification = "stable" if stable else "critical" if verdict.stable else verdict.classification
    print(
        f"point={_fmt_vec(verdict.point)} stable={str(stable).lower()} "
        f"classification={classification} "
        f"diag_dominant={str(verdict.diag_dominant).lower()} "
        f"minors={_fmt_vec(verdict.leading_minors)}"
    )
    return 0 if stable else 2


def _cmd_simulate(args) -> int:
    matrix = _load_matrix(args)
    game = Game(matrix, _load_rates(args, matrix.shape[0]))
    if args.q0 == "zeros":
        q0 = np.zeros(game.n)
    elif args.q0 == "rates":
        q0 = game.rates
    else:
        q0 = np.asarray(_parse_floats(args.q0))
    if args.ode:
        traj = integrate_ode(q0, game, dt=args.dt, t_end=args.t_end, tol=args.tol)
    else:
        traj = dynamics.iterate_game(
            q0,
            game,
            tol=args.tol,
            max_iter=args.max_iter,
            epsilon=args.epsilon,
            perturb=args.perturb,
        )
    if args.output:
        traj.to_csv(args.output)
    line = f"outcome={traj.outcome} steps={len(traj.states) - 1} final={_fmt_vec(traj.final)}"
    if traj.period is not None:
        points = ";".join(_fmt_vec(p) for p in traj.cycle_points)
        line += f" period={traj.period} cycle={points}"
    print(line)
    return 0 if traj.outcome == CONVERGED else 2


def _cmd_bifurcate(args) -> int:
    matrix = _load_matrix(args)
    rates = _load_rates(args, matrix.shape[0])
    index = args.vary - 1
    if not 0 <= index < matrix.shape[0]:
        raise ValueError(f"--vary must be in 1..{matrix.shape[0]}")
    branch = bifurcation_sweep(matrix, rates, index, (args.lo, args.hi), args.step)
    if args.output:
        branch.to_csv(args.output)
    if branch.critical_value is None:
        print("critical_value=none")
    else:
        print(
            f"critical_value={_fmt(branch.critical_value)} "
            f"critical_point={_fmt_vec(branch.critical_point)}"
        )
    return 0


def _cmd_feasible(args) -> int:
    matrix = _load_matrix(args)
    y1 = _parse_grid(args.y1)
    y3 = _parse_grid(args.y3)
    surface = feasible_contour(matrix, y1, y3, step=args.step)
    if args.output:
        rows = ([a, b, surface[i, j]] for i, a in enumerate(y1) for j, b in enumerate(y3))
        _write_csv(args.output, ["y1", "y3", "max_y2"], rows)
    found = surface[~np.isnan(surface)]
    span = f"[{_fmt(found.min())},{_fmt(found.max())}]" if len(found) else "none"
    print(f"grid={len(y1)}x{len(y3)} max_y2_range={span}")
    return 0


def _cmd_sweep(args) -> int:
    counts = _parse_floats(args.n)
    if not all(v.is_integer() for v in counts):
        raise ValueError(f"--n expects whole player counts, got {args.n!r}")
    ns = [int(v) for v in counts]
    densities = _parse_floats(args.density)
    if len(ns) > 1 and len(densities) > 1:
        raise ValueError("vary either --n or --density, not both")
    baselines = []
    if len(ns) > 1:
        records, baselines, summaries = size_sweep(
            densities[0],
            ns,
            args.trials,
            step=args.step,
            seed=args.seed,
            edge_rule=args.edge_rule,
            include_fully_connected=args.fully_connected,
        )
        label = "n"
    else:
        records, summaries = density_sweep(
            ns[0],
            densities,
            args.trials,
            step=args.step,
            seed=args.seed,
            edge_rule=args.edge_rule,
        )
        label = "density"
    if args.output:
        write_records_csv(args.output, records)
    if args.baseline_output and baselines:
        write_records_csv(args.baseline_output, baselines)
    for row in summaries:
        print(
            f"{label}={row[label]:g} trials={row['trials']} "
            f"mean_connectivity={_fmt(row['mean_connectivity'])} "
            f"mean_y_max={_fmt(row['mean_max_common_rate'])} "
            f"mean_total={_fmt(row['mean_total_throughput'])} "
            f"mean_q={_fmt(row['mean_avg_q'])}"
        )
    for rec in baselines:
        print(
            f"baseline n={rec.n} y_max={_fmt(rec.max_common_rate)} "
            f"total={_fmt(rec.total_throughput)}"
        )
    return 0


def _cmd_fit(args) -> int:
    with open(args.input, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or args.x_col not in reader.fieldnames or args.y_col not in reader.fieldnames:
            raise ValueError(f"{args.input}: need columns {args.x_col!r} and {args.y_col!r}")
        rows = np.array([(float(row[args.x_col]), float(row[args.y_col])) for row in reader]).reshape(-1, 2)
    # drop the rows fit_power_law would reject
    keep = _positive_finite(rows).all(axis=1)
    if not keep.all():
        print(f"dropped {np.count_nonzero(~keep)} nonpositive or nonfinite rows", file=sys.stderr)
    fit = fit_power_law(*rows[keep].T, break_x=args.break_x)
    for name, c, e, count in (
        ("low", fit.c_low, fit.e_low, fit.n_low),
        ("high", fit.c_high, fit.e_high, fit.n_high),
    ):
        if c is None:
            print(f"{name}: unfitted (n={count})")
        else:
            print(f"{name}: c={_fmt(c)} e={_fmt(e)} (n={count})")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "stability": _cmd_stability,
    "simulate": _cmd_simulate,
    "bifurcate": _cmd_bifurcate,
    "feasible": _cmd_feasible,
    "sweep": _cmd_sweep,
    "fit": _cmd_fit,
}


def run(args: argparse.Namespace) -> int:
    """Execute a parsed command; returns the exit code."""
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:  # argparse --help exits 0, usage errors 1
        return exc.code or 0
    try:
        return run(args)
    except (OSError, ValueError) as exc:
        print(f"alohagame: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
