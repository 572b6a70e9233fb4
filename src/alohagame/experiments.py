"""Topology-scale studies built on the solver and stability machinery.

Everything here is deterministic given its arguments: random trials
derive their generator seeds from (master seed, setting index, trial
index), trials run and are reduced in a fixed order, and CSVs are
written through :func:`alohagame.game._write_csv`, which fixes the
number format, so identical calls produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# best_response is unused here but stays a module attribute: the
# benchmark tests check that tracing rebinds it in every module.
from .game import Game, _write_csv, achieved_rate, best_response  # noqa: F401
from .solver import _fixed_point_sets, newton_lfp
from .stability import krasovskii_matrix, krasovskii_verdict, sylvester_pd
from .topology import connectivity, fully_connected_matrix, random_topology, side_for_density

__all__ = [
    "BranchPoint",
    "BifurcationBranch",
    "bifurcation_sweep",
    "max_common_rate",
    "feasible_contour",
    "ScaleResult",
    "max_demand_scale",
    "max_probability_scale",
    "SweepRecord",
    "density_sweep",
    "size_sweep",
    "write_records_csv",
    "PowerLawFit",
    "fit_power_law",
]

RATE_STEP = 0.001
SCALE_STEP = 0.01


def _grid(value: float) -> float:
    """Clean up k*step accumulation noise."""
    return float(round(value, 12))


def _check_step(step: float) -> None:
    if not (step > 0.0 and np.isfinite(step)):
        raise ValueError("step must be positive and finite")


def _interior_stable_lfp(matrix, rates, warm_start):
    """Least fixed point if it is interior and Sylvester-stable, else None.

    Solves the game with interference ``matrix`` and target ``rates``;
    rates above 1 lie past the end of every search grid and give None.
    ``warm_start`` must be a point known to sit below the least fixed
    point (zeros, or the least fixed point of the same topology at
    lower rates). The solve is :func:`newton_lfp`, which gives up as
    soon as it proves the point cannot be interior and stable.

    Marginal certificates (minors inside the tolerance band) count as
    unstable: boundary points are excluded, which keeps rate searches
    conservative.
    """
    rates = np.asarray(rates, dtype=float)
    if (rates > 1.0).any():
        return None
    game = Game(matrix, rates)
    res = newton_lfp(game, warm_start)
    if not res.converged:
        return None
    pd, _ = sylvester_pd(krasovskii_matrix(res.point, game))
    return res.point if pd else None


def _last_passing(probe, start, step: float, origin: float = 0.0, limit: float = 1.0):
    """Bisect the grid ``origin + k*step`` for its last passing value.

    ``probe(value, warm)`` returns the solution at a grid value, or
    None when the value fails; ``origin`` passes with solution
    ``start``, and no value above ``limit`` passes, give or take the
    grid's rounding. Returns ``(value, solution)`` for the largest
    passing value. Each probe warm-starts from the solution at the last
    passing value, which lies below the solution at any higher one.

    Bisection finds the same value as walking up the grid because the
    passing values form an interval: along a componentwise
    increasing rate path the least fixed point grows, the certificate's
    off-diagonal entries q_i / (1 - q_j) grow with it, and by
    Perron-Frobenius so does the largest eigenvalue of their symmetric
    part, so once the certificate fails it stays failed.
    """
    lo, hi, best = 0, int((limit - origin) / step) + 2, start
    while hi - lo > 1:
        mid = (lo + hi) // 2
        got = probe(_grid(origin + mid * step), best)
        if got is None:
            hi = mid
        else:
            lo, best = mid, got
    return _grid(origin + lo * step), best


# ---------------------------------------------------------------------------
# Fold of the fixed points under one varying target rate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchPoint:
    point: np.ndarray
    stable: bool
    classification: str


@dataclass(frozen=True)
class BifurcationBranch:
    """Fixed points of the game as one target rate sweeps a range.

    ``branches[k]`` lists the oracle's roots at ``parameter_values[k]``
    in ascending partial order. ``critical_value`` is the last
    parameter with at least two strictly interior roots, after which
    the pair has merged and vanished; ``critical_point`` is the
    midpoint of the two closest roots there.
    """

    varying_index: int
    parameter_values: np.ndarray
    branches: list
    critical_value: float | None
    critical_point: np.ndarray | None

    def to_csv(self, path) -> None:
        n = next((len(row[0].point) for row in self.branches if row), 0)
        header = [f"y{self.varying_index + 1}", "branch_id"] + [f"q{i + 1}" for i in range(n)] + ["stable"]
        rows = (
            [value, branch_id, *bp.point, str(bp.stable).lower()]
            for value, row in zip(self.parameter_values, self.branches)
            for branch_id, bp in enumerate(row)
        )
        _write_csv(path, header, rows)


def bifurcation_sweep(
    matrix,
    fixed_rates,
    varying_index: int,
    value_range: tuple,
    step: float = RATE_STEP,
) -> BifurcationBranch:
    """Track the fixed points while rate ``varying_index`` sweeps a range.

    Finds every parameter value's roots with the box-exclusion oracle
    of :func:`multistart_fixed_points` (so the instance must respect the
    oracle's size limit), in one enumeration whose boxes for all values
    contract and bisect together, and classifies each root with the
    Krasovskii certificate. ``varying_index`` must name a player,
    0..n-1. Every value's rates are validated before any solve.
    """
    _check_step(step)
    lo, hi = value_range
    if not np.isfinite([lo, hi]).all():
        raise ValueError("value_range must be finite")
    a = np.asarray(matrix)
    n = a.shape[0]
    if not 0 <= varying_index < n:
        raise ValueError(f"varying_index must be in 0..{n - 1}, got {varying_index}")
    values = np.arange(_grid(lo), hi + step / 2, step)
    values = np.array([_grid(v) for v in values])

    rates = np.repeat(np.asarray(fixed_rates, dtype=float)[np.newaxis], len(values), axis=0)
    rates[:, varying_index] = values
    games = [Game(a, y) for y in rates]
    branches = []
    critical_value = None
    last_interior = None
    for value, game, fps in zip(values, games, _fixed_point_sets(games) if games else []):
        pts = sorted(fps.points, key=lambda p: (float(p.sum()), tuple(p)))
        row = []
        for p in pts:
            try:
                verdict = krasovskii_verdict(p, game)
                row.append(BranchPoint(p, verdict.stable, verdict.classification))
            except ValueError:
                row.append(BranchPoint(p, False, "singular"))
        branches.append(row)
        interior = [p for p in pts if (p > 0.0).all() and (p < 1.0).all()]
        if len(interior) >= 2:
            critical_value, last_interior = float(value), interior
    critical_point = None
    if last_interior is not None:
        gaps = [
            (float(np.abs(last_interior[i] - last_interior[j]).max()), i, j)
            for i in range(len(last_interior))
            for j in range(i + 1, len(last_interior))
        ]
        _, i, j = min(gaps)
        critical_point = (last_interior[i] + last_interior[j]) / 2.0
        critical_point.flags.writeable = False
    return BifurcationBranch(
        varying_index=varying_index,
        parameter_values=values,
        branches=branches,
        critical_value=critical_value,
        critical_point=critical_point,
    )


# ---------------------------------------------------------------------------
# Maximum-rate searches
# ---------------------------------------------------------------------------


def max_common_rate(matrix, step: float = RATE_STEP):
    """Largest common target rate with a stable interior equilibrium.

    Returns ``(y_max, q_star)`` with ``y_max`` the largest multiple of
    ``step`` up to 1 at which the least fixed point is interior and
    Sylvester-stable, found by bisection over the step grid; (0.0,
    zeros) when even the first step fails.
    """
    _check_step(step)
    a = np.asarray(matrix)
    n = a.shape[0]
    return _last_passing(lambda y, warm: _interior_stable_lfp(a, np.full(n, y), warm), np.zeros(n), step)


def feasible_contour(matrix, y1_values, y3_values, step: float = RATE_STEP):
    """Maximum stable middle rate over a grid of outer rates.

    For a three-player topology, returns ``surface[i, j]`` = largest
    multiple of ``step`` up to 1 that player 2 can demand with a stable
    interior equilibrium when players 1 and 3 demand ``y1_values[i]``
    and ``y3_values[j]`` (NaN when the outer rates alone have none),
    found by bisection over the step grid. The upper boundary of the
    resulting region is the set of rate combinations with nothing left
    to give away.
    """
    _check_step(step)
    a = np.asarray(matrix)
    if a.shape[0] != 3:
        raise ValueError("feasible_contour expects a 3-player topology")
    y1_values = np.asarray(y1_values, dtype=float)
    y3_values = np.asarray(y3_values, dtype=float)
    if not all(((v >= 0.0) & (v <= 1.0)).all() for v in (y1_values, y3_values)):
        raise ValueError("outer target rates must lie in [0, 1]")
    surface = np.zeros((len(y1_values), len(y3_values)))
    for i, y1 in enumerate(y1_values):
        for j, y3 in enumerate(y3_values):
            base = _interior_stable_lfp(a, [y1, 0.0, y3], np.zeros(3))
            if base is None:
                surface[i, j] = np.nan
                continue
            surface[i, j], _ = _last_passing(lambda y2, warm: _interior_stable_lfp(a, [y1, y2, y3], warm), base, step)
    return surface


@dataclass(frozen=True)
class ScaleResult:
    """Outcome of pushing a stable operating point to its limit."""

    factor: float
    rates: np.ndarray
    point: np.ndarray
    sum_rate: float


def max_demand_scale(game: Game, step: float = SCALE_STEP) -> ScaleResult:
    """Scale every demand proportionally until stability gives out.

    Finds the largest factor k = 1 + m*step (m = 0, 1, ...) such that
    rates k*y stay at most 1 and still admit a stable interior
    equilibrium, by bisection over m. The base rates themselves must be
    stable-feasible, and at least one must be positive (otherwise every
    factor works).
    """
    _check_step(step)
    base_point = _interior_stable_lfp(game.matrix, game.rates, np.zeros(game.n))
    if base_point is None:
        raise ValueError("base rates admit no stable interior equilibrium")
    top = float(game.rates.max())
    if top == 0.0:
        raise ValueError("all base rates are zero: the demand scale is unbounded")
    factor, point = _last_passing(
        lambda k, warm: _interior_stable_lfp(game.matrix, k * game.rates, warm),
        base_point,
        step,
        origin=1.0,
        limit=1.0 / top,
    )
    rates = factor * game.rates
    return ScaleResult(factor=factor, rates=rates, point=point, sum_rate=float(rates.sum()))


def max_probability_scale(game: Game, q_star, step: float = SCALE_STEP) -> ScaleResult:
    """Scale the equilibrium probabilities until the certificate gives out.

    Finds the largest factor b = 1 + m*step (m = 0, 1, ...) with b*q_star
    strictly inside the box and the certificate matrix positive
    definite there, by bisection over m. The scaled point is an exact
    equilibrium for the rates it induces through the throughput map,
    which is what ``rates`` reports. ``q_star`` must be a stable
    equilibrium of the base game with some positive component.
    """
    _check_step(step)
    q_star = np.asarray(q_star, dtype=float)
    if not krasovskii_verdict(q_star, game).stable:
        raise ValueError("q_star must be a stable equilibrium of the base game")
    top = float(q_star.max())
    if top == 0.0:
        raise ValueError("q_star is zero: the probability scale is unbounded")

    def probe(factor, _warm):
        q = factor * q_star
        if (q >= 1.0).any():
            return None
        induced = achieved_rate(q, game.matrix)
        pd, _ = sylvester_pd(krasovskii_matrix(q, Game(game.matrix, induced)))
        return (q, induced) if pd else None

    base = (q_star, achieved_rate(q_star, game.matrix))
    factor, (point, rates) = _last_passing(probe, base, step, origin=1.0, limit=1.0 / top)
    return ScaleResult(factor=factor, rates=rates, point=point, sum_rate=float(rates.sum()))


# ---------------------------------------------------------------------------
# Random-topology sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRecord:
    """One topology trial: geometry, best common rate, throughput."""

    seed: int
    n: int
    side: float
    connectivity: float
    max_common_rate: float
    point: np.ndarray
    total_throughput: float

    @property
    def avg_q(self) -> float:
        return float(self.point.mean())


# SweepRecord fields a sweep summary averages, each as key "mean_<field>".
_SUMMARY_MEANS = ("connectivity", "max_common_rate", "total_throughput", "avg_q")


def _trial_seed(master_seed: int, setting_index: int, trial_index: int) -> int:
    seq = np.random.SeedSequence([int(master_seed), setting_index, trial_index])
    return int(seq.generate_state(1)[0])


def _run_trial(matrix, seed, n, side, step) -> SweepRecord:
    y_max, point = max_common_rate(matrix, step=step)
    return SweepRecord(
        seed=seed,
        n=n,
        side=side,
        connectivity=connectivity(matrix) if n >= 2 else 0.0,
        max_common_rate=y_max,
        point=point,
        total_throughput=n * y_max,
    )


def _sweep(settings, trials, step, seed, edge_rule):
    """Records of ``trials`` seeded topologies per (n, density) setting, and one summary per setting."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    records = []
    summaries = []
    for s_idx, (n, density) in enumerate(settings):
        side = side_for_density(n, density)
        for t in range(trials):
            trial_seed = _trial_seed(seed, s_idx, t)
            _, matrix = random_topology(n, side, trial_seed, edge_rule=edge_rule)
            records.append(_run_trial(matrix, trial_seed, n, side, step))
        batch = records[-trials:]
        means = {f"mean_{key}": float(np.mean([getattr(r, key) for r in batch])) for key in _SUMMARY_MEANS}
        summaries.append({"n": int(n), "density": float(density), "side": side, "trials": trials, **means})
    return records, summaries


def density_sweep(
    n: int,
    densities,
    trials: int,
    step: float = RATE_STEP,
    seed: int = 0,
    edge_rule: str = "min",
):
    """Best common rates over random topologies of increasing density.

    For each density, generates ``trials`` seeded topologies of ``n``
    players in the square of matching area and records the maximum
    stable common rate of each. Returns ``(records, summaries)`` with
    one summary row per density.
    """
    return _sweep([(n, d) for d in densities], trials, step, seed, edge_rule)


def size_sweep(
    density: float,
    n_values,
    trials: int,
    step: float = RATE_STEP,
    seed: int = 0,
    edge_rule: str = "min",
    include_fully_connected: bool = True,
):
    """Best common rates as the player count grows at fixed density.

    Returns ``(records, baselines, summaries)``. ``baselines`` holds the
    deterministic fully connected reference for each n >= 2; baseline
    rows use seed 0 and side 0. At large n the rate grid quantises the
    baseline's total throughput n * y_max: at step 0.001, n = 100 gives
    0.30.
    """
    records, summaries = _sweep([(n, density) for n in n_values], trials, step, seed, edge_rule)
    baselines = [
        _run_trial(fully_connected_matrix(n), 0, int(n), 0.0, step)
        for n in n_values
        if include_fully_connected and n >= 2
    ]
    return records, baselines, summaries


def write_records_csv(path, records) -> None:
    """Sweep records as CSV: seed,n,side,connectivity,y_max,total_throughput,avg_q."""
    _write_csv(
        path,
        ["seed", "n", "side", "connectivity", "y_max", "total_throughput", "avg_q"],
        ([r.seed, r.n, r.side, r.connectivity, r.max_common_rate, r.total_throughput, r.avg_q] for r in records),
    )


# ---------------------------------------------------------------------------
# Connectivity law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerLawFit:
    """Piecewise power law Y = c * X^e fitted independently per segment.

    Segments are split at ``break_x``; a segment with fewer than two
    points is left unfitted (None coefficients). ``rms_log_*`` is the
    root-mean-square residual of log Y within the segment.
    """

    break_x: float
    c_low: float | None
    e_low: float | None
    c_high: float | None
    e_high: float | None
    n_low: int
    n_high: int
    rms_log_low: float | None
    rms_log_high: float | None

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, np.nan)
        if self.c_low is not None:
            low = x < self.break_x
            out[low] = self.c_low * x[low] ** self.e_low
        if self.c_high is not None:
            high = x >= self.break_x
            out[high] = self.c_high * x[high] ** self.e_high
        return out


def _fit_segment(x, y):
    logx = np.log(x)
    design = np.column_stack([logx, np.ones_like(logx)])
    (slope, intercept), *_ = np.linalg.lstsq(design, np.log(y), rcond=None)
    rms = float(np.sqrt(np.mean((np.log(y) - design @ (slope, intercept)) ** 2)))
    return float(np.exp(intercept)), float(slope), rms


def fit_power_law(x, y, break_x: float = 0.1) -> PowerLawFit:
    """Two-segment least-squares power law in log-log coordinates.

    All inputs must be strictly positive; at least one side of
    ``break_x`` needs two or more points, and a side without them is
    reported unfitted rather than extrapolated.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if (x <= 0.0).any() or (y <= 0.0).any():
        raise ValueError("power-law fit needs strictly positive values")
    if np.isnan(break_x):
        raise ValueError("break_x must not be NaN")
    low = x < break_x
    high = ~low
    n_low, n_high = int(low.sum()), int(high.sum())
    if n_low < 2 and n_high < 2:
        raise ValueError("need at least 2 points on one side of the break")
    c_low = e_low = rms_low = None
    c_high = e_high = rms_high = None
    if n_low >= 2:
        c_low, e_low, rms_low = _fit_segment(x[low], y[low])
    if n_high >= 2:
        c_high, e_high, rms_high = _fit_segment(x[high], y[high])
    return PowerLawFit(
        break_x=break_x,
        c_low=c_low,
        e_low=e_low,
        c_high=c_high,
        e_high=e_high,
        n_low=n_low,
        n_high=n_high,
        rms_log_low=rms_low,
        rms_log_high=rms_high,
    )
