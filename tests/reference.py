"""Plain reference implementations that the tests compare the package against.

Each one is the slow, direct form of a faster path in the package:
the greedy dedup of the oracle's roots, the oracle's box enumeration
that bisects every box down to the leaf width, one oracle call per
parameter value of a bifurcation sweep, a rate search that walks the
grid one step at a time with Kleene solves, a verdict that
evaluates the response map once per ingredient, a consistency
check that takes one verdict per point, topology sweeps and
feasible surfaces with one rate search per trial and per cell instead
of one lockstep search for them all, and common-rate, demand-scale and
probability-scale searches that bisect the grid instead of following
the certificate margin, and the ``solve`` and ``stability`` lines of a
CLI that took its equilibrium from a best-response ascent.
"""

import numpy as np

from alohagame import (
    PD_TOL,
    BifurcationBranch,
    BranchPoint,
    ConsistencyReport,
    FixedPointSet,
    Game,
    StabilityVerdict,
    SweepRecord,
    achieved_rate,
    best_response,
    connectivity,
    diag_dominant,
    feasible_contour,
    is_fixed_point,
    kleene_lfp,
    krasovskii_matrix,
    krasovskii_verdict,
    least_of,
    max_common_rate,
    multistart_fixed_points,
    pd_margin,
    random_topology,
    residual,
    side_for_density,
)
from alohagame import experiments, solver
from alohagame.cli import _fmt_vec


def greedy_dedup(points, radius):
    """In lexicographic order of the coordinates rounded to 1e-9 (ties in
    input order), keep each point farther than ``radius`` from every kept one."""
    kept = []
    for p in sorted(points, key=lambda p: tuple(np.round(p, 9))):
        if all(np.abs(p - k).max() > radius for k in kept):
            kept.append(p)
    return kept


def diagonal_contraction(lo, hi, row, rates, mask):
    """Cut each box [lo, hi] to [y_i / P_i(lo), y_i / P_i(hi)] on every
    axis, rounded outward by 16 eps; drop the boxes left empty."""
    prod = np.where(mask, 1.0 - np.concatenate([lo, hi])[:, np.newaxis, :], 1.0).prod(axis=-1)
    bounds = rates[row] / prod.reshape(2, *lo.shape)
    lo = np.fmax(lo, bounds[0] * (1.0 - 16 * np.finfo(float).eps))
    hi = np.fmin(hi, bounds[1] * (1.0 + 16 * np.finfo(float).eps))
    keep = (lo <= hi).all(axis=1)
    return lo[keep], hi[keep], row[keep]


def width_only_leaf_centres(rates, matrix, cells_per_axis):
    """The oracle's box enumeration without the Krawczyk step.

    Each round contracts every box by the diagonal bounds alone, keeps
    those at most the leaf width wide as leaves and splits the rest in
    half along their widest side, so every surviving box, a root's
    included, is bisected down to the leaf width. Returns the leaf
    centres with the rate row of each.
    """
    n = rates.shape[1]
    mask = matrix.astype(bool)
    edges = np.linspace(0.0, 1.0, cells_per_axis + 1)
    cells = np.stack(np.meshgrid(*[np.arange(cells_per_axis)] * n, indexing="ij"), axis=-1).reshape(-1, n)
    silent = rates == 0.0
    row, box = np.nonzero(~(silent[:, np.newaxis] & (cells > 0)).any(axis=-1))
    lo, hi = edges[cells[box]], np.where(silent[row], 0.0, edges[cells[box] + 1])
    leaves, owners = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(lo):
            for _ in range(solver._CONTRACT_ROUNDS):
                lo, hi, row = diagonal_contraction(lo, hi, row, rates, mask)
            width = hi - lo
            leaf = width.max(axis=1) <= solver._LEAF_WIDTH
            leaves.append((lo[leaf] + hi[leaf]) / 2.0)
            owners.append(row[leaf])
            split = ~leaf
            lo, hi, row, width = lo[split], hi[split], row[split], width[split]
            boxes, axis = np.arange(len(lo)), width.argmax(axis=1)
            mid = (lo[boxes, axis] + hi[boxes, axis]) / 2.0
            lo, hi, row = np.concatenate([lo, lo]), np.concatenate([hi, hi]), np.concatenate([row, row])
            hi[boxes, axis] = lo[len(boxes) + boxes, axis] = mid
    return np.concatenate(leaves), np.concatenate(owners)


def sweep_one_value_at_a_time(matrix, fixed_rates, varying_index, value_range, step):
    """Bifurcation sweep with one oracle call and one verdict per value."""
    lo, hi = value_range
    values = np.array([round(v, 12) for v in np.arange(round(lo, 12), hi + step / 2, step)])
    branches = []
    critical_value = critical_point = None
    for value in values:
        rates = np.asarray(fixed_rates, dtype=float).copy()
        rates[varying_index] = value
        game = Game(matrix, rates)
        pts = sorted(multistart_fixed_points(game).points, key=lambda p: (float(p.sum()), tuple(p)))
        row = []
        for p in pts:
            try:
                verdict = krasovskii_verdict(p, game, fp_tol=1e-6)
                row.append(BranchPoint(p, verdict.stable, verdict.classification))
            except ValueError:
                row.append(BranchPoint(p, False, "singular"))
        branches.append(row)
        interior = [p for p in pts if (p > 0.0).all() and (p < 1.0).all()]
        if len(interior) >= 2:
            critical_value = float(value)
            gaps = [
                (float(np.abs(interior[i] - interior[j]).max()), i, j)
                for i in range(len(interior))
                for j in range(i + 1, len(interior))
            ]
            _, i, j = min(gaps)
            critical_point = (interior[i] + interior[j]) / 2.0
    return BifurcationBranch(varying_index, values, branches, critical_value, critical_point)


def linear_walk_max_common_rate(matrix, step=0.001):
    """Rate search that walks the common rate up one step at a time,
    solving each step from zeros with kleene_lfp, and stops at the first
    rate whose least fixed point is not interior and certified stable."""
    n = len(matrix)
    best = 0.0
    for k in range(1, int(1.0 / step) + 1):
        y = round(k * step, 12)
        game = Game(matrix, np.full(n, y))
        res = kleene_lfp(game)
        if not (res.interior and krasovskii_verdict(res.point, game).stable):
            break
        best = y
    return best


def reference_verdict(q_s, game, fp_tol):
    """The certificate as separate evaluations of the response map give it."""
    q = np.asarray(q_s, dtype=float)
    if not is_fixed_point(q, game, fp_tol):
        res = float(np.abs(residual(q, game)).max())
        raise ValueError(f"not a fixed point at tolerance {fp_tol:g} (residual {res:.3e})")
    c = krasovskii_matrix(q, game)
    pd = bool(pd_margin(c) > 0.0)
    if pd:
        classification = "stable"
    elif np.linalg.eigvalsh(c)[0] > -PD_TOL:
        classification = "critical"
    else:
        classification = "unstable"
    return StabilityVerdict(
        point=q.copy(),
        certificate=c,
        positive_definite=pd,
        diag_dominant=diag_dominant(q, game),
        classification=classification,
        clipped=bool(((best_response(q, game) >= 1.0) & (game.rates > 0.0)).any()),
    )


def reference_consistency(fps, game):
    """The consistency check with one verdict call per interior point."""
    interior = fps.interior_points()
    if not interior:
        return ConsistencyReport(verdicts=[], least_point=None, least_stable=None, violation=False)
    verdicts = [krasovskii_verdict(p, game) for p in interior]
    least = least_of(FixedPointSet(points=interior), tol=1e-9)
    least_verdict = next(v for p, v in zip(interior, verdicts) if p is least)
    violation = (not least_verdict.stable) and any(v.stable for v in verdicts if v is not least_verdict)
    return ConsistencyReport(
        verdicts=verdicts,
        least_point=least_verdict.point,
        least_stable=least_verdict.stable,
        violation=violation,
    )


def sweep_one_search_per_trial(settings, trials, step, seed, edge_rule="min"):
    """Records of a topology sweep over ``(n, density)`` settings, with one
    ``max_common_rate`` call per trial."""
    records = []
    for s_idx, (n, density) in enumerate(settings):
        side = side_for_density(n, density)
        for t in range(trials):
            trial_seed = experiments._trial_seed(seed, s_idx, t)
            _, matrix = random_topology(n, side, trial_seed, edge_rule=edge_rule)
            y_max, point = max_common_rate(matrix, step=step)
            records.append(
                SweepRecord(
                    seed=trial_seed,
                    n=n,
                    side=side,
                    connectivity=connectivity(matrix) if n >= 2 else 0.0,
                    max_common_rate=y_max,
                    point=point,
                    total_throughput=n * y_max,
                )
            )
    return records


def contour_one_cell_at_a_time(matrix, y1_values, y3_values, step):
    """``feasible_contour`` with one search per cell of the grid."""
    return np.array([[feasible_contour(matrix, [y1], [y3], step)[0, 0] for y3 in y3_values] for y1 in y1_values])


def bisect_common_rate(matrix, step=0.001):
    """``max_common_rate`` by plain bisection of the step grid: each round
    probes the midpoint of the bracket with one ``_stable_lfps`` call,
    warm-started at the last passing value's point."""
    mask = np.asarray(matrix, dtype=bool)[np.newaxis]
    n = mask.shape[-1]
    lo, hi, best = 0, int(1.0 / step) + 2, np.zeros(n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        (point,), _, _ = experiments._stable_lfps(
            np.full((1, n), round(mid * step, 12)), mask, best[np.newaxis], np.ones(n)
        )
        if point is None:
            hi = mid
        else:
            lo, best = mid, point
    return round(lo * step, 12), best


def _bisect_scale(passing, base, top: float, step: float):
    """Largest factor 1 + m*step up to 1/top, give or take the grid's
    rounding, at which ``passing(factor, last)`` returns a solution, by
    bisection over m; ``last`` is the solution at the last passing
    factor, ``base`` at factor 1."""
    lo, hi, best = 0, int((1.0 / top - 1.0) / step) + 2, base
    while hi - lo > 1:
        mid = (lo + hi) // 2
        found = passing(round(1.0 + mid * step, 12), best)
        if found is None:
            hi = mid
        else:
            lo, best = mid, found
    return round(1.0 + lo * step, 12), best


def bisect_demand_scale(game, step=0.01):
    """``max_demand_scale`` by plain bisection: each probe is one
    ``_stable_lfps`` call at rates factor * y, warm-started at the last
    passing factor's point. Returns ``(factor, point)``."""
    mask = game.matrix.astype(bool)[np.newaxis]

    def passing(factor, warm):
        rates = (factor * game.rates)[np.newaxis]
        (point,), _, _ = experiments._stable_lfps(rates, mask, warm[np.newaxis], game.rates)
        return point

    base = passing(1.0, np.zeros(game.n))
    return _bisect_scale(passing, base, float(game.rates.max()), step)


def bisect_probability_scale(game, q_star, step=0.01):
    """``max_probability_scale`` by plain bisection: each probe builds
    the game whose rates the scaled point b*q_star induces, and decides
    ``krasovskii_matrix`` there. Returns ``(factor, point, rates)``."""
    q_star = np.asarray(q_star, dtype=float)

    def passing(factor, last):
        q = factor * q_star
        if (q >= 1.0).any():
            return None
        induced = achieved_rate(q, game.matrix)
        return (q, induced) if pd_margin(krasovskii_matrix(q, Game(game.matrix, induced))) > 0.0 else None

    base = (q_star, achieved_rate(q_star, game.matrix))
    factor, (point, rates) = _bisect_scale(passing, base, float(q_star.max()), step)
    return factor, point, rates


def ascent_cli_lines(game):
    """The stdout lines of ``solve`` and ``stability`` when both took their
    point from a ``kleene_lfp`` ascent from zeros: ``solve`` decided with
    ``_stable_lfps`` warm-started at the ascent's point, and ``stability``
    printed the verdict at that point. Returns ``(solve_line, stability_line)``."""
    result = kleene_lfp(game)
    if not result.converged:
        solve = "budget_exhausted"
    elif not (result.point < 1.0).all():
        solve = "infeasible"
    else:
        (found,), _, _ = experiments._stable_lfps(
            game.rates[np.newaxis], game.matrix.astype(bool)[np.newaxis], result.point[np.newaxis], np.ones(game.n)
        )
        solve = f"NE={_fmt_vec(result.point)} stable={str(found is not None).lower()}"
    if not result.interior:
        return solve, "infeasible"
    verdict = krasovskii_verdict(result.point, game)
    stability = (
        f"point={_fmt_vec(verdict.point)} stable={str(verdict.stable).lower()} "
        f"classification={verdict.classification} "
        f"diag_dominant={str(verdict.diag_dominant).lower()} "
        f"minors={_fmt_vec(verdict.leading_minors)}"
    )
    return solve, stability
