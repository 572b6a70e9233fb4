"""Plain reference implementations that the tests compare the package against.

Each one is the slow, direct form of a faster path in the package:
a depth-first search for connected components, the greedy dedup of
the oracle's roots, the oracle's box enumeration
that bisects every box down to the leaf width, one oracle call per
parameter value of a bifurcation sweep, the oracle's roots deduplicated
one game at a time and a sweep's roots sorted, classified and searched
for the fold one value at a time, a rate search that walks the
grid one step at a time with Kleene solves, a verdict that
evaluates the response map once per ingredient, a consistency
check that takes one verdict per point, topology sweeps and
feasible surfaces with one rate search per trial and per cell instead
of one lockstep search for them all, and common-rate, demand-scale and
probability-scale searches that bisect the grid instead of following
the certificate margin, a common-rate search that solves and decides
every trial on its whole matrix instead of by connected components,
the ``solve`` and ``stability`` lines of a CLI that took its
equilibrium from a best-response ascent, a sweep grid rounded one
value at a time, the oracle's success and leave-one-out products
accumulated along each row's last axis instead of along the player
axis, a neighbour contraction that forms its two halves apart, a
Newton polish that re-indexes its rows at every step and stops a row
whose Jacobian determinant is at most 1e-300, a box enumeration that
halves each unsettled box along its widest side alone, a sweep
that finishes through one verdict object per root, a least-fixed-point
ascent and a game iteration that each run a best-response loop of
their own, a flow whose drift is the checked residual, a diagonal
contraction that accumulates its products by a prefix loop, inverses
solved against the identity, a merge that sorts however few points it
gets, and a certificate that checks every point for a neighbour at 1.
"""

import numpy as np

from alohagame import (
    BUDGET_EXHAUSTED,
    CONVERGED,
    CYCLE,
    PD_TOL,
    BifurcationBranch,
    BranchPoint,
    ConsistencyReport,
    FixedPointSet,
    Game,
    StabilityVerdict,
    SweepRecord,
    Trajectory,
    achieved_rate,
    best_response,
    connectivity,
    detect_cycle,
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
from alohagame import dynamics, experiments, solver, stability, topology
from alohagame.game import _as_binary_matrix, _response
from alohagame.stability import _certificate, _jacobian
from alohagame.cli import _fmt_vec


def greedy_dedup(points, radius):
    """In lexicographic order of the coordinates rounded to 1e-9 (ties in
    input order), keep each point farther than ``radius`` from every kept one."""
    kept = []
    for p in sorted(points, key=lambda p: tuple(np.round(p, 9))):
        if all(np.abs(p - k).max() > radius for k in kept):
            kept.append(p)
    return kept


def dfs_components(matrix):
    """Components of the undirected support of ``matrix`` by depth-first
    search from each unvisited player in index order: sorted index lists,
    ordered by smallest member."""
    a = np.asarray(matrix)
    undirected = (a != 0) | (a.T != 0)
    seen = np.zeros(len(a), dtype=bool)
    components = []
    for start in range(len(a)):
        if seen[start]:
            continue
        stack, component = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            component.append(i)
            for j in np.flatnonzero(undirected[i] & ~seen):
                seen[j] = True
                stack.append(int(j))
        components.append(sorted(component))
    return components


def diagonal_contraction(lo, hi, row, rates, mask):
    """Cut each box [lo, hi] to [y_i / P_i(lo), y_i / P_i(hi)] on every
    axis, rounded outward by 16 eps; drop the boxes left empty."""
    prod = np.where(mask, 1.0 - np.concatenate([lo, hi])[:, np.newaxis, :], 1.0).prod(axis=-1)
    bounds = rates[row] / prod.reshape(2, *lo.shape)
    lo = np.fmax(lo, bounds[0] * (1.0 - 16 * np.finfo(float).eps))
    hi = np.fmin(hi, bounds[1] * (1.0 + 16 * np.finfo(float).eps))
    keep = (lo <= hi).all(axis=1)
    return lo[keep], hi[keep], row[keep]


def neighbour_contraction(lo, hi, row, rates, mask):
    """One contraction with the neighbour bounds, its two halves formed
    apart: the diagonal cut, then lo_i O_ij(hi) and hi_i O_ij(lo) as
    two multiplies stacked, and 1 - x and its padding taken for each
    half, with the products of :func:`last_axis_products`."""
    y = rates[row]
    k = len(lo)
    prod, others = last_axis_products(np.concatenate([lo, hi]), mask)
    bounds = y / prod.reshape(2, *lo.shape)
    new_lo = np.fmax(lo, bounds[0] * (1.0 - solver._OUTWARD))
    new_hi = np.fmin(hi, bounds[1] * (1.0 + solver._OUTWARD))
    spans = np.stack([lo[..., np.newaxis] * others[k:], hi[..., np.newaxis] * others[:k]])
    bounding = mask & (y > 0.0)[..., np.newaxis]
    x = np.divide(y[..., np.newaxis], spans, out=np.full_like(spans, np.nan), where=bounding)
    new_lo = np.fmax(new_lo, np.fmax.reduce(1.0 - x[0] - solver._OUTWARD * (1.0 + x[0]), axis=1))
    new_hi = np.fmin(new_hi, np.fmin.reduce(1.0 - x[1] + solver._OUTWARD * (1.0 + x[1]), axis=1))
    keep = (new_lo <= new_hi).all(axis=1)
    return new_lo[keep], new_hi[keep], row[keep]


def prefix_loop_contraction(lo, hi, row, rates, mask):
    """The diagonal contraction with its success products accumulated by
    n in-place multiplies over an (n + 1, 2k, n) factor stack, rows
    before players, the last slice the products."""
    y = rates[row]
    k, n = lo.shape
    q = np.concatenate([lo, hi])
    stack = np.ones((n + 1, 2 * k, n))
    np.copyto(stack[1:], 1.0 - q.T[..., np.newaxis], where=mask.T[:, np.newaxis].astype(bool))
    for j in range(1, n + 1):
        stack[j] *= stack[j - 1]
    bounds = y / stack[-1].reshape(2, k, n)
    new_lo = np.fmax(lo, bounds[0] * (1.0 - solver._OUTWARD))
    new_hi = np.fmin(hi, bounds[1] * (1.0 + solver._OUTWARD))
    keep = (new_lo <= new_hi).all(axis=1)
    return new_lo[keep], new_hi[keep], row[keep]


def inverse_by_solving(m):
    """The inverses of a stack of matrices, solved against the identity
    (NaN where one is singular)."""
    return solver._solve_rows(m, np.broadcast_to(np.eye(m.shape[-1]), m.shape))


def merge_always_sorting(points, owner, radius):
    """The oracle's merge, which sorts and scans however few points it
    gets."""
    order = np.lexsort((*np.round(points, 9).T[::-1], owner))
    points, owner = points[order], owner[order]
    kept = np.zeros(len(points), dtype=bool)
    rest = np.arange(len(points))
    while len(rest):
        first = np.ones(len(rest), dtype=bool)
        np.not_equal(owner[rest[1:]], owner[rest[:-1]], out=first[1:])
        heads = rest[first]
        kept[heads] = True
        rest = rest[np.abs(points[rest] - points[heads[np.cumsum(first) - 1]]).max(axis=1) > radius]
    points = points[kept]
    points.flags.writeable = False
    return points, owner[kept]


def checked_certificate(q, f, matrix):
    """The certificate -(J + J^T) at q from the response f, checking
    every point for a neighbour coordinate at 1 before it is built."""
    mask = np.asarray(matrix, dtype=bool)
    if stability._singular(q, mask).any():
        raise ValueError("Jacobian is singular: a neighbour coordinate equals 1")
    f = np.where(f >= 1.0, 0.0, f)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = f[..., :, np.newaxis] / (1.0 - q)[..., np.newaxis, :]
    jac = np.where(mask, ratio, 0.0)
    diag = np.arange(mask.shape[-1])
    jac[..., diag, diag] = -1.0
    return -(jac + np.swapaxes(jac, -1, -2))


def polish_compacting_every_step(starts, rates, matrix, max_iter):
    """The oracle's Newton polish with its live rows re-indexed at every
    step, whether or not some row stopped."""
    best = starts.copy()
    h, jac = solver._polynomial(best, rates, matrix)
    best_norm = np.abs(h).max(axis=1)
    rows = np.arange(len(best))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            ok = np.isfinite(jac).all(axis=(1, 2))
            ok[ok] = np.abs(np.linalg.det(jac[ok])) > 1e-300
            rows, h, jac = rows[ok], h[ok], jac[ok]
            if not len(rows):
                break
            q = best[rows] - np.linalg.solve(jac, h[..., np.newaxis])[..., 0]
            h, jac = solver._polynomial(q, rates[rows], matrix)
            norm = np.abs(h).max(axis=1)
            better = norm < best_norm[rows]
            rows, q, h, jac = rows[better], q[better], h[better], jac[better]
            best[rows], best_norm[rows] = q, norm[better]
    return best


def widest_axis_leaf_centres(rates, matrix, cells_per_axis):
    """The oracle's box enumeration with each box that the Krawczyk step
    leaves open halved along its widest side alone, lower halves first,
    then upper halves: the contractions, both Krawczyk tests and the
    leaves of :func:`alohagame.solver._leaf_centres`, one cut per round.
    Returns the polishing starts with the rate row of each."""
    mask = matrix.astype(bool)
    cell_lo, cell_hi = solver._partition(rates.shape[1], cells_per_axis)
    silent = rates == 0.0
    row, box = np.nonzero(~(silent[:, np.newaxis] & (cell_lo > 0.0)).any(axis=-1))
    lo, hi = cell_lo[box], np.where(silent[row], 0.0, cell_hi[box])
    starts, owners = [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while len(lo):
            for r in range(solver._CONTRACT_ROUNDS):
                lo, hi, row = solver._contract(lo, hi, row, rates, mask, neighbours=r == solver._CONTRACT_ROUNDS - 1)
            leaf = (hi - lo).max(axis=1) <= solver._LEAF_WIDTH
            starts.append((lo[leaf] + hi[leaf]) / 2.0)
            owners.append(row[leaf])
            if leaf.all():
                break
            lo, hi, row, (proven, proven_row) = solver._krawczyk(lo[~leaf], hi[~leaf], row[~leaf], rates, matrix)
            starts.append(proven)
            owners.append(proven_row)
            boxes, axis = np.arange(len(lo)), (hi - lo).argmax(axis=1)
            mid = (lo[boxes, axis] + hi[boxes, axis]) / 2.0
            lo, hi, row = np.concatenate([lo, lo]), np.concatenate([hi, hi]), np.concatenate([row, row])
            hi[boxes, axis] = lo[len(boxes) + boxes, axis] = mid
    return np.concatenate(starts), np.concatenate(owners)


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


def grid_one_value_at_a_time(lo, hi, step):
    """A sweep's parameter values from lo to hi, each rounded to 12
    decimals by its own ``round`` call."""
    return np.array([round(v, 12) for v in np.arange(round(lo, 12), hi + step / 2, step)])


def last_axis_products(q, matrix):
    """The oracle's success products and leave-one-out products of each
    row of q, every row's factors accumulated along a last axis n + 1
    long: entry [k, i, j] of the second array is the product of P_i's
    factors other than 1 - q_j."""
    k, n = q.shape
    before, after = np.ones((2, k, n, n + 1))
    np.subtract(1.0, q[:, np.newaxis, :], out=before[..., 1:], where=matrix.astype(bool))
    after[..., 1:] = before[..., :0:-1]
    np.cumprod(before, axis=-1, out=before)
    np.cumprod(after, axis=-1, out=after)
    return before[..., -1], before[..., :-1] * after[..., -2::-1]


def sweep_one_value_at_a_time(matrix, fixed_rates, varying_index, value_range, step):
    """Bifurcation sweep with one oracle call and one verdict per value."""
    values = grid_one_value_at_a_time(*value_range, step)
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


def dedup_one_game(points, radius):
    """The oracle's deduplication of one game's roots, an array operation
    per kept point: in lexicographic order of the coordinates rounded to
    1e-9 (ties in input order), keep the first remaining point and drop
    every remaining point within ``radius`` of it."""
    rest = points[np.lexsort(np.round(points, 9).T[::-1])]
    kept = []
    while len(rest):
        p, rest = rest[0], rest[1:]
        rest = rest[np.abs(rest - p).max(axis=1) > radius]
        kept.append(p)
    return kept


def fixed_point_sets_per_game(rates, matrix, starts_per_axis=1, max_iter=50):
    """The oracle's roots of each game, enumerated together as the package
    does, then split by game and deduplicated one game at a time."""
    mask = np.asarray(matrix, dtype=bool)
    n = mask.shape[0]
    block = max(1, solver._BLOCK_BOXES // (2 * starts_per_axis) ** n)
    roots, owner = [], []
    for first in range(0, len(rates), block):
        starts, rows = solver._leaf_centres(rates[first : first + block], matrix, starts_per_axis)
        roots.append(solver._polish(starts, rates[first + rows], matrix, max_iter))
        owner.append(first + rows)
    roots, owner = np.concatenate(roots), np.concatenate(owner)
    leaf_rates = rates[owner]
    roots[leaf_rates == 0.0] = 0.0
    inside = ((roots >= -1e-9) & (roots <= 1.0 + 1e-9)).all(axis=1)
    roots, owner, leaf_rates = np.clip(roots[inside], 0.0, 1.0), owner[inside], leaf_rates[inside]
    fixed = np.abs(_response(roots, leaf_rates, mask) - roots).max(axis=1) <= 1e-9
    roots, owner = roots[fixed], owner[fixed]
    return [
        FixedPointSet(points=dedup_one_game(roots[owner == k], solver.DEDUP_RADIUS), includes_extraneous=bool(every))
        for k, every in enumerate((rates > 0.0).all(axis=1))
    ]


def sweep_with_a_finish_per_value(matrix, fixed_rates, varying_index, value_range, step):
    """Bifurcation sweep with one enumeration for every value, then per
    value a sort of its roots, its verdicts and its interior points."""
    values = grid_one_value_at_a_time(*value_range, step)
    rates = np.repeat(np.asarray(fixed_rates, dtype=float)[np.newaxis], len(values), axis=0)
    rates[:, varying_index] = values
    matrix = Game(matrix, rates[0]).matrix
    branches = []
    critical_value = critical_point = None
    for value, y, fps in zip(values, rates, fixed_point_sets_per_game(rates, matrix)):
        game = Game(matrix, y)
        pts = sorted(fps.points, key=lambda p: (float(p.sum()), tuple(p)))
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


def sweep_through_verdict_objects(matrix, fixed_rates, varying_index, value_range, step):
    """Bifurcation sweep whose finishing pass builds one verdict object per
    root (``stability._verdicts``) and reads each branch point's
    ``stable`` and ``classification`` back out of it."""
    a = _as_binary_matrix(matrix)
    lo, hi = value_range
    values = np.round(np.arange(experiments._grid(lo), hi + step / 2, step), 12)
    rates = np.repeat(np.asarray(fixed_rates, dtype=float)[np.newaxis], len(values), axis=0)
    rates[:, varying_index] = values
    roots, owner = solver._roots(rates, a)
    order = np.lexsort((*roots.T[::-1], roots.sum(axis=1), owner))
    roots, owner = roots[order], owner[order]
    roots.flags.writeable = False
    points = [
        BranchPoint(p, False, "singular") if isinstance(v, ValueError) else BranchPoint(p, v.stable, v.classification)
        for p, v in zip(roots, stability._verdicts(roots, rates[owner], a, stability.DEFAULT_FP_TOL))
    ]
    ends = np.searchsorted(owner, np.arange(len(values) + 1))
    branches = [points[start:stop] for start, stop in zip(ends[:-1], ends[1:])]
    interior = ((roots > 0.0) & (roots < 1.0)).all(axis=1)
    critical_value = critical_point = None
    (folded,) = np.nonzero(np.bincount(owner[interior], minlength=len(values)) >= 2)
    if len(folded):
        last = folded[-1]
        critical_value = float(values[last])
        span = slice(ends[last], ends[last + 1])
        inner = roots[span][interior[span]]
        i, j = np.triu_indices(len(inner), 1)
        pair = np.abs(inner[i] - inner[j]).max(axis=1).argmin()
        critical_point = (inner[i[pair]] + inner[j[pair]]) / 2.0
        critical_point.flags.writeable = False
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


def _dense_stable_above(lo, rates, mask, direction):
    """Margin and slope per row at the upper bracket of each row's least
    fixed point, from the row's whole n x n matrices."""
    f = _response(lo, rates, mask)
    rounding = (8 + lo.shape[-1]) * np.finfo(float).eps
    hi = lo + np.abs(solver._solve_rows(-_jacobian(lo, f, mask), np.abs(f - lo) + 1e-12))
    rows = np.flatnonzero((hi < 1.0).all(axis=-1))
    f_hi = _response(hi[rows], rates[rows], mask[rows])
    post = (f_hi * (1.0 + rounding) <= hi[rows]).all(axis=-1)
    rows = rows[post]
    margin, slope = np.full(len(lo), np.nan), np.full(len(lo), np.nan)
    certificates = _certificate(hi[rows], f_hi[post], mask[rows])
    margin[rows] = pd_margin(certificates)
    passing = margin[rows] > 0.0
    c, rows = certificates[passing], rows[passing]
    # the unit eigenvector of the smallest eigenvalue, by one step of
    # inverse iteration from the ones vector, shifted to the margin
    shifted = c - margin[rows][:, np.newaxis, np.newaxis] * np.eye(c.shape[-1])
    v = np.linalg.solve(shifted, np.ones(c.shape[:-1])[..., np.newaxis])[..., 0]
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    q, y, a = lo[rows], rates[rows], mask[rows]
    gain = np.divide(f[rows] * direction, y, out=np.zeros_like(y), where=y > 0.0)
    dq = solver._solve_rows(-_jacobian(q, f[rows], a), gain)
    # mu' = -2 v^T dF' v, dF'_ij = a_ij (q'_i / (1 - q_j) + q_i q'_j / (1 - q_j)^2)
    s = 1.0 / (1.0 - q)
    d_jac = a * (dq[:, :, np.newaxis] * s[:, np.newaxis, :] + q[:, :, np.newaxis] * (dq * s * s)[:, np.newaxis, :])
    slope[rows] = -2.0 * np.einsum("ki,kij,kj->k", v, d_jac, v)
    return margin, slope


def common_rates_dense(matrices, step=0.001):
    """``experiments._common_rates`` with every lane solved and decided on
    its whole n x n matrix: one Newton row, one bracket and one
    certificate per probe, whatever the lane's components."""
    mask = np.array([np.asarray(m) != 0 for m in matrices])
    n = mask.shape[-1]
    direction = np.ones(n)

    def probe(lanes, values, warms):
        rates = np.array(values)[:, np.newaxis] * direction
        found = [None] * len(lanes)
        margins, slopes = np.full(len(lanes), np.nan), np.full(len(lanes), np.nan)
        rows = np.flatnonzero((rates <= 1.0).all(axis=-1))
        points, _, converged, _, _ = solver._newton_rows(
            np.array(warms)[rows], rates[rows], mask[lanes][rows], solver.DEFAULT_MAX_ITER
        )
        rows, points = rows[converged], points[converged]
        margins[rows], slopes[rows] = _dense_stable_above(points, rates[rows], mask[lanes][rows], direction)
        for row, point in zip(rows, points):
            if margins[row] > 0.0:
                found[row] = point
        return found, margins, slopes

    guesses = experiments._first_guesses(topology._whole(mask))
    return experiments._last_passing(probe, list(np.zeros((len(mask), n))), step, guesses=guesses)


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
        (point,), (margin,), _, _ = experiments._stable_lfps(
            np.full((1, n), round(mid * step, 12)), topology._whole(mask), best[np.newaxis], np.ones(n)
        )
        if not margin > 0.0:
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
        (point,), (margin,), _, _ = experiments._stable_lfps(rates, topology._whole(mask), warm[np.newaxis], game.rates)
        return point if margin > 0.0 else None

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
        _, (margin,), _, _ = experiments._stable_lfps(
            game.rates[np.newaxis],
            topology._whole(game.matrix.astype(bool)[np.newaxis]),
            result.point[np.newaxis],
            np.ones(game.n),
        )
        solve = f"NE={_fmt_vec(result.point)} stable={str(margin > 0.0).lower()}"
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


def kleene_lfp_own_loop(game, q0=None, tol=solver.DEFAULT_TOL, max_iter=solver.DEFAULT_MAX_ITER):
    """:func:`kleene_lfp` from a valid start through a best-response loop of its own."""
    mask = game.matrix.astype(bool)
    q = np.zeros(game.n) if q0 is None else np.asarray(q0, dtype=float)
    for it in range(max_iter + 1):
        f = _response(q, game.rates, mask)
        r = float(np.abs(f - q).max())
        if r <= tol:
            return solver._result(game, q, it, True, r, tol)
        if it == max_iter:
            return solver._result(game, q, max_iter, False, r, tol)
        q = f


def iterate_game_own_loop(
    q0, game, tol=dynamics.DEFAULT_TOL, max_iter=dynamics.DEFAULT_MAX_ITER, epsilon=1.0, perturb=0.0
):
    """:func:`iterate_game` from a valid start through a best-response loop
    of its own, scanning for cycles after every ``_CYCLE_CHECK_STRIDE``-th
    recorded state and once more at the budget."""
    q = np.clip(np.asarray(q0, dtype=float) + perturb, 0.0, 1.0)
    mask = game.matrix.astype(bool)
    states = [q]
    outcome = BUDGET_EXHAUSTED
    period = None
    for step in range(max_iter + 1):
        f = _response(q, game.rates, mask)
        move = epsilon * (f - q)
        if np.abs(move).max() <= tol:
            outcome = CONVERGED
            break
        if step == max_iter:
            break
        q = f if epsilon == 1.0 else np.clip(q + move, 0.0, 1.0)
        states.append(q)
        if len(states) >= 4 and len(states) % dynamics._CYCLE_CHECK_STRIDE == 0:
            period = detect_cycle(states)
            if period is not None:
                outcome = CYCLE
                break
    if outcome == BUDGET_EXHAUSTED:
        period = detect_cycle(states)
        if period is not None:
            outcome = CYCLE
    return Trajectory(states=np.asarray(states), outcome=outcome, epsilon=epsilon, period=period)


def integrate_ode_residual_drift(
    q0, game, dt=dynamics.DEFAULT_DT, t_end=dynamics.DEFAULT_T_END, tol=dynamics.DEFAULT_TOL
):
    """:func:`integrate_ode` from a valid start, its drift the checked :func:`residual` at every stage."""
    q = np.asarray(q0, dtype=float)

    def drift(p):
        return residual(np.clip(p, 0.0, 1.0), game)

    n_steps = int(round(t_end / dt))
    states = [q]
    outcome = BUDGET_EXHAUSTED
    for step in range(n_steps + 1):
        k1 = drift(q)
        if np.abs(k1).max() <= tol:
            outcome = CONVERGED
            break
        if step == n_steps:
            break
        k2 = drift(q + 0.5 * dt * k1)
        k3 = drift(q + 0.5 * dt * k2)
        k4 = drift(q + dt * k3)
        q = np.clip(q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0, 1.0)
        states.append(q)
    return Trajectory(states=np.asarray(states), outcome=outcome, epsilon=dt)
