"""Topology-scale studies built on the solver and stability machinery.

Everything here is deterministic given its arguments: random trials
derive their generator seeds from (master seed, setting index, trial
index), trials run and are reduced in a fixed order, and CSVs are
written through :func:`alohagame.game._write_csv`, which fixes the
number format, so identical calls produce byte-identical files.

The rate and scale searches close a bracket on a step grid with one
helper, :func:`_last_passing`, which runs many independent searches
(lanes) in lockstep under one probe protocol: a probe reports its
solutions, certificate margins and their slopes, and a lane picks its
next probe from the margin and slope at its last passing value. The
common-rate, feasible and demand-scale searches move target rates along
a rate direction (:func:`_rate_searches`) and decide at a proven upper
bracket of the least fixed point (:func:`_stable_lfps`), as the CLI's
``solve`` and ``stability`` do; the probability scale decides at its
scaled points. The trials of a sweep setting and the cells of a
feasible grid are lanes of one search: a round solves every live lane's
probes in one batched Newton and one batched bracket, and each lane
probes the values and takes the Newton iterations its own search would.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .game import Game, _as_binary_matrix, _as_rates, _check_count, _check_positive_finite, _response, _write_csv
from .game import achieved_rate, best_response  # noqa: F401  best_response: bench/tracer.py rebinds it here
from .solver import DEFAULT_MAX_ITER, _fixed_point_sets, _newton_rows, _solve_rows
from .stability import DEFAULT_FP_TOL, _certificate, _jacobian, _verdicts, krasovskii_verdict, pd_margin
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
DEFAULT_BREAK_X = 0.1


def _grid(value: float) -> float:
    """Clean up k*step accumulation noise."""
    return float(round(value, 12))


# A lockstep search holds at most this many interference-matrix
# entries at once: a round probes at most two values per lane, so its
# lanes run in blocks of at most _LANE_ENTRIES // (2 n^2) lanes (at
# least one). Lanes are independent, so the blocks change no result.
_LANE_ENTRIES = 1 << 18


def _lane_blocks(lanes: int, n: int) -> list:
    """Consecutive ranges of ``lanes`` lanes of n x n matrices, each within ``_LANE_ENTRIES``."""
    size = max(1, _LANE_ENTRIES // (2 * n * n))
    return [range(start, min(start + size, lanes)) for start in range(0, lanes, size)]


def _perron_vectors(certificates: np.ndarray, margins: np.ndarray) -> np.ndarray:
    """Unit eigenvector of each certificate's smallest eigenvalue, by one step of inverse iteration.

    Shifted in place to ``margins``, just below those eigenvalues, from
    the ones vector, which no nonnegative Perron vector is orthogonal to.
    """
    diag = np.arange(certificates.shape[-1])
    certificates[:, diag, diag] -= margins[:, np.newaxis]
    v = _solve_rows(certificates, np.ones(certificates.shape[:-1]))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v


def _margins_and_vectors(q: np.ndarray, f: np.ndarray, mask):
    """Certificate margins at the points q, and the Perron vectors of the points that pass.

    ``f`` is the response at q and ``mask`` the interference (one
    matrix, or one per point). Returns ``(margins, passing, v)``:
    :func:`pd_margin` of C(q) per point, the points where it is
    positive, and :func:`_perron_vectors` of their certificates. The
    certificates are freed on return, before a caller's slopes take
    their temporaries.
    """
    certificates = _certificate(q, f, mask)
    margins = pd_margin(certificates)
    passing = margins > 0.0
    return margins, passing, _perron_vectors(certificates[passing], margins[passing])


def _margin_slopes(v: np.ndarray, q: np.ndarray, dq, mask) -> np.ndarray:
    """Derivative of the certificate margin mu = 2 - 2 v^T F' v at q as q moves along ``dq``.

    v is mu's unit eigenvector (:func:`_perron_vectors`), and mu' =
    -2 v^T (dF') v with dF'_ij = a_ij (q'_i / (1 - q_j) + q_i q'_j /
    (1 - q_j)^2), taking F(q) = q.
    """
    s = 1.0 / (1.0 - q)
    image = np.matmul(mask, np.stack([v * s, v * dq * s * s], axis=-1))
    return -2.0 * ((v * dq) * image[..., 0] + (v * q) * image[..., 1]).sum(axis=-1)


def _stable_above(lo: np.ndarray, rates: np.ndarray, mask: np.ndarray, direction: np.ndarray):
    """Certificate margin, and its slope, at a proven upper bracket of each row's least fixed point.

    Row k of ``lo`` lies below the least fixed point q* of the game
    with target rates ``rates[k]`` and interference ``mask[k]``. Every
    hi < 1 with F(hi) <= hi lies above q*, because the least fixed
    point lies below every post-fixed point (Knaster-Tarski); the
    computed F(hi) must clear hi by its rounding error. Below 1 no
    response saturates, so the certificate C(q) = 2I - (F'(q) + F'(q)^T)
    only loses definiteness as q grows: F' is nonnegative and grows
    entrywise, and with it the largest eigenvalue of its symmetric part
    (Perron-Frobenius). C(hi) positive definite thus proves C(q*)
    positive definite, whatever the solver's tolerance. The one
    candidate is hi = lo + |d|, where d solves
    (I - F'(lo)) d = |F(lo) - lo| + 1e-12, a Newton step that overshoots
    q*.

    Returns ``(margin, slope)`` per row. ``margin`` is
    :func:`pd_margin` of C(hi), so a row passes when it is positive; a
    row whose candidate is not a post-fixed point below 1, or whose
    system is singular, has margin NaN. ``slope``, NaN on the other
    rows, is :func:`_margin_slopes` at lo along the solution path's
    slope q' = (I - F'(lo))^-1 b as the rates move along
    ``rates + t * direction``: b_i = F_i(lo) direction_i / rates_i where
    rates_i > 0, and 0 elsewhere. One response evaluation per point,
    one stacked solve and one eigenvalue solve serve all rows; the
    slopes take two more stacked solves over the passing rows.
    """
    f = _response(lo, rates, mask)
    # relative rounding of a computed response: a success product of
    # at most n - 1 factors and one quotient
    rounding = (8 + lo.shape[-1]) * np.finfo(float).eps
    # the Jacobian of the drift F(q) - q is F'(lo) - I
    hi = lo + np.abs(_solve_rows(-_jacobian(lo, f, mask), np.abs(f - lo) + 1e-12))
    rows = np.flatnonzero((hi < 1.0).all(axis=-1))
    f_hi = _response(hi[rows], rates[rows], mask[rows])
    post = (f_hi * (1.0 + rounding) <= hi[rows]).all(axis=-1)
    rows = rows[post]
    margin, slope = np.full(len(lo), np.nan), np.full(len(lo), np.nan)
    margin[rows], passing, v = _margins_and_vectors(hi[rows], f_hi[post], mask[rows])
    rows = rows[passing]
    q, y, a = lo[rows], rates[rows], mask[rows]
    gain = np.divide(f[rows] * direction, y, out=np.zeros_like(y), where=y > 0.0)
    slope[rows] = _margin_slopes(v, q, _solve_rows(-_jacobian(q, f[rows], a), gain), a)
    return margin, slope


def _stable_lfps(rates: np.ndarray, mask: np.ndarray, warm_starts: np.ndarray, direction: np.ndarray):
    """Per row, the least fixed point if it is interior with a positive-definite certificate, else None.

    Row k is the game with target rates ``rates[k]`` and interference
    ``mask[k]`` (booleans); rates above 1 lie past the end of every
    search grid and give None. ``warm_starts[k]`` must be a point known
    to sit below the row's least fixed point (zeros, Newton's point
    from zeros, or the least fixed point of the same topology at lower
    rates). The rows are solved together by the Newton of
    :func:`newton_lfp`, which gives up on a row as soon as it proves the
    point cannot be interior and stable.

    The certificate is decided at a proven upper bracket of the least
    fixed point (:func:`_stable_above`), not at the solver's estimate,
    so the verdict does not depend on where the solver stops. Marginal
    certificates, such as a pair's at its fold, count as unstable:
    boundary points are excluded, which keeps rate searches
    conservative. A point returned is the solver's estimate, which
    lies below the least fixed point, as a read-only array.

    Returns ``(points, margins, slopes)``: the list of points or None,
    and per row the margin and slope of :func:`_stable_above` along the
    rate ``direction`` (NaN for a row that was not bracketed).
    """
    found = [None] * len(rates)
    margins, slopes = np.full(len(rates), np.nan), np.full(len(rates), np.nan)
    rows = np.flatnonzero((rates <= 1.0).all(axis=-1))
    points, _, converged, _, _ = _newton_rows(warm_starts[rows], rates[rows], mask[rows], DEFAULT_MAX_ITER)
    rows, points = rows[converged], points[converged]
    margins[rows], slopes[rows] = _stable_above(points, rates[rows], mask[rows], direction)
    for row, point in zip(rows, points):
        if margins[row] > 0.0:
            point = point.copy()
            point.flags.writeable = False
            found[row] = point
    return found, margins, slopes


# Probe choice of the margin-guided searches. None of these constants
# changes a result, only how many probes a search makes. The first
# probe of a common-rate search sits just below _FIRST_PROBE_FRACTION /
# lambda (see _common_rates). A bracket of at most _NARROW_BRACKET steps
# is closed by probing every value inside it. A prediction more than
# _FAR_STEPS steps above the last passing value is approached by
# _DAMPING of the way. Newton calls over the 14 settings of the
# benchmark's sweep workload, seeds 1-3 together, against 420 for
# bisection: damping 0.5 makes 179, 0.6 makes 162, 0.65 makes 140, 0.7
# makes 133, 0.75 makes 154 and 0.8 makes 221.
_FIRST_PROBE_FRACTION = 0.25
_NARROW_BRACKET = 3
_FAR_STEPS = 4
_DAMPING = 0.7


def _below(value: float, origin: float, step: float) -> int:
    """Index k of the largest grid value ``origin + k*step`` strictly below ``value``."""
    k = int(np.ceil((value - origin) / step))
    while _grid(origin + k * step) >= value:
        k -= 1
    while _grid(origin + (k + 1) * step) < value:
        k += 1
    return k


def _next_probes(lo: int, hi: int, mu: float, slope: float) -> list:
    """The grid indices a margin-guided lane probes next, inside its bracket (lo, hi).

    ``mu`` and ``slope`` are the certificate margin at lo and its slope
    per grid step when the lane's last round passed at lo, and NaN when
    it gained no pass.
    """
    if hi - lo <= _NARROW_BRACKET:
        picks = range(lo + 1, hi)
    elif not (mu > 0.0 and slope < 0.0):
        picks = [(lo + hi) // 2]
    else:
        # Newton's step on mu^2
        ahead = -mu / (2.0 * slope)
        edge = int(np.ceil(lo + ahead))
        picks = [lo + int(np.ceil(_DAMPING * ahead))] if ahead > _FAR_STEPS else [edge - 1, edge]
    return sorted({min(max(k, lo + 1), hi - 1) for k in picks})


def _last_passing(probe, starts, step: float, origin: float = 0.0, limit: float = 1.0, guesses=None) -> list:
    """Search the grid ``origin + k*step`` for each lane's last passing value.

    Lane i passes at ``origin`` with solution ``starts[i]``, and no
    value above ``limit`` passes, give or take the grid's rounding.
    Each round probes one or two values of every live lane at once:
    ``probe(lanes, values, warms)`` gets the lane of each probe (an
    integer array, in which a lane may appear twice), the grid values
    and the warm starts, and returns ``(solutions, margins, slopes)``:
    per probe the solution at its value, or None when the value fails,
    the certificate margin mu, and its slope mu' in the searched value
    (:func:`_stable_above`). A lane's warm start is the solution at its
    last passing value, which lies below the solution at any higher
    one. A lane drops out when its bracket closes, so lanes may finish
    a round apart. Returns ``(value, solution)`` per lane for its
    largest passing value.

    Lane i first probes the largest grid value strictly below
    min(limit, ``guesses[i]``) when guesses are given, and its midpoint
    otherwise. After a round whose largest passing probe has mu > 0 and
    mu' < 0, the lane predicts its edge at y - mu / (2 mu'): near a fold
    mu falls like the square root of the distance to it, so this is
    Newton's step on mu^2. A far prediction is approached by part of
    the way, a near one is bracketed by the two grid values around it,
    and a bracket of a few steps is closed by probing all of it. A lane
    whose last round gained no pass probes its midpoint.

    Any probe order finds the value bisection or a walk up the grid
    finds, because the passing values form an interval: along a
    componentwise increasing rate path the least fixed point grows, the
    certificate's off-diagonal entries q_i / (1 - q_j) grow with it, and
    by Perron-Frobenius so does the largest eigenvalue of their
    symmetric part, so once the certificate fails it stays failed. The
    same holds along a ray of points b q* with q* > 0.
    """
    top = int((limit - origin) / step) + 2
    count = len(starts)
    lo, hi, best = [0] * count, [top] * count, list(starts)
    if guesses is None:
        picks = [[top // 2]] * count
    else:
        picks = [[max(1, min(top - 1, _below(min(limit, g), origin, step)))] for g in guesses]
    live = list(range(count))
    while live:
        lanes = [i for i, ks in zip(live, picks) for _ in ks]
        ks = [k for lane_ks in picks for k in lane_ks]
        solutions, margins, slopes = probe(
            np.array(lanes), [_grid(origin + k * step) for k in ks], [best[i] for i in lanes]
        )
        passed = {}
        for row, (i, k, solution) in enumerate(zip(lanes, ks, solutions)):
            # a lane's probes rise, and none above its first failure counts
            if k >= hi[i]:
                continue
            if solution is None:
                hi[i] = k
            else:
                lo[i], best[i], passed[i] = k, solution, row
        live = [i for i in live if hi[i] - lo[i] > 1]
        lead = {i: (margins[row], slopes[row] * step) for i, row in passed.items()}
        picks = [_next_probes(lo[i], hi[i], *lead.get(i, (np.nan, np.nan))) for i in live]
    return [(_grid(origin + k * step), solution) for k, solution in zip(lo, best)]


def _first_guesses(mask: np.ndarray) -> list:
    """1/(4 lambda) per interference matrix of the stack ``mask``, lambda the
    largest eigenvalue of its symmetric part (infinite for lambda = 0)."""
    # twice the symmetric part, built in place
    doubled = mask.astype(float)
    doubled += np.swapaxes(mask, -1, -2)
    spread = np.linalg.eigvalsh(doubled)[..., -1] / 2.0
    return [_FIRST_PROBE_FRACTION / lam if lam > 0.0 else np.inf for lam in spread]


def _rate_searches(base, direction, mask, starts, step, origin=0.0, limit=1.0, guesses=None) -> list:
    """Last stable grid value t of every lane along its rate path, all lanes in one lockstep search.

    Lane k is the game with interference ``mask[k]`` and target rates
    ``base[k] + t * direction``, t on the grid ``origin + m * step``;
    ``starts[k]`` is its least fixed point at t = ``origin``. Every
    round solves the live lanes' probes in one :func:`_stable_lfps`
    call, whose margins and slopes along ``direction`` guide the search
    (:func:`_last_passing`, which also takes ``limit`` and
    ``guesses``). Callers keep a call within ``_LANE_ENTRIES`` by
    searching in :func:`_lane_blocks`. Returns ``(t_max, point)`` per
    lane, as :func:`_last_passing` does.
    """

    def probe(lanes, values, warms):
        rates = base[lanes] + np.array(values)[:, np.newaxis] * direction
        return _stable_lfps(rates, mask[lanes], np.array(warms), direction)

    return _last_passing(probe, starts, step, origin, limit, guesses)


def _common_rates(matrices, step: float) -> list:
    """``(y_max, point)`` of :func:`max_common_rate` for each of ``matrices``, all of one size, in one lockstep search.

    Each lane's first guess is 1/(4 lambda), with lambda the largest
    eigenvalue of the symmetric part of its interference matrix A. No
    rate y >= 1/lambda passes: q* >= y gives F' >= y A entrywise, so the
    largest eigenvalue of F' + F'^T is at least 2 y lambda, and the
    certificate needs it below 2. An isolated pair, lambda = 1, fails
    from 0.25 on, and a lane without interference first probes just
    below the limit. The cells of a feasible grid take no guess: their
    fixed players interfere too, and the guess, blind to them, cost
    them a round.
    """
    mask = np.array([_as_binary_matrix(m) for m in matrices], dtype=bool)
    zeros = np.zeros(mask.shape[:2])
    return _rate_searches(zeros, np.ones(mask.shape[-1]), mask, list(zeros), step, guesses=_first_guesses(mask))


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
    contract and bisect together, and classifies every root of every
    value with the Krasovskii certificate in one batched verdict. A root
    whose Jacobian is singular (a neighbour coordinate at 1) is marked
    "singular". ``varying_index`` must name a player, 0..n-1. The matrix
    and the rates of every value are validated once, before any solve.
    """
    _check_positive_finite(step, "step")
    lo, hi = value_range
    if not np.isfinite([lo, hi]).all():
        raise ValueError("value_range must be finite")
    a = _as_binary_matrix(matrix)
    n = a.shape[0]
    try:
        index = operator.index(varying_index)
    except TypeError:
        raise ValueError(f"varying_index must be a whole number, got {varying_index!r}") from None
    if not 0 <= index < n:
        raise ValueError(f"varying_index must be in 0..{n - 1}, got {varying_index}")
    values = np.arange(_grid(lo), hi + step / 2, step)
    values = np.array([_grid(v) for v in values])

    fixed = np.asarray(fixed_rates, dtype=float)
    if fixed.shape != (n,):
        raise ValueError(f"fixed_rates must have shape ({n},), got {fixed.shape}")
    rates = np.repeat(fixed[np.newaxis], len(values), axis=0)
    rates[:, index] = values
    rates = _as_rates(rates, (len(values), n))
    rows = [
        sorted(fps.points, key=lambda p: (float(p.sum()), tuple(p)))
        for fps in (_fixed_point_sets(rates, a) if len(values) else [])
    ]
    roots = [p for pts in rows for p in pts]
    owner = np.repeat(np.arange(len(rows)), [len(pts) for pts in rows])
    verdicts = iter(_verdicts(np.array(roots).reshape(-1, n), rates[owner], a, DEFAULT_FP_TOL))
    branches = []
    critical_value = None
    last_interior = None
    for value, pts in zip(values, rows):
        row = []
        for p in pts:
            verdict = next(verdicts)
            if isinstance(verdict, ValueError):
                row.append(BranchPoint(p, False, "singular"))
            else:
                row.append(BranchPoint(p, verdict.stable, verdict.classification))
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
        varying_index=index,
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
    ``step`` up to 1 at which the least fixed point is interior and its
    certificate positive definite, found by a search of the step grid
    guided by the certificate's margin; (0.0, zeros) when even the
    first step fails. The certificate is decided at a proven upper
    bracket of the least fixed point, so a pair, whose fold sits
    exactly at 0.25, gives 0.249.
    """
    _check_positive_finite(step, "step")
    (found,) = _common_rates([matrix], step)
    return found


def feasible_contour(matrix, y1_values, y3_values, step: float = RATE_STEP):
    """Maximum stable middle rate over a grid of outer rates.

    For a three-player topology, returns ``surface[i, j]`` = largest
    multiple of ``step`` up to 1 that player 2 can demand with a stable
    interior equilibrium when players 1 and 3 demand ``y1_values[i]``
    and ``y3_values[j]`` (NaN when the outer rates alone have none),
    found by a search of the step grid guided by the certificate's
    margin. The upper boundary of the resulting region is the set of
    rate combinations with nothing left to give away. The cells are
    searched together, in lockstep.
    """
    _check_positive_finite(step, "step")
    mask = _as_binary_matrix(matrix).astype(bool)
    if mask.shape[0] != 3:
        raise ValueError("feasible_contour expects a 3-player topology")
    y1_values = np.asarray(y1_values, dtype=float)
    y3_values = np.asarray(y3_values, dtype=float)
    if not all(((v >= 0.0) & (v <= 1.0)).all() for v in (y1_values, y3_values)):
        raise ValueError("outer target rates must lie in [0, 1]")
    outer = np.zeros((len(y1_values), len(y3_values), 3))
    outer[..., 0], outer[..., 2] = y1_values[:, np.newaxis], y3_values
    outer = outer.reshape(-1, 3)
    middle = np.array([0.0, 1.0, 0.0])
    surface = np.full(len(outer), np.nan)
    for block in _lane_blocks(len(outer), 3):
        cells = outer[block.start : block.stop]
        masks = np.broadcast_to(mask, (len(cells), 3, 3))
        bases, _, _ = _stable_lfps(cells, masks, np.zeros_like(cells), middle)
        live = [i for i, base in enumerate(bases) if base is not None]
        found = _rate_searches(cells[live], middle, masks[live], [bases[i] for i in live], step)
        surface[[block.start + i for i in live]] = [y2 for y2, _ in found]
    return surface.reshape(len(y1_values), len(y3_values))


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
    equilibrium, by a margin-guided search along the rate direction y.
    The base rates themselves must be stable-feasible, and at least one
    must be positive (otherwise every factor works).
    """
    _check_positive_finite(step, "step")
    mask = game.matrix.astype(bool)[np.newaxis]
    (base_point,), _, _ = _stable_lfps(game.rates[np.newaxis], mask, np.zeros((1, game.n)), game.rates)
    if base_point is None:
        raise ValueError("base rates admit no stable interior equilibrium")
    top = float(game.rates.max())
    if top == 0.0:
        raise ValueError("all base rates are zero: the demand scale is unbounded")
    ((factor, point),) = _rate_searches(
        np.zeros((1, game.n)), game.rates, mask, [base_point], step, origin=1.0, limit=1.0 / top
    )
    rates = factor * game.rates
    return ScaleResult(factor=factor, rates=rates, point=point, sum_rate=float(rates.sum()))


def max_probability_scale(game: Game, q_star, step: float = SCALE_STEP) -> ScaleResult:
    """Scale the equilibrium probabilities until the certificate gives out.

    Finds the largest factor b = 1 + m*step (m = 0, 1, ...) with b*q_star
    strictly inside the box and the certificate matrix positive
    definite there, by a margin-guided search whose slopes move along
    q_star. The scaled point is an exact equilibrium for the rates it
    induces through the throughput map, which is what ``rates``
    reports. ``q_star`` must be a stable equilibrium of the base game
    with some positive component.
    """
    _check_positive_finite(step, "step")
    q_star = np.asarray(q_star, dtype=float)
    if not krasovskii_verdict(q_star, game).stable:
        raise ValueError("q_star must be a stable equilibrium of the base game")
    top = float(q_star.max())
    if top == 0.0:
        raise ValueError("q_star is zero: the probability scale is unbounded")
    mask = game.matrix.astype(bool)

    def probe(lanes, factors, warms):
        q = np.array(factors)[:, np.newaxis] * q_star
        rows = np.flatnonzero((q < 1.0).all(axis=-1))
        induced = achieved_rate(q[rows], mask)
        margins, slopes = np.full(len(q), np.nan), np.full(len(q), np.nan)
        f = _response(q[rows], induced, mask)
        margins[rows], passing, v = _margins_and_vectors(q[rows], f, mask)
        rows = rows[passing]
        slopes[rows] = _margin_slopes(v, q[rows], q_star, mask)
        found = [None] * len(q)
        for row, rates in zip(rows, induced[passing]):
            found[row] = (q[row], rates)
        return found, margins, slopes

    base = (q_star, achieved_rate(q_star, game.matrix))
    ((factor, (point, rates)),) = _last_passing(probe, [base], step, origin=1.0, limit=1.0 / top)
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


def _record(matrix, seed, n, side, found) -> SweepRecord:
    """The record of a trial whose search gave ``found = (y_max, point)``."""
    y_max, point = found
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
    """Records of ``trials`` seeded topologies per (n, density) setting, and one summary per setting.

    A setting's trials are searched in lockstep, in blocks of lanes
    (:func:`_lane_blocks`) whose topologies are drawn just before their
    search.
    """
    _check_count(trials, "trials")
    _check_positive_finite(step, "step")
    records = []
    summaries = []
    for s_idx, (n, density) in enumerate(settings):
        side = side_for_density(n, density)
        for block in _lane_blocks(trials, n):
            seeds = [_trial_seed(seed, s_idx, t) for t in block]
            matrices = [random_topology(n, side, s, edge_rule=edge_rule)[1] for s in seeds]
            found = _common_rates(matrices, step)
            records += [_record(m, s, n, side, f) for m, s, f in zip(matrices, seeds, found)]
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
    baselines = []
    for n in n_values:
        if include_fully_connected and n >= 2:
            matrix = fully_connected_matrix(n)
            baselines.append(_record(matrix, 0, int(n), 0.0, max_common_rate(matrix, step)))
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


def fit_power_law(x, y, break_x: float = DEFAULT_BREAK_X) -> PowerLawFit:
    """Two-segment least-squares power law in log-log coordinates.

    All inputs must be positive and finite; at least one side of
    ``break_x`` needs two or more points, and a side without them is
    reported unfitted rather than extrapolated.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    _check_positive_finite(x, "x")
    _check_positive_finite(y, "y")
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
