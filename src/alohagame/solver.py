"""Equilibrium solvers.

Three routes to the fixed points of the best-response map:

* :func:`kleene_lfp` iterates the map from a point below the target
  rates. Because the map is order-preserving and sends [0, 1]^n into
  itself, the iterates form an ascending chain whose limit is the least
  fixed point, which is the game's unique Nash equilibrium.
* :func:`newton_lfp` reaches the same point by Newton's method from
  below. The unclipped map is order-preserving and convex, so the
  iterates stay below the least fixed point and converge to it
  monotonically, in a handful of steps where the ascent needs hundreds.
  It serves the rate searches, which only need interior equilibria.
* :func:`multistart_fixed_points` is a brute-force oracle: damped
  Newton on the unclipped stationarity system from a uniform grid of
  starting points. It enumerates the fixed points on small instances
  and is used to cross-check the iterative solver. Each step takes the
  first of the factors 1, 1/2, ..., 2^-29 that does not raise the
  residual. The factors are tried in four blocks, each one residual
  evaluation over all starts still searching: the full step, then
  2^-1 ... 2^-8, 2^-9 ... 2^-16 and 2^-17 ... 2^-29. That accepts the
  same factor as halving one at a time, with at most four evaluations
  per step instead of up to thirty. Games that share a matrix, such as
  the values of a bifurcation sweep, are solved in stacks: each start
  carries its own game's rates, and the whole start grids of
  consecutive games step together, at most ``_STACK_STARTS`` starts
  per stack, so the working memory is bounded whatever the number of
  games. Every start's iterates depend on its own point and rates
  only, so each game gets the roots it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .game import Game, best_response, is_fixed_point, leq, success_product

__all__ = [
    "LfpResult",
    "FixedPointSet",
    "kleene_lfp",
    "newton_lfp",
    "multistart_fixed_points",
    "least_of",
    "ORACLE_MAX_PLAYERS",
]

# The oracle grids [0,1]^n with starts_per_axis**n Newton starts; past
# eight players the grid explodes and exhaustive enumeration is off the
# table anyway.
ORACLE_MAX_PLAYERS = 8

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

# Oracle roots closer than this (infinity norm) are one root.
DEDUP_RADIUS = 1e-6

# The oracle's damping factors 1, 2^-1, ..., 2^-29, in the blocks that
# share one residual evaluation. About a quarter of the steps take the
# full step, which goes alone; most others need 10 to 16 halvings and
# end in the third block.
_DAMPING_BLOCKS = np.split(np.ldexp(1.0, -np.arange(30)), [1, 9, 17])

# The oracle's default start grid (per axis) and Newton step budget.
_ORACLE_STARTS_PER_AXIS = 5
_ORACLE_MAX_ITER = 80

# Starts per stacked oracle solve. Whole start grids of games that share
# a matrix are solved together up to this many starts, which bounds the
# stack's working memory whatever the number of games.
_STACK_STARTS = 500


@dataclass(frozen=True)
class LfpResult:
    """Outcome of a least-fixed-point solve.

    ``infeasible`` is set only by :func:`newton_lfp`, when it stopped
    early with proof that the game has no interior least fixed point
    with a positive-definite certificate; ``point`` is then the last
    iterate.
    """

    point: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    extraneous: bool
    infeasible: bool = False

    @property
    def interior(self) -> bool:
        """Converged strictly below the all-transmit boundary."""
        return self.converged and bool((self.point < 1.0).all())


@dataclass(frozen=True)
class FixedPointSet:
    """Deduplicated fixed points found by the oracle.

    ``points`` holds the genuine roots inside [0, 1]^n. The all-ones
    point introduced by clipping the response map at 1 is recorded via
    ``includes_extraneous`` and kept out of ``points``: it is an
    artifact of the clipping, and on edge-free topologies it is not
    even a fixed point.
    """

    points: list = field(default_factory=list)
    includes_extraneous: bool = False

    @property
    def n_points(self) -> int:
        return len(self.points)

    def interior_points(self) -> list:
        """Roots strictly inside (0, 1)^n."""
        return [p for p in self.points if (p > 0.0).all() and (p < 1.0).all()]


def _ascend(game: Game, q0: np.ndarray, tol: float, max_iter: int):
    """Iterate the best-response map; valid whenever q0 is below the LFP."""
    q = q0
    for it in range(max_iter + 1):
        f = best_response(q, game)
        r = float(np.abs(f - q).max())
        if r <= tol:
            return q, it, True, r
        if it == max_iter:
            return q, max_iter, False, r
        q = f


def _result(game: Game, q, iterations, converged, res_norm, tol, infeasible=False) -> LfpResult:
    point = np.asarray(q, dtype=float).copy()
    point.flags.writeable = False
    extraneous = converged and bool((point >= 1.0 - 10.0 * tol).all()) and bool(
        (game.rates > 0.0).any()
    )
    return LfpResult(point, iterations, converged, res_norm, extraneous, infeasible)


def kleene_lfp(
    game: Game,
    q0=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LfpResult:
    """Ascend to the least fixed point from a start below the target rates.

    The start must satisfy 0 <= q0 <= rates componentwise (the box from
    which convergence to the least fixed point is guaranteed); ``None``
    means the all-zeros vector. Iteration stops at the first iterate
    whose residual infinity-norm is at most ``tol``.

    A converged result sitting at the all-ones vector is flagged
    ``extraneous``: the network cannot support the requested rates and
    the iteration escalated to everyone always transmitting.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if q0 is None:
        q0 = np.zeros(game.n)
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (game.n,):
        raise ValueError(f"q0 must have shape ({game.n},), got {q0.shape}")
    if (q0 < 0.0).any() or not leq(q0, game.rates):
        raise ValueError("q0 must lie in the box [0, rates] (start region for the ascent)")
    q, iterations, converged, res_norm = _ascend(game, q0, tol, max_iter)
    return _result(game, q, iterations, converged, res_norm, tol)


def newton_lfp(
    game: Game,
    q0=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LfpResult:
    """Interior least fixed point by monotone Newton from below.

    ``q0`` must lie below the least fixed point: zeros (``None``), a
    point of [0, rates], or the least fixed point of the same topology
    at componentwise lower rates. Each step solves
    (I - F'(q)) d = F(q) - q, with F'_ij = a_ij F_i(q) / (1 - q_j), and
    moves to max(q + d, F(q)). Iteration stops at the first iterate
    whose residual infinity-norm is at most ``tol`` and returns its
    image F(q).

    The solve stops early, flagged ``infeasible``, when some component
    of F(q) or of the next iterate reaches 1 (the least fixed point is
    not interior), or when a step is not finite or has a component
    below -tol. Below the least fixed point every step is nonnegative
    while the spectral radius of F'(q) is under 1, so a negative step
    shows the radius is at least 1; it only grows on the way up to the
    least fixed point, where the certificate 2I - F' - F'^T then cannot
    be positive definite. The tolerance absorbs round-off: isolated
    players leave residuals of about +-1e-17.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    q = np.zeros(game.n) if q0 is None else np.asarray(q0, dtype=float)
    if q.shape != (game.n,):
        raise ValueError(f"q0 must have shape ({game.n},), got {q.shape}")
    if (q < 0.0).any() or (q >= 1.0).any():
        raise ValueError("q0 must lie in [0, 1)^n, below the least fixed point")
    a = np.asarray(game.matrix, dtype=float)
    eye = np.eye(game.n)
    for it in range(max_iter + 1):
        f = best_response(q, game)
        r = f - q
        res_norm = float(np.abs(r).max())
        if (f >= 1.0).any():
            return _result(game, q, it, False, res_norm, tol, infeasible=True)
        if res_norm <= tol:
            return _result(game, f, it, True, res_norm, tol)
        if it == max_iter:
            return _result(game, q, max_iter, False, res_norm, tol)
        try:
            d = np.linalg.solve(eye - a * (f[:, np.newaxis] / (1.0 - q)), r)
        except np.linalg.LinAlgError:
            d = np.full(game.n, np.nan)
        nxt = np.maximum(q + d, f)
        if not np.isfinite(d).all() or (d < -tol).any() or (nxt >= 1.0).any():
            return _result(game, q, it, False, res_norm, tol, infeasible=True)
        q = nxt


# ---------------------------------------------------------------------------
# Multistart Newton oracle
# ---------------------------------------------------------------------------


def _stationarity(q, matrix, rates):
    """Unclipped stationarity residual rates/prod - q, batched over rows of q.

    ``rates`` broadcasts against ``q``: one target-rate vector for every
    row, or one per row. Well defined wherever no success product
    vanishes; entries where it does are returned as +/-inf so callers
    can drop those iterates.
    """
    prod = success_product(q, matrix)
    raw = np.divide(rates, prod, out=np.full_like(prod, np.inf), where=prod != 0.0)
    return raw - q, raw


def _stationarity_jacobian(q, raw, matrix):
    """Jacobian of the unclipped stationarity map at each row of q."""
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = matrix * raw[:, :, np.newaxis] / (1.0 - q[:, np.newaxis, :])
    jac -= np.eye(q.shape[-1])
    return jac


def _newton_from_grid(matrix, rates, starts: np.ndarray, tol: float, max_iter: int):
    """Damped Newton from every start at once.

    ``rates`` broadcasts against ``starts``, so each start can carry the
    target rates of its own game; all share the interference matrix.
    Returns the final iterates and a mask of the converged ones.

    Each start moves by the first of 1, 1/2, ..., 2^-29 times its Newton
    step at which the residual is finite and no larger than before. The
    factors are tried block by block (``_DAMPING_BLOCKS``): the full
    step for every active start in one residual evaluation, then the
    halved factors for the starts it did not improve, in at most three
    more, each over all factors of a block and all starts still pending.
    Every residual row depends on its own point and rates only, so this
    accepts the factor that halving one at a time would, whatever else
    is in the stack. Starts that no factor improves, or whose Jacobian
    is singular or not finite, are dropped silently.
    """
    q = starts.astype(float).copy()
    rates = np.broadcast_to(rates, q.shape)
    h, raw = _stationarity(q, matrix, rates)
    hnorm = np.abs(h).max(axis=1)
    alive = np.isfinite(hnorm)
    hnorm[~alive] = np.inf

    for _ in range(max_iter):
        active = alive & (hnorm > tol)
        if not active.any():
            break
        idx = np.flatnonzero(active)
        jac = _stationarity_jacobian(q[idx], raw[idx], matrix)
        ok = np.isfinite(jac).all(axis=(1, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            ok[ok] = np.abs(np.linalg.det(jac[ok])) > 1e-300
        alive[idx[~ok]] = False
        idx = idx[ok]
        if idx.size == 0:
            continue
        step = np.linalg.solve(jac[ok], -h[idx][..., np.newaxis])[..., 0]

        rows = idx
        for factors in _DAMPING_BLOCKS:
            cand = q[rows] + factors[:, np.newaxis, np.newaxis] * step
            cand_h, cand_raw = _stationarity(cand, matrix, rates[rows])
            cand_norm = np.abs(cand_h).max(axis=2)
            better = np.isfinite(cand_norm) & (cand_norm <= hnorm[rows])
            hit = better.any(axis=0)
            # first improving factor of each start that has one
            take = better.argmax(axis=0)[hit], np.flatnonzero(hit)
            moved = rows[hit]
            q[moved] = cand[take]
            h[moved] = cand_h[take]
            raw[moved] = cand_raw[take]
            hnorm[moved] = cand_norm[take]
            rows, step = rows[~hit], step[~hit]
            if rows.size == 0:
                break
        alive[rows] = False

    return q, alive & (hnorm <= tol)


def _polish(game: Game, q: np.ndarray, max_iter: int = 8) -> np.ndarray:
    """Full Newton steps to push a root's residual toward machine precision.

    Near a fold the stationarity Jacobian is almost singular and a
    merely tol-accurate root can sit noticeably off the true fixed
    point; a few undamped steps remove that amplification.
    """
    h, raw = _stationarity(q[np.newaxis, :], game.matrix, game.rates)
    if not np.isfinite(h).all():
        return q
    norm = np.abs(h).max()
    for _ in range(max_iter):
        if norm < 1e-15:
            break
        jac = _stationarity_jacobian(q[np.newaxis, :], raw, game.matrix)[0]
        try:
            step = np.linalg.solve(jac, -h[0])
        except np.linalg.LinAlgError:
            break
        cand = q + step
        cand_h, cand_raw = _stationarity(cand[np.newaxis, :], game.matrix, game.rates)
        cand_norm = np.abs(cand_h).max()
        if not (np.isfinite(cand_h).all() and cand_norm < norm):
            break
        q, h, raw, norm = cand, cand_h, cand_raw, cand_norm
    return q


def _dedup(points: np.ndarray, radius: float) -> list:
    """Merge points within the given infinity-norm radius, deterministically.

    In lexicographic order, keeps the first remaining point and drops
    every remaining point within ``radius`` of it, until none remain:
    the points a greedy pass keeps, one array operation per kept point.
    """
    rest = points[np.lexsort(points.T[::-1])]
    kept: list = []
    while len(rest):
        p, rest = rest[0], rest[1:]
        rest = rest[np.abs(rest - p).max(axis=1) > radius]
        p.flags.writeable = False
        kept.append(p)
    return kept


def _root_set(game: Game, roots: np.ndarray) -> FixedPointSet:
    """Polished, deduplicated roots of one game inside [0, 1]^n."""
    reps = [_polish(game, r) for r in _dedup(roots, DEDUP_RADIUS)]
    slack = 1e-9
    kept = [
        np.clip(r, 0.0, 1.0)
        for r in reps
        if (r >= -slack).all() and (r <= 1.0 + slack).all()
    ]
    # Enforce the advertised guarantee against the clipped map as well.
    kept = [r for r in kept if is_fixed_point(r, game, 10.0 * DEFAULT_TOL)]

    points = _dedup(np.asarray(kept) if kept else np.empty((0, game.n)), DEDUP_RADIUS)
    return FixedPointSet(points=points, includes_extraneous=bool((game.rates > 0.0).all()))


def _fixed_point_sets(
    games: list,
    starts_per_axis: int = _ORACLE_STARTS_PER_AXIS,
    max_iter: int = _ORACLE_MAX_ITER,
) -> list:
    """The oracle's :class:`FixedPointSet` of each game, in order.

    The games must share one interference matrix. Whole start grids of
    consecutive games go through one stacked Newton solve, as many as
    fit in ``_STACK_STARTS`` starts (at least one), and the starts and
    rates of one stack are built only when it runs.
    """
    if not games:
        return []
    n = games[0].n
    if n > ORACLE_MAX_PLAYERS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_PLAYERS} players (got {n}); "
            "the start grid grows exponentially"
        )
    if starts_per_axis < 1:
        raise ValueError("starts_per_axis must be at least 1")
    centers = (np.arange(starts_per_axis) + 0.5) / starts_per_axis
    grid = np.stack(np.meshgrid(*([centers] * n), indexing="ij"), axis=-1).reshape(-1, n)
    per_stack = max(1, _STACK_STARTS // len(grid))

    sets = []
    for first in range(0, len(games), per_stack):
        stack = games[first : first + per_stack]
        starts = np.tile(grid, (len(stack), 1))
        rates = np.repeat([g.rates for g in stack], len(grid), axis=0)
        q, done = _newton_from_grid(stack[0].matrix, rates, starts, DEFAULT_TOL, max_iter)
        q, done = q.reshape(len(stack), len(grid), n), done.reshape(len(stack), len(grid))
        sets.extend(_root_set(game, q_k[done_k]) for game, q_k, done_k in zip(stack, q, done))
    return sets


def multistart_fixed_points(
    game: Game,
    starts_per_axis: int = _ORACLE_STARTS_PER_AXIS,
    max_iter: int = _ORACLE_MAX_ITER,
) -> FixedPointSet:
    """Enumerate fixed points on a small instance by gridded Newton runs.

    Solves the unclipped stationarity system rates_i = q_i * prod_i from
    ``starts_per_axis ** n`` interior grid starts, keeps the converged
    roots that land inside [0, 1]^n, and deduplicates them. Roots of the
    polynomial system outside the box (transmission "probabilities"
    above 1) are discarded as infeasible. The clipping-induced all-ones
    point is reported through ``includes_extraneous`` whenever every
    target rate is positive.

    This is the one-game case of the stacked solve that
    :func:`~alohagame.experiments.bifurcation_sweep` runs over many
    rate vectors at once; each start's iterates depend on its own
    point only, so the roots are the same either way.
    """
    (fps,) = _fixed_point_sets([game], starts_per_axis, max_iter)
    return fps


def least_of(fps: FixedPointSet, tol: float = 0.0) -> np.ndarray:
    """The fixed point that is componentwise below every other one.

    Raises on an empty set, and raises a diagnostic error when the
    minimal elements are incomparable, which would contradict the
    least-fixed-point structure of the game; ``tol`` loosens the
    comparisons to absorb solver round-off (0 keeps them exact).
    """
    if not fps.points:
        raise ValueError("fixed-point set is empty")
    candidate = min(fps.points, key=lambda p: (float(p.sum()), tuple(p)))
    for other in fps.points:
        if not (candidate <= other + tol).all():
            raise ValueError(
                "no least element: fixed points are incomparable "
                f"({candidate} vs {other}); this contradicts the ordered "
                "fixed-point structure and should be investigated"
            )
    return candidate
