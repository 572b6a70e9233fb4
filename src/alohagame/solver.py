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
* :func:`multistart_fixed_points` is an exhaustive oracle for small
  instances. Each success product is monotone in every coordinate, so
  over a box of [0, 1]^n the range of q_i * prod_i is exact at the
  box's corners, and a box whose range misses the target rate holds no
  fixed point. The oracle contracts and bisects the boxes that
  survive, polishes a root from each small leaf by Newton's method on
  the polynomial form, and keeps the genuine fixed points. It is used
  to cross-check the iterative solvers. Games that share a topology
  are enumerated together, their boxes contracted and split in the
  same rounds: a bifurcation sweep finds every parameter value's roots
  in one enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .game import FIXED_POINT_TOL, Game, best_response, leq, residual, success_product

__all__ = [
    "LfpResult",
    "FixedPointSet",
    "kleene_lfp",
    "newton_lfp",
    "multistart_fixed_points",
    "least_of",
]

# The oracle enumerates boxes of [0,1]^n, a number that grows
# exponentially with the players; past eight, exhaustive enumeration is
# off the table.
ORACLE_MAX_PLAYERS = 8

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

# Oracle roots closer than this (infinity norm) are one root.
DEDUP_RADIUS = 1e-6

# The oracle bisects boxes down to this width (infinity norm) and
# contracts each box this many times per bisection.
_LEAF_WIDTH = 1e-3
_CONTRACT_ROUNDS = 3

# Relative outward rounding of contracted bounds. It covers the
# rounding of a success product of up to seven factors and of one
# quotient, so rounding cannot drop a root on a box face.
_OUTWARD = 16 * np.finfo(float).eps


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
    if not tol > 0.0:
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


def newton_lfp(game: Game, q0=None, max_iter: int = DEFAULT_MAX_ITER) -> LfpResult:
    """Interior least fixed point by monotone Newton from below.

    ``q0`` must lie below the least fixed point: zeros (``None``), a
    point of [0, rates], or the least fixed point of the same topology
    at componentwise lower rates. Each step solves
    (I - F'(q)) d = F(q) - q, with F'_ij = a_ij F_i(q) / (1 - q_j), and
    moves to max(q + d, F(q)). Iteration stops at the first iterate
    whose residual infinity-norm is at most ``DEFAULT_TOL`` and returns
    its image F(q).

    The solve stops early, flagged ``infeasible``, when some component
    of F(q) or of the next iterate reaches 1 (the least fixed point is
    not interior), or when a step is not finite or has a component
    below -``DEFAULT_TOL``. Below the least fixed point every step is
    nonnegative while the spectral radius of F'(q) is under 1, so a negative step
    shows the radius is at least 1; it only grows on the way up to the
    least fixed point, where the certificate 2I - F' - F'^T then cannot
    be positive definite. The tolerance absorbs round-off: isolated
    players leave residuals of about +-1e-17.
    """
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
            return _result(game, q, it, False, res_norm, DEFAULT_TOL, infeasible=True)
        if res_norm <= DEFAULT_TOL:
            return _result(game, f, it, True, res_norm, DEFAULT_TOL)
        if it == max_iter:
            return _result(game, q, max_iter, False, res_norm, DEFAULT_TOL)
        try:
            d = np.linalg.solve(eye - a * (f[:, np.newaxis] / (1.0 - q)), r)
        except np.linalg.LinAlgError:
            d = np.full(game.n, np.nan)
        nxt = np.maximum(q + d, f)
        if not np.isfinite(d).all() or (d < -DEFAULT_TOL).any() or (nxt >= 1.0).any():
            return _result(game, q, it, False, res_norm, DEFAULT_TOL, infeasible=True)
        q = nxt


# ---------------------------------------------------------------------------
# Box-exclusion oracle
# ---------------------------------------------------------------------------


def _contract(lo, hi, row, rates, mask):
    """One round of the monotone interval map over the boxes [lo, hi].

    Box k belongs to the game whose target rates are ``rates[row[k]]``;
    ``mask`` is the games' interference matrix as booleans. Over a box
    the success product P_i ranges over [P_i(hi), P_i(lo)], so every
    root q_i = y_i / P_i(q) in it lies in [y_i / P_i(lo), y_i / P_i(hi)].
    Each box is cut to that range, rounded outward by ``_OUTWARD``, and
    boxes left empty are dropped: they hold no root. A zero product
    gives an infinite bound (or none, for a silent player), which the
    fmax/fmin pair handles; the caller silences the division warnings.
    """
    bounds = rates[row] / success_product(np.concatenate([lo, hi]), mask).reshape(2, *lo.shape)
    lo = np.fmax(lo, bounds[0] * (1.0 - _OUTWARD))
    hi = np.fmin(hi, bounds[1] * (1.0 + _OUTWARD))
    keep = (lo <= hi).all(axis=1)
    return lo[keep], hi[keep], row[keep]


def _leaf_centres(rates, mask, cells_per_axis: int):
    """Centres of the boxes no exclusion removes, bisected to ``_LEAF_WIDTH``.

    Enumerates the games whose target rates are the rows of ``rates``
    and whose interference matrix is ``mask``, all in the same rounds,
    and returns the leaf centres with the rate row of each. Every game
    starts from ``cells_per_axis`` cells per axis over [0, 1]^n. A
    silent player's axis is [0, 0] from the start: a zero rate forces
    q_i = 0 at every fixed point of the clipped map. Each round
    contracts every box ``_CONTRACT_ROUNDS`` times, keeps those at most
    ``_LEAF_WIDTH`` wide as leaves and splits the rest in half along
    their widest side.
    """
    n = rates.shape[1]
    edges = np.linspace(0.0, 1.0, cells_per_axis + 1)
    cells = np.stack(np.meshgrid(*[np.arange(cells_per_axis)] * n, indexing="ij"), axis=-1).reshape(-1, n)
    silent = rates == 0.0
    row, box = np.nonzero(~(silent[:, np.newaxis] & (cells > 0)).any(axis=-1))
    lo, hi = edges[cells[box]], np.where(silent[row], 0.0, edges[cells[box] + 1])
    leaves, owners = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(lo):
            for _ in range(_CONTRACT_ROUNDS):
                lo, hi, row = _contract(lo, hi, row, rates, mask)
            width = hi - lo
            leaf = width.max(axis=1) <= _LEAF_WIDTH
            leaves.append((lo[leaf] + hi[leaf]) / 2.0)
            owners.append(row[leaf])
            split = ~leaf
            lo, hi, row, width = lo[split], hi[split], row[split], width[split]
            boxes, axis = np.arange(len(lo)), width.argmax(axis=1)
            mid = (lo[boxes, axis] + hi[boxes, axis]) / 2.0
            # Lower halves first, then upper halves.
            lo, hi, row = np.concatenate([lo, lo]), np.concatenate([hi, hi]), np.concatenate([row, row])
            hi[boxes, axis] = lo[len(boxes) + boxes, axis] = mid
    return np.concatenate(leaves), np.concatenate(owners)


def _polynomial(q, rates, matrix):
    """Residual q * P(q) - y and its Jacobian, batched over rows of q.

    Row k of ``q`` is a point of the game whose target rates are row k
    of ``rates``. The products of all factors but one come from prefix
    and suffix products, so the Jacobian has no pole where some q_j = 1.
    """
    factors = np.where(matrix.astype(bool), 1.0 - q[:, np.newaxis, :], 1.0)
    ones = np.ones_like(factors[..., :1])
    before = np.cumprod(np.concatenate([ones, factors[..., :-1]], axis=-1), axis=-1)
    after = np.cumprod(np.concatenate([ones, factors[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
    prod = before[..., -1] * factors[..., -1]
    jac = -matrix * q[..., np.newaxis] * (before * after)
    jac[:, np.arange(len(matrix)), np.arange(len(matrix))] = prod
    return q * prod - rates, jac


def _polish(starts: np.ndarray, rates, matrix, max_iter: int) -> np.ndarray:
    """The best-residual iterate of full Newton steps from each start.

    Start k solves the system of the game whose target rates are row k
    of ``rates``. A start stops at its first step that does not lower
    the residual, or whose Jacobian is singular or not finite, and
    otherwise after ``max_iter`` steps.
    """
    best = starts.copy()
    h, jac = _polynomial(best, rates, matrix)
    best_norm = np.abs(h).max(axis=1)
    rows = np.arange(len(best))
    for _ in range(max_iter):
        with np.errstate(over="ignore", invalid="ignore"):
            ok = np.isfinite(jac).all(axis=(1, 2))
            ok[ok] = np.abs(np.linalg.det(jac[ok])) > 1e-300
        rows, h, jac = rows[ok], h[ok], jac[ok]
        if not len(rows):
            break
        q = best[rows] - np.linalg.solve(jac, h[..., np.newaxis])[..., 0]
        h, jac = _polynomial(q, rates[rows], matrix)
        norm = np.abs(h).max(axis=1)
        better = norm < best_norm[rows]
        rows, q, h, jac = rows[better], q[better], h[better], jac[better]
        best[rows], best_norm[rows] = q, norm[better]
    return best


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


def _fixed_point_sets(games, starts_per_axis: int = 1, max_iter: int = 50) -> list:
    """:func:`multistart_fixed_points` of each game, in one enumeration.

    The games share one interference matrix. Their boxes contract,
    split and polish together, each against its own target rates, so
    every game gets the fixed points it would get alone.
    """
    n = games[0].n
    if n > ORACLE_MAX_PLAYERS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_PLAYERS} players (got {n}); "
            "the box enumeration grows exponentially"
        )
    if starts_per_axis < 1:
        raise ValueError("starts_per_axis must be at least 1")
    matrix = games[0].matrix
    rates = np.stack([g.rates for g in games])
    centres, owner = _leaf_centres(rates, matrix.astype(bool), starts_per_axis)
    leaf_rates = rates[owner]
    roots = _polish(centres, leaf_rates, matrix, max_iter)
    # Exact, as for the leaves: a zero rate forces q_i = 0.
    roots[leaf_rates == 0.0] = 0.0
    slack = 1e-9
    inside = ((roots >= -slack) & (roots <= 1.0 + slack)).all(axis=1)
    sets = []
    for k, game in enumerate(games):
        mine = np.clip(roots[inside & (owner == k)], 0.0, 1.0)
        fixed = np.abs(residual(mine, game)).max(axis=1) <= FIXED_POINT_TOL
        points = _dedup(mine[fixed], DEDUP_RADIUS)
        sets.append(FixedPointSet(points=points, includes_extraneous=bool((game.rates > 0.0).all())))
    return sets


def multistart_fixed_points(
    game: Game,
    starts_per_axis: int = 1,
    max_iter: int = 50,
) -> FixedPointSet:
    """Enumerate the fixed points of a small instance by box exclusion.

    Finds the roots in [0, 1]^n of the polynomial system
    q_i * prod_{j in N(i)} (1 - q_j) = rates_i. Each success product is
    monotone in every coordinate, so over a box [l, u] the exact range
    of q_i * prod_i is [l_i * prod_i(u), u_i * prod_i(l)]; boxes whose
    range misses a rate hold no root and are dropped. The survivors
    are contracted and bisected down to small leaves, and Newton on the
    polynomial form from each leaf centre polishes them to roots. The
    roots that are fixed points of the clipped map at 1e-9 are kept and
    deduplicated. The clipping-induced all-ones point is reported
    through ``includes_extraneous`` whenever every target rate is
    positive.

    ``starts_per_axis`` is the number of cells per axis of the initial
    partition, and ``max_iter`` caps the Newton steps from each leaf,
    which stop earlier at the first step that does not lower the
    residual. Neither changes which boxes are excluded, only the cost;
    at a double root, where Newton converges linearly, too small a cap
    leaves several nearby points instead of one.
    """
    return _fixed_point_sets([game], starts_per_axis, max_iter)[0]


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
