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
  It serves the rate searches, which only need interior equilibria;
  they solve many games at once, whose iterates step together as the
  rows of one stack, and ``newton_lfp`` is the one-row case.
* :func:`multistart_fixed_points` is an exhaustive oracle for small
  instances. Each success product is monotone in every coordinate, so
  over a box of [0, 1]^n the range of q_i * prod_i is exact at the
  box's corners, and a box whose range misses the target rate holds no
  fixed point. The oracle contracts the boxes that survive, each
  equation bounding its own player and, once a round, each interfering
  neighbour (interval constraint propagation). A box still wider than
  a leaf takes a Krawczyk step: one proven to hold exactly one root
  retires at once, one proven to hold none is dropped, and one whose
  Newton box (the Krawczyk box, padded) is proven to hold exactly one
  root retires too, since it holds at most that root; the rest are cut
  and bisected. Newton's method on the polynomial form polishes a root
  from each retired box and each small leaf, and the genuine fixed
  points are kept. The oracle is used to
  cross-check the iterative solvers. Games that share a topology are
  enumerated together, their boxes contracted and split in the same
  rounds, in blocks of games whose boxes fit a fixed budget: a
  bifurcation sweep finds every parameter value's roots in one
  enumeration per block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .game import FIXED_POINT_TOL, Game, leq, success_product
from .game import best_response  # noqa: F401  bench/tracer.py rebinds it here
from .game import _check_count, _check_positive_finite, _check_start, _response

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

# Games are enumerated in blocks of rows, so that a long sweep does not
# hold every value's boxes at once. A row is budgeted its initial cells
# each split once along every axis, (2 * cells_per_axis)^n boxes, and a
# block holds as many rows as fit this many boxes (at least one).
_BLOCK_BOXES = 2048

# Relative outward rounding of contracted bounds. It covers the
# rounding of a success product of up to seven factors and of one
# quotient, so rounding cannot drop a root on a box face. A neighbour
# bound 1 - x, with x a quotient over q_i times at most six factors,
# is off by less than 14 eps (1 + x) and is widened by _OUTWARD (1 + x).
_OUTWARD = 16 * np.finfo(float).eps

# Absolute padding of a Krawczyk box before it is tested as a Newton
# box, so that an axis the contraction has closed to its rounding slack
# leaves room for the strict inclusion.
_NEWTON_PAD = 1e-12


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
    mask = game.matrix.astype(bool)
    q = q0
    for it in range(max_iter + 1):
        f = _response(q, game.rates, mask)
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
    _check_positive_finite(tol, "tol")
    _check_count(max_iter, "max_iter")
    q0 = _check_start(np.zeros(game.n) if q0 is None else q0, game.n, "q0")
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
    _check_count(max_iter, "max_iter")
    q = _check_start(np.zeros(game.n) if q0 is None else q0, game.n, "q0")
    if (q < 0.0).any() or (q >= 1.0).any():
        raise ValueError("q0 must lie in [0, 1)^n, below the least fixed point")
    mask = game.matrix.astype(bool)
    (point,), (iterations,), (converged,), (res_norm,), (infeasible,) = _newton_rows(
        q[np.newaxis], game.rates[np.newaxis], mask[np.newaxis], max_iter
    )
    return _result(game, point, int(iterations), bool(converged), float(res_norm), DEFAULT_TOL, bool(infeasible))


def _solve_rows(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solutions x[k] of m[k] x = b[k], with a NaN row where m[k] is singular.

    LAPACK fails a whole stack for one singular matrix, so a stack that
    fails is solved again one matrix at a time.
    """
    try:
        return np.linalg.solve(m, b[..., np.newaxis])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full_like(b, np.nan)
        for k in range(len(b)):
            try:
                x[k] = np.linalg.solve(m[k], b[k])
            except np.linalg.LinAlgError:
                pass
        return x


def _newton_rows(q: np.ndarray, rates: np.ndarray, mask: np.ndarray, max_iter: int):
    """:func:`newton_lfp` from the rows of ``q``, each in its own game.

    Row k solves the game with target rates ``rates[k]`` and
    interference ``mask[k]`` (booleans) from the start ``q[k]``, which
    the caller has checked, with the steps and stopping rules of
    :func:`newton_lfp`. The rows step together: one response
    evaluation and one stacked solve per iteration, and a row leaves
    the stack when it stops, so each row takes exactly the iterations
    it would take alone. Returns ``(points, iterations, converged,
    residual_norms, infeasible)`` with one entry per row; a converged
    row's point is its last image F(q), any other row's its last
    iterate.
    """
    k, n = q.shape
    points = np.empty((k, n))
    iterations = np.empty(k, dtype=int)
    res_norms = np.empty(k)
    converged = np.zeros(k, dtype=bool)
    infeasible = np.zeros(k, dtype=bool)
    live = np.arange(k)
    eye = np.eye(n)
    for it in range(max_iter + 1):
        if not len(live):
            break
        f = _response(q, rates, mask)
        r = f - q
        res = np.abs(r).max(axis=-1)
        saturated = (f >= 1.0).any(axis=-1)
        done = ~saturated & (res <= DEFAULT_TOL)
        stop = saturated | done if it < max_iter else np.ones(len(live), dtype=bool)
        if stop.any():
            rows = live[stop]
            points[rows] = np.where(done[stop, np.newaxis], f[stop], q[stop])
            iterations[rows] = it
            res_norms[rows] = res[stop]
            converged[rows] = done[stop]
            infeasible[rows] = saturated[stop]
            go = ~stop
            live, q, f, r, res, rates, mask = live[go], q[go], f[go], r[go], res[go], rates[go], mask[go]
            if not len(live):
                break
        d = _solve_rows(eye - mask * (f[:, :, np.newaxis] / (1.0 - q)[:, np.newaxis, :]), r)
        nxt = np.maximum(q + d, f)
        # a NaN or infinite step fails one of the two tests
        bad = ~((d >= -DEFAULT_TOL).all(axis=-1) & (nxt < 1.0).all(axis=-1))
        if bad.any():
            rows = live[bad]
            points[rows] = q[bad]
            iterations[rows] = it
            res_norms[rows] = res[bad]
            infeasible[rows] = True
            go = ~bad
            live, nxt, rates, mask = live[go], nxt[go], rates[go], mask[go]
        q = nxt
    return points, iterations, converged, res_norms, infeasible


# ---------------------------------------------------------------------------
# Box-exclusion oracle
# ---------------------------------------------------------------------------


def _contract(lo, hi, row, rates, mask, neighbours=False):
    """One round of the monotone interval map over the boxes [lo, hi].

    Box k belongs to the game whose target rates are ``rates[row[k]]``;
    ``mask`` is the games' interference matrix as booleans. Over a box
    the success product P_i ranges over [P_i(hi), P_i(lo)], so every
    root q_i = y_i / P_i(q) in it lies in [y_i / P_i(lo), y_i / P_i(hi)].
    Each box is cut to that range, rounded outward by ``_OUTWARD``, and
    boxes left empty are dropped: they hold no root. A zero product
    gives an infinite bound (or none, for a silent player), which the
    fmax/fmin pair handles; the caller silences the division warnings.

    With ``neighbours``, equation i with y_i > 0 also bounds each
    interfering neighbour j: q_j = 1 - y_i / (q_i O_ij(q)), where O_ij
    is the product of P_i's factors other than 1 - q_j. Over the box
    q_i O_ij ranges over [lo_i O_ij(hi), hi_i O_ij(lo)], so q_j lies in
    [1 - y_i / (lo_i O_ij(hi)), 1 - y_i / (hi_i O_ij(lo))], each end
    widened by ``_OUTWARD`` (1 + x) for its quotient x. A box is cut to
    every equation's bound at once.
    """
    y = rates[row]
    corners = np.concatenate([lo, hi])
    if neighbours:
        prod, others = _products(corners, mask)
    else:
        prod = success_product(corners, mask)
    bounds = y / prod.reshape(2, *lo.shape)
    new_lo = np.fmax(lo, bounds[0] * (1.0 - _OUTWARD))
    new_hi = np.fmin(hi, bounds[1] * (1.0 + _OUTWARD))
    if neighbours:
        k = len(lo)
        # x[:, b, i, j] is y_i over lo_i O_ij(hi) (x[0]) or hi_i O_ij(lo)
        # (x[1]), NaN where equation i does not bound q_j
        spans = np.stack([lo[..., np.newaxis] * others[k:], hi[..., np.newaxis] * others[:k]])
        bounding = mask & (y > 0.0)[..., np.newaxis]
        x = np.divide(y[..., np.newaxis], spans, out=np.full_like(spans, np.nan), where=bounding)
        new_lo = np.fmax(new_lo, np.fmax.reduce(1.0 - x[0] - _OUTWARD * (1.0 + x[0]), axis=1))
        new_hi = np.fmin(new_hi, np.fmin.reduce(1.0 - x[1] + _OUTWARD * (1.0 + x[1]), axis=1))
    keep = (new_lo <= new_hi).all(axis=1)
    return new_lo[keep], new_hi[keep], row[keep]


def _leaf_centres(rates, matrix, cells_per_axis: int):
    """Polishing starts of the boxes no exclusion removes, one per box.

    Enumerates the games whose target rates are the rows of ``rates``
    and whose interference matrix is ``matrix``, all in the same rounds,
    and returns the starts with the rate row of each. Every game starts
    from ``cells_per_axis`` cells per axis over [0, 1]^n. A silent
    player's axis is [0, 0] from the start: a zero rate forces q_i = 0
    at every fixed point of the clipped map. Each round contracts every
    box ``_CONTRACT_ROUNDS`` times, the last time with the neighbour
    bounds, and retires those at most ``_LEAF_WIDTH`` wide as leaves,
    started from their centres. The wider boxes take one Krawczyk step
    (:func:`_krawczyk`): a box proven to hold at most one root retires
    too, started from a Newton point; the others are cut by the step
    and split in half along their widest side.
    """
    mask = matrix.astype(bool)
    edges, cells = _partition(rates.shape[1], cells_per_axis)
    silent = rates == 0.0
    row, box = np.nonzero(~(silent[:, np.newaxis] & (cells > 0)).any(axis=-1))
    lo, hi = edges[cells[box]], np.where(silent[row], 0.0, edges[cells[box] + 1])
    starts, owners = [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while len(lo):
            for r in range(_CONTRACT_ROUNDS):
                lo, hi, row = _contract(lo, hi, row, rates, mask, neighbours=r == _CONTRACT_ROUNDS - 1)
            leaf = (hi - lo).max(axis=1) <= _LEAF_WIDTH
            starts.append((lo[leaf] + hi[leaf]) / 2.0)
            owners.append(row[leaf])
            if leaf.all():
                break
            lo, hi, row, (proven, proven_row) = _krawczyk(lo[~leaf], hi[~leaf], row[~leaf], rates, matrix)
            starts.append(proven)
            owners.append(proven_row)
            width = hi - lo
            boxes, axis = np.arange(len(lo)), width.argmax(axis=1)
            mid = (lo[boxes, axis] + hi[boxes, axis]) / 2.0
            # Lower halves first, then upper halves.
            lo, hi, row = np.concatenate([lo, lo]), np.concatenate([hi, hi]), np.concatenate([row, row])
            hi[boxes, axis] = lo[len(boxes) + boxes, axis] = mid
    return np.concatenate(starts), np.concatenate(owners)


@functools.lru_cache(maxsize=64)
def _partition(n: int, cells_per_axis: int):
    """Read-only cell edges of one axis, and the index of every cell of [0, 1]^n along each axis."""
    edges = np.linspace(0.0, 1.0, cells_per_axis + 1)
    cells = np.stack(np.meshgrid(*[np.arange(cells_per_axis)] * n, indexing="ij"), axis=-1).reshape(-1, n)
    edges.flags.writeable = cells.flags.writeable = False
    return edges, cells


def _krawczyk(lo, hi, row, rates, matrix):
    """One Krawczyk step on h(q) = q * P(q) - y over the boxes X = [lo, hi].

    With m the midpoint of X, r its half-width and Y = J(m)^-1, the
    Krawczyk box is K = m - Y h(m) + (I - Y J(X))(X - m): every root
    in X lies in K, and a K strictly inside X proves that X holds
    exactly one root (Krawczyk 1969; Neumaier 1990); see
    :func:`_krawczyk_test`.

    A box that K neither settles nor misses takes a second test, on
    its Newton box B: K itself, padded by ``_NEWTON_PAD`` and clipped
    to [0, 1]^n. Every root of X lies in K and in [0, 1]^n, so in B,
    and a B that passes its own test holds exactly one root: X holds
    at most that root and retires, started from B's Newton point. The
    membership test and the deduplication drop a root that such a box
    does not hold, or that another box finds too. A box whose
    contraction closed an active axis to below the rounding slack
    cannot pass the plain test, but its Newton box, as wide as the pad
    there, can.

    A silent player's axis has width 0 and is neither tested nor cut:
    its row of J(X) is zero off the diagonal and h_i(m) = 0, so the
    other axes of K are the Krawczyk box of the system without it.
    A box whose J(m) is singular or not finite is passed on as it is.

    Returns the boxes neither test settles, each cut to the
    intersection of X and K, and the Newton points of the retired boxes
    with their rows; boxes where K misses X are dropped.
    """
    y = rates[row]
    active = y > 0.0
    centre, k_lo, k_hi, inside = _krawczyk_test(lo, hi, y, matrix)
    lo, hi = np.where(active, np.fmax(lo, k_lo), lo), np.where(active, np.fmin(hi, k_hi), hi)
    left = np.flatnonzero(~(inside | (lo > hi).any(axis=1)))
    # A silent axis of B is X's, [0, 0].
    b_lo = np.where(active, np.clip(k_lo - _NEWTON_PAD, 0.0, 1.0), lo)[left]
    b_hi = np.where(active, np.clip(k_hi + _NEWTON_PAD, 0.0, 1.0), hi)[left]
    newton_centre, _, _, newton = _krawczyk_test(b_lo, b_hi, y[left], matrix)
    retired, left = left[newton], left[~newton]
    proven = np.concatenate([centre[inside], newton_centre[newton]])
    return lo[left], hi[left], row[left], (proven, np.concatenate([row[inside], row[retired]]))


def _krawczyk_test(lo, hi, y, matrix):
    """The Krawczyk box K = [k_lo, k_hi] of each box X = [lo, hi], and whether it proves one root.

    Box k is a box of the game whose target rates are ``y[k]``. J(X),
    the interval Jacobian, comes from :func:`_jacobians`. In
    centre-radius form K = [k - rho, k + rho] with Newton point
    k = m - Y h(m) and rho = |I - Y J_c| r + |Y| J_r r, widened by
    ``_rounding``. The test passes when K lies strictly inside X on
    every active axis (y_i > 0). Returns ``(k, k_lo, k_hi, passed)``.
    """
    n = lo.shape[1]
    m = (lo + hi) / 2.0
    prod, jm, j_lo, j_hi = _jacobians(m, lo, hi, matrix)
    y_inv = _inverse(jm)
    # X lies in [m - r, m + r] despite the rounding of m and r.
    r = np.maximum(hi - m, m - lo) * (1.0 + np.finfo(float).eps)
    centre = m - _times(y_inv, m * prod - y)
    rounding = _rounding(n)
    rho = _times(np.abs(np.eye(n) - y_inv @ ((j_lo + j_hi) / 2.0)), r) + 2.0 * rounding
    rho += _times(np.abs(y_inv), _times(j_hi - j_lo, r / 2.0) + (n + 2) * rounding)
    k_lo, k_hi = centre - rho, centre + rho
    passed = ((k_lo > lo) & (k_hi < hi) | (y == 0.0)).all(axis=1)
    return centre, k_lo, k_hi, passed


def _jacobians(m, lo, hi, matrix):
    """Success products P(m), Jacobians J(m) and J's end points over [lo, hi].

    J is the Jacobian of q * P(q) - y. Every entry is monotone in each
    coordinate, so its range over a box is exact at two corners: J_ii
    lies in [P_i(hi), P_i(lo)] and J_ij in
    [-hi_i prod_{k != j}(1 - lo_k), -lo_i prod_{k != j}(1 - hi_k)].
    Each of the three matrices is -a_ij s_i prod_{k != j}(1 - t_k) off
    the diagonal and P_i(s) on it, with (s, t) = (m, m), (hi, lo) and
    (lo, hi); J(m) is bit for bit the Jacobian of :func:`_polynomial`.
    """
    k = len(m)
    t = np.concatenate([m, lo, hi])
    s = np.r_[0:k, 2 * k : 3 * k, k : 2 * k]
    prod, others = _products(t, matrix)
    jac = -matrix * t[s][..., np.newaxis] * others
    _diagonal(jac)[...] = prod[s]
    return prod[:k], jac[:k], jac[k : 2 * k], jac[2 * k :]


def _inverse(jac):
    """Inverses of a stack of matrices; NaN for those that are singular."""
    try:
        return np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        out = np.full_like(jac, np.nan)
        regular = np.abs(np.linalg.det(jac)) > 0.0
        out[regular] = np.linalg.inv(jac[regular])
        return out


def _diagonal(stack):
    """Writable view of the diagonals of a stack of square matrices."""
    return np.einsum("...ii->...i", stack)


def _times(a, x):
    """Matrix-vector products of a stack of matrices and a stack of vectors."""
    return (a @ x[..., np.newaxis])[..., 0]


def _rounding(n: int) -> float:
    """Outward rounding of the Krawczyk box of an n-player game, per |Y| row sum.

    Every entry of h(m), of J(X)'s end points and of m and r is a
    rounded product of at most n factors in [0, 1], so each is off by
    at most (n + 1) eps relative; the products with Y and with r are
    sums of n terms, which adds n eps. So K's first-order rounding
    error is below (2n + 4) eps times |m| + r + |Y| (|h(m)| + y +
    (|J_c| + J_r) r). Every J(X) entry lies in [-1, 1], so that sum is
    below 2 + (n + 2) sum_j |Y_ij|; K's radius is widened by twice the
    bound, (4n + 8) eps (2 + (n + 2) sum_j |Y_ij|).
    """
    return (4 * n + 8) * np.finfo(float).eps


def _products(q, matrix):
    """Success products and their leave-one-out products, batched over rows of q.

    Entry [k, i, j] of the second array is the product of P_i's factors
    other than 1 - q_j, from prefix and suffix products, so it has no
    pole where some q_j = 1.
    """
    k, n = q.shape
    before, after = np.ones((2, k, n, n + 1))
    np.subtract(1.0, q[:, np.newaxis, :], out=before[..., 1:], where=matrix.astype(bool))
    after[..., 1:] = before[..., :0:-1]
    np.cumprod(before, axis=-1, out=before)
    np.cumprod(after, axis=-1, out=after)
    return before[..., -1], before[..., :-1] * after[..., -2::-1]


def _polynomial(q, rates, matrix):
    """Residual q * P(q) - y and its Jacobian, batched over rows of q.

    Row k of ``q`` is a point of the game whose target rates are row k
    of ``rates``.
    """
    prod, others = _products(q, matrix)
    jac = -matrix * q[..., np.newaxis] * others
    _diagonal(jac)[...] = prod
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

    In lexicographic order of the coordinates rounded to 1e-9, keeps the
    first remaining point and drops every remaining point within
    ``radius`` of it, until none remain: the points a greedy pass keeps,
    one array operation per kept point. The rounding keeps roots that
    agree to rounding error in one order unless their shared coordinate
    lies within that error of a rounding boundary (an odd multiple of
    5e-10); points that round alike keep the order they came in.
    """
    rest = points[np.lexsort(np.round(points, 9).T[::-1])]
    kept: list = []
    while len(rest):
        p, rest = rest[0], rest[1:]
        rest = rest[np.abs(rest - p).max(axis=1) > radius]
        p.flags.writeable = False
        kept.append(p)
    return kept


def _fixed_point_sets(rates, matrix, starts_per_axis: int = 1, max_iter: int = 50) -> list:
    """:func:`multistart_fixed_points` of each game, enumerated together.

    Game k has target rates ``rates[k]`` and the validated interference
    ``matrix`` that all the games share. The boxes of each block of
    games (see ``_BLOCK_BOXES``) contract, split and polish together,
    each against its own target rates. One fixed-point membership test
    then runs over every polished root, and the roots are split by game
    for the deduplication, so every game gets the fixed points it would
    get alone.
    """
    n = matrix.shape[0]
    if n > ORACLE_MAX_PLAYERS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_PLAYERS} players (got {n}); "
            "the box enumeration grows exponentially"
        )
    _check_count(starts_per_axis, "starts_per_axis")
    _check_count(max_iter, "max_iter")
    block = max(1, _BLOCK_BOXES // (2 * starts_per_axis) ** n)
    roots, owner = [], []
    for first in range(0, len(rates), block):
        starts, rows = _leaf_centres(rates[first : first + block], matrix, starts_per_axis)
        roots.append(_polish(starts, rates[first + rows], matrix, max_iter))
        owner.append(first + rows)
    roots, owner = np.concatenate(roots), np.concatenate(owner)
    leaf_rates = rates[owner]
    # Exact, as for the leaves: a zero rate forces q_i = 0.
    roots[leaf_rates == 0.0] = 0.0
    slack = 1e-9
    inside = ((roots >= -slack) & (roots <= 1.0 + slack)).all(axis=1)
    roots, owner, leaf_rates = np.clip(roots[inside], 0.0, 1.0), owner[inside], leaf_rates[inside]
    fixed = np.abs(_response(roots, leaf_rates, matrix.astype(bool)) - roots).max(axis=1) <= FIXED_POINT_TOL
    order = np.argsort(owner[fixed], kind="stable")
    roots, owner = roots[fixed][order], owner[fixed][order]
    ends = np.searchsorted(owner, np.arange(len(rates) + 1))
    extraneous = (rates > 0.0).all(axis=1)
    return [
        FixedPointSet(points=_dedup(roots[lo:hi], DEDUP_RADIUS), includes_extraneous=bool(every))
        for lo, hi, every in zip(ends[:-1], ends[1:], extraneous)
    ]


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
    are contracted, equation i bounding q_i and, in the last
    contraction of each round, every interfering neighbour q_j through
    q_j = 1 - y_i / (q_i prod_{k != j} (1 - q_k)). Each one still
    wider than a leaf then takes a Krawczyk step, which retires a box
    it proves to hold exactly one root and drops one it proves to hold
    none. A box the step leaves is retired too when its Newton box,
    the Krawczyk box padded by 1e-12 and clipped to [0, 1]^n, holds
    all its roots and is proven to hold exactly one; the others are
    cut before they are bisected. Newton on the polynomial form
    polishes a root from the Newton point of each retired box (of its
    Newton box, for one retired there) and from the centre of each
    small leaf. The roots that are fixed points of the clipped
    map at 1e-9 are kept and deduplicated. The clipping-induced
    all-ones point is reported through ``includes_extraneous``
    whenever every target rate is positive.

    ``starts_per_axis`` is the number of cells per axis of the initial
    partition, and ``max_iter`` caps the Newton steps from each retired
    box or leaf, which stop earlier at the first step that does not
    lower the residual. Every root ends in a retired box or a leaf
    whatever the partition, so neither changes which roots are found,
    only the cost. The cost is set by the roots: a box around a simple
    root retires after a round or two, while neither Krawczyk test can
    succeed at a double root, whose box is bisected down to a leaf. At
    a double root, where Newton converges linearly, too small a cap
    leaves several nearby points instead of one.
    """
    return _fixed_point_sets(game.rates[np.newaxis], game.matrix, starts_per_axis, max_iter)[0]


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
