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
  and halved along up to three of their widest axes at once. Newton's
  method on the polynomial form polishes a root from each retired box
  and each small leaf, and the genuine fixed points are kept. The
  oracle is used to cross-check the iterative solvers. Games that share
  a topology are enumerated together, their boxes contracted and split
  in the same rounds, in blocks of games whose boxes fit a fixed
  budget, and one merge then deduplicates every game's roots at once:
  a bifurcation sweep finds every parameter value's roots in one
  enumeration per block and one finishing pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .game import FIXED_POINT_TOL, Game
from .game import best_response  # noqa: F401  bench/tracer.py rebinds it here
from .game import _best_responses, _check_count, _check_positive_finite, _check_start, _response

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

# The oracle splits boxes down to this width (infinity norm), contracts
# each box this many times per round and halves an unsettled box along
# up to this many of its widest axes at once.
_LEAF_WIDTH = 1e-3
_CONTRACT_ROUNDS = 3
_SPLIT_AXES = 3

# Games are enumerated in blocks of rows, so that a long sweep does not
# hold every value's boxes at once. A row is budgeted its initial cells
# each halved once along every axis, (2 * cells_per_axis)^n boxes,
# whatever a round's split cuts, and a block holds as many rows as fit
# this many boxes (at least one).
_BLOCK_BOXES = 2048

# One contraction takes its boxes in slices of at most this many, which
# bounds the stacks its neighbour bounds hold: several (2k, n, n)
# arrays for k boxes, 14.6 MiB at 1,996 boxes of 8 players. The
# benchmark's tallest contractions, 480 boxes in `fold` and 256 in
# `batch`, are never sliced.
_CONTRACT_BOXES = 1024

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


def _result(game: Game, q, iterations, converged, res_norm, tol, infeasible=False) -> LfpResult:
    point = np.array(q, dtype=float)
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
    if not ((q0 >= 0.0) & (q0 <= game.rates)).all():
        raise ValueError("q0 must lie in the box [0, rates] (start region for the ascent)")
    for iterations, (q, res_norm) in enumerate(_best_responses(q0, game.rates, game.matrix.astype(bool))):
        if res_norm <= tol or iterations == max_iter:
            break
    return _result(game, q, iterations, res_norm <= tol, res_norm, tol)


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
    """The solutions x[k] of m[k] x = b[k], with NaN where m[k] is singular.

    Each b[k] is a vector, or a matrix whose columns are solved for
    together. LAPACK fails a whole stack for one singular matrix, so a
    stack that fails is solved again one matrix at a time.
    """
    vectors = b.ndim < m.ndim
    if vectors:
        b = b[..., np.newaxis]
    try:
        x = np.linalg.solve(m, b)
    except np.linalg.LinAlgError:
        x = np.full_like(b, np.nan)
        for k in range(len(b)):
            try:
                x[k] = np.linalg.solve(m[k], b[k])
            except np.linalg.LinAlgError:
                pass
    return x[..., 0] if vectors else x


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
    """One round of the monotone interval map over the boxes [lo, hi] (:func:`_contract_slice`).

    The boxes are taken ``_CONTRACT_BOXES`` at a time, which bounds the
    memory. Each box is contracted on its own, so the slices change no
    bit.
    """
    if len(lo) <= _CONTRACT_BOXES:
        return _contract_slice(lo, hi, row, rates, mask, neighbours)
    slices = [slice(start, start + _CONTRACT_BOXES) for start in range(0, len(lo), _CONTRACT_BOXES)]
    parts = [_contract_slice(lo[s], hi[s], row[s], rates, mask, neighbours) for s in slices]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _contract_slice(lo, hi, row, rates, mask, neighbours):
    """One round of the monotone interval map over a slice of boxes [lo, hi].

    Box k belongs to the game whose target rates are ``rates[row[k]]``;
    ``mask`` is the games' interference matrix as booleans. Over a box
    the success product P_i ranges over [P_i(hi), P_i(lo)], so every
    root q_i = y_i / P_i(q) in it lies in [y_i / P_i(lo), y_i / P_i(hi)].
    Each box is cut to that range, rounded outward by ``_OUTWARD``, and
    boxes left empty are dropped: they hold no root. A zero product
    gives an infinite bound (or none, for a silent player), which the
    fmax/fmin pair handles; the caller silences the division warnings.
    The success products over the 2k corners multiply a
    :func:`_factors` stack along its player axis in one reduction, in
    the order :func:`alohagame.game.success_product` takes each row.

    With ``neighbours``, equation i with y_i > 0 also bounds each
    interfering neighbour j: q_j = 1 - y_i / (q_i O_ij(q)), where O_ij
    is the product of P_i's factors other than 1 - q_j. Over the box
    q_i O_ij ranges over [lo_i O_ij(hi), hi_i O_ij(lo)], so q_j lies in
    [1 - y_i / (lo_i O_ij(hi)), 1 - y_i / (hi_i O_ij(lo))], each end
    widened by ``_OUTWARD`` (1 + x) for its quotient x. A box is cut to
    every equation's bound at once. O_ij over the corners, upper
    corners first, is the (2k, n, n) leave-one-out stack of
    :func:`_products`, so one multiply by the corners, their halves
    swapped, forms every span, and 1 - x and its padding are taken once
    over both halves.
    """
    y = rates.take(row, axis=0)
    k, n = lo.shape
    corners = np.concatenate([hi, lo])
    if neighbours:
        prod, others = _products(corners, mask)
    else:
        prod = np.multiply.reduce(_factors(corners, mask), axis=0).T.copy()
    bounds = y / prod.reshape(2, k, n)[::-1]
    new_lo = np.fmax(lo, bounds[0] * (1.0 - _OUTWARD))
    new_hi = np.fmin(hi, bounds[1] * (1.0 + _OUTWARD))
    if neighbours:
        # x[0, :, i, j] is y_i over lo_i O_ij(hi), x[1] over hi_i
        # O_ij(lo), NaN where equation i does not bound q_j
        spans = corners.reshape(2, k, n, 1)[::-1] * others.reshape(2, k, n, n)
        bounding = mask & (y > 0.0)[..., np.newaxis]
        x = np.divide(y[..., np.newaxis], spans, out=np.full_like(spans, np.nan), where=bounding)
        edge, pad = 1.0 - x, _OUTWARD * (1.0 + x)
        new_lo = np.fmax(new_lo, np.fmax.reduce(edge[0] - pad[0], axis=1))
        new_hi = np.fmin(new_hi, np.fmin.reduce(edge[1] + pad[1], axis=1))
    (keep,) = (new_lo <= new_hi).all(axis=1).nonzero()
    return new_lo.take(keep, axis=0), new_hi.take(keep, axis=0), row.take(keep)


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
    and halved along up to ``_SPLIT_AXES`` of their widest axes at once
    (:func:`_split`), into up to 8 children. A round costs about the
    same numpy calls however few boxes it holds, so cutting three axes
    in one round saves the two rounds that cutting them one at a time
    would take. Nothing is called once no box is left.
    """
    mask = matrix.astype(bool)
    cell_lo, cell_hi = _partition(rates.shape[1], cells_per_axis)
    silent = rates == 0.0
    # a cell is kept where every silent axis has its lower edge at 0
    row, box = np.nonzero(silent @ cell_lo.T == 0.0)
    lo, hi = cell_lo.take(box, axis=0), np.where(silent.take(row, axis=0), 0.0, cell_hi.take(box, axis=0))
    starts, owners = [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while len(lo):
            for r in range(_CONTRACT_ROUNDS):
                lo, hi, row = _contract(lo, hi, row, rates, mask, neighbours=r == _CONTRACT_ROUNDS - 1)
                if not len(lo):
                    break
            leaf = (hi - lo).max(axis=1) <= _LEAF_WIDTH
            starts.append(((lo + hi) / 2.0)[leaf])
            owners.append(row[leaf])
            if leaf.all():
                break
            lo, hi, row, (proven, proven_row) = _krawczyk(lo[~leaf], hi[~leaf], row[~leaf], rates, matrix)
            starts.append(proven)
            owners.append(proven_row)
            if len(lo):
                lo, hi, row = _split(lo, hi, row)
    return np.concatenate(starts), np.concatenate(owners)


def _split(lo, hi, row):
    """Halve each box [lo, hi] along up to ``_SPLIT_AXES`` of its widest axes at once.

    The widest axis is always cut (ties go to the lower index), and the
    next ``_SPLIT_AXES - 1`` widest only where wider than a leaf, so a
    silent [0, 0] axis never is. Cutting s axes at their midpoints
    gives a box the 2^s orthants of :func:`_orthants` as children;
    those that take the upper half of an axis left uncut, copies of a
    lower twin, are dropped. Since the cut axes are the widest, a box
    keeps its first 2^s orthants. It makes the same numpy calls
    whatever the number of boxes, and a box's children depend only on
    the box. Returns the children with the rate row of each, the lowest
    orthant of every box first, in box order, then the next orthant.
    """
    k, n = lo.shape
    width = hi - lo
    # rank[b, j]: how many axes of box b come before axis j, widest first
    rank = np.argsort(np.argsort(-width, axis=1, kind="stable"), axis=1)
    cut = (rank == 0) | (rank < _SPLIT_AXES) & (width > _LEAF_WIDTH)
    table = _orthants(n)
    kept = np.flatnonzero(np.arange(len(table))[:, np.newaxis] < 1 << cut.sum(axis=1))
    upper = table.take(rank, axis=1)
    mid = (lo + hi) / 2.0
    child_lo = np.where(upper, mid, lo).reshape(-1, n).take(kept, axis=0)
    child_hi = np.where(cut & ~upper, mid, hi).reshape(-1, n).take(kept, axis=0)
    return child_lo, child_hi, row.take(kept % k)


@functools.lru_cache(maxsize=16)
def _orthants(n: int):
    """Read-only table of the children of a box of n axes split along its widest ones.

    Entry [c, r] says whether child c takes the upper half of the box's
    axis of rank r (0 the widest): bit r of c, for the 2^s children of
    the s = min(n, ``_SPLIT_AXES``) widest axes, and False for r >= s.
    """
    table = ((np.arange(2 ** min(n, _SPLIT_AXES))[:, np.newaxis] >> np.arange(n)) & 1).astype(bool)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def _partition(n: int, cells_per_axis: int):
    """Read-only lower and upper corners of every cell of [0, 1]^n, cells_per_axis to an axis, in index order."""
    edges = np.linspace(0.0, 1.0, cells_per_axis + 1)
    cells = np.stack(np.meshgrid(*[np.arange(cells_per_axis)] * n, indexing="ij"), axis=-1).reshape(-1, n)
    lo, hi = edges[cells], edges[cells + 1]
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


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

    A silent player's axis has width 0 and is neither tested, cut nor
    halved: its row of J(X) is zero off the diagonal and h_i(m) = 0, so
    the other axes of K are the Krawczyk box of the system without it.
    A box whose J(m) is singular or not finite is passed on as it is.

    Returns the boxes neither test settles, each cut to the
    intersection of X and K for the caller to halve (:func:`_split`),
    and the Newton points of the retired boxes with their rows; boxes
    where K misses X are dropped. When the plain test settles or drops
    every box, the Newton-box test is skipped.
    """
    y = rates.take(row, axis=0)
    active = y > 0.0
    centre, k_lo, k_hi, inside = _krawczyk_test(lo, hi, y, matrix)
    lo, hi = np.where(active, np.fmax(lo, k_lo), lo), np.where(active, np.fmin(hi, k_hi), hi)
    left = np.flatnonzero(~(inside | (lo > hi).any(axis=1)))
    proven, proven_row = centre[inside], row[inside]
    if len(left):
        # A silent axis of B is X's, [0, 0].
        b_lo = np.where(active, np.clip(k_lo - _NEWTON_PAD, 0.0, 1.0), lo).take(left, axis=0)
        b_hi = np.where(active, np.clip(k_hi + _NEWTON_PAD, 0.0, 1.0), hi).take(left, axis=0)
        newton_centre, _, _, newton = _krawczyk_test(b_lo, b_hi, y.take(left, axis=0), matrix)
        proven = np.concatenate([proven, newton_centre[newton]])
        proven_row = np.concatenate([proven_row, row[left[newton]]])
        left = left[~newton]
    return lo.take(left, axis=0), hi.take(left, axis=0), row[left], (proven, proven_row)


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
    y_inv = _inverses(jm)
    # X lies in [m - r, m + r] despite the rounding of m and r.
    r = np.maximum(hi - m, m - lo) * (1.0 + np.finfo(float).eps)
    centre = m - _times(y_inv, m * prod - y)
    rounding = _rounding(n)
    # |I - Y J_c|: the sign of a zero entry is lost to the absolute value
    spread = np.abs(np.eye(n) - y_inv @ ((j_lo + j_hi) / 2.0))
    rho = _times(spread, r) + 2.0 * rounding
    rho += _times(np.abs(y_inv), _times(j_hi - j_lo, r / 2.0) + (n + 2) * rounding)
    k_lo, k_hi = centre - rho, centre + rho
    passed = ((k_lo > lo) & (k_hi < hi) | (y == 0.0)).all(axis=1)
    return centre, k_lo, k_hi, passed


def _inverses(m):
    """The inverses of a stack of matrices, NaN where one is singular: LAPACK's
    solve against the identity, as :func:`_solve_rows` gives it, which takes over
    when some matrix is singular."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return _solve_rows(m, np.broadcast_to(np.eye(m.shape[-1]), m.shape))


def _jacobians(m, lo, hi, matrix):
    """Success products P(m), Jacobians J(m) and J's end points over [lo, hi].

    J is the Jacobian of q * P(q) - y. Every entry is monotone in each
    coordinate, so its range over a box is exact at two corners: J_ii
    lies in [P_i(hi), P_i(lo)] and J_ij in
    [-hi_i prod_{k != j}(1 - lo_k), -lo_i prod_{k != j}(1 - hi_k)].
    Each of the three matrices is -a_ij s_i prod_{k != j}(1 - t_k) off
    the diagonal and P_i(s) on it, with (s, t) = (m, m), (hi, lo) and
    (lo, hi); J(m) is bit for bit the Jacobian of :func:`_polynomial`.
    For k boxes, P(m) is (k, n) and each Jacobian stack a C-contiguous
    (k, n, n) slice of one (3k, n, n) array, whose leave-one-out
    factors come from one :func:`_products` call over the 3k points.
    """
    k = len(m)
    prod, others = _products(np.concatenate([m, lo, hi]), matrix)
    jac = -matrix * np.concatenate([m, hi, lo])[..., np.newaxis] * others
    _diagonal(jac)[...] = np.concatenate([prod[:k], prod[2 * k :], prod[k : 2 * k]])
    return prod[:k], jac[:k], jac[k : 2 * k], jac[2 * k :]


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


def _factors(q, matrix):
    """The factors of the success products of the rows of q, stacked player axis first.

    Slice j + 1 of the (n + 1, n, k) stack holds factor 1 - q_j of all
    n * k products, entry [i, r] for player i at row r (1 where j does
    not interfere with i), and slice 0 is ones. With the rows last, a
    copy or multiply runs n^2 loops k long, not k n loops n long.
    """
    k, n = q.shape
    stack = np.ones((n + 1, n, k))
    np.copyto(stack[1:], (1.0 - q.T)[:, np.newaxis], where=matrix.T.astype(bool, copy=False)[..., np.newaxis])
    return stack


def _products(q, matrix):
    """Success products and their leave-one-out products, batched over rows of q.

    Entry [k, i, j] of the second array is the product of P_i's factors
    other than 1 - q_j, from prefix and suffix products, so it has no
    pole where some q_j = 1.

    Both come from the prefix products of one stack laid out as
    :func:`_factors` lays its (n + 1, n, k) stack, with 2k rows: the
    first k hold the factors in player order, whose prefix products end
    in the success products, and the last k the same factors in reverse
    order, whose prefix products are the suffix products. The prefix
    products take n in-place multiplies, each over a contiguous slice;
    ``np.multiply.accumulate`` along the first axis would loop once per
    product (for 256 points of 4 players, 40 us against 6 us, one BLAS
    thread on a 2-core x86-64 guest). The leave-one-out products are written
    straight into a C-contiguous (k, n, n) array, so the Jacobian stacks
    built from them keep the layout that ``np.linalg`` and ``@`` have
    always been given, and so are the success products.
    """
    k, n = q.shape
    stack = np.ones((n + 1, n, 2 * k))
    factors = (1.0 - q.T)[:, np.newaxis]
    where = matrix.T.astype(bool, copy=False)[..., np.newaxis]
    np.copyto(stack[1:, :, :k], factors, where=where)
    np.copyto(stack[1:, :, k:], factors[::-1], where=where[::-1])
    for j in range(1, n + 1):
        stack[j] *= stack[j - 1]
    others = np.empty((k, n, n))
    np.multiply(stack[:-1, :, :k], stack[-2::-1, :, k:], out=others.transpose(2, 1, 0))
    return stack[-1, :, :k].T.copy(), others


def _polynomial(q, rates, matrix):
    """Residual q * P(q) - y and its Jacobian, batched over rows of q.

    Row k of ``q`` is a point of the game whose target rates are row k
    of ``rates``. Returns the (k, n) residuals and the C-contiguous
    (k, n, n) Jacobians.
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
    otherwise after ``max_iter`` steps: a singular Jacobian gives a NaN
    step (:func:`_solve_rows`), whose residual is not lower. A start
    whose residual is exactly zero stops before its next step, which
    could not lower it. The live rows are compacted only in a step
    where some row stops.
    """
    best = starts.copy()
    h, jac = _polynomial(best, rates, matrix)
    # the best residual norm of each live row, its last
    norm = np.abs(h).max(axis=1)
    rows = np.arange(len(best))
    q = best
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            ok = np.isfinite(jac).all(axis=(1, 2)) & (norm > 0.0)
            if not ok.all():
                rows, q, h, jac, norm, rates = rows[ok], q[ok], h[ok], jac[ok], norm[ok], rates[ok]
                if not len(rows):
                    break
            q = q - _solve_rows(jac, h)
            h, jac = _polynomial(q, rates, matrix)
            step_norm = np.abs(h).max(axis=1)
            better = step_norm < norm
            if not better.all():
                rows, q, h, jac, step_norm, rates = (a[better] for a in (rows, q, h, jac, step_norm, rates))
                if not len(rows):
                    break
            best[rows], norm = q, step_norm
    return best


def _merge(points: np.ndarray, owner: np.ndarray, radius: float):
    """Merge each game's points within the given infinity-norm radius, every game at once.

    Point k belongs to game ``owner[k]``. One stable sort orders the
    points by game and, within a game, lexicographically by their
    coordinates rounded to 1e-9, points that round alike in the order
    they came in. Each step then keeps every game's first remaining
    point and drops that game's remaining points within ``radius`` of
    it, until none remain: each game keeps the points a greedy pass
    over its own points keeps, in as many steps as the most points one
    game keeps. The rounding keeps roots that agree to rounding error
    in one order unless their shared coordinate lies within that error
    of a rounding boundary (an odd multiple of 5e-10). Returns the kept
    points, read-only, and their games, in that order.
    """
    if len(points) < 2:  # nothing to order or to merge
        points = points.copy()
    else:
        order = np.lexsort((*np.round(points, 9).T[::-1], owner))
        points, owner = points[order], owner[order]
        kept = np.zeros(len(points), dtype=bool)
        rest = np.arange(len(points))
        while len(rest):
            first = np.ones(len(rest), dtype=bool)
            np.not_equal(owner[rest[1:]], owner[rest[:-1]], out=first[1:])
            heads = rest[first]
            kept[heads] = True
            # each remaining point against its game's head, the head itself included
            rest = rest[np.abs(points[rest] - points[heads[np.cumsum(first) - 1]]).max(axis=1) > radius]
        points, owner = points[kept], owner[kept]
    points.flags.writeable = False
    return points, owner


def _roots(rates, matrix, starts_per_axis: int = 1, max_iter: int = 50):
    """The fixed points of each game, enumerated together and merged in one pass.

    Game k has target rates ``rates[k]`` and the validated interference
    ``matrix`` that all the games share. The boxes of each block of
    games (see ``_BLOCK_BOXES``) contract, split and polish together,
    each against its own target rates. One fixed-point membership test
    then runs over every polished root, and one :func:`_merge` over
    them all deduplicates each game's roots, so every game gets the
    fixed points it would get alone. A block whose boxes keep no start
    is not polished, and when no block keeps one the test and the
    merge are skipped too. Returns ``(roots, owner)``: the kept roots,
    read-only, ordered by game and within a game as :func:`_merge`
    keeps them, and the game of each.
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
        if len(starts):
            roots.append(_polish(starts, rates.take(first + rows, axis=0), matrix, max_iter))
            owner.append(first + rows)
    if not roots:
        empty = np.empty((0, n))
        empty.flags.writeable = False
        return empty, np.empty(0, dtype=np.intp)
    roots, owner = np.concatenate(roots), np.concatenate(owner)
    leaf_rates = rates.take(owner, axis=0)
    # Exact, as for the leaves: a zero rate forces q_i = 0.
    roots[leaf_rates == 0.0] = 0.0
    slack = 1e-9
    inside = ((roots >= -slack) & (roots <= 1.0 + slack)).all(axis=1)
    # roots outside are tested too, and dropped with those not fixed
    roots = np.clip(roots, 0.0, 1.0)
    kept = inside & (np.abs(_response(roots, leaf_rates, matrix.astype(bool)) - roots).max(axis=1) <= FIXED_POINT_TOL)
    return _merge(roots[kept], owner[kept], DEDUP_RADIUS)


def _fixed_point_sets(rates, matrix, starts_per_axis: int = 1, max_iter: int = 50) -> list:
    """:func:`multistart_fixed_points` of each game, enumerated together: :func:`_roots` split by game."""
    roots, owner = _roots(rates, matrix, starts_per_axis, max_iter)
    ends = np.searchsorted(owner, np.arange(len(rates) + 1))
    extraneous = (rates > 0.0).all(axis=1)
    return [
        FixedPointSet(points=list(roots[lo:hi]), includes_extraneous=bool(every))
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
    cut, then halved along their widest axis and along the next two
    widest that are wider than a leaf, all in one round. Newton on the
    polynomial form polishes a root from the Newton point of each
    retired box (of its Newton box, for one retired there) and from the
    centre of each small leaf. The roots that are fixed points of the
    clipped map at 1e-9 are kept, and those within 1e-6 of one kept before
    them, in lexicographic order of the coordinates rounded to 1e-9,
    are dropped (:func:`_merge`). The clipping-induced
    all-ones point is reported through ``includes_extraneous``
    whenever every target rate is positive.

    ``starts_per_axis`` is the number of cells per axis of the initial
    partition, and ``max_iter`` caps the Newton steps from each retired
    box or leaf, which stop earlier at the first step that does not
    lower the residual. Every root ends in a retired box or a leaf
    whatever the partition, so neither changes which roots are found,
    only the cost. The cost is set by the roots: a box around a simple
    root retires after a round or two, while neither Krawczyk test can
    succeed at a double root, whose box is split down to a leaf. At
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
