"""Stability certificates for game equilibria.

The continuous-time relaxation of the game is qdot = F(q) - q with F
the clipped best-response map. An equilibrium is asymptotically stable
when the symmetrized negated Jacobian C(q) = -(J(q) + J(q)^T) is
positive definite near it; the squared residual then acts as a
Lyapunov function. Positive definiteness is decided by one rule,
:func:`pd_margin`: the smallest eigenvalue of C less a bound on its
rounding error must be positive, so a certificate on the definiteness
boundary fails whatever the rounding. Diagonal dominance is a cheaper
sufficient condition. A verdict evaluates the response map once: its
membership test, Jacobian and clipping flag all read that one
evaluation, and it keeps the certificate matrix, whose leading
principal minors are computed only when read. The Jacobian, the
certificate matrix, the margin and the verdicts take stacks of points
or matrices as well as single ones: a stack of points, each with its
own target rates, gets its verdicts from one response evaluation, one
certificate stack and one eigenvalue solve, which is how a consistency
check and a bifurcation sweep classify all their roots; the sweep
reads the verdicts as arrays, a consistency check as one
:class:`StabilityVerdict` per point. The Jacobian and the certificate
matrix also take a stack of interference matrices, one per point,
which is how the rate searches decide many games at once: every search
probe, the probability scale's included, reduces its certificates to a
margin and its slope per game through one helper,
:func:`_margins_and_slopes`. The region-of-attraction grid goes through
the certificate one slab of cells at a time. The region estimate grows
from the equilibrium's cell through face-adjacent positive-definite
cells, in numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .game import Game, _check_count, _check_positive_finite, _response, best_response, residual
from .solver import FixedPointSet, _solve_rows, least_of

__all__ = [
    "PD_TOL",
    "StabilityVerdict",
    "RoaEstimate",
    "ConsistencyReport",
    "residual_jacobian",
    "krasovskii_matrix",
    "leading_minors",
    "pd_margin",
    "sylvester_pd",
    "diag_dominant",
    "krasovskii_verdict",
    "lyapunov_value",
    "roa_estimate",
    "stability_consistency",
]

# A certificate that is not positive definite but whose smallest
# eigenvalue exceeds -PD_TOL is marginal: the matrix sits on the
# positive-definiteness boundary (a vanishing eigenvalue), which is
# exactly what a fold of the fixed points looks like.
PD_TOL = 1e-12

# Relative bound on the rounding error of the smallest eigenvalue of
# an n x n certificate, per player and per unit of its infinity norm.
_EIG_ROUNDING = 16 * np.finfo(float).eps

# Default fixed-point membership tolerance of a verdict.
DEFAULT_FP_TOL = 1e-6

ROA_MAX_PLAYERS = 4
ROA_DEFAULT_RESOLUTION = 41


@dataclass(frozen=True)
class StabilityVerdict:
    """Krasovskii certificate at one point."""

    point: np.ndarray
    certificate: np.ndarray  # C at the point
    positive_definite: bool
    diag_dominant: bool
    classification: str  # "stable" | "critical" | "unstable"
    clipped: bool  # some response component saturates at 1 here

    @property
    def stable(self) -> bool:
        return self.positive_definite

    @property
    def leading_minors(self) -> np.ndarray:
        """Leading principal minors of the certificate, computed on each access."""
        return leading_minors(self.certificate)


def _singular(q: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Whether some neighbour coordinate of q equals 1, over q's leading dimensions."""
    return (mask & (q[..., np.newaxis, :] >= 1.0)).any(axis=(-2, -1))


_SINGULAR_MESSAGE = "Jacobian is singular: a neighbour coordinate equals 1"


def _checked_response(q: np.ndarray, game: Game) -> np.ndarray:
    """``best_response(q)``, raising where a neighbour coordinate of q equals 1, for the public Jacobian and certificate."""
    f = best_response(q, game)
    if _singular(q, game.matrix.astype(bool)).any():
        raise ValueError(_SINGULAR_MESSAGE)
    return f


def _jacobian(q: np.ndarray, f: np.ndarray, matrix) -> np.ndarray:
    """:func:`residual_jacobian` at q from the response ``f = best_response(q)``.

    ``matrix`` is one interference matrix, or a stack whose leading
    dimensions broadcast against those of ``q``. Unchecked: no caller
    passes a neighbour coordinate at 1 (:func:`_checked_response`).
    """
    mask = np.asarray(matrix, dtype=bool)
    # flat rows: saturated and jammed responses are 1, and a rate of 0
    # gives a response of 0
    f = np.where(f >= 1.0, 0.0, f)
    # a coordinate at 1 only comes in an all-zero column, where the
    # quotient is masked out anyway
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = f[..., :, np.newaxis] / (1.0 - q)[..., np.newaxis, :]
    jac = np.where(mask, ratio, 0.0)
    diag = np.arange(mask.shape[-1])
    jac[..., diag, diag] = -1.0
    return jac


def residual_jacobian(q, game: Game) -> np.ndarray:
    """Jacobian of the drift F(q) - q at q.

    Diagonal entries are -1. Off-diagonal entry (i, j) is
    a_ij * F_i(q) / (1 - q_j), and 0 on rows where the map is locally
    flat: the response saturates at 1, or the player's rate is 0.
    Accepts leading batch dimensions on ``q``.

    Raises when some neighbour coordinate equals 1, where the quotient
    is singular.
    """
    q = np.asarray(q, dtype=float)
    return _jacobian(q, _checked_response(q, game), game.matrix)


def _certificate(q: np.ndarray, f: np.ndarray, matrix) -> np.ndarray:
    """:func:`krasovskii_matrix` at q from the response ``f = best_response(q)``."""
    jac = _jacobian(q, f, matrix)
    return -(jac + np.swapaxes(jac, -1, -2))


def krasovskii_matrix(q, game: Game) -> np.ndarray:
    """C(q) = -(J + J^T): symmetric, diagonal exactly 2. Takes batches like ``q``."""
    q = np.asarray(q, dtype=float)
    return _certificate(q, _checked_response(q, game), game.matrix)


def leading_minors(c) -> np.ndarray:
    """Determinants of the n leading principal submatrices (LU-based).

    Accepts leading batch dimensions; the minors run along the last axis.
    """
    c = np.asarray(c, dtype=float)
    minors = np.empty(c.shape[:-1])
    for k in range(c.shape[-1]):
        minors[..., k] = np.linalg.det(c[..., : k + 1, : k + 1])
    return minors


def _smallest_eigenvalue(c: np.ndarray):
    """``(lambda_min, norm)`` of the symmetric matrices ``c``, norm the infinity norm; NaN for a non-finite matrix."""
    norm = np.abs(c).sum(axis=-1).max(axis=-1)
    finite = np.isfinite(norm)
    if finite.all():
        lam = np.linalg.eigvalsh(c)[..., 0]
    else:
        # eigvalsh returns garbage for a non-finite matrix, or fails
        zeroed = np.where(finite[..., np.newaxis, np.newaxis], c, 0.0)
        lam = np.where(finite, np.linalg.eigvalsh(zeroed)[..., 0], np.nan)
    return lam, norm


def _margin(lam, norm, n: int):
    """:func:`pd_margin` of an n x n symmetric matrix from its smallest eigenvalue and infinity norm."""
    return lam - _EIG_ROUNDING * n * norm


def _margins_and_slopes(q: np.ndarray, f: np.ndarray, mask: np.ndarray, blocks: int, n: int, at: np.ndarray, along: np.ndarray):
    """Certificate margin of games laid out as blocks, and its slope along a path, per game.

    Game k of n players is the rows ``k * blocks`` to ``k * blocks +
    blocks - 1`` of the points q, with response ``f`` at q and one
    interference matrix per row in ``mask``. Its certificate is block
    diagonal, so its margin mu, :func:`pd_margin` of the whole n x n
    matrix, takes its blocks' smallest eigenvalue and largest norm; it
    passes when mu > 0. Its slope is taken on its limiting block, the
    one of the smallest eigenvalue (the first on a tie), whose unit
    Perron vector v is one step of inverse iteration shifted to mu from
    the ones vector, which no nonnegative Perron vector is orthogonal
    to: mu' = -2 v^T (dF') v, with dF'_ij = a_ij (q'_i / (1 - q_j) + q_i
    q'_j / (1 - q_j)^2) at the row's point ``at`` moving along ``along``
    (F(q) = q). Returns ``(margins, slopes)``, the slope NaN on a
    failing game; the certificates are freed before the slopes take
    their temporaries.
    """
    certificates = _certificate(q, f, mask)
    lam, norm = _smallest_eigenvalue(certificates)
    lam = lam.reshape(-1, blocks)
    margins = _margin(lam.min(axis=1), norm.reshape(-1, blocks).max(axis=1), n)
    passing = margins > 0.0
    limiting = (lam.argmin(axis=1) + blocks * np.arange(len(lam)))[passing]
    shifted = certificates[limiting]
    del certificates
    diag = np.arange(shifted.shape[-1])
    shifted[:, diag, diag] -= margins[passing, np.newaxis]
    v = _solve_rows(shifted, np.ones(shifted.shape[:-1]))
    del shifted
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    at, dq = at[limiting], along[limiting]
    s = 1.0 / (1.0 - at)
    image = np.matmul(mask[limiting], np.stack([v * s, v * dq * s * s], axis=-1))
    slopes = np.full(len(margins), np.nan)
    slopes[passing] = -2.0 * ((v * dq) * image[..., 0] + (v * at) * image[..., 1]).sum(axis=-1)
    return margins, slopes


def pd_margin(c):
    """Positive-definiteness margin lambda_min(C) - 16 n eps ||C||_inf.

    The matrix is positive definite when the margin is positive: the
    subtracted term bounds the rounding error of the computed smallest
    eigenvalue, so a singular matrix such as [[2, -2], [-2, 2]] fails
    even when rounding lifts its zero eigenvalue. One symmetric
    eigenvalue solve decides it. Accepts leading batch dimensions and
    returns an array over them; a matrix with a non-finite entry has
    margin NaN and is not positive definite.
    """
    c = np.asarray(c, dtype=float)
    return _margin(*_smallest_eigenvalue(c), c.shape[-1])


def sylvester_pd(c):
    """Positive-definiteness test, with the leading principal minors.

    Returns ``(positive_definite, minors)``: ``positive_definite`` is
    :func:`pd_margin` > 0, so marginal certificates fail, and ``minors``
    are the :func:`leading_minors`. For a stack of matrices
    ``positive_definite`` is a boolean array over the stack, for a
    single matrix a ``bool``. The package decides definiteness through
    :func:`pd_margin` alone and never pays for the minors.
    """
    pd = pd_margin(c) > 0.0
    return (bool(pd) if pd.ndim == 0 else pd), leading_minors(c)


def _diag_dominant(q: np.ndarray, matrix) -> np.ndarray:
    """:func:`diag_dominant` at q, over q's leading dimensions."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = q[..., :, np.newaxis] / (1.0 - q)[..., np.newaxis, :]
    cross = np.where(np.asarray(matrix, dtype=bool), ratio, 0.0)
    row_mass = cross.sum(axis=-1) + cross.sum(axis=-2)
    return (row_mass < 2.0).all(axis=-1)


def diag_dominant(q_s, game: Game) -> bool:
    """Sufficient stability condition at a fixed point: strict row dominance.

    Checks sum_j (a_ij q_i / (1 - q_j) + a_ji q_j / (1 - q_i)) < 2 for
    every player i, i.e. the off-diagonal mass of C stays under the
    diagonal entry 2.
    """
    return bool(_diag_dominant(np.asarray(q_s, dtype=float), game.matrix))


class _Classes(NamedTuple):
    """The arrays of :func:`_classify`.

    The first five run over every point: the residual norm, and whether
    it is a fixed point, has a neighbour coordinate at 1, is decided (a
    fixed point with none) and clips. The rest run over the decided
    points: the certificate, positive definiteness and the class list.
    """

    residual: np.ndarray
    fixed: np.ndarray
    singular: np.ndarray
    decided: np.ndarray
    clipped: np.ndarray
    certificate: np.ndarray
    positive_definite: np.ndarray
    classification: list


def _classify(q: np.ndarray, rates, matrix, fp_tol: float) -> _Classes:
    """Krasovskii verdicts at the rows of ``q``, each in its own game, as arrays.

    Row k of ``q`` is a point of the game with interference ``matrix``
    and target rates ``rates[k]``, or ``rates`` for every row. One
    response evaluation serves every point's membership test, Jacobian
    and clipping flag; one certificate stack and one eigenvalue solve
    serve every decided point. The classification rule lives here
    alone: positive definite (:func:`pd_margin` > 0) is "stable", else
    a smallest eigenvalue above -``PD_TOL`` is "critical", and the rest
    are "unstable".
    """
    mask = np.asarray(matrix, dtype=bool)
    f = _response(q, rates, mask)
    res = np.abs(f - q).max(axis=-1)
    fixed = res <= fp_tol
    singular = _singular(q, mask)
    decided = fixed & ~singular
    c = _certificate(q[decided], f[decided], mask)
    lam, norm = _smallest_eigenvalue(c)
    pd = _margin(lam, norm, c.shape[-1]) > 0.0
    clipped = ((f >= 1.0) & (rates > 0.0)).any(axis=-1)
    # a positive-definite certificate has lam > 0
    classification = [("unstable", "critical", "stable")[a + b] for a, b in zip((lam > -PD_TOL).tolist(), pd.tolist())]
    return _Classes(res, fixed, singular, decided, clipped, c, pd, classification)


def _verdicts(q: np.ndarray, rates, matrix, fp_tol: float) -> list:
    """:func:`_classify` at the rows of ``q`` as one object per point.

    Returns, per point, its :class:`StabilityVerdict`, or the
    ``ValueError`` that :func:`krasovskii_verdict` raises there: the
    point is not a fixed point at ``fp_tol``, or a neighbour coordinate
    equals 1. Only the verdicts report dominance, so it is tested here.
    """
    classes = _classify(q, rates, matrix, fp_tol)
    points = q.copy()
    for arr in (points, classes.certificate):
        arr.flags.writeable = False
    dominant = _diag_dominant(q[classes.decided], matrix).tolist()
    decided = zip(classes.certificate, classes.positive_definite.tolist(), dominant, classes.classification)
    verdicts = []
    rows = zip(points, classes.fixed.tolist(), classes.singular.tolist(), classes.clipped.tolist(), classes.residual.tolist())
    for point, fixed, singular, clipped, res in rows:
        if not fixed:
            verdicts.append(ValueError(f"not a fixed point at tolerance {fp_tol:g} (residual {res:.3e})"))
        elif singular:
            verdicts.append(ValueError(_SINGULAR_MESSAGE))
        else:
            verdicts.append(StabilityVerdict(point, *next(decided), clipped))
    return verdicts


def krasovskii_verdict(
    q_s,
    game: Game,
    fp_tol: float = DEFAULT_FP_TOL,
) -> StabilityVerdict:
    """Full stability certificate at a fixed point.

    ``q_s`` must be one point of the game, of shape (n,).
    ``fp_tol`` is the fixed-point membership tolerance; pass something
    looser (e.g. 1e-3) for externally reported points rounded to a few
    decimals. Verdicts where some response component saturates are
    flagged ``clipped``: the certificate's derivation assumes an
    unclipped neighbourhood, so read those with care.
    """
    q = np.asarray(q_s, dtype=float)
    _check_positive_finite(fp_tol, "fp_tol")
    if q.shape != game.rates.shape:
        raise ValueError(f"q_s must have shape {game.rates.shape}, got {q.shape}")
    (verdict,) = _verdicts(q[np.newaxis], game.rates, game.matrix, fp_tol)
    if isinstance(verdict, ValueError):
        raise verdict
    return verdict


def lyapunov_value(q, game: Game) -> float:
    """Squared norm of the drift, g(q)^T g(q); zero exactly at fixed points."""
    g = residual(q, game)
    return float(g @ g)


# ---------------------------------------------------------------------------
# Region-of-attraction estimate
# ---------------------------------------------------------------------------


def _cell_of(q, resolution: int) -> tuple:
    """Grid index of the cell holding q; the upper face q_i = 1 joins the last cell."""
    return tuple(np.minimum((np.asarray(q, dtype=float) * resolution).astype(int), resolution - 1))


def _component(pd_mask: np.ndarray, cell: tuple) -> np.ndarray:
    """Face-connected component of ``pd_mask`` holding ``cell``; empty when the cell is not in it.

    Dilates one step along each axis in turn, inside ``pd_mask``, until
    a pass over every axis adds no cell.
    """
    mask = np.zeros_like(pd_mask)
    mask[cell] = pd_mask[cell]
    while True:
        size = np.count_nonzero(mask)
        for axis in range(mask.ndim):
            grown, allowed = np.moveaxis(mask, axis, 0), np.moveaxis(pd_mask, axis, 0)
            grown[1:] |= grown[:-1] & allowed[1:]
            grown[:-1] |= grown[1:] & allowed[:-1]
        if np.count_nonzero(mask) == size:
            return mask


@dataclass(frozen=True)
class RoaEstimate:
    """Grid certificate for the region of attraction around an equilibrium.

    ``pd_mask[i1, ..., in]`` says C is positive definite at the cell
    center ((i+0.5)/resolution per axis); ``mask`` keeps only the
    face-connected component of those cells containing the equilibrium,
    which is the certified estimate. ``mask`` is empty when the
    equilibrium's own cell center is not positive definite.
    """

    resolution: int
    mask: np.ndarray
    pd_mask: np.ndarray
    q_star: np.ndarray

    @property
    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.resolution) + 0.5) / self.resolution

    def cell_of(self, q) -> tuple:
        return _cell_of(q, self.resolution)

    def contains(self, q) -> bool:
        """Whether q's cell belongs to the certified component."""
        return bool(self.mask[self.cell_of(q)])


def roa_estimate(
    game: Game,
    q_star,
    resolution: int = ROA_DEFAULT_RESOLUTION,
) -> RoaEstimate:
    """Estimate the region of attraction of a stable equilibrium.

    Evaluates C on a uniform grid of cell centers over [0, 1)^n, marks
    the positive-definite cells, and returns the face-connected
    component containing the equilibrium's cell. The certificate is
    conservative: the true attraction region is typically larger.

    Refuses more than four players (the grid is exponential in n).
    """
    if game.n > ROA_MAX_PLAYERS:
        raise ValueError(f"grid estimate limited to {ROA_MAX_PLAYERS} players (got {game.n})")
    _check_count(resolution, "resolution")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    verdict = krasovskii_verdict(q_star, game)
    if not verdict.stable:
        raise ValueError("equilibrium is not certified stable; no attraction region to estimate")

    # one certificate call per slab of cells along the first axis, so
    # memory stays at resolution**(n-1) cells
    centers = (np.arange(resolution) + 0.5) / resolution
    pd_mask = np.empty((resolution,) * game.n, dtype=bool)
    for i in range(resolution):
        axes = [centers[i : i + 1]] + [centers] * (game.n - 1)
        slab = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)[0]
        pd_mask[i] = pd_margin(krasovskii_matrix(slab, game)) > 0.0

    q_star = np.array(q_star, dtype=float)
    mask = _component(pd_mask, _cell_of(q_star, resolution))
    for arr in (mask, pd_mask, q_star):
        arr.flags.writeable = False
    return RoaEstimate(resolution=resolution, mask=mask, pd_mask=pd_mask, q_star=q_star)


# ---------------------------------------------------------------------------
# Instability ordering across multiple fixed points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    """Verdict table for a set of fixed points.

    ``violation`` fires when the least point is unstable yet some other
    interior fixed point is stable, which the ordering of the
    certificate matrices rules out; it should never be True.
    """

    verdicts: list
    least_point: np.ndarray | None
    least_stable: bool | None
    violation: bool


def stability_consistency(fps: FixedPointSet, game: Game) -> ConsistencyReport:
    """Check that instability of the least fixed point dooms all others."""
    interior = fps.interior_points()
    if not interior:
        return ConsistencyReport(verdicts=[], least_point=None, least_stable=None, violation=False)
    verdicts = _verdicts(np.array(interior), game.rates, game.matrix, DEFAULT_FP_TOL)
    error = next((v for v in verdicts if isinstance(v, ValueError)), None)
    if error is not None:
        raise error
    least = least_of(FixedPointSet(points=interior), tol=1e-9)
    least_verdict = next(v for p, v in zip(interior, verdicts) if p is least)
    violation = (not least_verdict.stable) and any(
        v.stable for v in verdicts if v is not least_verdict
    )
    return ConsistencyReport(
        verdicts=verdicts,
        least_point=least_verdict.point,
        least_stable=least_verdict.stable,
        violation=violation,
    )
