"""Core model for slotted-Aloha random access with spatial reuse.

Players share a collision channel. Player i transmits with probability
q_i per slot and succeeds only when none of its interferers transmit,
so its long-run throughput is q_i * prod_{j in N(i)} (1 - q_j), where
N(i) is the set of players whose transmissions collide with i's
reception. The interference pattern is a binary directed matrix with a
zero diagonal; it need not be symmetric.

Each player wants to hit a target rate with the smallest transmission
probability. The induced best-response map, clipped at 1, sends the
box [0, 1]^n into itself and is order-preserving for the componentwise
partial order, which is what the solver module exploits.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Game",
    "achieved_rate",
    "best_response",
    "residual",
    "leq",
    "is_fixed_point",
    "FIXED_POINT_TOL",
]

# Default infinity-norm tolerance for fixed-point membership.
FIXED_POINT_TOL = 1e-9


def _as_binary_matrix(matrix) -> np.ndarray:
    try:
        a = np.asarray(matrix)
    except ValueError:
        raise ValueError("interference matrix must be square, got rows of unequal lengths") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"interference matrix must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("interference matrix must have at least one player, got shape (0, 0)")
    # numbers are checked where they are, anything else as floats
    entries = a if a.dtype.kind in "biuf" else np.asarray(a, dtype=float)
    binary = entries == 0
    binary |= entries == 1
    if not binary.all():
        raise ValueError("interference matrix entries must be exactly 0 or 1")
    if entries.diagonal().any():
        raise ValueError("interference matrix diagonal must be zero (no self-interference)")
    out = entries.astype(np.int8)
    out.flags.writeable = False
    return out


def _as_rates(rates, shape: tuple) -> np.ndarray:
    """``rates`` as a read-only float array of the given shape: (n,) for a game, (k, n) for k games."""
    y = np.asarray(rates, dtype=float)
    if y.shape != shape:
        raise ValueError(f"rates must have shape {shape}, got {y.shape}")
    if not (np.isfinite(y).all() and (y >= 0.0).all() and (y <= 1.0).all()):
        raise ValueError("target rates must lie in [0, 1]")
    y = y.copy()
    y.flags.writeable = False
    return y


@dataclass(frozen=True)
class Game:
    """Immutable problem statement: interference matrix plus target rates.

    ``matrix[i, j] == 1`` means player j interferes with player i.
    """

    matrix: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        a = _as_binary_matrix(self.matrix)
        y = _as_rates(self.rates, a.shape[:1])
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "rates", y)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


# The input contract, checked by every entry point before it evaluates
# the response map: tolerances, steps and geometry positive and finite,
# steps no finer than the search grid, budgets and counts whole numbers
# of at least 1, starts finite vectors of the game's size. Grids built
# from a range and a step hold at most a million values.
def _positive_finite(value) -> np.ndarray:
    """Elementwise ``value > 0`` and finite; NaN fails."""
    v = np.asarray(value, dtype=float)
    return (v > 0.0) & np.isfinite(v)


def _check_positive_finite(value, name: str) -> None:
    # A Python float is compared as it is, with the outcome of the 0-d array rule.
    if not (0.0 < value < math.inf if type(value) is float else _positive_finite(value).all()):
        raise ValueError(f"{name} must be positive and finite")


# Search grids round their values to 12 decimals: no finer step has a grid.
_MIN_STEP = 1e-12


def _check_step(value, name: str) -> None:
    _check_positive_finite(value, name)
    if not value >= _MIN_STEP:
        raise ValueError(f"{name} must be at least {_MIN_STEP:g}, the grid's resolution")


def _check_grid_size(values: float, name: str) -> None:
    """Refuse a grid of more than a million values, before it is built.

    ``values`` is the grid's size as a float, which may be infinite:
    for ``np.arange(start, stop, step)``, (stop - start) / step.
    """
    if values > 1e6:
        raise ValueError(f"{name} asks for {values:.4g} values; a grid holds at most 1e+06")


def _check_count(value, name: str) -> None:
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be a whole number, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def _check_start(q, n: int, name: str) -> np.ndarray:
    """``q`` as a float array, checked to be a finite vector of length ``n``."""
    q = np.asarray(q, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {q.shape}")
    if not all(map(math.isfinite, q.tolist())):
        raise ValueError(f"{name} must be finite")
    return q


def _check_vector(q, n: int) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != n:
        raise ValueError(f"probability vector has length {q.shape[-1]}, expected {n}")
    return q


def success_product(q, matrix) -> np.ndarray:
    """Per-player probability that no interferer transmits.

    Returns prod_{j: matrix[i, j] = 1} (1 - q_j) for each i; an empty
    neighbourhood gives 1. Accepts leading batch dimensions on ``q``,
    and a stack of matrices that broadcasts against them: row k of a
    ``(k, n)`` stack of points against ``matrix[k]`` of a ``(k, n, n)``
    stack.
    """
    mask = np.asarray(matrix, dtype=bool)
    return _product(_check_vector(q, mask.shape[-1]), mask)


def _product(q: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """:func:`success_product` of a float array ``q`` and a boolean ``mask``, unchecked."""
    return np.where(mask, 1.0 - q[..., np.newaxis, :], 1.0).prod(axis=-1)


def achieved_rate(q, matrix) -> np.ndarray:
    """Throughput vector q_i * prod_{j in N(i)} (1 - q_j) at the point q."""
    return np.asarray(q, dtype=float) * success_product(q, matrix)


def best_response(q, game: Game) -> np.ndarray:
    """Clipped best-response map.

    Component i is min(rate_i / prod_{j in N(i)} (1 - q_j), 1). A zero
    product means the neighbours jam the channel: the component is 1
    when the target rate is positive and 0 when it is zero (the
    continuous limit of the clipped quotient).
    """
    return _response(_check_vector(q, game.n), game.rates, game.matrix.astype(bool))


def _response(q: np.ndarray, rates, mask: np.ndarray) -> np.ndarray:
    """:func:`best_response` at the rows of the float array ``q``, row k for target rates ``rates[k]``.

    ``rates`` may also be one rate vector for every row, and ``mask``
    is one boolean interference matrix for every row or a stack with
    row k's matrix at ``mask[k]``. The caller prepares the mask once,
    and nothing is checked here: the solvers call this on every step.
    The quotient is clipped at 1 by dividing by max(product, rate): a
    quotient of at most 1 is unchanged, a larger one is rate / rate = 1
    exactly, and none overflows, however small a positive product.
    Where every product is positive it is taken directly, with the same
    operations, and so the same bits, as the general path.
    """
    prod = _product(q, mask)
    positive = prod > 0.0
    if positive.all():
        return rates / np.maximum(prod, rates)
    raw = np.divide(rates, np.maximum(prod, rates), out=np.zeros_like(prod), where=positive)
    return np.where(positive, raw, np.where(rates > 0.0, 1.0, 0.0))


def _best_responses(q: np.ndarray, rates: np.ndarray, mask: np.ndarray, epsilon: float = 1.0):
    """Best-response iterates from the point ``q`` of a game with target rates ``rates`` and boolean matrix ``mask``, each a list of floats with its step's infinity norm.

    The step is epsilon (F(q) - q); the next iterate is F(q) at
    ``epsilon`` = 1, else q + step clipped to [0, 1]^n. Nothing is kept.
    Every game steps on Python floats over each player's list of
    interferers, whatever its size. A success product multiplies the
    factors 1 - q_j of the player's interferers in index order, from
    the first, as :func:`_product` does along the whole row less its
    exact products with 1.0. The quotient clipped at 1 is
    :func:`_response`'s rate / max(product, rate), and the jammed rule,
    the step and its clip to [0, 1] are those of a loop of
    :func:`_response`, so every iterate and norm has its bits.
    """
    rows, cols = np.nonzero(mask)
    neighbours = [[] for _ in range(len(q))]
    for i, j in zip(rows.tolist(), cols.tolist()):
        neighbours[i].append(j)
    players = list(zip(rates.tolist(), neighbours))
    q = q.tolist()
    while True:
        f = []
        for rate, interferers in players:
            product = 1.0
            for j in interferers:
                product *= 1.0 - q[j]
            if product > 0.0:
                quotient = rate / product
                f.append(quotient if quotient < 1.0 else 1.0)
            else:
                f.append(1.0 if rate > 0.0 else 0.0)
        if epsilon == 1.0:
            yield q, max(map(abs, map(operator.sub, f, q)))
            q = f
        else:
            step = [epsilon * (b - a) for a, b in zip(q, f)]
            yield q, max(map(abs, step))
            q = [0.0 if x < 0.0 else 1.0 if x > 1.0 else x for x in map(operator.add, q, step)]


def residual(q, game: Game) -> np.ndarray:
    """best_response(q) - q, the drift of the game dynamics."""
    return best_response(q, game) - _check_vector(q, game.n)


def leq(a, b) -> bool:
    """Componentwise partial order: a_i <= b_i for every i (exact comparisons)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"cannot compare vectors of shapes {a.shape} and {b.shape}")
    return bool((a <= b).all())


def is_fixed_point(q, game: Game, tol: float = FIXED_POINT_TOL) -> bool:
    """True when the infinity norm of the residual is at most tol."""
    _check_positive_finite(tol, "tol")
    return bool(np.abs(residual(q, game)).max() <= tol)


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``path`` as CSV.

    Floats are written with ``.12g`` and every other value with ``str``,
    so identical results give byte-identical files. Every CSV the
    package writes goes through here.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)
