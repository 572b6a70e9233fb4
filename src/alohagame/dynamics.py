"""Game dynamics: discrete iteration, relaxed updates, continuous flow.

The discrete game updates every player to its best response each slot
(epoch); the relaxed variant moves a fraction epsilon of the way there,
and for small epsilon the process approximates the flow
qdot = F(q) - q. Trajectories record every visited state and classify
how the run ended: settled at a fixed point, locked into a cycle, or
ran out of budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import Game, _write_csv, residual
from .game import _check_count, _check_positive_finite, _check_start, _response

__all__ = [
    "Trajectory",
    "iterate_game",
    "integrate_ode",
    "detect_cycle",
    "CONVERGED",
    "CYCLE",
    "BUDGET_EXHAUSTED",
]

CONVERGED = "converged"
CYCLE = "cycle"
BUDGET_EXHAUSTED = "budget_exhausted"

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000
DEFAULT_DT = 0.01
DEFAULT_T_END = 200.0
CYCLE_TOL = 1e-6
MAX_PERIOD = 64

# How many steps between cycle scans during iteration; scanning every
# step would dominate the run time for long trajectories.
_CYCLE_CHECK_STRIDE = 16


@dataclass(frozen=True)
class Trajectory:
    """Recorded run of the game dynamics.

    ``epsilon`` is the step parameter that produced it: the relaxation
    factor for the discrete map, the integrator step for the flow.
    """

    states: np.ndarray
    outcome: str
    epsilon: float
    period: int | None = None

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    @property
    def cycle_points(self) -> np.ndarray | None:
        if self.period is None:
            return None
        return self.states[-self.period :]

    def to_csv(self, path) -> None:
        """Write the states as CSV with header step,q_1,...,q_n."""
        header = ["step"] + [f"q_{i + 1}" for i in range(self.states.shape[1])]
        _write_csv(path, header, ([step, *state] for step, state in enumerate(self.states)))


def detect_cycle(states) -> int | None:
    """Smallest sustained period in the tail of a state sequence.

    Period p (at most ``MAX_PERIOD``) is accepted when the last 2p
    states repeat with lag p within ``CYCLE_TOL`` (infinity norm). A
    constant tail matches lag 1 and reports None: standing still is
    convergence, not a cycle. Needs at least 4 states to say anything.
    """
    states = np.asarray(states[-2 * MAX_PERIOD :], dtype=float)
    m = len(states)
    if m < 4:
        return None
    for period in range(1, min(MAX_PERIOD, m // 2) + 1):
        tail = states[m - 2 * period :]
        if np.abs(tail[period:] - tail[:period]).max() <= CYCLE_TOL:
            return None if period == 1 else period
    return None


def iterate_game(
    q0,
    game: Game,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    epsilon: float = 1.0,
    perturb: float = 0.0,
) -> Trajectory:
    """Run the (relaxed) discrete game from q0.

    Each step moves q by epsilon * (F(q) - q); epsilon = 1 is the plain
    best-response update. Stops when the step's infinity norm is at
    most ``tol`` (converged), when the tail locks into a cycle, or when
    the budget runs out; a cycle found at the budget boundary wins over
    plain exhaustion.

    ``perturb`` is added to every component of q0 before the run (and
    the result clipped back to the box). An unstable fixed point is
    stationary in exact arithmetic, so demonstrating its divergence
    requires an explicit nudge like 1e-6; the default 0 keeps starts
    untouched.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must be in (0, 1]")
    _check_positive_finite(tol, "tol")
    _check_count(max_iter, "max_iter")
    q = _check_start(np.asarray(q0, dtype=float) + perturb, game.n, "q0 + perturb")
    q = np.clip(q, 0.0, 1.0)
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
        if len(states) >= 4 and len(states) % _CYCLE_CHECK_STRIDE == 0:
            period = detect_cycle(states)
            if period is not None:
                outcome = CYCLE
                break
    if outcome == BUDGET_EXHAUSTED:
        period = detect_cycle(states)
        if period is not None:
            outcome = CYCLE
    return Trajectory(states=np.asarray(states), outcome=outcome, epsilon=epsilon, period=period)


def integrate_ode(
    q0,
    game: Game,
    dt: float = DEFAULT_DT,
    t_end: float = DEFAULT_T_END,
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Integrate qdot = F(q) - q with fixed-step fourth-order Runge-Kutta.

    States are clipped to [0, 1]^n after every step; integration stops
    early once the drift's infinity norm falls to ``tol``.
    """
    _check_positive_finite(dt, "dt")
    if not (t_end >= 0.0 and np.isfinite(t_end)):
        raise ValueError("t_end must be nonnegative and finite")
    _check_positive_finite(tol, "tol")
    q = _check_start(q0, game.n, "q0")

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
