import csv
import time

import numpy as np
import pytest

from alohagame import (
    BUDGET_EXHAUSTED,
    CONVERGED,
    CYCLE,
    Game,
    chain_matrix,
    detect_cycle,
    integrate_ode,
    iterate_game,
    kleene_lfp,
    lyapunov_value,
)
from conftest import P_SADDLE, Q_STAR

CYCLE_A = np.array([0.1952, 1.0, 0.1952])
CYCLE_B = np.array([1.0, 0.2316, 1.0])


class TestIterateGame:
    def test_from_rates_converges_fast(self, chain3):
        traj = iterate_game(chain3.rates, chain3, tol=1e-3)
        assert traj.outcome == CONVERGED
        assert len(traj.states) - 1 <= 10
        assert np.abs(traj.final - Q_STAR).max() <= 1e-3

    def test_fixed_point_is_stationary(self, chain3):
        point = kleene_lfp(chain3).point
        traj = iterate_game(point, chain3)
        assert traj.outcome == CONVERGED
        assert len(traj.states) == 1

    def test_nan_tolerance_rejected(self, chain3):
        with pytest.raises(ValueError, match="tol must be positive"):
            iterate_game(np.zeros(3), chain3, tol=float("nan"))

    @pytest.mark.parametrize("q0, perturb", [([np.nan, 0.0, 0.0], 0.0), (np.zeros(3), np.nan), (np.zeros(3), np.inf)])
    def test_nonfinite_start_rejected(self, chain3, q0, perturb):
        # clipping would turn inf into 1 and carry NaN into a bogus outcome
        with pytest.raises(ValueError, match=r"q0 \+ perturb must be finite"):
            iterate_game(q0, chain3, perturb=perturb)

    def test_long_run_at_the_pair_fold(self):
        # the plain update creeps up to the fold point (0.5, 0.5) for
        # about 70k steps; the cycle scans must not grow with the run
        start = time.perf_counter()
        traj = iterate_game(np.zeros(2), Game(chain_matrix(2), [0.25, 0.25]), tol=1e-10)
        elapsed = time.perf_counter() - start
        assert traj.outcome == CONVERGED
        assert len(traj.states) == 70_711
        assert elapsed < 5.0

    def test_saddle_escape_locks_into_two_cycle(self, chain3):
        traj = iterate_game(P_SADDLE, chain3, perturb=1e-6)
        assert traj.outcome == CYCLE
        assert traj.period == 2
        pts = traj.cycle_points
        match_ab = max(np.abs(pts[0] - CYCLE_A).max(), np.abs(pts[1] - CYCLE_B).max())
        match_ba = max(np.abs(pts[0] - CYCLE_B).max(), np.abs(pts[1] - CYCLE_A).max())
        assert min(match_ab, match_ba) <= 1e-3

    def test_relaxed_updates_reach_same_limit(self, chain3):
        # stopping is on the step size, which is epsilon times the
        # residual, so the limit accuracy scales like tol / epsilon
        tol = 1e-9
        target = kleene_lfp(chain3, tol=1e-13).point
        for eps in (0.1, 0.5, 1.0):
            traj = iterate_game(np.zeros(3), chain3, epsilon=eps, tol=tol)
            assert traj.outcome == CONVERGED
            assert np.abs(traj.final - target).max() <= 10 * tol / eps

    def test_full_step_iterates_stay_in_box(self, chain3):
        traj = iterate_game(np.zeros(3), chain3)
        assert (traj.states >= 0.0).all() and (traj.states <= 1.0).all()

    def test_budget_exhaustion(self, chain3):
        traj = iterate_game(np.zeros(3), chain3, tol=1e-15, max_iter=5)
        assert traj.outcome == BUDGET_EXHAUSTED
        assert len(traj.states) == 6

    def test_cycle_beats_budget(self, chain3):
        # the run settles on the cycle around step 20; a budget cut in the
        # cycling region must still be reported as a cycle
        traj = iterate_game(P_SADDLE, chain3, perturb=1e-6, max_iter=30)
        assert traj.outcome == CYCLE
        assert traj.period == 2
        assert len(traj.states) == 31

    def test_epsilon_validated(self, chain3):
        with pytest.raises(ValueError):
            iterate_game(np.zeros(3), chain3, epsilon=0.0)
        with pytest.raises(ValueError):
            iterate_game(np.zeros(3), chain3, epsilon=1.5)

    def test_records_epsilon(self, chain3):
        assert iterate_game(np.zeros(3), chain3, epsilon=0.5).epsilon == 0.5


class TestIntegrateOde:
    def test_flows_to_stable_equilibrium(self, chain3):
        traj = integrate_ode(np.zeros(3), chain3, tol=1e-9)
        assert traj.outcome == CONVERGED
        assert np.abs(traj.final - kleene_lfp(chain3).point).max() <= 1e-4

    def test_fixed_point_is_stationary(self, chain3):
        point = kleene_lfp(chain3, tol=1e-12).point
        traj = integrate_ode(point, chain3, tol=1e-9)
        assert traj.outcome == CONVERGED
        assert len(traj.states) == 1

    def test_lyapunov_descends_along_flow(self, chain3):
        traj = integrate_ode(np.zeros(3), chain3, tol=1e-9)
        values = [lyapunov_value(s, chain3) for s in traj.states]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_agrees_with_small_step_iteration(self, chain3):
        ode = integrate_ode(np.zeros(3), chain3, tol=1e-10)
        relaxed = iterate_game(np.zeros(3), chain3, epsilon=0.1, tol=1e-10)
        assert np.abs(ode.final - relaxed.final).max() <= 1e-6

    def test_dt_validated(self, chain3):
        with pytest.raises(ValueError):
            integrate_ode(np.zeros(3), chain3, dt=0.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_nonfinite_dt_rejected(self, chain3, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            integrate_ode(np.zeros(3), chain3, dt=dt)

    @pytest.mark.parametrize("t_end", [-1.0, np.nan, np.inf])
    def test_t_end_validated(self, chain3, t_end):
        with pytest.raises(ValueError, match="t_end must be nonnegative and finite"):
            integrate_ode(np.zeros(3), chain3, t_end=t_end)

    def test_nan_tolerance_rejected(self, chain3):
        # a NaN tolerance stops nothing: the flow ran to the horizon at the equilibrium
        with pytest.raises(ValueError, match="tol must be positive"):
            integrate_ode(np.zeros(3), chain3, tol=np.nan)

    def test_zero_horizon_keeps_the_start(self, chain3):
        traj = integrate_ode(np.zeros(3), chain3, t_end=0.0)
        assert traj.outcome == BUDGET_EXHAUSTED and len(traj.states) == 1

    def test_nonfinite_start_rejected(self, chain3):
        with pytest.raises(ValueError, match="q0 must be finite"):
            integrate_ode([np.nan, 0.0, 0.0], chain3)


class TestDetectCycle:
    def test_alternating_pair(self):
        states = [CYCLE_A, CYCLE_B] * 6
        assert detect_cycle(states) == 2

    def test_constant_sequence_is_not_a_cycle(self):
        states = [np.array([0.2, 0.3])] * 10
        assert detect_cycle(states) is None

    def test_random_sequence_has_no_cycle(self):
        rng = np.random.default_rng(23)
        states = rng.uniform(0, 1, size=(64, 3))
        assert detect_cycle(states) is None

    def test_needs_four_states(self):
        assert detect_cycle([CYCLE_A, CYCLE_B]) is None

    def test_longer_period(self):
        block = [np.array([v]) for v in (0.1, 0.5, 0.9)]
        assert detect_cycle(block * 5) == 3

    @pytest.mark.parametrize("period", [1, 2, 5, None])
    def test_only_the_last_two_max_periods_matter(self, period):
        rng = np.random.default_rng(7)
        states = rng.uniform(0, 1, size=(300, 3))
        if period is not None:
            states[100:] = np.tile(states[:period], (200 // period + 1, 1))[:200]
        assert detect_cycle(states) == (None if period in (1, None) else period)
        assert detect_cycle(states) == detect_cycle(states[-128:])
        assert detect_cycle(list(states)) == detect_cycle(states[-128:])

    def test_tolerance_respected(self):
        rng = np.random.default_rng(4)
        states = [CYCLE_A + rng.uniform(-1e-8, 1e-8, 3) for _ in range(12)]
        assert detect_cycle(states) is None  # constant within tol


class TestTrajectorySerialization:
    def test_csv_round_trip(self, chain3, tmp_path):
        traj = iterate_game(np.zeros(3), chain3, tol=1e-6)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "q_1", "q_2", "q_3"]
        assert len(rows) == len(traj.states) + 1
        got = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert np.abs(got - traj.states).max() <= 1e-10

    def test_states_immutable(self, chain3):
        traj = iterate_game(np.zeros(3), chain3, tol=1e-6)
        with pytest.raises(ValueError):
            traj.states[0, 0] = 0.5
