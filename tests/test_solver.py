import numpy as np
import pytest

from alohagame import (
    FixedPointSet,
    Game,
    best_response,
    chain_matrix,
    fully_connected_matrix,
    is_fixed_point,
    kleene_lfp,
    krasovskii_verdict,
    least_of,
    leq,
    multistart_fixed_points,
    newton_lfp,
)
from alohagame import solver
from conftest import P_SADDLE, Q_STAR, instance_rng, random_game
from test_game import two_player_root


class TestKleene:
    def test_chain_reaches_reported_equilibrium(self, chain3):
        res = kleene_lfp(chain3)
        assert res.converged and res.interior and not res.extraneous
        assert np.abs(res.point - Q_STAR).max() <= 5e-4

    def test_edgeless_topology_converges_in_one_step(self):
        g = Game(np.zeros((3, 3)), [0.2, 0.5, 0.9])
        res = kleene_lfp(g)
        assert res.iterations == 1
        assert np.array_equal(res.point, g.rates)

    def test_two_player_collision_channel(self):
        g = Game(fully_connected_matrix(2), [0.2, 0.2])
        res = kleene_lfp(g)
        assert np.abs(res.point - two_player_root(0.2)).max() <= 1e-4

    def test_start_outside_region_rejected(self, chain3):
        with pytest.raises(ValueError, match="box"):
            kleene_lfp(chain3, q0=[0.2, 0.0, 0.0])
        with pytest.raises(ValueError, match="box"):
            kleene_lfp(chain3, q0=[-0.1, 0.0, 0.0])

    def test_positive_tol_required(self, chain3):
        with pytest.raises(ValueError):
            kleene_lfp(chain3, tol=-1.0)

    def test_infeasible_rates_flagged_extraneous(self):
        g = Game(chain_matrix(3), [0.15, 0.30, 0.15])  # past the fold
        res = kleene_lfp(g)
        assert res.converged and res.extraneous and not res.interior
        assert np.array_equal(res.point, np.ones(3))

    def test_budget_exhaustion_reports_last_iterate(self, chain3):
        res = kleene_lfp(chain3, max_iter=3)
        assert not res.converged
        assert res.iterations == 3
        assert (res.point <= Q_STAR + 1e-3).all()

    def test_iterates_ascend(self, chain3):
        q = np.zeros(3)
        for _ in range(50):
            f = best_response(q, chain3)
            assert (f >= q).all()
            q = f

    def test_start_anywhere_in_region_matches_zero_start(self, chain3):
        ref = kleene_lfp(chain3, tol=1e-12)
        rng = np.random.default_rng(3)
        for _ in range(10):
            q0 = rng.uniform(0.0, chain3.rates)
            res = kleene_lfp(chain3, q0=q0, tol=1e-12)
            assert np.abs(res.point - ref.point).max() <= 1e-9

    def test_zero_rate_player_stays_silent(self):
        g = Game(chain_matrix(3), [0.15, 0.0, 0.15])
        res = kleene_lfp(g)
        assert res.point[1] == 0.0
        assert np.abs(res.point - [0.15, 0.0, 0.15]).max() <= 1e-12


def _reference_games(count=60):
    """Seeded small games, each with its least fixed point to 1e-13."""
    for i in range(count):
        game = random_game(instance_rng(4242, i))
        yield game, kleene_lfp(game, tol=1e-13, max_iter=200_000)


class TestNewton:
    def test_chain_reaches_reported_equilibrium_in_few_steps(self, chain3):
        res = newton_lfp(chain3)
        assert res.converged and res.interior and not res.infeasible
        assert np.abs(res.point - Q_STAR).max() <= 5e-4
        assert res.iterations < kleene_lfp(chain3).iterations

    def test_iterates_stay_below_the_least_fixed_point(self):
        # Checked against a tighter Kleene solve than the default: the
        # ascent stops up to tol / (1 - rho) short of the least fixed
        # point, and late Newton iterates are closer than that.
        checked = 0
        for game, ref in _reference_games():
            if not ref.interior:
                continue
            final = newton_lfp(game)
            for k in range(1, final.iterations + 1):
                step = newton_lfp(game, max_iter=k)
                assert (step.point <= ref.point + 1e-10).all()
            checked += 1
        assert checked >= 20

    def test_agrees_with_kleene_away_from_folds(self):
        checked = 0
        for game, ref in _reference_games():
            if not ref.interior:
                continue
            verdict = krasovskii_verdict(ref.point, game)
            if verdict.leading_minors.min() < 1e-2:
                continue
            res = newton_lfp(game)
            assert res.converged
            assert np.abs(res.point - ref.point).max() <= 1e-6
            checked += 1
        assert checked >= 20

    def test_infeasible_only_without_a_stable_interior_point(self):
        flagged = 0
        for game, ref in _reference_games():
            res = newton_lfp(game)
            if res.infeasible:
                flagged += 1
                assert not (ref.interior and krasovskii_verdict(ref.point, game).stable)
        assert flagged >= 5

    def test_past_the_two_player_fold_is_infeasible_not_budget_exhausted(self):
        res = newton_lfp(Game(chain_matrix(2), [0.26, 0.26]))
        assert res.infeasible and not res.converged and not res.interior
        assert res.iterations < 10

    def test_budget_exhaustion_is_not_infeasible(self, chain3):
        res = newton_lfp(chain3, max_iter=1)
        assert not res.converged and not res.infeasible
        assert res.iterations == 1

    def test_warm_start_from_lower_rates(self, chain3):
        lower = newton_lfp(Game(chain_matrix(3), [0.1, 0.1, 0.1])).point
        res = newton_lfp(chain3, q0=lower)
        assert np.abs(res.point - newton_lfp(chain3).point).max() <= 1e-12

    def test_edgeless_topology_returns_the_rates(self):
        g = Game(np.zeros((3, 3)), [0.2, 0.5, 0.9])
        res = newton_lfp(g)
        assert res.converged and np.array_equal(res.point, g.rates)

    def test_start_outside_unit_box_rejected(self, chain3):
        with pytest.raises(ValueError, match="q0"):
            newton_lfp(chain3, q0=[1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="q0"):
            newton_lfp(chain3, q0=[-0.1, 0.0, 0.0])


class TestMultistartOracle:
    def test_chain_finds_both_feasible_roots(self, chain3):
        fps = multistart_fixed_points(chain3)
        assert fps.n_points == 2
        assert fps.includes_extraneous
        assert np.abs(fps.points[0] - Q_STAR).max() <= 5e-4
        assert np.abs(fps.points[1] - P_SADDLE).max() <= 5e-4
        # the third algebraic root has components above 1 and is dropped
        for p in fps.points:
            assert (p <= 1.0).all()

    def test_edgeless_topology_has_single_root(self):
        g = Game(np.zeros((2, 2)), [0.3, 0.6])
        fps = multistart_fixed_points(g)
        assert fps.n_points == 1
        assert np.abs(fps.points[0] - g.rates).max() <= 1e-9
        assert fps.includes_extraneous

    def test_two_player_collision_channel_both_roots(self):
        g = Game(fully_connected_matrix(2), [0.2, 0.2])
        fps = multistart_fixed_points(g)
        expected = [two_player_root(0.2), two_player_root(0.2, upper=True)]
        assert fps.n_points == 2
        for point, root in zip(fps.points, expected):
            assert np.abs(point - root).max() <= 1e-3

    def test_roots_satisfy_fixed_point_certificate(self, chain3):
        fps = multistart_fixed_points(chain3)
        for p in fps.points:
            assert is_fixed_point(p, chain3, tol=1e-9)

    def test_size_limit(self):
        g = Game(np.zeros((9, 9)), np.full(9, 0.1))
        with pytest.raises(ValueError, match="oracle"):
            multistart_fixed_points(g)

    def test_extraneous_flag_off_when_some_rate_zero(self):
        g = Game(chain_matrix(3), [0.15, 0.0, 0.15])
        assert not multistart_fixed_points(g).includes_extraneous

    def test_dedup_keeps_points_separated(self, chain3):
        fps = multistart_fixed_points(chain3)
        for i, p in enumerate(fps.points):
            for q in fps.points[i + 1 :]:
                assert np.abs(p - q).max() > 1e-6

    def test_dedup_keeps_the_points_a_greedy_pass_keeps(self):
        def greedy(points, radius):
            kept = []
            for p in points[np.lexsort(points.T[::-1])]:
                if all(np.abs(p - k).max() > radius for k in kept):
                    kept.append(p)
            return kept

        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            centres = rng.random((int(rng.integers(1, 6)), n))
            points = centres[rng.integers(0, len(centres), int(rng.integers(0, 40)))]
            # jitter of twice the radius: clusters where the kept point
            # depends on the order in which points are visited
            points = points + rng.uniform(-2e-6, 2e-6, points.shape)
            got = solver._dedup(points, 1e-6)
            want = greedy(points, 1e-6)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) and not a.flags.writeable for a, b in zip(got, want))


# The oracle settings in use: the default, and the property batches'.
ORACLE_SETTINGS = [(5, 80), (4, 50)]


def _grid_starts(n, starts_per_axis):
    centers = (np.arange(starts_per_axis) + 0.5) / starts_per_axis
    return np.stack(np.meshgrid(*([centers] * n), indexing="ij"), axis=-1).reshape(-1, n)


def _halving_newton(game, starts, tol, max_iter):
    """The oracle's damped Newton with one residual evaluation per halving."""
    q = starts.astype(float).copy()
    h, raw = solver._stationarity(q, game.matrix, game.rates)
    hnorm = np.abs(h).max(axis=1)
    alive = np.isfinite(hnorm)
    hnorm[~alive] = np.inf
    for _ in range(max_iter):
        active = alive & (hnorm > tol)
        if not active.any():
            break
        idx = np.flatnonzero(active)
        jac = solver._stationarity_jacobian(q[idx], raw[idx], game.matrix)
        ok = np.isfinite(jac).all(axis=(1, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            det = np.where(ok, np.linalg.det(np.where(np.isfinite(jac), jac, 0.0)), 0.0)
        ok &= np.abs(det) > 1e-300
        alive[idx[~ok]] = False
        idx = idx[ok]
        if idx.size == 0:
            continue
        step = np.linalg.solve(jac[ok], -h[idx][..., np.newaxis])[..., 0]
        lam = np.ones(idx.size)
        improved = np.zeros(idx.size, dtype=bool)
        trial = np.empty_like(q[idx])
        trial_h = np.empty_like(trial)
        trial_raw = np.empty_like(trial)
        for _damp in range(30):
            pending = ~improved
            if not pending.any():
                break
            cand = q[idx[pending]] + lam[pending, np.newaxis] * step[pending]
            cand_h, cand_raw = solver._stationarity(cand, game.matrix, game.rates)
            cand_norm = np.abs(cand_h).max(axis=1)
            better = np.isfinite(cand_norm) & (cand_norm <= hnorm[idx[pending]])
            sub = np.flatnonzero(pending)
            trial[sub[better]] = cand[better]
            trial_h[sub[better]] = cand_h[better]
            trial_raw[sub[better]] = cand_raw[better]
            improved[sub[better]] = True
            lam[sub[~better]] *= 0.5
        alive[idx[~improved]] = False
        keep = idx[improved]
        q[keep] = trial[improved]
        h[keep] = trial_h[improved]
        raw[keep] = trial_raw[improved]
        hnorm[keep] = np.abs(trial_h[improved]).max(axis=1)
    return q[alive & (hnorm <= tol)]


def _count_calls(monkeypatch, *names):
    """Count the calls of the named ``solver`` functions from here on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(solver, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(solver, name, counted)
    return calls


def _newton(game, starts, tol, max_iter):
    """The oracle's converged iterates for one game."""
    q, done = solver._newton_from_grid(game.matrix, game.rates, starts, tol, max_iter)
    return q[done]


def _stacked_newton(games, starts, tol, max_iter):
    """One stacked solve over the start grid of every game (one matrix);
    returns each game's converged iterates."""
    rates = np.repeat([g.rates for g in games], len(starts), axis=0)
    q, done = solver._newton_from_grid(games[0].matrix, rates, np.tile(starts, (len(games), 1)), tol, max_iter)
    shape = (len(games), len(starts))
    return [q_k[done_k] for q_k, done_k in zip(q.reshape(*shape, -1), done.reshape(shape))]


def _chain_sweep_games():
    return [Game(chain_matrix(3), [0.15, y2, 0.15]) for y2 in np.append(np.linspace(0.0, 0.30, 16), [0.245, 0.246])]


class TestOracleLineSearch:
    """The blocked line search accepts the factor that halving one at a
    time does, so the oracle's iterates are unchanged bit for bit."""

    @pytest.mark.parametrize("starts_per_axis, max_iter", ORACLE_SETTINGS)
    def test_chain_sweep_matches_halving_loop(self, starts_per_axis, max_iter):
        starts = _grid_starts(3, starts_per_axis)
        for game in _chain_sweep_games():
            got = _newton(game, starts, solver.DEFAULT_TOL, max_iter)
            assert np.array_equal(got, _halving_newton(game, starts, solver.DEFAULT_TOL, max_iter))

    @pytest.mark.parametrize("starts_per_axis, max_iter", ORACLE_SETTINGS)
    def test_random_games_match_halving_loop(self, starts_per_axis, max_iter):
        games = [random_game(instance_rng(808, i)) for i in range(40)]
        assert {g.n for g in games} == {1, 2, 3, 4}
        assert any((g.rates == 0.0).any() for g in games)
        assert any((g.matrix != g.matrix.T).any() for g in games)
        for game in games:
            starts = _grid_starts(game.n, starts_per_axis)
            got = _newton(game, starts, solver.DEFAULT_TOL, max_iter)
            assert np.array_equal(got, _halving_newton(game, starts, solver.DEFAULT_TOL, max_iter))

    @pytest.mark.parametrize("starts_per_axis, max_iter", ORACLE_SETTINGS)
    def test_stacked_games_match_halving_loop_per_game(self, starts_per_axis, max_iter):
        # Stacks of one matrix under several rate vectors: the chain
        # sweep, and each random topology with rates scaled, redrawn and
        # one silenced.
        stacks = [[Game(chain_matrix(3), [0.15, y2, 0.15]) for y2 in (0.0, 0.1, 0.2, 0.245, 0.246, 0.3)]]
        for i in range(8):
            game = random_game(instance_rng(809, i))
            rng = instance_rng(810, i)
            silenced = game.rates.copy()
            silenced[0] = 0.0
            redrawn = rng.uniform(0.0, 0.3, game.n)
            stacks.append([Game(game.matrix, y) for y in (game.rates, 0.5 * game.rates, redrawn, silenced)])
        assert {stack[0].n for stack in stacks} == {1, 2, 3, 4}
        for games in stacks:
            starts = _grid_starts(games[0].n, starts_per_axis)
            got = _stacked_newton(games, starts, solver.DEFAULT_TOL, max_iter)
            for game, rows in zip(games, got):
                assert np.array_equal(rows, _halving_newton(game, starts, solver.DEFAULT_TOL, max_iter))

    def test_at_most_four_residual_evaluations_per_step(self, chain3, monkeypatch):
        calls = _count_calls(monkeypatch, "_stationarity", "_stationarity_jacobian")
        _newton(chain3, _grid_starts(3, 5), solver.DEFAULT_TOL, 80)
        assert calls["_stationarity_jacobian"] > 0
        assert calls["_stationarity"] <= 1 + 4 * calls["_stationarity_jacobian"]

    def test_at_most_four_residual_evaluations_per_stacked_step(self, monkeypatch):
        calls = _count_calls(monkeypatch, "_stationarity", "_stationarity_jacobian")
        _stacked_newton(_chain_sweep_games(), _grid_starts(3, 5), solver.DEFAULT_TOL, 80)
        assert calls["_stationarity_jacobian"] > 0
        assert calls["_stationarity"] <= 1 + 4 * calls["_stationarity_jacobian"]

    def test_polish_evaluates_each_residual_once(self, chain3, monkeypatch):
        root = _newton(chain3, _grid_starts(3, 5), 1e-6, 80)[0]
        calls = _count_calls(monkeypatch, "_stationarity", "_stationarity_jacobian")
        solver._polish(chain3, root)
        assert calls["_stationarity_jacobian"] > 0
        assert calls["_stationarity"] == 1 + calls["_stationarity_jacobian"]


class TestLeastOf:
    def test_chain_least_is_reported_equilibrium(self, chain3):
        fps = multistart_fixed_points(chain3)
        least = least_of(fps)
        assert np.abs(least - Q_STAR).max() <= 5e-4
        for other in fps.points:
            assert leq(least, other)

    def test_singleton(self):
        point = np.array([0.25, 0.5])
        assert np.array_equal(least_of(FixedPointSet(points=[point])), point)

    def test_two_player_least(self):
        g = Game(fully_connected_matrix(2), [0.2, 0.2])
        least = least_of(multistart_fixed_points(g))
        assert np.abs(least - two_player_root(0.2)).max() <= 1e-3

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            least_of(FixedPointSet(points=[]))

    def test_incomparable_minimal_elements_surface_as_diagnostic(self):
        fps = FixedPointSet(points=[np.array([0.3, 0.1]), np.array([0.1, 0.3])])
        with pytest.raises(ValueError, match="incomparable"):
            least_of(fps)

    def test_tolerance_absorbs_round_off(self):
        a = np.array([0.2, 0.3])
        b = np.array([0.2 + 1e-12, 0.3 + 0.1])
        got = least_of(FixedPointSet(points=[b, a]), tol=1e-9)
        assert np.array_equal(got, a)

    def test_disjoint_pairs_product_structure(self):
        # two independent 2-player channels: roots combine componentwise,
        # and the least root is the pair of per-channel least roots
        a = np.zeros((4, 4), dtype=int)
        a[0, 1] = a[1, 0] = 1
        a[2, 3] = a[3, 2] = 1
        g = Game(a, [0.2, 0.2, 0.21, 0.21])
        fps = multistart_fixed_points(g)
        assert fps.n_points == 4
        least = least_of(fps, tol=1e-9)
        expected = [two_player_root(0.2), two_player_root(0.2), two_player_root(0.21), two_player_root(0.21)]
        assert np.abs(least - expected).max() <= 1e-6
        assert np.abs(kleene_lfp(g).point - expected).max() <= 1e-6
