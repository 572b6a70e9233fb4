import tracemalloc

import numpy as np
import pytest

from alohagame import (
    FixedPointSet,
    Game,
    achieved_rate,
    best_response,
    bifurcation_sweep,
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
from alohagame import solver, stability
from alohagame.game import _response, success_product
from conftest import P_SADDLE, Q_STAR, batch_games, instance_rng, random_game, record_calls
from reference import diagonal_contraction, fixed_point_sets_per_game, greedy_dedup, inverse_by_solving
from reference import last_axis_products, merge_always_sorting, neighbour_contraction, polish_compacting_every_step
from reference import prefix_loop_contraction, solve_one_by_one, width_only_leaf_centres, widest_axis_leaf_centres
from test_game import two_player_root


class TestKleene:
    def test_chain_reaches_reported_equilibrium(self, chain3):
        res = kleene_lfp(chain3)
        assert res.converged and res.interior and not res.extraneous
        assert np.abs(res.point - Q_STAR).max() <= 5e-4

    def test_nan_tolerance_rejected(self, chain3):
        with pytest.raises(ValueError, match="tol must be positive"):
            kleene_lfp(chain3, tol=float("nan"))

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


class TestNewtonRows:
    """Rows of one stack step together and each ends as its own
    ``newton_lfp`` solve does, bit for bit."""

    @staticmethod
    def _compare(games, starts, max_iter):
        rows = solver._newton_rows(
            np.array(starts),
            np.array([g.rates for g in games]),
            np.array([g.matrix for g in games], dtype=bool),
            max_iter,
        )
        for k, (game, start) in enumerate(zip(games, starts)):
            res = newton_lfp(game, q0=start, max_iter=max_iter)
            assert rows[0][k].tobytes() == res.point.tobytes()
            assert (rows[1][k], rows[2][k], rows[3][k], rows[4][k]) == (
                res.iterations,
                res.converged,
                res.residual_norm,
                res.infeasible,
            )
        return rows

    @pytest.mark.parametrize("max_iter", [1, 3, 100_000])
    def test_rows_match_one_solve_per_game(self, max_iter):
        by_size = {}
        for i in range(300):
            game = random_game(instance_rng(616, i), n_max=5)
            by_size.setdefault(game.n, []).append(game)
        outcomes = set()
        for games in by_size.values():
            starts = [np.zeros(g.n) for g in games]
            _, _, converged, _, infeasible = self._compare(games, starts, max_iter)
            outcomes |= set(zip(converged.tolist(), infeasible.tolist()))
        expected = {(True, False), (False, True)} | ({(False, False)} if max_iter < 100 else set())
        assert outcomes == expected

    def test_warm_started_rows(self):
        games = [Game(chain_matrix(3), [y] * 3) for y in (0.12, 0.15, 0.18, 0.2)]
        starts = [newton_lfp(Game(chain_matrix(3), [y - 0.02] * 3)).point for y in (0.12, 0.15, 0.18, 0.2)]
        self._compare(games, starts, 100_000)

    def test_singular_newton_row_ends_infeasible_alone(self, monkeypatch):
        # At q = (0.5, 0.5) the pair with rates (0.2, 0.3125) has
        # F'_12 F'_21 = 0.8 * 1.25 = 1: its Newton matrix is singular,
        # and LAPACK refuses the whole stack.
        pair = chain_matrix(2)
        games = [Game(pair, [0.1, 0.1]), Game(pair, [0.2, 0.3125]), Game(pair, [0.2, 0.2])]
        failed = []
        solve = np.linalg.solve

        def recording(m, b):
            try:
                return solve(m, b)
            except np.linalg.LinAlgError:
                failed.append(len(m))
                raise

        monkeypatch.setattr(np.linalg, "solve", recording)
        _, iterations, converged, _, infeasible = self._compare(games, [np.zeros(2), np.full(2, 0.5), np.zeros(2)], 100)
        assert failed[0] == 3
        assert infeasible.tolist() == [False, True, False] and iterations[1] == 0
        assert converged[0] and converged[2]

    def test_singular_row_does_not_disturb_its_neighbours(self):
        m = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]], [[4.0, 0.0], [1.0, 1.0]]])
        b = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(m, b[..., np.newaxis])
        x = solver._solve_rows(m, b)
        assert np.isnan(x[1]).all()
        for k in (0, 2):
            assert x[k].tobytes() == np.linalg.solve(m[k], b[k]).tobytes()


def _pair_led(rng, n):
    """A random n-player interference matrix whose players 0 and 1 hear
    only each other. Its Jacobian J(q) of q * P(q) - y is then exactly
    singular wherever q_0 = q_1 = 1/2 and every other q_i < 1/2: rows 0
    and 1 are (1/2, -1/2, 0, ...) and its negative, and partial pivoting
    takes row 0 first, which leaves row 1 zero."""
    a = (rng.random((n, n)) < 0.5).astype(np.int8)
    a[:2] = 0
    a[0, 1] = a[1, 0] = 1
    np.fill_diagonal(a, 0)
    return a


def _lapack_fails(m):
    """Check that LAPACK refuses the stack ``m`` as a whole."""
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(m, np.ones(m.shape[:-1] + (1,)))


class TestRowsAsAlone:
    """Every batched kernel gives each row of a stack, bit for bit, what a
    one-row call gives it, with a singular, infeasible or non-finite row
    in the stack."""

    def test_solve_rows(self):
        rng = np.random.default_rng(3501)
        for n in (1, 2, 3, 5, 8):
            m = rng.standard_normal((6, n, n))
            # a zero column stays zero, so its LU factors have a zero pivot
            m[1, :, -1] = 0.0
            m[3, 0, 0] = np.nan
            m[4, -1, -1] = np.inf
            _lapack_fails(m)
            vectors, columns = rng.standard_normal((6, n)), rng.standard_normal((6, n, 3))
            for b in (vectors, columns, np.broadcast_to(np.eye(n), m.shape)):
                got = solver._solve_rows(m, b)
                assert got.flags.c_contiguous
                assert got.tobytes() == solve_one_by_one(m, b).tobytes()
                assert np.isnan(got[1]).all() and np.isfinite(got[[0, 2, 5]]).all()
                for k in range(len(m)):
                    assert got[k].tobytes() == solver._solve_rows(m[k : k + 1], b[k : k + 1])[0].tobytes()
            inverses = solver._solve_rows(m, np.eye(n)[np.newaxis])
            assert inverses.flags.c_contiguous
            assert inverses.tobytes() == inverse_by_solving(m).tobytes()

    def test_krawczyk_test(self):
        rng = np.random.default_rng(3502)
        for n in range(2, solver.ORACLE_MAX_PLAYERS + 1):
            a = _pair_led(rng, n)
            lo = rng.uniform(0.0, 0.2, (64, n))
            hi = lo + rng.uniform(0.0, 0.25, (64, n))
            # box 5 has m_0 = m_1 = 1/2 and the rest below: J(m) is singular
            lo[5, :2], hi[5, :2] = 0.25, 0.75
            y = rng.uniform(0.0, 0.2, (64, n))
            y[rng.random((64, n)) < 0.1] = 0.0
            _lapack_fails(solver._jacobians((lo + hi) / 2.0, lo, hi, a)[1])
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                stacked = solver._krawczyk_test(lo, hi, y, a)
                assert np.isnan(stacked[0][5]).all() and not stacked[3][5]
                for k in range(len(lo)):
                    alone = solver._krawczyk_test(lo[k : k + 1], hi[k : k + 1], y[k : k + 1], a)
                    for got, one in zip(stacked, alone):
                        assert got[k].tobytes() == one[0].tobytes()

    def test_polish(self):
        rng = np.random.default_rng(3503)
        for n in range(2, solver.ORACLE_MAX_PLAYERS + 1):
            a = _pair_led(rng, n)
            starts = rng.uniform(0.0, 0.45, (16, n))
            starts[3, :2] = 0.5
            rates = rng.uniform(0.0, 0.2, (16, n))
            # rates no point of [0, 1]^n reaches
            rates[7] = 0.9
            _lapack_fails(solver._polynomial(starts, rates, a)[1])
            stacked = solver._polish(starts, rates, a, 50)
            for k in range(len(starts)):
                alone = solver._polish(starts[k : k + 1], rates[k : k + 1], a, 50)
                assert stacked[k].tobytes() == alone[0].tobytes()

    def test_newton_rows(self):
        # The pair at rates (0.2, 0.3125) has a singular Newton matrix at
        # q = (0.5, 0.5), and so has the pair with a third player who
        # hears both; the rows after them are past their folds.
        pair, led = chain_matrix(2), np.array([[0, 1, 0], [1, 0, 0], [1, 1, 0]])
        edgeless = Game(np.zeros((2, 2)), [0.4, 0.2])
        for games, starts in [
            (
                [Game(pair, [0.1, 0.1]), Game(pair, [0.2, 0.3125]), Game(pair, [0.3, 0.3]), edgeless],
                [np.zeros(2), np.full(2, 0.5), np.zeros(2), np.zeros(2)],
            ),
            (
                [Game(led, [0.1] * 3), Game(led, [0.2, 0.3125, 0.1]), Game(chain_matrix(3), [0.15, 0.3, 0.15])],
                [np.zeros(3), np.array([0.5, 0.5, 0.0]), np.zeros(3)],
            ),
        ]:
            q = np.array(starts)
            rates = np.array([g.rates for g in games])
            mask = np.array([g.matrix for g in games], dtype=bool)
            f = _response(q, rates, mask)
            _lapack_fails(np.eye(q.shape[1]) - mask * (f[:, :, np.newaxis] / (1.0 - q)[:, np.newaxis, :]))
            stacked = solver._newton_rows(q, rates, mask, 100)
            assert stacked[4].tolist() == [False, True, True] + [False] * (len(games) - 3)
            for k in range(len(games)):
                alone = solver._newton_rows(q[k : k + 1], rates[k : k + 1], mask[k : k + 1], 100)
                for got, one in zip(stacked, alone):
                    assert got[k].tobytes() == one[0].tobytes()

    def test_classify(self):
        chain = chain_matrix(3)
        rates = np.array([[0.15] * 3, [0.15] * 3, [0.15] * 3, [0.2, 0.1, 0.2], [0.15, 0.3, 0.15]])
        q = np.array([Q_STAR, P_SADDLE, [1.0, 0.0, 0.0], [0.2, 0.1, 0.2], [0.9, 0.9, 0.9]])
        q[:2] = [newton_lfp(Game(chain, rates[0])).point, multistart_fixed_points(Game(chain, rates[1])).points[1]]
        stacked = stability._classify(q, rates, chain, 1e-9)
        # a stable point, a saddle, a neighbour at 1 and two points that are not fixed
        assert stacked.decided.tolist() == [True, True, False, False, False]
        assert stacked.classification == ["stable", "unstable"]
        decided = np.cumsum(stacked.decided) - 1
        for k in range(len(q)):
            alone = stability._classify(q[k : k + 1], rates[k : k + 1], chain, 1e-9)
            for got, one in zip(stacked[:5], alone[:5]):
                assert got[k].tobytes() == one[0].tobytes()
            if stacked.decided[k]:
                j = decided[k]
                assert stacked.certificate[j].tobytes() == alone.certificate[0].tobytes()
                assert stacked.positive_definite[j] == alone.positive_definite[0]
                assert stacked.classification[j] == alone.classification[0]

    def test_margins_and_slopes(self):
        rng = np.random.default_rng(3504)
        for n in (2, 3, 6):
            mask = rng.random((12, n, n)) < 0.6
            mask[:, np.arange(n), np.arange(n)] = False
            q = rng.uniform(0.0, 0.3, (12, n))
            # near 1, where the certificate fails
            q[[2, 9]] = 0.95
            f = _response(q, achieved_rate(q, mask) * 0.99, mask)
            along = rng.uniform(0.0, 1.0, (12, n))
            margins, slopes = stability._margins_and_slopes(q, f, mask, 1, n, q, along)
            assert (margins[[2, 9]] <= 0.0).all() and np.isnan(slopes[[2, 9]]).all()
            assert (margins > 0.0).sum() >= 6
            for k in range(len(q)):
                one = slice(k, k + 1)
                alone = stability._margins_and_slopes(q[one], f[one], mask[one], 1, n, q[one], along[one])
                assert margins[k].tobytes() == alone[0][0].tobytes()
                assert slopes[k].tobytes() == alone[1][0].tobytes()

    def test_roots_of_a_chain8_sweep(self):
        # The two values of this sweep were once enumerated together with
        # the second's roots up to 2.2e-16 away from its own call's.
        a = chain_matrix(8)
        rates = np.full((2, 8), 0.1)
        rates[:, 3] = [0.0232, 0.0328]
        roots, owner = solver._roots(rates, a)
        for k in range(len(rates)):
            alone, _ = solver._roots(rates[k : k + 1], a)
            assert roots[owner == k].tobytes() == alone.tobytes()
        branch = bifurcation_sweep(a, [0.1] * 8, 3, (0.0232, 0.0328), step=0.0096)
        for value, points in zip(branch.parameter_values, branch.branches):
            fps = multistart_fixed_points(Game(a, np.where(np.arange(8) == 3, value, 0.1)))
            assert sorted(p.point.tobytes() for p in points) == sorted(p.tobytes() for p in fps.points)


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

    def test_every_closed_form_pair_root_is_found(self):
        # q1 (1 - q2) = y1 and q2 (1 - q1) = y2 give q2 = q1 - (y1 - y2)
        # and a quadratic in q1. Squared draws put many rates near 0,
        # where the upper root sits near the all-ones corner.
        rng = np.random.default_rng(2013)
        checked = 0
        for _ in range(500):
            y1, y2 = rng.uniform(0.0, 0.3) * rng.uniform(0.0, 1.0, 2) ** 2
            game = Game(chain_matrix(2), [y1, y2])
            points = multistart_fixed_points(game).points
            d = y1 - y2
            disc = (1.0 + d) ** 2 - 4.0 * y1
            for sign in (-1.0, 1.0):
                q1 = (1.0 + d + sign * np.sqrt(max(disc, 0.0))) / 2.0
                root = np.array([q1, q1 - d])
                if not ((root >= 0.0).all() and (root <= 1.0).all() and is_fixed_point(root, game, 1e-9)):
                    continue
                checked += 1
                assert min(np.abs(p - root).max() for p in points) <= 1e-8, (y1, y2, root)
        assert checked >= 900

    @pytest.mark.parametrize(
        "index, corner_root",
        [(24, [0.99917778, 0.95799709]), (952, [0.97429516, 0.0, 0.99995847])],
    )
    def test_corner_roots_of_property_games(self, index, corner_root):
        # Games of the property batch (master 20240) with a genuine root
        # near the all-ones corner.
        game = random_game(instance_rng(20240, index))
        for starts_per_axis, max_iter in [(1, 50), (4, 50)]:
            fps = multistart_fixed_points(game, starts_per_axis=starts_per_axis, max_iter=max_iter)
            assert fps.n_points == 2
            assert np.abs(fps.points[1] - corner_root).max() <= 1e-8

    def test_silent_player_on_the_jammed_face(self):
        # q = (t, 1) solves the polynomial system for every t, but the
        # clipped map sends a silent player to 0.
        fps = multistart_fixed_points(Game([[0, 1], [0, 0]], [0.0, 1.0]))
        assert fps.n_points == 1
        assert np.array_equal(fps.points[0], [0.0, 1.0])

    def test_chain_past_the_fold_has_no_roots(self):
        assert multistart_fixed_points(Game(chain_matrix(3), [0.15, 0.26, 0.15])).n_points == 0

    def test_pair_double_root_is_one_point(self):
        fps = multistart_fixed_points(Game(chain_matrix(2), [0.25, 0.25]))
        assert fps.n_points == 1
        assert np.abs(fps.points[0] - 0.5).max() <= 1e-6

    def test_dedup_keeps_the_points_a_greedy_pass_keeps(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            centres = rng.random((int(rng.integers(1, 6)), n))
            points = centres[rng.integers(0, len(centres), int(rng.integers(0, 40)))]
            # jitter of twice the radius: clusters where the kept point
            # depends on the order in which points are visited
            points = points + rng.uniform(-2e-6, 2e-6, points.shape)
            got, _ = solver._merge(points, np.zeros(len(points), dtype=int), 1e-6)
            want = greedy_dedup(points, 1e-6)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) and not a.flags.writeable for a, b in zip(got, want))

    def test_merge_keeps_each_games_greedy_points(self):
        # Clusters straddle games: each cluster's points are spread over
        # the games at random, and some games hold no point.
        rng = np.random.default_rng(23)
        for _ in range(300):
            n, games = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            centres = rng.random((int(rng.integers(1, 6)), n))
            count = int(rng.integers(0, 60))
            points = centres[rng.integers(0, len(centres), count)] + rng.uniform(-2e-6, 2e-6, (count, n))
            owner = rng.integers(0, games, count)
            kept, kept_owner = solver._merge(points, owner, 1e-6)
            assert not kept.flags.writeable and (np.diff(kept_owner) >= 0).all()
            for k in range(games):
                want = greedy_dedup(points[owner == k], 1e-6)
                got = kept[kept_owner == k]
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_merge_matches_the_one_that_always_sorts(self):
        # no point and one point are returned as they come, read-only
        rng = np.random.default_rng(3003)
        for count in (0, 1, 0, 1, *rng.integers(2, 40, 30)):
            n, games = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            centres = rng.random((3, n))
            points = centres[rng.integers(0, 3, count)] + rng.uniform(-2e-6, 2e-6, (count, n))
            owner = rng.integers(0, games, count)
            got = solver._merge(points, owner, 1e-6)
            want = merge_always_sorting(points, owner, 1e-6)
            for x, y in zip(got, want):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
            assert not got[0].flags.writeable and got[0] is not points
            assert points.flags.writeable

    def test_merge_memory_is_linear_in_the_points(self):
        # 20,000 points of 10,000 games: a temporary of either squared
        # would take gigabytes
        rng = np.random.default_rng(5)
        points = rng.random((20_000, 4))
        owner = rng.integers(0, 10_000, len(points))
        tracemalloc.start()
        try:
            solver._merge(points, owner, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * points.nbytes

    def test_root_order_does_not_hang_on_rounding(self):
        # Two roots of this game agree to 1e-16 in their first four
        # coordinates, so their raw lexicographic order is set by the
        # last bits, which a change of rounding moves by about 1e-15.
        y = np.full(8, 0.1)
        y[4] = 0.0
        points = np.array(multistart_fixed_points(Game(chain_matrix(8), y)).points)
        assert len(points) == 4
        rng = np.random.default_rng(4)
        raw_swaps = 0
        for _ in range(50):
            nudged = points + rng.choice([-1e-15, 1e-15], points.shape)
            order = rng.permutation(len(points))
            kept, _ = solver._merge(nudged[order], np.zeros(len(points), dtype=int), solver.DEDUP_RADIUS)
            assert np.array_equal(np.array(kept), nudged)
            raw_swaps += not np.array_equal(np.lexsort(nudged.T[::-1]), np.arange(len(points)))
        assert raw_swaps > 0


class TestBoxExclusion:
    def test_range_and_contraction_keep_every_root(self):
        # Random boxes, faces at 0 and 1 included, and a point in each.
        # Rates y = q * P(q) make the point a root; a player whose rate
        # is zero is put at 0, as at every fixed point of the clipped map.
        # Contraction keeps the root with and without neighbour bounds.
        rng = np.random.default_rng(77)
        for _ in range(3000):
            n = int(rng.integers(1, 7))
            a = (rng.random((n, n)) < rng.uniform(0.2, 1.0)).astype(int)
            np.fill_diagonal(a, 0)
            lo, hi = np.sort(rng.random((2, n)), axis=0)
            lo[rng.random(n) < 0.2] = 0.0
            hi[rng.random(n) < 0.2] = 1.0
            q = rng.uniform(lo, hi)
            on_face = rng.random(n) < 0.2
            q[on_face] = np.where(rng.random(n) < 0.5, lo, hi)[on_face]
            silent = rng.random(n) < 0.15
            q[silent] = lo[silent] = 0.0
            q[achieved_rate(q, a) == 0.0] = 0.0
            lo = np.minimum(lo, q)
            game = Game(a, achieved_rate(q, a))
            y = game.rates
            assert (lo * success_product(hi, a) <= y).all()
            assert (y <= hi * success_product(lo, a)).all()
            for neighbours in (False, True):
                with np.errstate(divide="ignore", invalid="ignore"):
                    box_lo, box_hi, _ = solver._contract(
                        lo[np.newaxis], hi[np.newaxis], np.zeros(1, int), y[np.newaxis], a.astype(bool), neighbours
                    )
                assert len(box_lo) == 1
                assert (box_lo[0] <= q).all() and (q <= box_hi[0]).all()

    def test_initial_partition_is_cached_read_only(self):
        lo, hi = solver._partition(3, 4)
        again = solver._partition(3, 4)
        assert again[0] is lo and again[1] is hi
        assert not lo.flags.writeable and not hi.flags.writeable
        edges = np.linspace(0.0, 1.0, 5)
        assert lo.shape == hi.shape == (64, 3) and len(np.unique(lo, axis=0)) == 64
        # each cell spans one step of the edges along every axis
        cell = np.searchsorted(edges, lo)
        assert np.array_equal(lo, edges[cell]) and np.array_equal(hi, edges[cell + 1])
        # in index order, the last axis fastest
        assert np.array_equal(cell, np.array(list(np.ndindex(4, 4, 4))))

    def test_neighbour_bounds_keep_the_planted_root(self):
        # Each equation also bounds every interfering neighbour. The
        # bounds never cut the root, on a face of the box included, and
        # they cut boxes the diagonal bounds leave alone.
        rng = np.random.default_rng(1999)
        on_face = tighter = 0
        for _ in range(3000):
            game, q, lo, hi = _planted_box(rng)
            mask = game.matrix.astype(bool)
            boxes = []
            for neighbours in (False, True):
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    box_lo, box_hi, _ = solver._contract(
                        lo[np.newaxis], hi[np.newaxis], np.zeros(1, int), game.rates[np.newaxis], mask, neighbours
                    )
                assert len(box_lo) == 1
                assert (box_lo[0] <= q).all() and (q <= box_hi[0]).all()
                boxes.append((box_lo[0], box_hi[0]))
            (diag_lo, diag_hi), (both_lo, both_hi) = boxes
            assert (diag_lo <= both_lo).all() and (both_hi <= diag_hi).all()
            on_face += bool((((q == lo) | (q == hi)) & (game.rates > 0.0)).any())
            tighter += bool((both_lo > diag_lo).any() or (both_hi < diag_hi).any())
        assert on_face >= 300 and tighter >= 1000, (on_face, tighter)


def _planted_box(rng):
    """A random game, a root q of it and a box around q inside [0, 1]^n.

    Coordinates of q sit at 0 or 1 at times, and on a face of the box at
    times; a player whose rate q * P(q) is zero is silent, at 0 on an
    axis of width 0, as in the enumeration.
    """
    n = int(rng.integers(1, 7))
    a = (rng.random((n, n)) < rng.uniform(0.2, 1.0)).astype(int)
    np.fill_diagonal(a, 0)
    q = rng.random(n)
    q[rng.random(n) < 0.1] = 1.0
    q[rng.random(n) < 0.15] = 0.0
    q[achieved_rate(q, a) == 0.0] = 0.0
    game = Game(a, achieved_rate(q, a))
    scale = 10.0 ** rng.uniform(-4.0, -0.3)
    lo = np.clip(q - scale * rng.random(n), 0.0, 1.0)
    hi = np.clip(q + scale * rng.random(n), 0.0, 1.0)
    on_face, upper = rng.random(n) < 0.15, rng.random(n) < 0.5
    lo[on_face & ~upper], hi[on_face & upper] = q[on_face & ~upper], q[on_face & upper]
    silent = game.rates == 0.0
    lo[silent] = hi[silent] = 0.0
    return game, q, lo, hi


def _krawczyk_one(game, lo, hi):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return solver._krawczyk(lo[np.newaxis], hi[np.newaxis], np.zeros(1, int), game.rates[np.newaxis], game.matrix)


class TestKrawczykStep:
    def test_planted_root_survives_and_retired_boxes_polish_to_it(self):
        rng = np.random.default_rng(1969)
        outcomes = {"retired": 0, "newton_box": 0, "cut": 0, "kept": 0, "silent": 0}
        for _ in range(3000):
            game, q, lo, hi = _planted_box(rng)
            outcomes["silent"] += bool((game.rates == 0.0).any())
            box_lo, box_hi, _, (proven, _) = _krawczyk_one(game, lo, hi)
            if len(proven):
                assert len(box_lo) == 0
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    *_, plain = solver._krawczyk_test(lo[np.newaxis], hi[np.newaxis], game.rates[np.newaxis], game.matrix)
                if plain[0]:
                    outcomes["retired"] += 1
                    # Silent axes are not tested, and Y h(m) is off 0 there by rounding.
                    active = game.rates > 0.0
                    assert (lo <= proven[0])[active].all() and (proven[0] <= hi)[active].all()
                else:
                    # Retired at its Newton box, whose Newton point may lie outside X.
                    outcomes["newton_box"] += 1
                root = solver._polish(proven, game.rates[np.newaxis], game.matrix, 50)[0]
                assert np.abs(root - q).max() <= 1e-9
            else:
                # The root is in the box, so the box is neither dropped nor cut past it.
                assert len(box_lo) == 1
                assert (box_lo[0] <= q).all() and (q <= box_hi[0]).all()
                outcomes["cut" if (box_lo[0] > lo).any() or (box_hi[0] < hi).any() else "kept"] += 1
        assert min(outcomes.values()) >= 100, outcomes

    def test_jacobian_bounds_hold_every_jacobian_in_the_box(self):
        rng = np.random.default_rng(90)
        for _ in range(1000):
            game, _, lo, hi = _planted_box(rng)
            # Points in the box: its two extreme corners, its midpoint and 20 more.
            m = (lo + hi) / 2.0
            points = np.vstack([lo, hi, m, rng.uniform(lo, hi, (20, game.n))])
            h, jac = solver._polynomial(points, game.rates, game.matrix)
            prod, jm, j_lo, j_hi = solver._jacobians(m[np.newaxis], lo[np.newaxis], hi[np.newaxis], game.matrix)
            assert np.array_equal(jm[0], jac[2]) and np.array_equal(m * prod[0] - game.rates, h[2])
            assert (j_lo - 1e-15 <= jac).all() and (jac <= j_hi + 1e-15).all()
            assert np.array_equal(jac[0].diagonal(), j_hi[0].diagonal())
            assert np.array_equal(jac[1].diagonal(), j_lo[0].diagonal())

    def test_rootless_boxes_are_dropped(self):
        # The chain at rate 0.1 with player 4 silent has 4 roots; a box
        # around a root shifted off it by a few widths holds none.
        y = np.full(8, 0.1)
        y[4] = 0.0
        game = Game(chain_matrix(8), y)
        dropped = 0
        for root in multistart_fixed_points(game).points:
            lo, hi = np.clip(root - 1e-3, 0.0, 1.0), np.clip(root + 1e-3, 0.0, 1.0)
            lo[4] = hi[4] = 0.0
            _, _, _, (proven, _) = _krawczyk_one(game, lo, hi)
            assert len(proven) == 1 and np.abs(proven[0] - root).max() <= 1e-6
            shifted_lo, shifted_hi = lo + 5e-3, hi + 5e-3
            shifted_lo[4] = shifted_hi[4] = 0.0
            box_lo, _, _, (proven, _) = _krawczyk_one(game, shifted_lo, shifted_hi)
            assert len(proven) == 0
            dropped += len(box_lo) == 0
        assert dropped == 4

    def test_box_with_a_closed_axis_retires_at_its_newton_box(self):
        # A box around a simple root whose contraction has closed one
        # active axis to a width below the rounding slack: K cannot lie
        # strictly inside that axis, so the plain test fails, but the
        # Newton box passes. Player 0 of the second game hears no one,
        # so K's radius on its axis is the rounding slack alone, and
        # only the 1e-12 pad leaves room there.
        y = np.full(8, 0.1)
        y[4] = 0.0
        chain = Game(chain_matrix(8), y)
        deaf = Game([[0, 0, 0], [1, 0, 1], [1, 1, 0]], [0.1, 0.15, 0.12])
        retired = 0
        for game, axes in [(chain, np.flatnonzero(y > 0.0)), (deaf, [0])]:
            for root in multistart_fixed_points(game).points:
                for axis in axes:
                    lo, hi = np.clip(root - 1e-3, 0.0, 1.0), np.clip(root + 1e-3, 0.0, 1.0)
                    silent = game.rates == 0.0
                    lo[silent] = hi[silent] = 0.0
                    lo[axis], hi[axis] = np.nextafter(root[axis], 0.0), np.nextafter(root[axis], 1.0)
                    assert hi[axis] - lo[axis] < 1e-14
                    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                        *_, plain = solver._krawczyk_test(
                            lo[np.newaxis], hi[np.newaxis], game.rates[np.newaxis], game.matrix
                        )
                    box_lo, _, _, (proven, _) = _krawczyk_one(game, lo, hi)
                    assert not plain[0] and len(box_lo) == 0 and len(proven) == 1
                    polished = solver._polish(proven, game.rates[np.newaxis], game.matrix, 50)[0]
                    assert np.abs(polished - root).max() <= 1e-12
                    retired += 1
        assert retired == 4 * 7 + 2

    def test_inverses_match_the_solve_against_the_identity(self):
        # J(m) stacks of 1 to 2,048 boxes at every oracle size: each
        # inverse is np.linalg.inv of its matrix alone, bit for bit
        rng = np.random.default_rng(3002)
        for n in range(1, solver.ORACLE_MAX_PLAYERS + 1):
            eye = np.eye(n)[np.newaxis]
            for k in (1, 2, 5, 64, 2048):
                lo, hi, _, _ = _random_boxes(rng, n, k)
                a = (rng.random((n, n)) < 0.6).astype(np.int8)
                np.fill_diagonal(a, 0)
                _, jm, _, _ = solver._jacobians((lo + hi) / 2.0, lo, hi, a)
                got = solver._solve_rows(jm, eye)
                assert got.flags.c_contiguous
                assert got.tobytes() == inverse_by_solving(jm).tobytes()
        # The pair's J(m) at m = (0.5, 0.5) is [[0.5, -0.5], [-0.5, 0.5]]:
        # its inverse is NaN, and the others are each matrix's own.
        m = np.array([[0.2, 0.3], [0.5, 0.5], [0.1, 0.7]])
        _, jm, _, _ = solver._jacobians(m, m, m, Game(chain_matrix(2), [0.25, 0.25]).matrix)
        got = solver._solve_rows(jm, np.eye(2)[np.newaxis])
        assert got.flags.c_contiguous
        assert got.tobytes() == inverse_by_solving(jm).tobytes()
        assert np.isnan(got[1]).all() and np.isfinite(got[[0, 2]]).all()
        for k in (0, 2):
            assert got[k].tobytes() == np.linalg.inv(jm[k]).tobytes()

    def test_singular_jacobian_passes_the_box_on(self):
        # J(m) of the pair at m = (0.5, 0.5) is [[0.5, -0.5], [-0.5, 0.5]].
        game = Game(chain_matrix(2), [0.25, 0.25])
        lo = np.array([[0.4, 0.4], [0.1, 0.2]])
        hi = np.array([[0.6, 0.6], [0.2, 0.3]])
        rates = np.repeat(game.rates[np.newaxis], 2, axis=0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            box_lo, box_hi, rows, (proven, _) = solver._krawczyk(lo, hi, np.arange(2), rates, game.matrix)
        assert len(proven) == 0
        assert list(rows) == [0]
        assert np.array_equal(box_lo[0], lo[0]) and np.array_equal(box_hi[0], hi[0])


class TestProducts:
    def test_player_axis_products_match_the_last_axis_ones_bit_for_bit(self):
        # Stacks of every oracle size, empty ones included, with
        # coordinates exactly 1 (a zero factor, the pole a quotient
        # by P_i would have) and exactly 0.
        rng = np.random.default_rng(525)
        poles = 0
        for n in range(1, solver.ORACLE_MAX_PLAYERS + 1):
            for k in (0, 1, 4, *rng.integers(2, 300, 20)):
                a = (rng.random((n, n)) < rng.uniform(0.2, 1.0)).astype(float)
                np.fill_diagonal(a, 0.0)
                q = rng.random((k, n))
                q[rng.random((k, n)) < 0.1] = 1.0
                q[rng.random((k, n)) < 0.05] = 0.0
                poles += int((q == 1.0).sum())
                for matrix in (a, a.astype(bool)):
                    prod, others = solver._products(q, matrix)
                    want_prod, want_others = last_axis_products(q, matrix)
                    assert prod.shape == (k, n) and others.shape == (k, n, n)
                    assert others.flags.c_contiguous
                    assert prod.tobytes() == want_prod.tobytes()
                    assert others.tobytes() == want_others.tobytes()
        assert poles >= 1000


def _random_boxes(rng, n, k):
    """k random boxes of [0, 1]^n with faces exactly at 0 and 1, owned by
    three games whose rates include silent players."""
    lo, hi = np.sort(rng.random((2, k, n)), axis=0)
    lo[rng.random((k, n)) < 0.1] = 0.0
    hi[rng.random((k, n)) < 0.1] = 1.0
    lo[rng.random((k, n)) < 0.05] = 1.0
    hi = np.maximum(lo, hi)
    rates = rng.uniform(0.0, 0.5, (3, n))
    rates[rng.random((3, n)) < 0.2] = 0.0
    return lo, hi, rng.integers(0, 3, k), rates


class TestContractRounds:
    """The contraction rounds give, bit for bit, the boxes of the plain
    forms in ``tests/reference.py``."""

    def test_diagonal_rounds_match_the_last_axis_products(self):
        rng = np.random.default_rng(2525)
        corners = set()
        for n in range(1, solver.ORACLE_MAX_PLAYERS + 1):
            for k in (1, 4, 300, *rng.integers(2, 300, 12)):
                lo, hi, row, rates = _random_boxes(rng, n, k)
                a = (rng.random((n, n)) < rng.uniform(0.2, 1.0)).astype(float)
                np.fill_diagonal(a, 0.0)
                for mask in (a, a.astype(bool)):
                    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                        got = solver._contract(lo, hi, row, rates, mask)
                        want = diagonal_contraction(lo, hi, row, rates, mask)
                    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
                corners.add(2 * k)
        assert min(corners) == 2 and max(corners) == 600

    def test_neighbour_rounds_match_two_halves_formed_apart(self):
        rng = np.random.default_rng(2526)
        cut = 0
        for n in range(1, solver.ORACLE_MAX_PLAYERS + 1):
            for k in (1, 4, 300, *rng.integers(2, 300, 12)):
                lo, hi, row, rates = _random_boxes(rng, n, k)
                mask = rng.random((n, n)) < rng.uniform(0.2, 1.0)
                np.fill_diagonal(mask, False)
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    got = solver._contract(lo, hi, row, rates, mask, neighbours=True)
                    want = neighbour_contraction(lo, hi, row, rates, mask)
                assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
                cut += len(got[0]) < k
        assert cut >= 50

    def test_plain_rounds_match_the_prefix_loop(self):
        # Stacks of 1 to 2,048 boxes, in one slice, at every oracle size:
        # the one reduction along the player axis meets each product's
        # factors in the order the prefix loop did.
        rng = np.random.default_rng(3001)
        heights = set()
        for n in range(1, solver.ORACLE_MAX_PLAYERS + 1):
            for k in (1, 2, 3, 8, 64, 1024, 2048, *rng.integers(4, 600, 6)):
                lo, hi, row, rates = _random_boxes(rng, n, k)
                mask = rng.random((n, n)) < rng.uniform(0.2, 1.0)
                np.fill_diagonal(mask, False)
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    got = solver._contract_slice(lo, hi, row, rates, mask, False)
                    want = prefix_loop_contraction(lo, hi, row, rates, mask)
                assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
                heights.add(k)
        assert min(heights) == 1 and max(heights) == 2048

    def test_slices_change_no_bit(self, monkeypatch):
        monkeypatch.setattr(solver, "_CONTRACT_BOXES", 7)
        rng = np.random.default_rng(2907)
        for n in (1, 3, 8):
            for k in (6, 7, 8, 300):
                lo, hi, row, rates = _random_boxes(rng, n, k)
                mask = rng.random((n, n)) < 0.6
                np.fill_diagonal(mask, False)
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    for neighbours, reference in ((False, diagonal_contraction), (True, neighbour_contraction)):
                        got = solver._contract(lo, hi, row, rates, mask, neighbours=neighbours)
                        want = reference(lo, hi, row, rates, mask)
                        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    def test_an_eight_player_enumeration_is_bounded(self, monkeypatch):
        # One contraction of this game held 5,416 boxes; its neighbour
        # contraction of 1,996 boxes took 14.6 of the call's 14.9 MiB.
        game = _eight_player_pool()[2]
        boxes = solver._CONTRACT_BOXES
        points, peaks = [], []
        for cap in (boxes, 10**9):
            monkeypatch.setattr(solver, "_CONTRACT_BOXES", cap)
            tracemalloc.start()
            try:
                points.append([p.tobytes() for p in multistart_fixed_points(game).points])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert points[0] == points[1] and len(points[0]) == 2
        assert peaks[0] <= 0.6 * peaks[1]
        monkeypatch.setattr(solver, "_CONTRACT_BOXES", boxes)
        stacks = record_calls(monkeypatch, solver, "_contract")
        slices = record_calls(monkeypatch, solver, "_contract_slice")
        multistart_fixed_points(game)
        assert max(len(args[0]) for args, _ in stacks) > 4 * boxes
        assert max(len(args[0]) for args, _ in slices) <= boxes


class TestPolish:
    def test_matches_a_polish_that_compacts_every_step(self):
        # Starts with NaN coordinates or at 1 stop at once or early, so
        # steps where every row goes on and steps where some stop mix.
        rng = np.random.default_rng(2527)
        changed = 0
        for n in range(1, 7):
            for _ in range(15):
                a = (rng.random((n, n)) < rng.uniform(0.2, 1.0)).astype(np.int8)
                np.fill_diagonal(a, 0)
                k = int(rng.integers(1, 200))
                starts = rng.random((k, n))
                starts[rng.random((k, n)) < 0.02] = np.nan
                starts[rng.random((k, n)) < 0.05] = 1.0
                rates = rng.uniform(0.0, 0.4, (k, n))
                rates[rng.random((k, n)) < 0.1] = 0.0
                for max_iter in (1, 4, 50):
                    got = solver._polish(starts, rates, a, max_iter)
                    want = polish_compacting_every_step(starts, rates, a, max_iter)
                    assert got.tobytes() == want.tobytes()
                    changed += int((got != starts).any(axis=1).sum())
        assert changed >= 1000

    def test_a_zero_residual_takes_no_step(self, monkeypatch):
        # A player without interferers at q = y has the exact residual
        # y * 1 - y = 0; the second start reaches it in one step.
        calls = record_calls(monkeypatch, solver, "_polynomial")
        a = np.zeros((1, 1), dtype=np.int8)
        got = solver._polish(np.array([[0.25], [0.1]]), np.array([[0.25], [0.25]]), a, 50)
        assert got.tolist() == [[0.25], [0.25]]
        assert [len(args[0]) for args, _ in calls] == [2, 1]

    def test_singular_jacobian_stops_where_the_determinant_rule_stops(self):
        # The collision pair's Jacobian [[1 - q2, -q1], [-q2, 1 - q1]]
        # is exactly singular at (0.5, 0.5), so the stacked solve fails
        # and its rows are solved one at a time; the singular rows keep
        # their starts, as when a zero determinant stopped them.
        a = fully_connected_matrix(2)
        starts = np.array([[0.5, 0.5], [0.1, 0.3], [0.5, 0.5], [0.2, 0.25]])
        rates = np.array([[0.2, 0.2], [0.2, 0.2], [0.25, 0.25], [0.1, 0.15]])
        assert np.linalg.det(solver._polynomial(starts, rates, a)[1])[[0, 2]].tolist() == [0.0, 0.0]
        for max_iter in (1, 50):
            got = solver._polish(starts, rates, a, max_iter)
            assert got.tobytes() == polish_compacting_every_step(starts, rates, a, max_iter).tobytes()
            assert np.array_equal(got[[0, 2]], starts[[0, 2]])
            assert (got[[1, 3]] != starts[[1, 3]]).all()


class TestSplit:
    """A box the Krawczyk step leaves open is halved along up to three of
    its widest axes in one round, into children that tile it."""

    def test_children_tile_their_parent(self):
        # Boxes of every oracle size with silent [0, 0] axes, axes
        # exactly a leaf wide or narrower, and tied widths; a fifth of
        # them, as the Krawczyk step may leave them, no wider than a leaf.
        rng = np.random.default_rng(2601)
        seen = {"silent": 0, "past_widest": 0, "narrow_kept": 0, "capped": 0, "narrow_box": 0}
        for n in range(1, solver.ORACLE_MAX_PLAYERS + 1):
            for k in (1, 7, 300):
                lo = rng.random((k, n)) * 0.5
                width = rng.random((k, n)) * 0.5
                pick = rng.random((k, n))
                lo[pick < 0.4], width[pick < 0.4] = 0.0, rng.choice([1e-3, 5e-4, 0.25, 0.5], (k, n))[pick < 0.4]
                lo[pick < 0.1] = width[pick < 0.1] = 0.0
                narrow = rng.random(k) < 0.2
                width[narrow] *= 1e-3
                # one axis of each box is not silent
                width[np.arange(k), rng.integers(0, n, k)] = np.where(narrow, 4e-4, 0.5)
                hi = lo + width
                width = hi - lo
                child_lo, child_hi, parent = solver._split(lo, hi, np.arange(k))
                assert child_lo.shape == child_hi.shape == (len(parent), n)
                assert (np.diff(parent[:k]) > 0).all()
                for b in range(k):
                    order = sorted(range(n), key=lambda j: -width[b, j])
                    cut = [order[0]] + [j for j in order[1:3] if width[b, j] > solver._LEAF_WIDTH]
                    mine = parent == b
                    c_lo, c_hi = child_lo[mine], child_hi[mine]
                    assert len(c_lo) == 2 ** len(cut) <= 8
                    mid = (lo[b] + hi[b]) / 2.0
                    for j in range(n):
                        if j in cut:
                            upper = c_lo[:, j] == mid[j]
                            assert np.array_equal(np.where(upper, mid[j], lo[b, j]), c_lo[:, j])
                            assert np.array_equal(np.where(upper, hi[b, j], mid[j]), c_hi[:, j])
                        else:
                            assert (c_lo[:, j] == lo[b, j]).all() and (c_hi[:, j] == hi[b, j]).all()
                    # every child takes a different half on some cut axis
                    assert len({tuple(p) for p in (c_lo[:, cut] == mid[cut])}) == len(c_lo)
                    seen["silent"] += int(((lo[b] == 0.0) & (hi[b] == 0.0)).sum())
                    seen["past_widest"] += len(cut) > 1
                    seen["narrow_kept"] += any(0.0 < width[b, j] <= solver._LEAF_WIDTH for j in order[1:3])
                    seen["capped"] += len(cut) == 3 and (width[b] > solver._LEAF_WIDTH).sum() > 3
                    seen["narrow_box"] += bool(width[b].max() <= solver._LEAF_WIDTH)
        assert min(seen.values()) >= 50

    def test_children_come_lowest_orthant_first(self):
        # Cut along its widest axis alone, a stack splits as the
        # widest-side bisection split it: lower halves, then upper.
        lo = np.array([[0.0, 0.2, 0.0], [0.1, 0.3, 0.0]])
        hi = np.array([[0.5, 0.2005, 0.0], [0.1005, 0.5, 0.0]])
        child_lo, child_hi, row = solver._split(lo, hi, np.array([3, 1]))
        assert child_lo.tolist() == [[0.0, 0.2, 0.0], [0.1, 0.3, 0.0], [0.25, 0.2, 0.0], [0.1, 0.4, 0.0]]
        assert child_hi.tolist() == [[0.25, 0.2005, 0.0], [0.1005, 0.4, 0.0], [0.5, 0.2005, 0.0], [0.1005, 0.5, 0.0]]
        assert row.tolist() == [3, 1, 3, 1]

    def test_orthant_table_is_small_and_read_only(self):
        for n in range(1, solver.ORACLE_MAX_PLAYERS + 1):
            table = solver._orthants(n)
            assert table.shape == (2 ** min(n, 3), n) and not table.flags.writeable
            assert not table[:, 3:].any()
            assert len({tuple(r) for r in table}) == len(table)

    def test_a_games_roots_do_not_depend_on_its_stack(self):
        # 4-player games sharing a topology, each alone and with 11
        # others in one block: the same roots, byte for byte.
        kept = 0
        for index in range(6):
            rng = instance_rng(2602, index)
            matrix = random_game(rng, 4, 4).matrix
            rates = rng.uniform(0.0, 0.2, (12, 4))
            rates[rng.random((12, 4)) < 0.1] = 0.0
            together = solver._fixed_point_sets(rates, matrix)
            for y, got in zip(rates, together):
                alone = multistart_fixed_points(Game(matrix, y))
                assert [p.tobytes() for p in got.points] == [p.tobytes() for p in alone.points]
                kept += got.n_points
        assert kept >= 50


def _widest_axis_oracle(patch):
    """Give ``solver`` the box enumeration that halves each box along its
    widest side alone and the polish that stops at a tiny determinant."""
    patch.setattr(solver, "_leaf_centres", widest_axis_leaf_centres)
    patch.setattr(solver, "_polish", polish_compacting_every_step)


def _verdicts(points, game):
    rows = []
    for p in points:
        try:
            verdict = krasovskii_verdict(p, game, fp_tol=1e-6)
            rows.append((verdict.stable, verdict.classification))
        except ValueError:
            rows.append("singular")
    return rows


def _four_player_pool():
    return [random_game(instance_rng(2604, index), 4, 4) for index in range(60)]


def _eight_player_pool():
    # rates below 0.15: most of these games have roots
    games = [random_game(instance_rng(2608, index), 8, 8) for index in range(20)]
    return [Game(g.matrix, g.rates / 4.0) for g in games]


class TestAgainstWidestAxisBisection:
    """Halving a box along up to three of its widest axes at once finds
    the roots, verdicts and fold that halving it along its widest side
    alone found, the points within 1e-12."""

    @staticmethod
    def _assert_same_sets(monkeypatch, games, **kwargs):
        got = [multistart_fixed_points(g, **kwargs) for g in games]
        with monkeypatch.context() as patch:
            _widest_axis_oracle(patch)
            want = [multistart_fixed_points(g, **kwargs) for g in games]
        for game, f, w in zip(games, got, want):
            assert f.includes_extraneous == w.includes_extraneous
            assert len(f.points) == len(w.points)
            assert all(np.abs(p - q).max() <= 1e-12 for p, q in zip(f.points, w.points))
            assert _verdicts(f.points, game) == _verdicts(w.points, game)
        return sum(f.n_points for f in got)

    def test_criterion_7_games(self, monkeypatch):
        games = [random_game(instance_rng(20240, index)) for index in range(1000)]
        assert self._assert_same_sets(monkeypatch, games, starts_per_axis=4, max_iter=50) >= 1000

    def test_four_player_pool(self, monkeypatch):
        assert self._assert_same_sets(monkeypatch, _four_player_pool()) >= 50

    def test_eight_player_games(self, monkeypatch):
        y = np.full(8, 0.1)
        y[4] = 0.0
        games = [Game(chain_matrix(8), y), *_eight_player_pool()]
        assert self._assert_same_sets(monkeypatch, games) >= 30

    @pytest.mark.parametrize(
        "args",
        [
            (chain_matrix(3), [0.15] * 3, 1, (0.0, 0.30), 0.005),
            (chain_matrix(3), [0.15] * 3, 1, (0.0, 0.30), 0.001),
            (chain_matrix(5), [0.15] * 5, 2, (0.0, 0.30), 0.005),
            (chain_matrix(8), [0.1] * 8, 3, (0.284, 0.304), 0.004),
        ],
        ids=["fold-0.005", "fold-0.001", "chain5", "chain8"],
    )
    def test_sweeps(self, monkeypatch, args):
        got = bifurcation_sweep(*args)
        with monkeypatch.context() as patch:
            _widest_axis_oracle(patch)
            want = bifurcation_sweep(*args)
        assert got.critical_value is not None and got.critical_value == want.critical_value
        assert np.abs(got.critical_point - want.critical_point).max() <= 1e-12
        assert got.parameter_values.tobytes() == want.parameter_values.tobytes()
        for row, ref in zip(got.branches, want.branches, strict=True):
            # Mirror-image roots have equal sums up to rounding, so a
            # row, which is sorted by sum, may list them in either order.
            row, ref = (sorted(r, key=lambda bp: tuple(np.round(bp.point, 9))) for r in (row, ref))
            assert [(bp.stable, bp.classification) for bp in row] == [(bp.stable, bp.classification) for bp in ref]
            assert all(np.abs(bp.point - r.point).max() <= 1e-12 for bp, r in zip(row, ref))

    def test_four_player_pool_work(self, monkeypatch):
        # Halved along their widest side alone, the pool's boxes took
        # 307 Krawczyk tests and 561 contractions. Contracting on after
        # a contraction had left no box took 405.
        tests = record_calls(monkeypatch, solver, "_krawczyk_test")
        contractions = record_calls(monkeypatch, solver, "_contract")
        for game in _four_player_pool():
            multistart_fixed_points(game)
        assert (len(tests), len(contractions)) == (200, 389)
        tests.clear()
        contractions.clear()
        with monkeypatch.context() as patch:
            _widest_axis_oracle(patch)
            for game in _four_player_pool():
                multistart_fixed_points(game)
        assert (len(tests), len(contractions)) == (307, 561)


class TestEmptyStacks:
    def test_rootless_game_polishes_and_merges_nothing(self, monkeypatch):
        # chain3 past its fold at y2 = 0.2459 has no fixed point: no box
        # retires and no leaf is kept, so nothing is polished or merged.
        game = Game(chain_matrix(3), [0.15, 0.26, 0.15])
        (want,) = fixed_point_sets_per_game(game.rates[np.newaxis], game.matrix)
        polished = record_calls(monkeypatch, solver, "_polish")
        merged = record_calls(monkeypatch, solver, "_merge")
        got = multistart_fixed_points(game)
        assert polished == [] and merged == []
        assert got == want == FixedPointSet(points=[], includes_extraneous=True)
        roots, owner = solver._roots(game.rates[np.newaxis], game.matrix)
        assert roots.shape == (0, 3) and roots.dtype == float and not roots.flags.writeable
        assert owner.shape == (0,) and owner.dtype == np.intp

    def test_newton_box_test_never_runs_on_no_boxes(self, monkeypatch, chain3):
        # Halved along its widest side alone, chain3's box took 4
        # Krawczyk steps, the last settling every box it took, so it
        # left none to the Newton-box test, which it skipped: tests on
        # [1, 1, 2, 2, 2, 2, 1] boxes. Halved along every axis, it takes
        # 2 steps, each leaving the Newton-box test some boxes. At rate
        # 0.05 the last step's plain test settles all 3 boxes it takes.
        tests = record_calls(monkeypatch, solver, "_krawczyk_test")
        steps = record_calls(monkeypatch, solver, "_krawczyk")
        assert multistart_fixed_points(chain3).n_points == 2
        assert [len(args[0]) for args, _ in tests] == [1, 1, 4, 2]
        assert len(steps) == 2
        tests.clear()
        steps.clear()
        assert multistart_fixed_points(Game(chain_matrix(3), [0.05] * 3)).n_points == 2
        assert [len(args[0]) for args, _ in tests] == [1, 1, 4, 2, 3]
        assert len(steps) == 3

    def test_no_contraction_or_split_of_no_boxes(self, monkeypatch):
        # A round stops contracting once a contraction leaves no box, and
        # a Krawczyk step that settles every box leaves nothing to split.
        contractions = record_calls(monkeypatch, solver, "_contract")
        splits = record_calls(monkeypatch, solver, "_split")
        for game in (game for seed in (1, 2, 3) for game in batch_games(seed)):
            multistart_fixed_points(game, starts_per_axis=4, max_iter=50)
        for step in (0.005, 0.001):
            bifurcation_sweep(chain_matrix(3), [0.15] * 3, 1, (0.0, 0.30), step)
        assert len(contractions) > 1000 and len(splits) > 100
        assert all(len(args[0]) for args, _ in contractions + splits)


class TestAgainstWidthOnlyEnumeration:
    """The Krawczyk step retires boxes early but finds the roots that
    bisecting every box down to the leaf width finds."""

    @staticmethod
    def _assert_same_roots(monkeypatch, game, radius=1e-12, **kwargs):
        got = multistart_fixed_points(game, **kwargs).points
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_leaf_centres", width_only_leaf_centres)
            want = multistart_fixed_points(game, **kwargs).points
        assert len(got) == len(want)
        for p in want:
            assert min(np.abs(p - g).max() for g in got) <= radius
        return got

    def test_property_games(self, monkeypatch):
        silent = 0
        for index in range(250):
            game = random_game(instance_rng(20240, index))
            silent += bool((game.rates == 0.0).any())
            for starts_per_axis in (1, 4):
                self._assert_same_roots(monkeypatch, game, starts_per_axis=starts_per_axis)
        assert silent >= 20

    def test_chain_with_a_silent_player(self, monkeypatch):
        y = np.full(8, 0.1)
        y[4] = 0.0
        assert len(self._assert_same_roots(monkeypatch, Game(chain_matrix(8), y))) == 4

    def test_pair_double_root_is_never_proven(self, monkeypatch):
        # Newton converges linearly to a double root, so the polished
        # points agree only to about the square root of the residual.
        steps = record_calls(monkeypatch, solver, "_krawczyk")
        points = self._assert_same_roots(monkeypatch, Game(chain_matrix(2), [0.25, 0.25]), radius=1e-8)
        assert len(points) == 1
        assert steps and all(len(out[3][0]) == 0 for _, out in steps)

    def test_saddle_game_contractions(self, monkeypatch, chain3):
        # chain3 at 0.15 holds a saddle, near which contraction stalls:
        # bisecting it down to the leaf width takes 81 contractions, the
        # plain Krawczyk test with diagonal bounds alone 21, both tests
        # with neighbour bounds 12 while a box is halved along its
        # widest side alone, and 6 when it is halved along every axis.
        calls = record_calls(monkeypatch, solver, "_contract")
        assert multistart_fixed_points(chain3).n_points == 2
        assert len(calls) == 6


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
