import numpy as np
import pytest

from alohagame import (
    FixedPointSet,
    Game,
    achieved_rate,
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
from alohagame.game import success_product
from conftest import P_SADDLE, Q_STAR, instance_rng, random_game
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


class TestBoxExclusion:
    def test_range_and_contraction_keep_every_root(self):
        # Random boxes, faces at 0 and 1 included, and a point in each.
        # Rates y = q * P(q) make the point a root; a player whose rate
        # is zero is put at 0, as at every fixed point of the clipped map.
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
            with np.errstate(divide="ignore", invalid="ignore"):
                box_lo, box_hi, _ = solver._contract(
                    lo[np.newaxis], hi[np.newaxis], np.zeros(1, int), y[np.newaxis], a.astype(bool)
                )
            assert len(box_lo) == 1
            assert (box_lo[0] <= q).all() and (q <= box_hi[0]).all()


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
