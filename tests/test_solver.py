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
from conftest import P_SADDLE, Q_STAR, instance_rng, random_game, record_calls
from reference import greedy_dedup, width_only_leaf_centres
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
            got = solver._dedup(points, 1e-6)
            want = greedy_dedup(points, 1e-6)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) and not a.flags.writeable for a, b in zip(got, want))

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
            kept = solver._dedup(nudged[order], solver.DEDUP_RADIUS)
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
        edges, cells = solver._partition(3, 4)
        again = solver._partition(3, 4)
        assert again[0] is edges and again[1] is cells
        assert not edges.flags.writeable and not cells.flags.writeable
        assert np.array_equal(edges, np.linspace(0.0, 1.0, 5)) and cells.shape == (64, 3)
        assert len(np.unique(cells, axis=0)) == 64

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
        # plain Krawczyk test with diagonal bounds alone 21.
        calls = record_calls(monkeypatch, solver, "_contract")
        assert multistart_fixed_points(chain3).n_points == 2
        assert len(calls) == 12


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
