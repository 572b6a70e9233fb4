import csv

import numpy as np
import pytest

from alohagame import (
    Game,
    achieved_rate,
    bifurcation_sweep,
    chain_matrix,
    connected_components,
    density_sweep,
    feasible_contour,
    fit_power_law,
    fully_connected_matrix,
    kleene_lfp,
    krasovskii_matrix,
    krasovskii_verdict,
    max_common_rate,
    max_demand_scale,
    max_probability_scale,
    multistart_fixed_points,
    pd_margin,
    random_topology,
    side_for_density,
    size_sweep,
    stability_consistency,
    write_records_csv,
)
from alohagame import experiments, solver, stability, topology
from conftest import Q_STAR, instance_rng, random_game, record_calls, sweep_topologies
from reference import bisect_common_rate, bisect_demand_scale, bisect_probability_scale, common_rates_dense
from reference import contour_one_cell_at_a_time, linear_walk_max_common_rate
from reference import sweep_one_search_per_trial
from reference import fixed_point_sets_per_game, grid_one_value_at_a_time, sweep_one_value_at_a_time
from reference import sweep_through_verdict_objects, sweep_with_a_finish_per_value

CHAIN = chain_matrix(3)


@pytest.fixture(scope="module")
def branch():
    return bifurcation_sweep(CHAIN, [0.15, 0.15, 0.15], 1, (0.24, 0.26), 0.001)


class TestBifurcation:
    def test_critical_value_near_fold(self, branch):
        # the grid value one step under the fold; padded against float
        # representation of the 0.001 boundary
        assert abs(branch.critical_value - 0.246) <= 0.001 + 1e-9

    def test_critical_point(self, branch):
        assert np.abs(branch.critical_point - [0.3138, 0.5223, 0.3138]).max() <= 1e-3

    def test_two_ordered_points_below_critical_none_above(self, branch):
        for value, row in zip(branch.parameter_values, branch.branches):
            interior = [bp for bp in row if (bp.point > 0).all() and (bp.point < 1).all()]
            if value <= branch.critical_value:
                assert len(interior) == 2
                assert (interior[0].point <= interior[1].point).all()
                assert interior[0].stable and not interior[1].stable
            else:
                assert not interior

    def test_silent_middle_player(self):
        branch = bifurcation_sweep(CHAIN, [0.15, 0.15, 0.15], 1, (0.0, 0.0), 0.001)
        (row,) = branch.branches
        assert np.abs(row[0].point - [0.15, 0.0, 0.15]).max() <= 1e-9

    def test_csv_format(self, branch, tmp_path):
        path = tmp_path / "branch.csv"
        branch.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y2", "branch_id", "q1", "q2", "q3", "stable"]
        assert rows[1][1] == "0" and rows[1][5] in ("true", "false")

    @pytest.mark.parametrize("index", [-1, 3])
    def test_varying_index_must_name_a_player(self, index):
        with pytest.raises(ValueError, match="varying_index"):
            bifurcation_sweep(CHAIN, [0.15, 0.15, 0.15], index, (0.0, 0.01), 0.005)

    def test_empty_range_gives_an_empty_branch(self):
        branch = bifurcation_sweep(CHAIN, [0.15, 0.15, 0.15], 1, (0.2, 0.1), 0.005)
        assert branch.parameter_values.size == 0
        assert branch.branches == []
        assert branch.critical_value is None and branch.critical_point is None

    def test_oracle_size_limit_raises_before_any_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before the size check")

        monkeypatch.setattr(solver, "_leaf_centres", no_solve)
        with pytest.raises(ValueError, match="oracle"):
            bifurcation_sweep(np.zeros((9, 9)), np.full(9, 0.1), 0, (0.0, 0.01), 0.005)

    @pytest.mark.parametrize(
        "value_range, step, message",
        [
            ((0.99, 1.02), 0.01, "target rates"),
            ((0.0, 0.30), float("nan"), "step"),
            ((0.0, float("inf")), 0.01, "finite"),
            ((float("nan"), 0.30), 0.01, "finite"),
        ],
    )
    def test_invalid_values_raise_before_any_solve(self, monkeypatch, value_range, step, message):
        def no_solve(*args):
            raise AssertionError("solved before the values were validated")

        monkeypatch.setattr(solver, "_leaf_centres", no_solve)
        with pytest.raises(ValueError, match=message):
            bifurcation_sweep(CHAIN, [0.15, 0.15, 0.15], 1, value_range, step)


def _assert_same_branch(got, ref):
    assert np.array_equal(got.parameter_values, ref.parameter_values)
    assert len(got.branches) == len(ref.branches)
    for row, ref_row in zip(got.branches, ref.branches):
        assert len(row) == len(ref_row)
        for bp, ref_bp in zip(row, ref_row):
            assert np.array_equal(bp.point, ref_bp.point)
            assert (bp.stable, bp.classification) == (ref_bp.stable, ref_bp.classification)
    assert got.critical_value == ref.critical_value
    if ref.critical_point is None:
        assert got.critical_point is None
    else:
        assert np.array_equal(got.critical_point, ref.critical_point)


class TestStackedSweep:
    """The sweep gives every value the roots and verdicts that one
    oracle call per value gives, bit for bit."""

    @pytest.mark.parametrize("value_range, step", [((0.0, 0.30), 0.005), ((0.24, 0.26), 0.001)])
    def test_chain_matches_one_value_at_a_time(self, value_range, step):
        args = (CHAIN, [0.15, 0.15, 0.15], 1, value_range, step)
        got = bifurcation_sweep(*args)
        assert got.critical_value is not None
        _assert_same_branch(got, sweep_one_value_at_a_time(*args))

    def test_random_games_match_one_value_at_a_time(self):
        # Each player of each game is swept over 1, 4 or 5 values.
        games = [random_game(instance_rng(909, i)) for i in range(20)]
        assert {g.n for g in games} == {1, 2, 3, 4}
        assert any((g.rates == 0.0).any() for g in games)
        assert any((g.matrix != g.matrix.T).any() for g in games)
        counts_seen = set()
        for i, game in enumerate(games):
            for index in range(game.n):
                count = (1, 4, 5)[(i + index) % 3]
                counts_seen.add((game.n, count == 5))
                step = 0.002
                lo = round(float(instance_rng(910, i).uniform(0.0, 0.09)), 3)
                args = (game.matrix, game.rates, index, (lo, lo + (count - 1) * step), step)
                got = bifurcation_sweep(*args)
                assert got.parameter_values.size == count
                _assert_same_branch(got, sweep_one_value_at_a_time(*args))
        assert {(n, True) for n in range(1, 5)} <= counts_seen


    def test_values_match_a_rounding_per_value(self):
        # One rounding of the whole grid gives each value what its own
        # round() gives, on random starts, lengths and steps.
        rng = np.random.default_rng(476)
        lone = np.zeros((1, 1))
        for _ in range(200):
            step = float(rng.choice([0.001, 0.003, 0.005, 0.007, rng.uniform(0.0005, 0.01)]))
            lo = float(rng.uniform(0.0, 0.5))
            hi = lo + step * float(rng.uniform(0.0, 60.0))
            want = grid_one_value_at_a_time(lo, hi, step)
            got = bifurcation_sweep(lone, [0.1], 0, (lo, hi), step).parameter_values
            assert got.tobytes() == want.tobytes()


class TestOneEnumeration:
    """The boxes of every parameter value contract and bisect in the same
    rounds, and each value still gets its own roots bit for bit."""

    @pytest.mark.parametrize("value_range", [(0.284, 0.304), (0.304, 0.284)])
    def test_largest_oracle_instance_matches_one_value_at_a_time(self, value_range):
        n = solver.ORACLE_MAX_PLAYERS
        args = (chain_matrix(n), np.full(n, 0.1), 3, value_range, 0.004)
        got = bifurcation_sweep(*args)
        if value_range[0] < value_range[1]:
            # The fold lies inside the range.
            assert got.parameter_values.size == 6
            assert got.critical_value is not None and got.critical_value < value_range[1]
        else:
            assert got.parameter_values.size == 0 and got.branches == []
        _assert_same_branch(got, sweep_one_value_at_a_time(*args))

    def test_one_sweep_is_one_round_sequence(self, monkeypatch):
        # An enumeration per value makes 3,945 contractions here, one
        # enumeration for all 61 values 93 when every box is bisected
        # down to the leaf width, 30 when the plain Krawczyk test
        # retires the boxes it proves to hold one root, 18 when the
        # contraction also bounds each neighbour and boxes retire at
        # their Newton box, and 15 when a box the Krawczyk step leaves
        # open is halved along every axis at once instead of its widest
        # alone: 5 rounds, not 6. The 61 values are one block.
        calls = record_calls(monkeypatch, solver, "_contract")
        blocks = record_calls(monkeypatch, solver, "_leaf_centres")
        branch = bifurcation_sweep(CHAIN, [0.15, 0.15, 0.15], 1, (0.0, 0.30), 0.005)
        assert branch.parameter_values.size == 61
        assert len(calls) == 15
        assert len(blocks) == 1

    def test_blocks_give_the_one_block_roots(self, monkeypatch):
        # The 8-player chain at rate 0.1 with player 4's rate swept
        # from 0; 9 blocks of 2 rows and the last of 1 row.
        n = solver.ORACLE_MAX_PLAYERS
        rates = np.where(np.arange(n) == 4, np.arange(19)[:, np.newaxis] * 0.0008, 0.1)
        matrix = Game(chain_matrix(n), rates[0]).matrix
        monkeypatch.setattr(solver, "_BLOCK_BOXES", 2 * 2**n)
        blocks = record_calls(monkeypatch, solver, "_leaf_centres")
        got = solver._fixed_point_sets(rates, matrix)
        assert len(blocks) == 10
        monkeypatch.setattr(solver, "_BLOCK_BOXES", 10**9)
        want = solver._fixed_point_sets(rates, matrix)
        assert len(blocks) == 11
        assert [len(f.points) for f in got] == [len(f.points) for f in want]
        assert sum(len(f.points) for f in got) >= 19
        for f, g in zip(got, want):
            assert all(np.array_equal(p, q) for p, q in zip(f.points, g.points))

    def test_live_boxes_do_not_grow_with_the_values(self, monkeypatch):
        # One enumeration of all values held about 80 boxes per value
        # of this sweep at once, 8,000 for 100 values.
        n = solver.ORACLE_MAX_PLAYERS
        rates = np.where(np.arange(n) == 4, np.arange(100)[:, np.newaxis] * 0.004, 0.1)
        calls = record_calls(monkeypatch, solver, "_contract")
        solver._fixed_point_sets(rates, Game(chain_matrix(n), rates[0]).matrix)
        assert max(len(args[0]) for args, _ in calls) <= solver._BLOCK_BOXES


def _assert_same_bytes(got, ref):
    assert got.parameter_values.tobytes() == ref.parameter_values.tobytes()
    assert [[(bp.point.tobytes(), bp.stable, bp.classification) for bp in row] for row in got.branches] == [
        [(bp.point.tobytes(), bp.stable, bp.classification) for bp in row] for row in ref.branches
    ]
    assert all(not bp.point.flags.writeable for row in got.branches for bp in row)
    assert got.critical_value == ref.critical_value
    assert (got.critical_point is None) == (ref.critical_point is None)
    if ref.critical_point is not None:
        assert got.critical_point.tobytes() == ref.critical_point.tobytes()


class TestOneFinishingPass:
    """One merge of every game's roots, and one sort, verdict and split of
    every value's, give byte for byte what a finish per game and per
    value gives."""

    @pytest.mark.parametrize("step", [0.005, 0.001])
    def test_fold_matches_a_finish_per_value(self, step):
        # the benchmark's fold input at 0.005, criterion 3's sweep at 0.001
        args = (CHAIN, [0.15, 0.15, 0.15], 1, (0.0, 0.30), step)
        got = bifurcation_sweep(*args)
        assert got.critical_value == 0.245
        _assert_same_bytes(got, sweep_with_a_finish_per_value(*args))

    def test_random_sweeps_match_a_finish_per_value(self):
        # Game 123's second player, swept, has two incomparable roots at
        # 0.08 whose order by sum is not their lexicographic order.
        folds = 0
        for i, index in [*((i, i) for i in range(12)), (123, 1)]:
            game = random_game(instance_rng(911, i))
            args = (game.matrix, game.rates, index % game.n, (0.0, 0.3), 0.01)
            got = bifurcation_sweep(*args)
            folds += got.critical_value is not None
            _assert_same_bytes(got, sweep_with_a_finish_per_value(*args))
        assert folds >= 3

    def test_oracle_matches_a_finish_per_game_on_criterion_7(self):
        roots = 0
        for i in range(1000):
            game = random_game(instance_rng(20240, i))
            got = multistart_fixed_points(game, starts_per_axis=4, max_iter=50)
            (want,) = fixed_point_sets_per_game(game.rates[np.newaxis], game.matrix, 4, 50)
            assert [p.tobytes() for p in got.points] == [p.tobytes() for p in want.points]
            assert got.includes_extraneous == want.includes_extraneous
            roots += got.n_points
        assert roots >= 1000


class TestArrayFinish:
    """Branch points built from the verdicts' arrays are, byte for byte
    and type for type, those read out of one verdict object per root."""

    @staticmethod
    def _assert_same(args, tmp_path):
        got, want = bifurcation_sweep(*args), sweep_through_verdict_objects(*args)
        _assert_same_bytes(got, want)
        assert [[(type(bp.stable), type(bp.classification)) for bp in row] for row in got.branches] == [
            [(bool, str)] * len(row) for row in want.branches
        ]
        got.to_csv(tmp_path / "got.csv")
        want.to_csv(tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        return got

    @pytest.mark.parametrize("step", [0.005, 0.001])
    def test_fold(self, step, tmp_path):
        got = self._assert_same((CHAIN, [0.15, 0.15, 0.15], 1, (0.0, 0.30), step), tmp_path)
        assert got.critical_value == 0.245 and got.critical_point is not None
        assert {bp.classification for row in got.branches for bp in row} == {"stable", "unstable"}

    def test_chain5(self, tmp_path):
        got = self._assert_same((chain_matrix(5), [0.15] * 5, 2, (0.0, 0.30), 0.005), tmp_path)
        assert got.critical_value is not None

    def test_random_sweeps(self, tmp_path):
        # game 17's sweep reaches a root with a neighbour at 1, "singular"
        labels = []
        for i in range(20):
            game = random_game(instance_rng(2525, i))
            got = self._assert_same((game.matrix, game.rates, i % game.n, (0.0, 1.0), 0.02), tmp_path)
            labels += [bp.classification for row in got.branches for bp in row]
        assert set(labels) == {"stable", "unstable", "singular"}


class TestMaxCommonRate:
    def test_chain_supports_common_rate_015(self):
        y_max, point = max_common_rate(CHAIN)
        assert y_max >= 0.15
        assert (point < 1.0).all()

    def test_fully_connected_three_players_cannot(self):
        y_max, _ = max_common_rate(fully_connected_matrix(3))
        assert y_max < 0.15

    def test_single_player_reaches_the_boundary(self):
        y_max, point = max_common_rate(np.zeros((1, 1)))
        assert y_max == pytest.approx(0.999)
        assert point[0] == pytest.approx(0.999)

    def test_feasibility_is_monotone_below_the_maximum(self):
        y_max, _ = max_common_rate(CHAIN)
        for y in (0.001, y_max / 2, y_max):
            g = Game(CHAIN, np.full(3, y))
            res = kleene_lfp(g)
            assert res.interior
            assert krasovskii_verdict(res.point, g).stable
        g = Game(CHAIN, np.full(3, round(y_max + 0.001, 6)))
        res = kleene_lfp(g)
        assert not (res.interior and krasovskii_verdict(res.point, g).stable)


def _edge_game(rng) -> Game:
    """A game with a fixed point near the certificate's edge.

    Draws a topology of 2-5 players and a point q, finds by bisection
    the scale b* at which the certificate at b*q loses definiteness,
    and returns the game for which b*q, moved by a relative 1e-3 to
    1e-1 to either side, is a fixed point.
    """
    n = int(rng.integers(2, 6))
    a = (rng.random((n, n)) < rng.uniform(0.3, 1.0)).astype(int)
    np.fill_diagonal(a, 0)
    a[0, 1] = 1
    q = rng.uniform(0.05, 0.6, n)

    def margin(b):
        return pd_margin(krasovskii_matrix(b * q, Game(a, achieved_rate(b * q, a))))

    lo, hi = 0.0, 0.999 / q.max()
    for _ in range(20):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if margin(mid) > 0.0 else (lo, mid)
    b = min(lo * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(1.0, 3.0)), 0.999 / q.max())
    return Game(a, achieved_rate(b * q, a))


def _probe_whole(game, rates=None):
    """``_stable_lfps`` of ``game``, at ``rates`` (one row per probe) or its own, from zeros on its whole matrix."""
    rates = game.rates[np.newaxis] if rates is None else np.asarray(rates, dtype=float)
    mask = np.broadcast_to(game.matrix.astype(bool), (len(rates), game.n, game.n))
    return experiments._stable_lfps(rates, topology._whole(mask), np.zeros_like(rates), np.ones(game.n))


class TestUpperBracket:
    """The certificate is decided at a proven upper bracket of the least
    fixed point, so it does not depend on where the solver stops."""

    @pytest.mark.parametrize("n, y_max", [(2, 0.249), (3, 0.191), (5, 0.162)])
    def test_chain_common_rates(self, n, y_max):
        # The pair's fold sits exactly at 0.25, where the certificate
        # at the true point (0.5, 0.5) is [[2, -2], [-2, 2]].
        assert max_common_rate(chain_matrix(n))[0] == y_max

    def test_never_accepts_where_the_kleene_certificate_fails(self):
        # Random games, and games whose fixed point lies near the
        # certificate's edge; every accepted one is checked against the
        # certificate at its least fixed point solved to 1e-13.
        accepted = rejected = near_edge = unconverged = 0
        for i in range(1500):
            rng = instance_rng(5151, i)
            game = random_game(rng, n_max=5) if i < 1350 else _edge_game(rng)
            _, (margin,), _, _ = _probe_whole(game)
            if not margin > 0.0:
                rejected += 1
                continue
            ref = kleene_lfp(game, tol=1e-13, max_iter=1000)
            if not ref.converged:
                unconverged += 1
                continue
            verdict = krasovskii_verdict(ref.point, game)
            assert ref.interior and verdict.stable, i
            accepted += 1
            near_edge += bool(pd_margin(verdict.certificate) < 1e-2)
        assert accepted >= 1000 and rejected >= 300
        assert near_edge >= 10 and unconverged <= 30

    def test_searches_never_compute_minors(self, monkeypatch, chain3):
        def refused(c):
            raise AssertionError("leading minors computed")

        monkeypatch.setattr(stability, "leading_minors", refused)
        _, matrix = random_topology(60, side_for_density(60, 0.1), seed=3)
        assert max_common_rate(matrix)[0] > 0.0
        assert not np.isnan(feasible_contour(CHAIN, [0.1, 0.15], [0.15], step=0.01)).any()
        assert max_demand_scale(chain3).factor == 1.27
        assert max_probability_scale(chain3, kleene_lfp(chain3).point).factor == 1.94
        branch = bifurcation_sweep(CHAIN, [0.15, 0.15, 0.15], 1, (0.24, 0.25), 0.005)
        assert branch.critical_value == 0.245
        assert stability_consistency(multistart_fixed_points(chain3), chain3).least_stable


class TestProbeOutcome:
    """The probe returns every solved row's point, whatever its margin,
    and tells a row Newton proved infeasible from one out of budget."""

    def test_solved_rows_keep_their_point_whatever_the_margin(self):
        # a directed chain whose least fixed point (0.8, 0.2, 0.625) is
        # interior with an indefinite certificate, and the pair at its
        # fold, where no upper bracket is proven
        directed = Game([[0, 0, 1], [0, 0, 0], [0, 1, 0]], [0.3, 0.2, 0.5])
        for game in (directed, Game(chain_matrix(2), [0.25, 0.25])):
            (point,), (margin,), _, (infeasible,) = _probe_whole(game)
            assert point.tobytes() == solver.newton_lfp(game).point.tobytes() and not point.flags.writeable
            assert not margin > 0.0 and not infeasible
        assert _probe_whole(directed)[1][0] < 0.0

    def test_only_a_proof_flags_a_row_infeasible(self, monkeypatch):
        # Newton proves the pair at (1.0, 0.1) infeasible at its first
        # iterate, and the pair at 0.3 only after more steps
        pair = Game(chain_matrix(2), [0.1, 0.1])
        rates = [[1.0, 0.1], [0.15, 0.15], [0.3, 0.3], [1.5, 0.1]]
        points, margins, _, infeasible = _probe_whole(pair, rates)
        assert points[1] is not None and margins[1] > 0.0
        assert infeasible.tolist() == [True, False, True, True]
        monkeypatch.setattr(experiments, "DEFAULT_MAX_ITER", 1)
        points, margins, _, infeasible = _probe_whole(pair, rates)
        assert points == [None] * 4 and np.isnan(margins).all()
        assert infeasible.tolist() == [True, False, False, True]


def _pair_limited(matrix) -> bool:
    return max(len(c) for c in connected_components(matrix)) == 2


class TestSearchEquivalence:
    """Bisection with Newton solves gives the linear Kleene walk's y_max.

    Topologies whose largest component is an isolated pair are left
    out. Their fold sits exactly on the grid, at y = 0.25, where the
    certificate at the true equilibrium (0.5, 0.5) is marginal. The
    search decides at an upper bracket of it and rejects 0.25, while
    the walk decides at the Kleene point, a few 1e-6 short of it, where
    the certificate is still positive.
    """

    @pytest.mark.parametrize("n", range(3, 11))
    def test_chain_and_fully_connected(self, n):
        for matrix in (chain_matrix(n), fully_connected_matrix(n)):
            assert max_common_rate(matrix)[0] == linear_walk_max_common_rate(matrix)

    def test_random_topologies(self):
        compared = 0
        for n in (5, 8, 10, 12):
            for density in (0.05, 0.1, 0.2, 0.4):
                for trial in range(2):
                    _, matrix = random_topology(n, side_for_density(n, density), seed=100 * n + trial)
                    if _pair_limited(matrix):
                        continue
                    y_max, point = max_common_rate(matrix)
                    assert y_max == linear_walk_max_common_rate(matrix), (n, density, trial)
                    if y_max > 0.0:
                        game = Game(matrix, np.full(n, y_max))
                        assert np.abs(point - kleene_lfp(game, tol=1e-13).point).max() <= 1e-6
                    compared += 1
        assert compared >= 25


_SEARCHES = {
    "max_common_rate": lambda step: max_common_rate(CHAIN, step=step),
    "feasible_contour": lambda step: feasible_contour(CHAIN, [0.15], [0.15], step=step),
    "max_demand_scale": lambda step: max_demand_scale(Game(CHAIN, [0.15] * 3), step=step),
    "max_probability_scale": lambda step: max_probability_scale(Game(CHAIN, [0.15] * 3), Q_STAR, step=step),
}


class TestSearchStep:
    @pytest.mark.parametrize("search", sorted(_SEARCHES))
    @pytest.mark.parametrize("step", [0.0, -0.001, float("nan"), float("inf")])
    def test_invalid_step_raises_before_any_solve(self, monkeypatch, search, step):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the step was validated")

        for name in ("_newton_rows", "_stable_lfps", "krasovskii_verdict"):
            monkeypatch.setattr(experiments, name, no_solve)
        with pytest.raises(ValueError, match="step"):
            _SEARCHES[search](step)


class TestFeasibleContour:
    def test_matches_bifurcation_at_symmetric_rates(self):
        surface = feasible_contour(CHAIN, [0.15], [0.15])
        assert surface[0, 0] == pytest.approx(0.245, abs=0.001)

    def test_silent_outer_players_free_the_middle(self):
        surface = feasible_contour(CHAIN, [0.0], [0.0])
        assert surface[0, 0] == pytest.approx(0.999)

    def test_chain_dominates_fully_connected(self):
        grid = [0.0, 0.1, 0.14]
        chain_surface = feasible_contour(CHAIN, grid, grid)
        full_surface = feasible_contour(fully_connected_matrix(3), grid, grid)
        assert (chain_surface >= full_surface - 1e-12).all()
        assert chain_surface[2, 2] > full_surface[2, 2]

    def test_reference_surfaces(self):
        # values of the linear walk the bisection replaced
        grid = [0.0, 0.05, 0.1, 0.14, 0.15, 0.2]
        chain = [
            [0.999, 0.601, 0.467, 0.391, 0.375, 0.305],
            [0.601, 0.486, 0.398, 0.341, 0.328, 0.272],
            [0.467, 0.398, 0.337, 0.295, 0.285, 0.240],
            [0.391, 0.341, 0.295, 0.261, 0.253, 0.216],
            [0.375, 0.328, 0.285, 0.253, 0.245, 0.210],
            [0.305, 0.272, 0.240, 0.216, 0.210, 0.182],
        ]
        full = [
            [0.999, 0.600, 0.465, 0.389, 0.373, 0.303],
            [0.600, 0.444, 0.345, 0.285, 0.272, 0.214],
            [0.465, 0.345, 0.262, 0.211, 0.200, 0.150],
            [0.389, 0.285, 0.211, 0.164, 0.154, 0.109],
            [0.373, 0.272, 0.200, 0.154, 0.144, 0.100],
            [0.303, 0.214, 0.150, 0.109, 0.100, 0.060],
        ]
        assert np.array_equal(feasible_contour(CHAIN, grid, grid), chain)
        assert np.array_equal(feasible_contour(fully_connected_matrix(3), grid, grid), full)

    def test_requires_three_players(self):
        with pytest.raises(ValueError, match="3-player"):
            feasible_contour(fully_connected_matrix(2), [0.1], [0.1])

    @pytest.mark.parametrize("y1, y3", [([1.5], [0.1]), ([0.1], [-0.1]), ([0.1, np.nan], [0.1])])
    def test_outer_rates_outside_the_unit_interval_raise(self, y1, y3):
        with pytest.raises(ValueError, match="rates must lie in"):
            feasible_contour(CHAIN, y1, y3)


class TestDemandScaling:
    def test_chain_reference_values(self, chain3):
        result = max_demand_scale(chain3)
        assert result.factor == pytest.approx(1.27, abs=0.01)
        assert result.sum_rate == pytest.approx(0.5715, abs=0.002)
        assert np.abs(result.point - [0.3336, 0.4290, 0.3336]).max() <= 1e-3
        assert np.abs(result.rates - 0.1905).max() <= 1e-3

    def test_walk_reference_factor_is_exact(self, chain3):
        result = max_demand_scale(chain3)
        assert result.factor == 1.27
        assert np.array_equal(result.rates, np.full(3, 1.27 * 0.15))
        assert np.abs(result.point - [0.3336265749287018, 0.4290023208911804, 0.3336265749287018]).max() <= 1e-9

    def test_all_zero_rates_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            max_demand_scale(Game(CHAIN, [0.0, 0.0, 0.0]))

    def test_factor_at_least_one_for_stable_base(self, chain3):
        assert max_demand_scale(chain3).factor >= 1.0

    def test_edgeless_bounded_by_unit_rates(self):
        g = Game(np.zeros((2, 2)), [0.5, 0.5])
        result = max_demand_scale(g)
        assert result.factor == pytest.approx(1.99, abs=1e-9)

    def test_unstable_base_rejected(self):
        g = Game(CHAIN, [0.15, 0.30, 0.15])
        with pytest.raises(ValueError, match="stable"):
            max_demand_scale(g)


class TestProbabilityScaling:
    def test_chain_reference_values(self, chain3):
        q_star = kleene_lfp(chain3).point
        result = max_probability_scale(chain3, q_star)
        assert result.factor == pytest.approx(1.94, abs=0.01)
        assert result.sum_rate == pytest.approx(0.5905, abs=0.002)
        assert np.abs(result.point - [0.3787, 0.4493, 0.3787]).max() <= 1e-3
        assert np.abs(result.rates - [0.2086, 0.1734, 0.2086]).max() <= 1e-3

    def test_walk_reference_factor_is_exact(self, chain3):
        q_star = kleene_lfp(chain3).point
        result = max_probability_scale(chain3, q_star)
        assert result.factor == 1.94
        assert result.sum_rate == pytest.approx(0.5905428019718605, abs=1e-12)

    def test_zero_point_rejected(self):
        g = Game(CHAIN, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="unbounded"):
            max_probability_scale(g, np.zeros(3))

    def test_induced_rates_exact_by_construction(self, chain3):
        q_star = kleene_lfp(chain3).point
        result = max_probability_scale(chain3, q_star)
        assert np.array_equal(result.rates, achieved_rate(result.point, CHAIN))
        assert np.array_equal(result.point, result.factor * q_star)

    def test_factor_floor_is_the_base_point(self):
        # hard against the fold there is no headroom left: the search
        # stays at the base point and reports its own rates
        g = Game(CHAIN, [0.15, 0.24578, 0.15])
        q_star = kleene_lfp(g).point
        result = max_probability_scale(g, q_star)
        assert result.factor == 1.0
        assert np.array_equal(result.point, q_star)
        assert np.abs(result.rates - g.rates).max() <= 1e-9

    def test_unstable_point_rejected(self, chain3):
        from alohagame import multistart_fixed_points

        saddle = multistart_fixed_points(chain3).points[1]
        with pytest.raises(ValueError, match="stable"):
            max_probability_scale(chain3, saddle)


class TestSweeps:
    def test_single_trial_deterministic(self):
        r1, s1 = density_sweep(6, [0.3], trials=1, seed=9)
        r2, s2 = density_sweep(6, [0.3], trials=1, seed=9)
        assert r1[0].seed == r2[0].seed
        assert r1[0].max_common_rate == r2[0].max_common_rate
        assert np.array_equal(r1[0].point, r2[0].point)
        assert s1 == s2

    def test_records_internally_consistent(self):
        records, _ = density_sweep(6, [0.2, 0.8], trials=3, seed=5)
        assert len(records) == 6
        for r in records:
            assert r.total_throughput == pytest.approx(r.n * r.max_common_rate)
            assert 0.0 <= r.connectivity <= 1.0

    def test_saturated_density_matches_fully_connected(self):
        records, _ = density_sweep(6, [8.0], trials=3, seed=2)
        y_fc, _ = max_common_rate(fully_connected_matrix(6))
        for r in records:
            assert r.connectivity == 1.0
            assert r.max_common_rate == pytest.approx(y_fc)

    def test_reruns_write_byte_identical_csv(self, tmp_path):
        r1, _ = density_sweep(8, [0.02, 0.2, 0.6], trials=4, seed=13)
        r2, _ = density_sweep(8, [0.02, 0.2, 0.6], trials=4, seed=13)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(p1, r1)
        write_records_csv(p2, r2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_size_sweep_baseline_at_every_size(self):
        records, baselines, summaries = size_sweep(0.3, [4, 60], trials=1, seed=3)
        assert [r.n for r in baselines] == [4, 60]
        assert baselines[1].total_throughput == pytest.approx(0.36)
        assert len(records) == 2
        assert [row["n"] for row in summaries] == [4, 60]

    def test_single_player_record(self):
        records, _, _ = size_sweep(0.5, [1], trials=1, seed=4, include_fully_connected=False)
        (record,) = records
        assert record.connectivity == 0.0
        assert record.total_throughput == pytest.approx(record.max_common_rate)
        assert record.max_common_rate == pytest.approx(0.999)

    def test_csv_header(self, tmp_path):
        records, _ = density_sweep(5, [0.4], trials=1, seed=1)
        path = tmp_path / "rec.csv"
        write_records_csv(path, records)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "n", "side", "connectivity", "y_max", "total_throughput", "avg_q"]
        assert len(rows) == 2

    def test_large_sparse_network_keeps_useful_throughput(self):
        # spatial reuse keeps the per-player rate workable at scale
        from alohagame import random_topology, side_for_density

        _, a = random_topology(100, side_for_density(100, 0.1), seed=60)
        y_max, _ = max_common_rate(a)
        assert y_max > 0.04


def _record_fields(record) -> tuple:
    return (
        record.seed,
        record.n,
        record.side,
        record.connectivity,
        record.max_common_rate,
        record.point.tobytes(),
        record.total_throughput,
    )


def _newton_row_counts(monkeypatch) -> list:
    """Rebind the searches' batched Newton to record the row count and matrix entries of each call."""
    calls = []
    original = experiments._newton_rows

    def recording(q, rates, mask, max_iter):
        calls.append((len(q), mask.size))
        return original(q, rates, mask, max_iter)

    monkeypatch.setattr(experiments, "_newton_rows", recording)
    return calls


class TestLockstep:
    """A sweep setting's trials, and a feasible grid's cells, are searched
    in lockstep, and each gets exactly what its own search gives."""

    def test_sweeps_match_one_search_per_trial(self):
        cases = [
            (density_sweep(20, [0.008, 0.02, 0.1], trials=8, seed=31)[0], [(20, d) for d in (0.008, 0.02, 0.1)], 8, 31),
            (density_sweep(6, [0.001, 50.0], trials=4, seed=5)[0], [(6, 0.001), (6, 50.0)], 4, 5),
            (size_sweep(0.1, [1, 2, 12], trials=5, seed=8)[0], [(n, 0.1) for n in (1, 2, 12)], 5, 8),
        ]
        pool = []
        for records, settings, trials, seed in cases:
            reference = sweep_one_search_per_trial(settings, trials, experiments.RATE_STEP, seed)
            assert [_record_fields(r) for r in records] == [_record_fields(r) for r in reference]
            pool += records
        assert sum(r.n == 1 for r in pool) == 5
        assert sum(r.n > 1 and r.max_common_rate == 0.999 for r in pool) >= 2
        assert sum(r.connectivity == 1.0 for r in pool) >= 4
        pair_limited = [r for r in pool if r.n > 2 and r.max_common_rate == 0.249]
        assert len(pair_limited) >= 3

    def test_feasible_matches_one_search_per_cell(self):
        grid = [0.0, 0.1, 0.25, 0.45, 0.9]
        nan_cells = []
        for matrix in (CHAIN, fully_connected_matrix(3)):
            surface = feasible_contour(matrix, grid, grid[::-1], step=0.005)
            reference = contour_one_cell_at_a_time(matrix, grid, grid[::-1], 0.005)
            assert surface.tobytes() == reference.tobytes()
            nan_cells.append(int(np.isnan(surface).sum()))
        assert nan_cells[0] == 0 and 0 < nan_cells[1] < len(grid) ** 2

    def test_one_newton_call_per_round(self, monkeypatch):
        calls = _newton_row_counts(monkeypatch)
        matrices = [random_topology(20, side_for_density(20, 0.1), seed)[1] for seed in range(8)]
        alone = []
        for matrix in matrices:
            del calls[:]
            y_max, _ = max_common_rate(matrix)
            alone.append((y_max, [rows for rows, _ in calls]))
        del calls[:]
        found = experiments._common_rates(matrices, experiments.RATE_STEP)
        lockstep = [rows for rows, _ in calls]
        assert [y for y, _ in found] == [y for y, _ in alone]
        assert len(lockstep) == max(len(rounds) for _, rounds in alone) <= 10
        assert lockstep[0] == 8 and sum(lockstep) == sum(sum(rounds) for _, rounds in alone)

    def test_lane_budget_bounds_every_newton_call(self, monkeypatch):
        def sweep():
            return [_record_fields(r) for r in density_sweep(20, [0.05], trials=8, seed=4)[0]]

        def contour():
            return feasible_contour(CHAIN, [0.0, 0.1, 0.2], [0.0, 0.1, 0.2, 0.3], step=0.01).tobytes()

        whole = sweep(), contour()
        calls = _newton_row_counts(monkeypatch)
        # a round probes at most two values per lane, so a block holds
        # half the budget's lanes, and its first round fills half of it
        for budget, search, expected in ((2 * 3 * 20 * 20, sweep, whole[0]), (2 * 4 * 3 * 3, contour, whole[1])):
            monkeypatch.setattr(experiments, "_LANE_ENTRIES", budget)
            del calls[:]
            assert search() == expected
            assert 2 * calls[0][1] == budget >= max(entries for _, entries in calls)


def _setting(n, density, seed, index, trials, edge_rule="min") -> list:
    """The topologies a sweep draws for its setting ``index``."""
    side = side_for_density(n, density)
    return [
        random_topology(n, side, experiments._trial_seed(seed, index, t), edge_rule=edge_rule)[1]
        for t in range(trials)
    ]


def _packed(matrices) -> bool:
    layout = topology._pack(np.array(matrices, dtype=bool))
    return layout.mask.shape[-1] < layout.n


def _pairs_and_chains():
    """60 players as 30 disjoint pairs, and as 20 disjoint chain3s."""
    pairs, chains = np.zeros((60, 60), dtype=int), np.zeros((60, 60), dtype=int)
    for k in range(30):
        pairs[2 * k, 2 * k + 1] = pairs[2 * k + 1, 2 * k] = 1
    for k in range(20):
        chains[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] = CHAIN
    return pairs, chains


def _assert_matches_the_dense_search(matrices):
    found = experiments._common_rates(matrices, experiments.RATE_STEP)
    dense = common_rates_dense(matrices)
    assert [y for y, _ in found] == [y for y, _ in dense]
    for (y_max, point), (_, reference), matrix in zip(found, dense, matrices):
        assert np.abs(point - reference).max() <= 1e-9
        if y_max > 0.0:
            game = Game(matrix, np.full(len(matrix), y_max))
            assert krasovskii_verdict(point, game, fp_tol=1e-8).stable


class TestComponentBlocks:
    """A common-rate search lays its lanes out by connected components,
    as diagonal blocks of the stack's largest component, where that cuts
    the work, and finds what the search on whole matrices finds."""

    def test_packed_layout_holds_every_player_and_link_once(self):
        matrices = _setting(60, 0.03, 77, 2, 4)
        mask = np.array(matrices, dtype=bool)
        layout = topology._pack(mask)
        n, m = 60, layout.mask.shape[-1]
        assert m == max(len(c) for a in matrices for c in connected_components(a)) < n
        assert len(layout.mask) == len(layout.slots) == 4 * layout.blocks
        for k, a in enumerate(mask):
            blocks = range(k * layout.blocks, (k + 1) * layout.blocks)
            players = []
            for b in blocks:
                real = layout.slots[b] < n
                members = layout.slots[b][real]
                players += members.tolist()
                assert np.array_equal(layout.mask[b][np.ix_(real, real)], a[np.ix_(members, members)])
                assert not layout.mask[b][~real].any() and not layout.mask[b][:, ~real].any()
            assert sorted(players) == list(range(n))
            assert layout.mask[blocks.start : blocks.stop].sum() == a.sum()

    def test_connected_and_giant_component_lanes_stay_whole(self):
        giant = _setting(200, 0.1, 3, 0, 2, "max")
        assert max(len(c) for c in connected_components(giant[0])) > 100
        for matrices in ([fully_connected_matrix(40)] * 3, [chain_matrix(60)] * 2, giant):
            layout = topology._pack(np.array(matrices, dtype=bool))
            assert layout.mask.shape[-1] == layout.n and layout.blocks == 1 and len(layout.mask) == len(matrices)
            assert (layout.slots == np.arange(layout.n)).all()

    def test_edgeless_lanes_end_below_the_limit(self):
        edgeless = [np.zeros((100, 100), dtype=int)] * 2
        assert _packed(edgeless)
        for y_max, point in experiments._common_rates(edgeless, experiments.RATE_STEP):
            assert y_max == 0.999 and (point == 0.999).all()
        assert max_common_rate(np.zeros((1, 1)))[0] == 0.999

    def test_isolated_players_beside_a_pair(self):
        pair = np.zeros((60, 60), dtype=int)
        pair[3, 41] = pair[41, 3] = 1
        assert _packed([pair])
        y_max, point = max_common_rate(pair)
        assert y_max == 0.249
        assert point[3] == point[41] > 0.46 and (np.delete(point, [3, 41]) == 0.249).all()
        _assert_matches_the_dense_search([pair])

    def test_game_margin_is_the_whole_certificates(self):
        # the margin of a game split into blocks is pd_margin of its
        # whole certificate, rounding term included
        matrices = _setting(60, 0.03, 77, 2, 4)
        mask = np.array(matrices, dtype=bool)
        layout = topology._pack(mask)
        assert layout.mask.shape[-1] < layout.n
        rng = np.random.default_rng(3)
        q = rng.uniform(0.0, 0.2, (4, 60))
        along = rng.uniform(0.0, 1.0, (4, 60))
        rates = achieved_rate(q, mask)
        f = stability._response(q, rates, mask)
        blocks = layout.gather(q)
        margins, slopes = stability._margins_and_slopes(
            blocks, layout.gather(f), layout.mask, layout.blocks, 60, blocks, layout.gather(along)
        )
        whole = pd_margin(stability._certificate(q, f, mask))
        assert (margins > 0.0).all() and np.abs(margins - whole).max() <= 1e-14
        assert (slopes < 0.0).all()
        # games reached through take keep their margins and slopes
        games = np.array([3, 1])
        taken = layout.take(games)
        some = taken.gather(q[games])
        some_margins, some_slopes = stability._margins_and_slopes(
            some, taken.gather(f[games]), taken.mask, taken.blocks, 60, some, taken.gather(along[games])
        )
        assert some_margins.tobytes() == margins[games].tobytes()
        assert some_slopes.tobytes() == slopes[games].tobytes()

    def test_a_games_slope_is_its_limiting_blocks(self):
        # a game's slope is taken on its block of the smallest
        # eigenvalue: the same bits as the helper on that block alone,
        # at the game's n and, as here, its largest norm
        pairs, chains = _pairs_and_chains()
        mask = np.array([pairs, chains], dtype=bool)
        layout = topology._pack(mask)
        rng = np.random.default_rng(5)
        q = rng.uniform(0.0, 0.15, (2, 60))
        f = stability._response(q, achieved_rate(q, mask), mask)
        points, responses, along = layout.gather(q), layout.gather(f), layout.gather(q + 0.1)
        margins, slopes = stability._margins_and_slopes(points, responses, layout.mask, layout.blocks, 60, points, along)
        assert (margins > 0.0).all()
        lam = np.linalg.eigvalsh(stability._certificate(points, responses, layout.mask))[:, 0]
        for game, block in enumerate(lam.reshape(2, -1).argmin(axis=1)):
            # not the game's first block, and no other block gives its slope
            row = game * layout.blocks + block
            assert block > 0
            others = []
            for b in range(game * layout.blocks, (game + 1) * layout.blocks):
                one = slice(b, b + 1)
                alone = stability._margins_and_slopes(
                    points[one], responses[one], layout.mask[one], 1, 60, points[one], along[one]
                )
                if b == row:
                    assert alone[0].tobytes() == margins[game : game + 1].tobytes()
                    assert alone[1].tobytes() == slopes[game : game + 1].tobytes()
                else:
                    others.append(alone[1][0])
            assert slopes[game] not in others

    def test_padding_only_blocks_limit_nothing(self):
        # 30 disjoint pairs need 30 blocks of 3 players, 20 disjoint
        # chain3s 20: the chain game's last 10 blocks are padding alone
        pairs, chains = _pairs_and_chains()
        layout = topology._pack(np.array([pairs, chains], dtype=bool))
        assert (layout.blocks, layout.mask.shape[-1]) == (30, 3)
        assert (layout.slots[50:] == 60).all() and (layout.slots[30:50] < 60).all()
        found = experiments._common_rates([pairs, chains], experiments.RATE_STEP)
        assert [y for y, _ in found] == [0.249, 0.191]
        _assert_matches_the_dense_search([pairs, chains])

    def test_a_game_is_solved_only_when_every_block_converges(self, monkeypatch):
        # Newton reports one pair block of the first game unconverged,
        # though its point is as good as its other blocks'
        layout = topology._pack(np.array(_pairs_and_chains(), dtype=bool))
        assert layout.blocks == 30
        args = (np.full((2, 60), 0.1), layout, np.zeros((2, 60)), np.ones(60))
        points, margins, _, infeasible = experiments._stable_lfps(*args)
        assert all(p is not None for p in points) and (margins > 0.0).all() and not infeasible.any()
        original = experiments._newton_rows

        def one_block_unconverged(*newton_args):
            points, iterations, converged, res_norms, infeasible = original(*newton_args)
            assert converged.all()
            converged[1] = False
            return points, iterations, converged, res_norms, infeasible

        monkeypatch.setattr(experiments, "_newton_rows", one_block_unconverged)
        (pairs_point, chains_point), margins, slopes, infeasible = experiments._stable_lfps(*args)
        assert pairs_point is None and np.isnan(margins[0]) and np.isnan(slopes[0]) and not infeasible.any()
        assert chains_point is not None and margins[1] > 0.0

    def test_no_bracket_is_taken_when_no_game_is_solved(self, monkeypatch):
        # past both folds no game converges, and past 1 Newton proves
        # each infeasible at once: no bracket, certificate or slope is
        # computed on no rows
        layout = topology._pack(np.array(_pairs_and_chains(), dtype=bool))
        decisions = record_calls(monkeypatch, experiments, "_margins_and_slopes")
        brackets = record_calls(monkeypatch, experiments, "_solve_rows")
        for rate in (0.3, 1.5):
            args = (np.full((2, 60), rate), layout, np.zeros((2, 60)), np.ones(60))
            points, margins, slopes, infeasible = experiments._stable_lfps(*args)
            assert points == [None, None] and np.isnan(margins).all() and np.isnan(slopes).all() and infeasible.all()
        assert decisions == [] and brackets == []

    def test_matches_the_dense_search_on_criterion_6(self, monkeypatch):
        # the 14 settings of criterion 6, 30 trials each, in as many
        # probe rounds as the search on whole matrices
        calls = record_calls(monkeypatch, experiments, "_newton_rows")
        dense_calls = record_calls(monkeypatch, solver, "_newton_rows")
        settings = [(20, d, 2024, i) for i, d in enumerate((0.008, 0.02, 0.05, 0.15, 0.5, 2.0))]
        settings += [(n, 0.1, 4025, i) for i, n in enumerate((10, 20, 30, 40, 60))]
        settings += [(n, 0.03, 77, i) for i, n in enumerate((20, 40, 60))]
        packed = 0
        for n, density, seed, index in settings:
            matrices = _setting(n, density, seed, index, 30)
            packed += _packed(matrices)
            _assert_matches_the_dense_search(matrices)
            assert len(calls) == len(dense_calls)
        assert packed == 2

    def test_matches_the_dense_search_at_large_n(self):
        pool = [
            (200, 0.03, "min", 2),
            (200, 0.03, "max", 1),
            (200, 0.1, "min", 1),
            (200, 0.1, "max", 1),
            (500, 0.03, "min", 1),
        ]
        packed = 0
        for index, (n, density, edge_rule, trials) in enumerate(pool):
            matrices = _setting(n, density, 21, index, trials, edge_rule)
            packed += _packed(matrices)
            _assert_matches_the_dense_search(matrices)
        assert packed == 3

    def test_packed_sweep_matches_one_search_per_trial(self):
        # the layout depends on the lanes searched together, so a point
        # may move by rounding, but no y_max does
        records = size_sweep(0.03, [40, 60], trials=4, seed=9, include_fully_connected=False)[0]
        reference = sweep_one_search_per_trial([(40, 0.03), (60, 0.03)], 4, experiments.RATE_STEP, 9)
        for record, expected in zip(records, reference):
            fields = _record_fields(record)
            assert fields[:5] + fields[6:] == _record_fields(expected)[:5] + _record_fields(expected)[6:]
            assert np.abs(record.point - expected.point).max() <= 1e-9
        assert _packed(_setting(60, 0.03, 9, 1, 4))

    def test_packed_demand_scale_matches_bisection(self):
        matrix = _setting(60, 0.03, 5, 0, 1)[0]
        game = Game(matrix, np.full(60, 0.5 * max_common_rate(matrix)[0]))
        assert _packed([matrix])
        demand = max_demand_scale(game)
        factor, point = bisect_demand_scale(game)
        assert demand.factor == factor and np.abs(demand.point - point).max() <= 1e-8

    def test_lane_budget_bounds_packed_newton_calls(self, monkeypatch):
        whole = density_sweep(60, [0.03], trials=6, seed=12)[0]
        calls = _newton_row_counts(monkeypatch)
        budget = 2 * 2 * 60 * 60
        monkeypatch.setattr(experiments, "_LANE_ENTRIES", budget)
        blocks = density_sweep(60, [0.03], trials=6, seed=12)[0]
        assert [r.max_common_rate for r in blocks] == [r.max_common_rate for r in whole]
        assert max(abs(a.point - b.point).max() for a, b in zip(blocks, whole)) <= 1e-9
        assert budget >= max(entries for _, entries in calls)
        # the blocks hold fewer entries than the whole matrices would
        assert calls[0][1] < budget // 2


def _search_pool() -> list:
    """Seeded topologies of every kind a common-rate search meets."""
    isolated = np.zeros((4, 4), dtype=int)
    isolated[:3, :3] = CHAIN
    pair = np.zeros((4, 4), dtype=int)
    pair[0, 1] = pair[1, 0] = 1
    star = np.zeros((7, 7), dtype=int)
    star[0, 1:] = star[1:, 0] = 1
    pool = [np.zeros((1, 1), dtype=int), np.zeros((5, 5), dtype=int), isolated, pair, star, CHAIN]
    pool += [fully_connected_matrix(n) for n in range(2, 61)]
    pool += [random_topology(n, side_for_density(n, d), seed=7 * n)[1] for n in (6, 20, 40) for d in (0.01, 0.1, 1.0)]
    return pool


def _criterion_6_pool() -> list:
    """The topologies of criterion 6's 14 sweep settings, one list per setting."""
    settings = [(20, d, 2024, i) for i, d in enumerate([0.008, 0.02, 0.05, 0.15, 0.5, 2.0])]
    settings += [(n, 0.1, 4025, i) for i, n in enumerate([10, 20, 30, 40, 60])]
    settings += [(n, 0.03, 77, i) for i, n in enumerate([20, 40, 60])]
    return [_setting(n, density, seed, index, 30) for n, density, seed, index in settings]


def _directed_pool() -> list:
    """Seeded directed interference matrices, one list per size."""
    rng = np.random.default_rng(1304)
    pool = []
    for n in (2, 3, 5, 8, 12, 20, 40):
        matrices = [rng.uniform(size=(n, n)) < p for p in np.repeat([0.05, 0.2, 0.5, 0.9], 6)]
        for a in matrices:
            np.fill_diagonal(a, False)
        pool.append([a.astype(int) for a in matrices])
    return pool


class TestCliqueEdgeFirstProbe:
    """A common-rate search first probes just below the clique edge of
    its largest interferer count, where the certificate is proven
    positive definite."""

    def test_guess_is_the_clique_edge(self):
        for n in range(2, 61):
            (edge,) = experiments._first_guesses(topology._whole(fully_connected_matrix(n)[np.newaxis] == 1))
            assert abs(edge - (1.0 / n) * (1.0 - 1.0 / n) ** (n - 1)) <= 1e-12
        pairs, chains = _pairs_and_chains()
        empty = np.zeros((60, 60), dtype=int)
        # a directed star: player 0 interferes with 5 players, and they not with it
        star = np.zeros((60, 60), dtype=int)
        star[1:6, 0] = 1
        layout = topology._pack(np.array([pairs, chains, empty, star], dtype=bool))
        assert layout.blocks > 1
        expected = [0.25, 4.0 / 27.0, 1.0, 5.0**5 / 6.0**6]
        assert np.abs(experiments._first_guesses(layout) - expected).max() <= 1e-16

    @pytest.mark.parametrize(
        "pool",
        [lambda: [[fully_connected_matrix(n)] for n in range(2, 61)], _criterion_6_pool, _directed_pool],
        ids=["cliques", "criterion_6", "directed"],
    )
    def test_first_probe_passes(self, monkeypatch, pool):
        first = []
        original = experiments._stable_lfps

        def recording(rates, mask, warm_starts, direction):
            found = original(rates, mask, warm_starts, direction)
            first.append(found[1])
            return found

        monkeypatch.setattr(experiments, "_stable_lfps", recording)
        for matrices in pool():
            del first[:]
            experiments._common_rates(matrices, experiments.RATE_STEP)
            # the first round probes each lane once
            assert len(first[0]) == len(matrices) and (first[0] > 0.0).all()


def _clique_edge(d: int) -> float:
    return (d / (d + 1.0)) ** d / (d + 1.0)


def _star_edge(d: int) -> float:
    """The certificate edge of the star K_(1,d) at a common rate.

    On its least fixed points a leaf's coordinate l sets the centre's,
    c = l / (l + (1 - l)^d), and the rate, y = l (1 - c). The
    certificate 2I - F' - F'^T is positive definite while
    sqrt(d) (c / (1 - l) + l / (1 - c)) < 2, whose left side grows with
    l, so bisection on l finds the edge, here to rounding.
    """
    if d == 0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-15:
        leaf = (lo + hi) / 2.0
        centre = leaf / (leaf + (1.0 - leaf) ** d)
        if np.sqrt(d) * (centre / (1.0 - leaf) + leaf / (1.0 - centre)) < 2.0:
            lo = leaf
        else:
            hi = leaf
    return lo * (1.0 - lo / (lo + (1.0 - lo) ** d))


class TestInterfererCountBracket:
    """A symmetric topology's grid y_max lies between the clique edge of its
    largest interferer count D, less one step, and the edge of the star
    with D leaves."""

    def test_edges_meet_at_one_interferer(self):
        assert _clique_edge(1) == 0.25
        assert abs(_star_edge(1) - 0.25) <= 1e-12
        assert _clique_edge(0) == _star_edge(0) == 1.0

    def test_a_star_searches_to_its_own_edge(self):
        for d in range(1, 12):
            star = np.zeros((d + 1, d + 1), dtype=int)
            star[0, 1:] = star[1:, 0] = 1
            y_max, _ = max_common_rate(star)
            assert _star_edge(d) - experiments.RATE_STEP - 1e-12 <= y_max < _star_edge(d)

    @pytest.mark.parametrize("pool", ["criterion 6", "sweep"])
    def test_grid_rates_lie_in_the_bracket(self, pool):
        settings = _criterion_6_pool() if pool == "criterion 6" else [s for seed in (1, 2, 3) for s in sweep_topologies(seed)]
        step = experiments.RATE_STEP
        checked = set()
        for matrices in settings:
            for (y_max, _), matrix in zip(experiments._common_rates(matrices, step), matrices):
                assert np.array_equal(matrix, matrix.T)
                d = int(matrix.sum(axis=1).max())
                assert _clique_edge(d) - step - 1e-12 <= y_max <= _star_edge(d)
                checked.add(d)
        assert sum(map(len, settings)) == (420 if pool == "criterion 6" else 3 * 14 * 4)
        assert {0, 1, 2} <= checked and max(checked) >= 8


class TestCommonRateCeilings:
    """A lane with no links, or with symmetric links and at most one
    interferer per player, closes after its first probe: its clique edge
    is also its ceiling."""

    def test_edge_values(self):
        assert max_common_rate([[0, 1], [0, 0]])[0] == 0.499
        assert max_common_rate(chain_matrix(2))[0] == 0.249
        assert max_common_rate(np.zeros((3, 3), dtype=int))[0] == 0.999

    def test_closed_lanes_probe_once(self, monkeypatch):
        rounds = record_calls(monkeypatch, experiments, "_stable_lfps")
        pairs, chains = _pairs_and_chains()
        singles = pairs.copy()
        singles[:10] = singles[:, :10] = 0
        link = np.zeros((60, 60), dtype=int)
        link[0, 1] = 1
        found = experiments._common_rates([pairs, singles, np.zeros((60, 60), dtype=int), chains, link], 0.001)
        assert [y for y, _ in found] == [0.249, 0.249, 0.999, 0.191, 0.499]
        # a round probes each live lane once or twice, and after the
        # first only the last two lanes are live
        probes = [len(args[0]) for args, _ in rounds]
        assert probes[0] == 5 and len(probes) > 2 and max(probes[1:]) <= 4
        for matrix in (pairs, singles, np.zeros((4, 4), dtype=int)):
            del rounds[:]
            experiments._common_rates([matrix], 0.001)
            assert len(rounds) == 1

    def test_a_ceiling_below_the_first_step_probes_nothing(self, monkeypatch):
        rounds = record_calls(monkeypatch, experiments, "_stable_lfps")
        y_max, point = max_common_rate(chain_matrix(2), step=0.3)
        assert (y_max, point.tolist()) == (0.0, [0.0, 0.0])
        assert rounds == []


class TestMarginGuidedSearch:
    """The common-rate searches follow the certificate margin instead of
    bisecting, and find what bisection finds in far fewer rounds."""

    @pytest.mark.parametrize("factor", [1.0, 4.0])
    def test_matches_bisection(self, monkeypatch, factor):
        # At 4 times the clique edge every first probe of a lane with
        # interference fails, so those searches go on from a failed probe.
        edges = experiments._first_guesses
        monkeypatch.setattr(experiments, "_first_guesses", lambda layout: factor * edges(layout))
        interfering = first_failed = 0
        for matrix in _search_pool():
            y_max, point = max_common_rate(matrix)
            y_ref, point_ref = bisect_common_rate(matrix)
            assert y_max == y_ref
            assert np.abs(point - point_ref).max() <= 1e-8
            (edge,) = edges(topology._whole(np.asarray(matrix, dtype=bool)[np.newaxis]))
            interfering += bool(edge < 1.0)
            first_failed += bool(edge < 1.0 and y_max < min(1.0, factor * edge) - experiments.RATE_STEP)
        assert interfering >= 65 and first_failed == (0 if factor == 1.0 else interfering)

    def test_returned_points_are_stable_fixed_points(self):
        for matrix in _search_pool():
            y_max, point = max_common_rate(matrix)
            game = Game(matrix, np.full(len(matrix), y_max))
            assert krasovskii_verdict(point, game, fp_tol=1e-8).stable

    def test_few_newton_calls_per_lockstep_search(self, monkeypatch):
        # criterion 6's 14 settings, one lockstep search each; bisection
        # makes 10 Newton calls on every one of them
        calls = _newton_row_counts(monkeypatch)
        searches = []
        original = experiments._common_rates

        def counting(matrices, step):
            start = len(calls)
            found = original(matrices, step)
            searches.append(len(calls) - start)
            return found

        monkeypatch.setattr(experiments, "_common_rates", counting)
        density_sweep(20, [0.008, 0.02, 0.05, 0.15, 0.5, 2.0], trials=30, seed=2024)
        size_sweep(0.1, [10, 20, 30, 40, 60], trials=30, seed=4025, include_fully_connected=False)
        size_sweep(0.03, [20, 40, 60], trials=30, seed=77, include_fully_connected=False)
        assert len(searches) == 14 and max(searches) <= 6
        del calls[:]
        assert max_common_rate(np.zeros((6, 6)))[0] == 0.999
        assert len(calls) <= 2

    def test_scale_searches_match_bisection(self):
        # the factors, rates and sums of the midpoint loops the scale
        # searches replaced; the probability scale's point is b * q_star,
        # and the demand scale's is Newton's estimate from another warm
        # start
        games = [
            Game(CHAIN, [0.15] * 3),
            Game(fully_connected_matrix(4), [0.1] * 4),
            Game(chain_matrix(5), [0.12] * 5),
        ]
        for seed in range(6):
            rng = instance_rng(8008, seed)
            _, matrix = random_topology(8, side_for_density(8, rng.choice([0.1, 0.3, 1.0])), seed)
            games.append(Game(matrix, rng.uniform(0.3, 1.0, 8) * max_common_rate(matrix)[0]))
        for game in games:
            demand = max_demand_scale(game)
            factor, point = bisect_demand_scale(game)
            assert (demand.factor, demand.rates.tobytes()) == (factor, (factor * game.rates).tobytes())
            assert demand.sum_rate == float(demand.rates.sum())
            assert np.abs(demand.point - point).max() <= 1e-8
            q_star = kleene_lfp(game).point
            prob = max_probability_scale(game, q_star)
            factor, point, rates = bisect_probability_scale(game, q_star)
            assert (prob.factor, prob.point.tobytes()) == (factor, point.tobytes())
            assert prob.rates.tobytes() == rates.tobytes()
            assert prob.sum_rate == float(rates.sum())


class TestPowerLawFit:
    def test_exact_single_power_law(self):
        x = np.array([0.01, 0.03, 0.05, 0.2, 0.5, 1.0])
        y = 2.0 * x**-1.0
        fit = fit_power_law(x, y)
        assert fit.c_low == pytest.approx(2.0, abs=1e-12)
        assert fit.e_low == pytest.approx(-1.0, abs=1e-12)
        assert fit.c_high == pytest.approx(2.0, abs=1e-12)
        assert fit.e_high == pytest.approx(-1.0, abs=1e-12)
        assert fit.rms_log_low <= 1e-12

    def test_single_segment_flags_the_other(self):
        x = np.array([0.2, 0.4, 0.8])
        fit = fit_power_law(x, 0.5 * x**-0.5)
        assert fit.c_low is None and fit.n_low == 0
        assert fit.c_high == pytest.approx(0.5, abs=1e-12)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([0.1, 0.0, 0.3], [1.0, 2.0, 3.0])

    def test_rejects_everything_insufficient(self):
        with pytest.raises(ValueError, match="2 points"):
            fit_power_law([0.05], [1.0])

    def test_rejects_nan_break(self):
        # every comparison with NaN is false, so all points would land in "high"
        with pytest.raises(ValueError, match="break_x must not be NaN"):
            fit_power_law([0.05, 0.2, 0.5], [1.0, 2.0, 3.0], break_x=np.nan)

    def test_predict_uses_the_right_segment(self):
        x = np.array([0.01, 0.02, 0.05, 0.2, 0.5, 1.0])
        y = np.where(x < 0.1, 1.0 * x**-0.5, 0.4 * x**-0.8)
        fit = fit_power_law(x, y)
        pred = fit.predict([0.04, 0.4])
        assert pred[0] == pytest.approx(1.0 * 0.04**-0.5, rel=1e-9)
        assert pred[1] == pytest.approx(0.4 * 0.4**-0.8, rel=1e-9)
