import csv

import numpy as np
import pytest

from alohagame import (
    BifurcationBranch,
    BranchPoint,
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
    krasovskii_verdict,
    max_common_rate,
    max_demand_scale,
    max_probability_scale,
    multistart_fixed_points,
    random_topology,
    side_for_density,
    size_sweep,
    write_records_csv,
)
from alohagame import experiments, solver
from conftest import Q_STAR, instance_rng, random_game

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


def _sweep_one_value_at_a_time(matrix, fixed_rates, varying_index, value_range, step):
    """Reference sweep: one oracle call and one verdict per value."""
    lo, hi = value_range
    values = np.array([round(v, 12) for v in np.arange(round(lo, 12), hi + step / 2, step)])
    branches = []
    critical_value = critical_point = None
    for value in values:
        rates = np.asarray(fixed_rates, dtype=float).copy()
        rates[varying_index] = value
        game = Game(matrix, rates)
        pts = sorted(multistart_fixed_points(game).points, key=lambda p: (float(p.sum()), tuple(p)))
        row = []
        for p in pts:
            try:
                verdict = krasovskii_verdict(p, game, fp_tol=1e-6)
                row.append(BranchPoint(p, verdict.stable, verdict.classification))
            except ValueError:
                row.append(BranchPoint(p, False, "singular"))
        branches.append(row)
        interior = [p for p in pts if (p > 0.0).all() and (p < 1.0).all()]
        if len(interior) >= 2:
            critical_value = float(value)
            gaps = [
                (float(np.abs(interior[i] - interior[j]).max()), i, j)
                for i in range(len(interior))
                for j in range(i + 1, len(interior))
            ]
            _, i, j = min(gaps)
            critical_point = (interior[i] + interior[j]) / 2.0
    return BifurcationBranch(varying_index, values, branches, critical_value, critical_point)


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
        _assert_same_branch(got, _sweep_one_value_at_a_time(*args))

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
                _assert_same_branch(got, _sweep_one_value_at_a_time(*args))
        assert {(n, True) for n in range(1, 5)} <= counts_seen


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
        _assert_same_branch(got, _sweep_one_value_at_a_time(*args))

    def test_one_sweep_is_one_round_sequence(self, monkeypatch):
        # An enumeration per value makes 3,945 contractions here, one
        # enumeration for all 61 values 93.
        calls = []
        contract = solver._contract

        def counting(*args):
            calls.append(len(args[0]))
            return contract(*args)

        monkeypatch.setattr(solver, "_contract", counting)
        branch = bifurcation_sweep(CHAIN, [0.15, 0.15, 0.15], 1, (0.0, 0.30), 0.005)
        assert branch.parameter_values.size == 61
        assert len(calls) <= 100


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


def _linear_walk_max_common_rate(matrix, step=0.001):
    """Reference search: walk the common rate up one step at a time,
    solving each step from zeros with kleene_lfp, and stop at the first
    rate whose least fixed point is not interior and certified stable."""
    n = len(matrix)
    best = 0.0
    for k in range(1, int(1.0 / step) + 1):
        y = round(k * step, 12)
        game = Game(matrix, np.full(n, y))
        res = kleene_lfp(game)
        if not (res.interior and krasovskii_verdict(res.point, game).stable):
            break
        best = y
    return best


def _pair_limited(matrix) -> bool:
    return max(len(c) for c in connected_components(matrix)) == 2


class TestSearchEquivalence:
    """Bisection with Newton solves gives the linear Kleene walk's y_max.

    Topologies whose largest component is an isolated pair are left
    out. Their fold sits exactly on the grid, at y = 0.25, where the
    certificate at the true equilibrium (0.5, 0.5) is marginal. Both
    solvers stop a few 1e-6 short of it, where the certificate is still
    positive, so whether 0.25 passes depends on where each one stops.
    """

    @pytest.mark.parametrize("n", range(3, 11))
    def test_chain_and_fully_connected(self, n):
        for matrix in (chain_matrix(n), fully_connected_matrix(n)):
            assert max_common_rate(matrix)[0] == _linear_walk_max_common_rate(matrix)

    def test_random_topologies(self):
        compared = 0
        for n in (5, 8, 10, 12):
            for density in (0.05, 0.1, 0.2, 0.4):
                for trial in range(2):
                    _, matrix = random_topology(n, side_for_density(n, density), seed=100 * n + trial)
                    if _pair_limited(matrix):
                        continue
                    y_max, point = max_common_rate(matrix)
                    assert y_max == _linear_walk_max_common_rate(matrix), (n, density, trial)
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

        monkeypatch.setattr(experiments, "_interior_stable_lfp", no_solve)
        monkeypatch.setattr(experiments, "krasovskii_verdict", no_solve)
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

    @pytest.mark.slow
    def test_large_sparse_network_keeps_useful_throughput(self):
        # spatial reuse keeps the per-player rate workable at scale
        from alohagame import random_topology, side_for_density

        _, a = random_topology(100, side_for_density(100, 0.1), seed=60)
        y_max, _ = max_common_rate(a)
        assert y_max > 0.04


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
