import math

import numpy as np
import pytest

from alohagame import (
    RANGE_LONG,
    RANGE_SHORT,
    chain_matrix,
    connected_components,
    connectivity,
    fully_connected_matrix,
    load_topology,
    random_topology,
    save_topology,
    side_for_density,
)
from alohagame.topology import NodePlacement


class TestGenerators:
    def test_chain_matrix(self):
        a = chain_matrix(3)
        assert np.array_equal(a, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_fully_connected_matrix(self):
        a = fully_connected_matrix(3)
        assert a.sum() == 6 and np.diag(a).sum() == 0

    def test_same_seed_same_topology(self):
        p1, a1 = random_topology(20, 10.0, seed=42)
        p2, a2 = random_topology(20, 10.0, seed=42)
        assert np.array_equal(a1, a2)
        assert np.array_equal(p1.positions, p2.positions)

    def test_different_seed_differs(self):
        _, a1 = random_topology(20, 10.0, seed=1)
        _, a2 = random_topology(20, 10.0, seed=2)
        assert not np.array_equal(a1, a2)

    def test_tiny_square_fully_connects(self):
        _, a = random_topology(8, 1e-9, seed=0)
        assert np.array_equal(a, fully_connected_matrix(8))

    def test_ranges_split_half_and_half(self):
        placement, _ = random_topology(7, 10.0, seed=0)
        assert (placement.ranges[:4] == RANGE_LONG).all()
        assert (placement.ranges[4:] == RANGE_SHORT).all()

    def test_generated_matrix_symmetric_zero_diagonal(self):
        for seed in range(10):
            _, a = random_topology(15, 12.0, seed=seed)
            assert np.array_equal(a, a.T)
            assert np.diag(a).sum() == 0

    def test_min_rule_is_subset_of_max_rule(self):
        differ = 0
        for seed in range(40):
            _, a_min = random_topology(10, 15.0, seed=seed, edge_rule="min")
            _, a_max = random_topology(10, 15.0, seed=seed, edge_rule="max")
            assert (a_min <= a_max).all()
            differ += int(not np.array_equal(a_min, a_max))
        # mixed ranges make the rules disagree on mid-distance pairs
        assert differ > 0

    def test_bad_edge_rule(self):
        with pytest.raises(ValueError, match="edge_rule"):
            random_topology(5, 10.0, seed=0, edge_rule="avg")

    def test_side_for_density(self):
        assert side_for_density(20, 0.1) == pytest.approx(math.sqrt(200.0), abs=1e-12)

    @pytest.mark.parametrize("density", [0.0, -0.1, np.nan, np.inf])
    def test_side_for_density_rejects_bad_density(self, density):
        with pytest.raises(ValueError, match="density must be positive and finite"):
            side_for_density(20, density)

    @pytest.mark.parametrize("side", [0.0, -1.0, np.nan, np.inf])
    def test_random_topology_rejects_bad_side(self, side):
        with pytest.raises(ValueError, match="side must be positive and finite"):
            random_topology(5, side, seed=0)

    def test_expected_connectivity_shrinks_with_side(self):
        means = []
        for side in (8.0, 16.0, 32.0):
            values = [connectivity(random_topology(20, side, seed=s)[1]) for s in range(40)]
            means.append(np.mean(values))
        assert means[0] > means[1] > means[2]


class TestGraphMeasures:
    def test_fully_connected_connectivity_is_one(self):
        assert connectivity(fully_connected_matrix(6)) == 1.0

    def test_chain_connectivity(self):
        assert connectivity(chain_matrix(3)) == pytest.approx(4.0 / 6.0)

    def test_edgeless_connectivity_zero(self):
        assert connectivity(np.zeros((4, 4))) == 0.0

    def test_single_player_rejected(self):
        with pytest.raises(ValueError):
            connectivity(np.zeros((1, 1)))

    def test_connectivity_invariant_under_relabeling(self):
        rng = np.random.default_rng(31)
        _, a = random_topology(12, 10.0, seed=3)
        perm = rng.permutation(12)
        assert connectivity(a[np.ix_(perm, perm)]) == connectivity(a)

    def test_chain_is_one_component(self):
        assert connected_components(chain_matrix(3)) == [[0, 1, 2]]

    def test_edgeless_gives_singletons(self):
        assert connected_components(np.zeros((3, 3))) == [[0], [1], [2]]

    def test_two_disjoint_pairs(self):
        a = np.zeros((4, 4), dtype=int)
        a[0, 1] = a[1, 0] = 1
        a[2, 3] = a[3, 2] = 1
        assert connected_components(a) == [[0, 1], [2, 3]]

    def test_directed_support_counts_either_direction(self):
        a = np.zeros((2, 2), dtype=int)
        a[0, 1] = 1  # one-way interference still couples the pair
        assert connected_components(a) == [[0, 1]]


class TestTopologyFiles:
    def test_round_trip_matrix_only(self, tmp_path):
        path = tmp_path / "chain.txt"
        save_topology(path, chain_matrix(3))
        matrix, placement = load_topology(path)
        assert np.array_equal(matrix, chain_matrix(3))
        assert placement is None

    def test_round_trip_with_positions(self, tmp_path):
        placement, a = random_topology(6, 9.0, seed=11)
        path = tmp_path / "topo.txt"
        save_topology(path, a, placement)
        matrix, loaded = load_topology(path)
        assert np.array_equal(matrix, a)
        assert np.abs(loaded.positions - placement.positions).max() <= 1e-9
        assert np.array_equal(loaded.ranges, placement.ranges)

    def test_rejects_nonbinary_entries(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 2\n1 0\n")
        with pytest.raises(ValueError, match="0/1"):
            load_topology(path)

    def test_rejects_nonzero_diagonal(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0\n0 0\n")
        with pytest.raises(ValueError, match="diagonal"):
            load_topology(path)

    def test_rejects_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 1 0\n1 0 1\n")
        with pytest.raises(ValueError, match="rows"):
            load_topology(path)

    def test_rejects_garbage_after_matrix(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n1 0\nextra\n")
        with pytest.raises(ValueError, match="unexpected"):
            load_topology(path)

    def test_placement_validation(self):
        with pytest.raises(ValueError, match="inside"):
            NodePlacement(positions=[[2.0, 0.5]], ranges=[3.0], side=1.0)
        with pytest.raises(ValueError, match="positive"):
            NodePlacement(positions=[[0.5, 0.5]], ranges=[0.0], side=1.0)
