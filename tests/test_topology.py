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
from alohagame.topology import NodePlacement, _component_labels, _pack, _whole
from reference import dfs_components


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

    def test_links_match_the_distance_formula_bit_for_bit(self):
        # the in-place, one-coordinate-at-a-time distances give the
        # links of the plain (n, n, 2) difference formula
        for n, seed in ((1, 0), (2, 1), (57, 2), (300, 3)):
            for rule, combine in (("min", np.minimum), ("max", np.maximum)):
                placement, a = random_topology(n, side_for_density(n, 0.1), seed, edge_rule=rule)
                p, r = placement.positions, placement.ranges
                dist = np.sqrt(((p[:, np.newaxis, :] - p[np.newaxis, :, :]) ** 2).sum(axis=-1))
                expected = (dist <= combine(r[:, np.newaxis], r[np.newaxis, :])).astype(np.int8)
                np.fill_diagonal(expected, 0)
                assert a.tobytes() == expected.tobytes()

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


def _labelling_pool():
    """Seeded topologies of both edge rules, relabelled at random, and the
    edge cases of the labelling."""
    rng = np.random.default_rng(2121)
    pool = [np.zeros((1, 1), dtype=int), np.zeros((7, 7), dtype=int), fully_connected_matrix(9)]
    for n in (2, 5, 40):
        perm = rng.permutation(n)
        pool += [chain_matrix(n), chain_matrix(n)[np.ix_(perm, perm)]]
    asymmetric = np.zeros((6, 6), dtype=int)
    asymmetric[0, 3] = asymmetric[3, 5] = asymmetric[4, 1] = 1
    pool.append(asymmetric)
    for seed in range(60):
        n = int(rng.integers(2, 70))
        _, a = random_topology(n, rng.uniform(2.0, 40.0), seed, edge_rule=("min", "max")[seed % 2])
        perm = rng.permutation(n)
        pool.append(a[np.ix_(perm, perm)])
    return pool


class TestComponentLabels:
    """``connected_components`` labels by min-label propagation with
    pointer jumping, and gives what a depth-first search gives."""

    def test_matches_depth_first_search(self):
        sizes = set()
        for matrix in _labelling_pool():
            components = connected_components(matrix)
            assert components == dfs_components(matrix)
            sizes.add(len(components))
        # edgeless, connected and split topologies all occur
        assert {1, 7}.issubset(sizes) and len(sizes) >= 10

    def test_asymmetric_links_couple_both_ends(self):
        a = np.zeros((6, 6), dtype=int)
        a[0, 3] = a[3, 5] = a[4, 1] = 1
        assert connected_components(a) == [[0, 3, 5], [1, 4], [2]]

    def test_single_player_and_long_chain(self):
        assert connected_components(np.zeros((1, 1))) == [[0]]
        rng = np.random.default_rng(5)
        perm = rng.permutation(300)
        assert connected_components(chain_matrix(300)[np.ix_(perm, perm)]) == [list(range(300))]

    def test_stack_labels_each_matrix_by_its_smallest_members(self):
        matrices = [random_topology(30, 25.0, seed)[1] for seed in range(4)]
        labels = _component_labels(np.array(matrices))
        for matrix, row in zip(matrices, labels):
            for component in dfs_components(matrix):
                assert (row[component] == component[0]).all()


def _layout_stacks():
    """Seeded stacks of one size, packed and not, with edgeless stacks, n = 1
    and a stack whose games need unequal numbers of blocks."""
    stacks = [np.zeros((3, 1, 1), dtype=bool), np.zeros((2, 100, 100), dtype=bool), np.zeros((2, 7, 7), dtype=bool)]
    for n, density, rule in ((10, 0.1, "min"), (40, 0.03, "max"), (60, 0.03, "min"), (200, 0.03, "min")):
        side = side_for_density(n, density)
        stacks.append(np.array([random_topology(n, side, seed, edge_rule=rule)[1] for seed in range(4)], dtype=bool))
    pairs, chains = np.zeros((60, 60), dtype=bool), np.zeros((60, 60), dtype=bool)
    for k in range(30):
        pairs[2 * k, 2 * k + 1] = pairs[2 * k + 1, 2 * k] = True
    for k in range(20):
        chains[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] = chain_matrix(3)
    stacks.append(np.array([pairs, chains]))
    return stacks


class TestLayouts:
    """One block layout for whole and packed stacks: game k is the blocks
    k * blocks to k * blocks + blocks - 1, and padding slots hold n."""

    @pytest.mark.parametrize("layout_of", [_whole, _pack])
    def test_layout_invariants(self, layout_of):
        rng = np.random.default_rng(8)
        packed = 0
        for mask in _layout_stacks():
            games, n = mask.shape[0], mask.shape[-1]
            layout = layout_of(mask)
            packed += layout.mask.shape[-1] < n
            b, m = layout.blocks, layout.mask.shape[-1]
            assert layout.n == n and layout.mask.shape == (games * b, m, m) and layout.slots.shape == (games * b, m)
            for k, a in enumerate(mask):
                slots = layout.slots[k * b : (k + 1) * b]
                # every player sits in exactly one slot of its game
                assert np.array_equal(np.sort(slots[slots < n]), np.arange(n))
                links = 0
                for block, members in zip(layout.mask[k * b : (k + 1) * b], slots):
                    real = members < n
                    assert np.array_equal(block[np.ix_(real, real)], a[np.ix_(members[real], members[real])])
                    assert not block[~real].any() and not block[:, ~real].any()
                    links += block.sum()
                assert links == a.sum()
            x = rng.uniform(size=(games, n))
            assert layout.scatter(layout.gather(x)).tobytes() == x.tobytes()
            assert (layout.gather(x[0]) == layout.gather(np.tile(x[0], (games, 1)))).all()
            for picks in (np.arange(0, games, 2), np.array([games - 1, 0, games - 1])):
                taken = layout.take(picks)
                rows = layout.rows(picks)
                assert taken.blocks == b and np.array_equal(taken.rows(np.arange(len(picks))), np.arange(len(rows)))
                for i, k in enumerate(picks):
                    assert np.array_equal(taken.mask[i * b : (i + 1) * b], layout.mask[k * b : (k + 1) * b])
                    assert np.array_equal(taken.slots[i * b : (i + 1) * b], layout.slots[k * b : (k + 1) * b])
                gathered = taken.gather(x[picks])
                assert np.array_equal(gathered, layout.gather(x)[rows])
                assert taken.scatter(gathered).tobytes() == x[picks].tobytes()
        assert packed == (0 if layout_of is _whole else 5)


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

    @pytest.mark.parametrize("side", [np.nan, np.inf, 0.0])
    def test_placement_rejects_bad_side(self, side):
        with pytest.raises(ValueError, match="^side must be positive and finite"):
            NodePlacement(positions=[[0.0, 1.0], [1.0, 5.0]], ranges=[5.0, 3.0], side=side)

    @pytest.mark.parametrize("coordinate", [np.nan, np.inf, -np.inf])
    def test_placement_rejects_non_finite_positions(self, coordinate):
        with pytest.raises(ValueError, match="^positions must be finite"):
            NodePlacement(positions=[[0.0, coordinate], [1.0, 5.0]], ranges=[5.0, 3.0], side=10.0)

    def test_rejects_nan_position_in_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n1 0\n# positions\n0 nan 1.0 5.0\n1 1.0 5.0 3.0\n")
        with pytest.raises(ValueError, match="finite"):
            load_topology(path)
