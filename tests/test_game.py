import math
import tracemalloc

import numpy as np
import pytest

from alohagame import (
    Game,
    achieved_rate,
    best_response,
    chain_matrix,
    fully_connected_matrix,
    is_fixed_point,
    leq,
    residual,
)
from alohagame.game import _as_binary_matrix, _response
from conftest import P_SADDLE, Q_STAR

CHAIN = chain_matrix(3)


def two_player_root(rate: float, upper: bool = False) -> float:
    # roots of q(1-q) = rate, the symmetric 2-player stationarity equation
    disc = math.sqrt(1.0 - 4.0 * rate)
    return (1.0 + disc) / 2.0 if upper else (1.0 - disc) / 2.0


class TestGameValidation:
    def test_accepts_chain(self, chain3):
        assert chain3.n == 3
        assert chain3.matrix.dtype == np.int8

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            Game(np.eye(2), [0.1, 0.1])

    def test_rejects_nonbinary_entries(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Game([[0, 0.5], [1, 0]], [0.1, 0.1])

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, float])
    def test_large_matrix_checks_in_little_memory(self, dtype):
        # A float copy and np.isin took 9.5 MiB at n = 1,000
        a = np.zeros((1000, 1000), dtype=dtype)
        a[0, 1] = a[1, 0] = 1
        tracemalloc.start()
        try:
            out = _as_binary_matrix(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert out.dtype == np.int8 and not out.flags.writeable and np.array_equal(out, a)
        a[1, 1] = 1
        with pytest.raises(ValueError, match="diagonal must be zero"):
            _as_binary_matrix(a)
        if dtype is not bool:
            a[1, 1], a[2, 3] = 0, 2
            with pytest.raises(ValueError, match="exactly 0 or 1"):
                _as_binary_matrix(a)

    @pytest.mark.parametrize("entry", [0.5, -1, 2, float("nan"), None])
    def test_rejects_nonbinary_entries_of_any_type(self, entry):
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            _as_binary_matrix([[0, entry], [1, 0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            Game(np.zeros((2, 3)), [0.1, 0.1])

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError, match="rates"):
            Game(CHAIN, [0.1, 1.5, 0.1])

    def test_rejects_rate_length_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Game(CHAIN, [0.1, 0.1])

    def test_asymmetric_matrix_is_legal(self):
        g = Game([[0, 1], [0, 0]], [0.1, 0.1])
        assert g.matrix[0, 1] == 1 and g.matrix[1, 0] == 0

    def test_immutable(self, chain3):
        with pytest.raises(ValueError):
            chain3.rates[0] = 0.5


class TestAchievedRate:
    def test_chain_equilibrium_hits_targets(self, chain3):
        r = achieved_rate(Q_STAR, CHAIN)
        assert np.abs(r - 0.15).max() <= 5e-4

    def test_no_interference_returns_q(self):
        q = np.array([0.3, 0.7, 0.05])
        assert np.array_equal(achieved_rate(q, np.zeros((3, 3))), q)

    def test_two_player_quadratic_root(self):
        q = two_player_root(0.2)
        r = achieved_rate([q, q], fully_connected_matrix(2))
        assert np.abs(r - 0.2).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            achieved_rate([0.1, 0.2], CHAIN)


class TestBestResponse:
    def test_at_zero_returns_rates(self, chain3):
        assert np.array_equal(best_response(np.zeros(3), chain3), chain3.rates)

    def test_known_equilibrium_is_fixed(self, chain3):
        assert np.abs(best_response(Q_STAR, chain3) - Q_STAR).max() <= 5e-4

    def test_clipping_branch(self, chain3):
        # 0.15 / (1 - 0.9) = 1.5, clipped to 1
        f = best_response([0.0, 0.9, 0.0], chain3)
        assert f[0] == 1.0 and f[2] == 1.0

    def test_jammed_neighbour_gives_one(self, chain3):
        f = best_response([0.0, 1.0, 0.0], chain3)
        assert f[0] == 1.0

    def test_jammed_with_zero_rate_gives_zero(self):
        g = Game(CHAIN, [0.0, 0.15, 0.0])
        f = best_response([0.0, 1.0, 0.0], g)
        assert f[0] == 0.0

    def test_maps_into_box_and_dominates_rates(self):
        rng = np.random.default_rng(11)
        g = Game(CHAIN, [0.2, 0.6, 0.05])
        for _ in range(50):
            f = best_response(rng.uniform(0, 1, 3), g)
            assert (f >= 0).all() and (f <= 1).all()
            assert (f >= g.rates).all()

    def test_lean_response_gives_the_bits_of_the_general_path(self):
        # Without a zero product the quotient is clipped directly; a row
        # alone takes that path where the whole stack, with a jammed
        # player somewhere, takes the general one.
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            mask = rng.random((n, n)) < 0.6
            np.fill_diagonal(mask, False)
            y = rng.uniform(0.0, 0.5, n)
            y[rng.random(n) < 0.2] = 0.0
            q = rng.random((4, n))
            q[rng.random((4, n)) < 0.1] = 1.0
            prod = np.where(mask, 1.0 - q[:, np.newaxis, :], 1.0).prod(axis=-1)
            positive = prod > 0.0
            raw = np.divide(y, prod, out=np.zeros_like(prod), where=positive)
            want = np.where(positive, np.minimum(raw, 1.0), np.where(y > 0.0, 1.0, 0.0))
            assert np.array_equal(_response(q, y, mask), want)
            for k in range(len(q)):
                assert np.array_equal(_response(q[k], y, mask), want[k])
                assert np.array_equal(best_response(q[k], Game(mask.astype(int), y)), want[k])


class TestResidual:
    def test_zero_at_fixed_point(self, chain3):
        from alohagame import kleene_lfp

        point = kleene_lfp(chain3).point
        assert np.abs(residual(point, chain3)).max() <= 1e-9

    def test_at_origin_equals_rates(self, chain3):
        assert np.array_equal(residual(np.zeros(3), chain3), chain3.rates)

    def test_near_zero_at_second_fixed_point(self, chain3):
        assert np.abs(residual(P_SADDLE, chain3)).max() <= 5e-4


class TestLeq:
    def test_zero_below_everything(self):
        assert leq([0.0, 0.0, 0.0], [0.0, 0.3, 1.0])

    def test_equilibria_are_ordered(self):
        assert leq(Q_STAR, P_SADDLE)
        assert not leq(P_SADDLE, Q_STAR)

    def test_incomparable_pair(self):
        assert not leq([0.3, 0.1], [0.1, 0.3])
        assert not leq([0.1, 0.3], [0.3, 0.1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            leq([0.1], [0.1, 0.2])


class TestIsFixedPoint:
    def test_known_equilibrium_at_loose_tolerance(self, chain3):
        assert is_fixed_point(Q_STAR, chain3, tol=1e-3)

    def test_all_ones_is_extraneous_fixed_point(self, chain3):
        assert is_fixed_point(np.ones(3), chain3, tol=1e-12)

    def test_origin_is_not(self, chain3):
        assert not is_fixed_point(np.zeros(3), chain3, tol=1e-3)

    def test_requires_positive_tol(self, chain3):
        with pytest.raises(ValueError):
            is_fixed_point(Q_STAR, chain3, tol=0.0)

    def test_nan_tolerance_rejected(self, chain3):
        with pytest.raises(ValueError, match="tol must be positive"):
            is_fixed_point(Q_STAR, chain3, tol=float("nan"))

    def test_achieved_rate_matches_targets_at_interior_fixed_point(self, chain3):
        from alohagame import kleene_lfp

        point = kleene_lfp(chain3, tol=1e-14).point
        assert np.abs(achieved_rate(point, CHAIN) - chain3.rates).max() <= 1e-12
