"""Invariant checks on randomly generated instances."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alohagame import (
    Game,
    best_response,
    detect_cycle,
    fully_connected_matrix,
    krasovskii_matrix,
    leq,
    max_common_rate,
    random_topology,
    side_for_density,
)
from alohagame import experiments

settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("ci")


@st.composite
def games(draw, n_max=4):
    n = draw(st.integers(1, n_max))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    a = np.array(bits, dtype=int).reshape(n, n)
    np.fill_diagonal(a, 0)
    rates = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    return Game(a, rates)


def points(game, count=1, upper=1.0):
    return st.lists(
        st.lists(st.floats(0.0, upper), min_size=game.n, max_size=game.n).map(np.array),
        min_size=count,
        max_size=count,
    )


@given(st.data())
def test_response_maps_box_into_box_and_dominates_rates(data):
    game = data.draw(games())
    (q,) = data.draw(points(game))
    f = best_response(q, game)
    assert (f >= 0.0).all() and (f <= 1.0).all()
    assert (f >= game.rates).all()


@given(st.data())
def test_response_is_order_preserving(data):
    game = data.draw(games())
    (q,) = data.draw(points(game))
    (delta,) = data.draw(points(game))
    higher = np.minimum(q + delta, 1.0)
    assert leq(best_response(q, game), best_response(higher, game))


@given(st.data())
def test_ascent_from_zero_is_componentwise_nondecreasing(data):
    game = data.draw(games())
    q = np.zeros(game.n)
    for _ in range(50):
        f = best_response(q, game)
        assert (f >= q).all()
        if np.array_equal(f, q):
            break
        q = f


@given(st.data())
def test_certificate_matrix_symmetric_with_diagonal_two(data):
    game = data.draw(games())
    (q,) = data.draw(points(game, upper=0.99))
    c = krasovskii_matrix(q, game)
    assert np.array_equal(c, c.T)
    assert np.array_equal(np.diag(c), np.full(game.n, 2.0))


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5))
def test_leq_is_reflexive_and_antisymmetric(values):
    v = np.array(values)
    assert leq(v, v)
    w = v.copy()
    w[0] = min(w[0] + 0.25, 1.0)
    if not np.array_equal(v, w):
        assert not (leq(v, w) and leq(w, v))


@given(st.data())
def test_leq_is_transitive_on_ordered_triples(data):
    n = data.draw(st.integers(1, 5))
    base = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    step1 = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    step2 = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    mid = np.minimum(base + step1, 1.0)
    top = np.minimum(mid + step2, 1.0)
    assert leq(base, mid) and leq(mid, top) and leq(base, top)


@pytest.mark.parametrize("period", [2, 3, 4, 6])
def test_planted_cycles_are_found(period):
    pattern = [np.array([0.1 + 0.1 * k, 0.9 - 0.1 * k]) for k in range(period)]
    states = pattern * 6
    assert detect_cycle(states) == period


@pytest.mark.parametrize("period", [2, 3])
def test_planted_cycles_survive_sub_tolerance_noise(period):
    rng = np.random.default_rng(7)
    pattern = [np.array([0.2 + 0.2 * k]) for k in range(period)]
    states = [p + rng.uniform(-1e-8, 1e-8, 1) for p in pattern * 8]
    assert detect_cycle(states) == period


def _assert_no_common_rate_reaches_the_bound(matrix):
    """No common rate y >= 1/lambda, lambda the largest eigenvalue of the
    symmetric part of the interference matrix, passes the search's
    verdict: the bound the searches' first probe rests on."""
    n = len(matrix)
    lam = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)[-1]
    if lam == 0.0:
        return
    step = experiments.RATE_STEP
    k = experiments._below(1.0 / lam, 0.0, step) + 1
    y = round(k * step, 12)
    assert y >= 1.0 / lam > round((k - 1) * step, 12)
    (point,), margins, _ = experiments._stable_lfps(
        np.full((1, n), y), np.asarray(matrix, dtype=bool)[np.newaxis], np.zeros((1, n)), np.ones(n)
    )
    assert point is None and not margins[0] > 0.0
    assert max_common_rate(matrix)[0] < 1.0 / lam


@settings(max_examples=25)
@given(
    st.integers(2, 40),
    st.sampled_from([0.01, 0.05, 0.2, 1.0, 5.0]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["min", "max"]),
)
def test_no_common_rate_passes_at_the_first_probe_bound(n, density, seed, edge_rule):
    _assert_no_common_rate_reaches_the_bound(random_topology(n, side_for_density(n, density), seed, edge_rule)[1])


@given(games(n_max=6))
def test_no_common_rate_passes_at_the_bound_of_asymmetric_interference(game):
    _assert_no_common_rate_reaches_the_bound(np.asarray(game.matrix))


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 30, 60])
def test_no_common_rate_passes_at_the_bound_of_fully_connected(n):
    _assert_no_common_rate_reaches_the_bound(fully_connected_matrix(n))
