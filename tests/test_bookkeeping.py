"""The four small-game calls, kleene_lfp, multistart_fixed_points,
stability_consistency and iterate_game, give field for field and byte for
byte what their bookkeeping on numpy arrays gives around the same numeric
cores (``reference.py``): the same points, flags, verdicts, certificates,
errors and states, with the same dtypes, shapes and write flags."""

import numpy as np
import pytest

from alohagame import (
    FixedPointSet,
    Game,
    chain_matrix,
    iterate_game,
    kleene_lfp,
    least_of,
    multistart_fixed_points,
    newton_lfp,
    stability_consistency,
)
from conftest import P_SADDLE, Q_STAR, batch_games, instance_rng, random_game
from reference import (
    consistency_by_arrays,
    interior_by_arrays,
    iterate_game_by_arrays,
    kleene_lfp_by_arrays,
    least_by_arrays,
    multistart_by_arrays,
    newton_lfp_by_arrays,
)


def _array(a):
    return type(a).__name__, a.dtype.str, a.shape, a.tobytes(), a.flags.writeable


def _value(v):
    return _array(v) if isinstance(v, np.ndarray) else (type(v).__name__, repr(v))


def _lfp(r):
    fields = ("iterations", "converged", "residual_norm", "extraneous", "infeasible")
    return _array(r.point), [_value(getattr(r, f)) for f in fields]


def _fps(f):
    return type(f.points).__name__, [_array(p) for p in f.points], _value(f.includes_extraneous)


def _verdict(v):
    fields = ("positive_definite", "diag_dominant", "classification", "clipped")
    return _array(v.point), _array(v.certificate), [_value(getattr(v, f)) for f in fields]


def _report(call, fps, game):
    try:
        c = call(fps, game)
    except ValueError as error:
        return "raised", str(error)
    return [_verdict(v) for v in c.verdicts], _value(c.least_point), _value(c.least_stable), _value(c.violation)


def _trajectory(t):
    return _array(t.states), _value(t.outcome), _value(t.epsilon), _value(t.period)


def _assert_same_calls(game, iterate_from=None, **iterate):
    """Every field of the four calls, and of the oracle's interior and least points, on one game."""
    assert _lfp(kleene_lfp(game)) == _lfp(kleene_lfp_by_arrays(game))
    fps = multistart_fixed_points(game, starts_per_axis=4, max_iter=50)
    assert _fps(fps) == _fps(multistart_by_arrays(game, starts_per_axis=4, max_iter=50))
    interior, want = fps.interior_points(), interior_by_arrays(fps)
    assert len(interior) == len(want) and all(p is q for p, q in zip(interior, want))
    if fps.points:
        assert least_of(fps, tol=1e-9) is least_by_arrays(fps, tol=1e-9)
    assert _report(stability_consistency, fps, game) == _report(consistency_by_arrays, fps, game)
    start = game.rates if iterate_from is None else iterate_from
    for epsilon in (1.0, 0.5):
        got = iterate_game(start, game, epsilon=epsilon, **iterate)
        assert _trajectory(got) == _trajectory(iterate_game_by_arrays(start, game, epsilon=epsilon, **iterate))
    return fps


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batch_games(seed):
    for game in batch_games(seed):
        _assert_same_calls(game)


def test_criterion_7_games():
    roots = 0
    for index in range(1000):
        rng = instance_rng(20240, index)
        game = random_game(rng)
        assert _lfp(kleene_lfp(game, tol=1e-12, max_iter=200_000)) == _lfp(
            kleene_lfp_by_arrays(game, tol=1e-12, max_iter=200_000)
        )
        inside = rng.uniform(0.0, game.rates)
        assert _lfp(kleene_lfp(game, inside, 1e-12, 200_000)) == _lfp(
            kleene_lfp_by_arrays(game, inside, 1e-12, 200_000)
        )
        roots += _assert_same_calls(game).n_points
    assert roots >= 1000


def test_infeasible_and_extraneous():
    # past the pair's fold the ascent climbs to the all-ones point, which
    # the oracle flags, and Newton stops with proof
    pair = Game(chain_matrix(2), [0.3, 0.3])
    lfp = kleene_lfp(pair)
    assert lfp.converged and lfp.extraneous
    assert multistart_fixed_points(pair).includes_extraneous
    _assert_same_calls(pair)
    newton = newton_lfp(pair)
    assert newton.infeasible and not newton.converged
    assert _lfp(newton) == _lfp(newton_lfp_by_arrays(pair))
    for game in (Game(chain_matrix(3), [0.15] * 3), Game(chain_matrix(3), [0.15, 0.0, 0.15])):
        assert _lfp(newton_lfp(game)) == _lfp(newton_lfp_by_arrays(game))


def test_silent_player():
    game = Game(chain_matrix(4), [0.2, 0.0, 0.25, 0.1])
    assert _assert_same_calls(game).points
    assert not kleene_lfp(game).extraneous and not multistart_fixed_points(game).includes_extraneous


def test_neighbour_at_one():
    # a player at rate 1 transmits always once it climbs there, jamming
    # its neighbours, who then climb to 1 too
    game = Game(chain_matrix(3), [1.0, 0.2, 0.1])
    lfp = kleene_lfp(game)
    assert lfp.point[0] == 1.0
    _assert_same_calls(game)


def test_budget_exhausted():
    pair = Game(chain_matrix(2), [0.25, 0.25])
    lfp = kleene_lfp(pair, max_iter=8)
    assert not lfp.converged
    assert _lfp(lfp) == _lfp(kleene_lfp_by_arrays(pair, max_iter=8))
    for epsilon in (1.0, 0.5):
        got = iterate_game(np.zeros(2), pair, max_iter=8, epsilon=epsilon)
        assert got.outcome == "budget_exhausted"
        assert _trajectory(got) == _trajectory(iterate_game_by_arrays(np.zeros(2), pair, max_iter=8, epsilon=epsilon))


@pytest.mark.parametrize("budget", [30, 100_000])
def test_cycle(chain3, budget):
    got = iterate_game(P_SADDLE, chain3, max_iter=budget, perturb=1e-6)
    assert got.outcome == "cycle"
    assert _trajectory(got) == _trajectory(iterate_game_by_arrays(P_SADDLE, chain3, max_iter=budget, perturb=1e-6))
    _assert_same_calls(chain3, iterate_from=P_SADDLE, perturb=1e-6)


def test_raised_errors(chain3):
    # a set whose interior point is not a fixed point raises the verdict's error
    fps = FixedPointSet(points=[Q_STAR + 0.01])
    assert _report(stability_consistency, fps, chain3)[0] == "raised"
    assert _report(stability_consistency, fps, chain3) == _report(consistency_by_arrays, fps, chain3)
    # incomparable points: least_of's diagnostic error, from both
    pair = FixedPointSet(points=[np.array([0.1, 0.6]), np.array([0.6, 0.1])])
    with pytest.raises(ValueError) as got:
        least_of(pair)
    with pytest.raises(ValueError) as want:
        least_by_arrays(pair)
    assert str(got.value) == str(want.value)
