"""The input contract: every public entry point rejects a bad tolerance,
step, budget, count or start by one of the four rules in ``game.py``,
naming the argument, before it evaluates the response map."""

import importlib
import inspect
import pkgutil
import traceback

import numpy as np
import pytest

import alohagame
from alohagame import (
    Game,
    bifurcation_sweep,
    chain_matrix,
    density_sweep,
    feasible_contour,
    fit_power_law,
    integrate_ode,
    is_fixed_point,
    iterate_game,
    kleene_lfp,
    krasovskii_verdict,
    least_of,
    max_common_rate,
    max_demand_scale,
    max_probability_scale,
    multistart_fixed_points,
    newton_lfp,
    random_topology,
    roa_estimate,
    side_for_density,
    size_sweep,
)
from alohagame import game as game_module
from conftest import Q_STAR
from reference import positive_finite_by_array

CHAIN = chain_matrix(3)
GAME = Game(CHAIN, [0.15] * 3)

# entry point -> argument -> call with a bad value in that argument
TABLE = {
    "is_fixed_point": {"tol": lambda v: is_fixed_point(Q_STAR, GAME, tol=v)},
    "kleene_lfp": {
        "tol": lambda v: kleene_lfp(GAME, tol=v),
        "max_iter": lambda v: kleene_lfp(GAME, max_iter=v),
        "q0": lambda v: kleene_lfp(GAME, q0=v),
    },
    "newton_lfp": {
        "max_iter": lambda v: newton_lfp(GAME, max_iter=v),
        "q0": lambda v: newton_lfp(GAME, q0=v),
    },
    "multistart_fixed_points": {
        "starts_per_axis": lambda v: multistart_fixed_points(GAME, starts_per_axis=v),
        "max_iter": lambda v: multistart_fixed_points(GAME, max_iter=v),
    },
    "krasovskii_verdict": {"fp_tol": lambda v: krasovskii_verdict(Q_STAR, GAME, fp_tol=v)},
    "iterate_game": {
        "tol": lambda v: iterate_game(GAME.rates, GAME, tol=v),
        "max_iter": lambda v: iterate_game(GAME.rates, GAME, max_iter=v),
        "q0": lambda v: iterate_game(v, GAME),
    },
    "integrate_ode": {
        "dt": lambda v: integrate_ode(GAME.rates, GAME, dt=v),
        "tol": lambda v: integrate_ode(GAME.rates, GAME, tol=v),
        "q0": lambda v: integrate_ode(v, GAME),
    },
    "bifurcation_sweep": {"step": lambda v: bifurcation_sweep(CHAIN, GAME.rates, 1, (0.0, 0.3), step=v)},
    "max_common_rate": {"step": lambda v: max_common_rate(CHAIN, step=v)},
    "feasible_contour": {"step": lambda v: feasible_contour(CHAIN, [0.15], [0.15], step=v)},
    "max_demand_scale": {"step": lambda v: max_demand_scale(GAME, step=v)},
    "max_probability_scale": {"step": lambda v: max_probability_scale(GAME, Q_STAR, step=v)},
    "roa_estimate": {"resolution": lambda v: roa_estimate(GAME, Q_STAR, resolution=v)},
    "density_sweep": {
        "step": lambda v: density_sweep(4, [0.3], 1, step=v),
        "trials": lambda v: density_sweep(4, [0.3], v),
    },
    "size_sweep": {
        "step": lambda v: size_sweep(0.3, [4], 1, step=v),
        "trials": lambda v: size_sweep(0.3, [4], v),
    },
    "side_for_density": {
        "n": lambda v: side_for_density(v, 0.1),
        "density": lambda v: side_for_density(20, v),
    },
    "random_topology": {
        "n": lambda v: random_topology(v, 10.0, seed=0),
        "side": lambda v: random_topology(5, v, seed=0),
    },
    "fit_power_law": {
        "x": lambda v: fit_power_law([0.05, v, 0.5], [1.0, 2.0, 3.0]),
        "y": lambda v: fit_power_law([0.05, 0.2, 0.5], [1.0, v, 3.0]),
    },
}

POSITIVE = [np.nan, np.inf, 0.0, -1.0]
COUNT = [0, -5, 2.5]
START = [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0]]
BAD_VALUES = {
    "tol": POSITIVE,
    "fp_tol": POSITIVE,
    "step": POSITIVE + [1e-13, 1e-320],
    "dt": POSITIVE,
    "density": POSITIVE,
    "side": POSITIVE,
    "x": POSITIVE,
    "y": POSITIVE,
    "max_iter": COUNT,
    "starts_per_axis": COUNT,
    "trials": COUNT,
    "n": COUNT,
    "resolution": COUNT,
    "q0": START,
}

CASES = [
    pytest.param(entry, arg, value, id=f"{entry}-{arg}-{value}")
    for entry, calls in TABLE.items()
    for arg in calls
    for value in BAD_VALUES[arg]
]

RULES = {"_check_positive_finite", "_check_step", "_check_count", "_check_start"}

# Parameters the signature walk checks for a table entry.
WATCHED = {"tol", "fp_tol", "step", "dt", "max_iter", "starts_per_axis", "resolution", "q0"}
# Watched names whose domain is not the contract's: least_of's tol is a
# comparison slack, where 0 keeps the comparisons exact, and
# RoaEstimate's resolution is a result's field, not an input.
OTHER_DOMAIN = {("least_of", "tol"), ("RoaEstimate", "resolution")}


def _refuse_best_response(monkeypatch) -> None:
    """Rebind the response map in every package module to a wrapper that fails the test.

    ``best_response`` and the batched paths all evaluate ``game._response``.
    """

    def refused(q, rates, matrix):
        raise AssertionError("best_response evaluated before the arguments were checked")

    for info in pkgutil.iter_modules(alohagame.__path__):
        module = importlib.import_module(f"alohagame.{info.name}")
        if getattr(module, "_response", None) is game_module._response:
            monkeypatch.setattr(module, "_response", refused)


@pytest.mark.parametrize("entry, arg, value", CASES)
def test_bad_input_is_refused_by_a_contract_rule(monkeypatch, entry, arg, value):
    _refuse_best_response(monkeypatch)
    with pytest.raises(ValueError) as excinfo:
        TABLE[entry][arg](value)
    assert str(excinfo.value).startswith(f"{arg} ")
    raised_in = traceback.extract_tb(excinfo.tb)[-1]
    assert raised_in.filename == game_module.__file__ and raised_in.name in RULES, raised_in


# Arguments outside the four rules' domains, each refused with a
# ValueError naming it before any response evaluation.
SHAPE_AND_INDEX = {
    "varying_index-1.5": ("varying_index", lambda: bifurcation_sweep(CHAIN, GAME.rates, 1.5, (0.0, 0.3), 0.01)),
    "varying_index-str": ("varying_index", lambda: bifurcation_sweep(CHAIN, GAME.rates, "1", (0.0, 0.3), 0.01)),
    "fixed_rates-short": ("fixed_rates", lambda: bifurcation_sweep(CHAIN, [0.15, 0.15], 2, (0.0, 0.3), 0.01)),
    "q_s-stack": ("q_s", lambda: krasovskii_verdict(np.stack([Q_STAR, Q_STAR]), GAME, fp_tol=1e-3)),
    "q_s-short": ("q_s", lambda: krasovskii_verdict(Q_STAR[:2], GAME, fp_tol=1e-3)),
    "q_s-scalar": ("q_s", lambda: krasovskii_verdict(0.2, GAME, fp_tol=1e-3)),
    "q_star-short": ("q_star", lambda: max_probability_scale(GAME, Q_STAR[:2])),
    "q_star-stack": ("q_star", lambda: max_probability_scale(GAME, np.stack([Q_STAR, Q_STAR]))),
    "dt-uncountable": ("dt", lambda: integrate_ode(GAME.rates, GAME, dt=1e-320)),
    "dt-uncountable-t_end": ("dt", lambda: integrate_ode(GAME.rates, GAME, dt=0.01, t_end=1e308)),
    "step-too-many-values": ("step", lambda: bifurcation_sweep(CHAIN, GAME.rates, 1, (0.0, 0.3), 1e-12)),
    "step-too-wide-a-range": ("step", lambda: bifurcation_sweep(CHAIN, GAME.rates, 1, (0.0, 1e300), 0.01)),
    "epsilon-str": ("epsilon", lambda: iterate_game(GAME.rates, GAME, epsilon="0.5")),
    "epsilon-none": ("epsilon", lambda: iterate_game(GAME.rates, GAME, epsilon=None)),
    "epsilon-vector": ("epsilon", lambda: iterate_game(GAME.rates, GAME, epsilon=np.array([0.5, 0.5]))),
    "epsilon-one-element": ("epsilon", lambda: iterate_game(GAME.rates, GAME, epsilon=np.array([0.5]))),
    "perturb-str": ("perturb", lambda: iterate_game(GAME.rates, GAME, perturb="x")),
    "perturb-none": ("perturb", lambda: iterate_game(GAME.rates, GAME, perturb=None)),
    "perturb-short": ("perturb", lambda: iterate_game(GAME.rates, GAME, perturb=[0.1, 0.2])),
    "matrix-scalar": ("interference matrix", lambda: feasible_contour(5, [0.1], [0.1])),
    "matrix-ragged": ("interference matrix", lambda: feasible_contour([[0, 1, 0], [1, 0]], [0.1], [0.1])),
}


@pytest.mark.parametrize("case", list(SHAPE_AND_INDEX))
def test_bad_shape_or_index_is_refused_before_any_evaluation(monkeypatch, case):
    arg, call = SHAPE_AND_INDEX[case]
    _refuse_best_response(monkeypatch)
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value).startswith(f"{arg} ")


EMPTY = np.zeros((0, 0))
EMPTY_MATRIX = {
    "Game": lambda: Game(EMPTY, []),
    "max_common_rate": lambda: max_common_rate(EMPTY),
    "bifurcation_sweep": lambda: bifurcation_sweep(EMPTY, [], 0, (0.0, 0.3), 0.01),
}


@pytest.mark.parametrize("case", list(EMPTY_MATRIX))
def test_interference_matrix_without_players_is_refused(monkeypatch, case):
    _refuse_best_response(monkeypatch)
    with pytest.raises(ValueError, match="interference matrix must have at least one player"):
        EMPTY_MATRIX[case]()


def test_nan_point_is_still_not_a_fixed_point():
    with pytest.raises(ValueError, match="not a fixed point"):
        krasovskii_verdict(np.full(3, np.nan), GAME)


def test_every_watched_public_parameter_is_in_the_table():
    missing = []
    for name in alohagame.__all__:
        obj = getattr(alohagame, name)
        if not callable(obj):
            continue
        for param in inspect.signature(obj).parameters:
            if param in WATCHED and param not in TABLE.get(name, {}) and (name, param) not in OTHER_DOMAIN:
                missing.append(f"{name}({param})")
    assert missing == []


# Values of every Python and numpy type a scalar argument may arrive as.
SCALARS = {
    "float": 1e-3,
    "float-zero": 0.0,
    "float-negative-zero": -0.0,
    "float-negative": -2.5,
    "float-nan": float("nan"),
    "float-inf": float("inf"),
    "float-minus-inf": -float("inf"),
    "float-tiny": 5e-324,
    "float-huge": 1.7e308,
    "int": 3,
    "int-zero": 0,
    "int-negative": -1,
    "int-huge": 10**400,
    "bool": True,
    "float64": np.float64(0.5),
    "float64-nan": np.float64("nan"),
    "float32": np.float32(0.5),
    "float32-inf": np.float32("inf"),
    "int64": np.int64(7),
    "int64-negative": np.int64(-7),
    "0-d": np.array(0.5),
    "0-d-negative": np.array(-0.5),
    "0-d-nan": np.array(np.nan),
    "str": "0.5",
    "str-negative": "-1",
    "str-nan": "nan",
    "str-word": "x",
    "none": None,
    "list": [0.1, 0.2],
    "list-with-zero": [0.1, 0.0],
}


def _outcome(check, value):
    try:
        check(value, "tol")
    except Exception as error:  # the outcome under test, whatever it is
        return type(error), str(error)
    return None


@pytest.mark.parametrize("value", list(SCALARS.values()), ids=list(SCALARS))
def test_scalar_check_keeps_the_array_rule(value):
    """The scalar rule takes the array rule's outcome and message on every type it may be given."""
    assert _outcome(game_module._check_positive_finite, value) == _outcome(positive_finite_by_array, value)


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf"), "1e-9", None, np.array([0.0, 1e-9])])
def test_least_of_refuses_a_tolerance_that_is_not_a_nonnegative_finite_number(tol):
    # a bad slack is named as such, not reported as incomparable points
    fps = multistart_fixed_points(GAME)
    with pytest.raises(ValueError) as excinfo:
        least_of(fps, tol=tol)
    assert str(excinfo.value).startswith("tol must be a nonnegative finite number")


@pytest.mark.parametrize("tol", [0.0, 0, 1e-9, np.float64(1e-9)])
def test_least_of_keeps_a_nonnegative_finite_tolerance(tol):
    fps = multistart_fixed_points(GAME)
    assert least_of(fps, tol=tol) is least_of(fps)
