"""Per-layer tracing of alohagame from outside the package.

The tracer wraps the public functions that make up each layer and
rebinds every module attribute that refers to them, so calls made
inside the package (``experiments`` calls ``best_response`` through its
own ``from .game import best_response``) go through the wrapper too.
Leaving the ``with`` block puts every replaced attribute back.

Two kinds of record are kept in memory:

* an aggregate per function: calls, self time (wall time minus the
  time spent in traced callees) and function-specific counts;
* a span (name, start, end, parent, tags) per call of the functions
  that run at item boundaries. The functions in ``HOT`` run about
  250k times in one ``sweep`` pass, so they are aggregated only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# (module, function) pairs; the modules are the layers. ``cli`` is an
# argparse front end that does no work of its own, so it is left out.
TRACED = (
    ("topology", "random_topology"),
    ("game", "best_response"),
    ("game", "success_product"),
    ("solver", "kleene_lfp"),
    ("solver", "multistart_fixed_points"),
    ("stability", "krasovskii_matrix"),
    ("stability", "sylvester_pd"),
    ("stability", "krasovskii_verdict"),
    ("stability", "stability_consistency"),
    ("dynamics", "iterate_game"),
    ("experiments", "max_common_rate"),
    ("experiments", "bifurcation_sweep"),
    ("experiments", "density_sweep"),
    ("experiments", "size_sweep"),
)

HOT = frozenset(
    {
        "game.best_response",
        "game.success_product",
        "stability.krasovskii_matrix",
        "stability.sylvester_pd",
    }
)


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, amount: int) -> None:
        self.counts[key] += amount


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    tags: dict


def alohagame_modules() -> list:
    """The imported ``alohagame`` package and its submodules."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "alohagame" or name.startswith("alohagame.")
    ]


class Tracer:
    """Per-function aggregates and item-boundary spans of one pass.

    Use as a context manager: the wrappers are installed on entry and
    removed on exit. ``clock`` returns seconds; times and spans are read
    from it.
    """

    def __init__(self, clock=perf_counter):
        self._clock = clock
        self._replaced: list = []
        self._next_id = 0
        self.stats = {
            f"{m}.{f}": FunctionStats(counts=dict.fromkeys(_COUNT_KEYS.get(f"{m}.{f}", ()), 0))
            for m, f in TRACED
        }
        self.spans: list = []
        # Open calls, innermost last: [time spent in traced callees, span id].
        self._stack: list = []

    def __enter__(self):
        for module_name, func_name in TRACED:
            original = getattr(importlib.import_module(f"alohagame.{module_name}"), func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in alohagame_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replaced.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._replaced:
            module, attr, original = self._replaced.pop()
            setattr(module, attr, original)
        return False

    @contextmanager
    def span(self, name: str, **tags):
        """Record a benchmark-level span, such as one item of a workload."""
        self._next_id += 1
        span_id = self._next_id
        parent = self._push(span_id)
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            self._pop(end - start)
            self.spans.append(Span(span_id, name, parent, start, end, tags))

    def _push(self, span_id):
        parent = self._stack[-1][1] if self._stack else None
        self._stack.append([0.0, span_id if span_id is not None else parent])
        return parent

    def _pop(self, elapsed: float) -> float:
        """Close the innermost call and return its self time."""
        child_time, _ = self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        return elapsed - child_time

    def _wrap(self, name: str, fn):
        tracer = self
        clock = self._clock

        if name in HOT:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._push(None)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self_s = tracer._pop(clock() - start)
                    stats = tracer.stats[name]
                    stats.calls += 1
                    stats.self_s += self_s

        else:
            signature = inspect.signature(fn)
            count = _COUNTERS.get(name)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
                tags = _tags(name, arguments)
                br_before = tracer.stats["game.best_response"].calls
                tracer._next_id += 1
                span_id = tracer._next_id
                parent = tracer._push(span_id)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stats = tracer.stats[name]
                    stats.calls += 1
                    stats.self_s += tracer._pop(end - start)
                    tracer.spans.append(Span(span_id, name, parent, start, end, tags))
                if count is not None:
                    br_calls = tracer.stats["game.best_response"].calls - br_before
                    count(stats, arguments, result, br_calls)
                return result

        return wrapper


def _tags(name: str, args: dict) -> dict:
    """Labels that tell apart the settings a span ran at."""
    if name == "experiments.density_sweep":
        return {"n": int(args["n"]), "densities": [float(d) for d in args["densities"]]}
    if name == "experiments.size_sweep":
        return {"density": float(args["density"]), "n_values": [int(v) for v in args["n_values"]]}
    if name == "solver.multistart_fixed_points":
        return {"n": args["game"].n}
    return {}


def _count_kleene(stats, args, result, br_calls):
    stats.add("iterations", result.iterations)


def _count_multistart(stats, args, result, br_calls):
    stats.add("starts", args["starts_per_axis"] ** args["game"].n)
    stats.add("roots", result.n_points)


def _count_iterate(stats, args, result, br_calls):
    stats.add("steps", len(result.states) - 1)


def _count_search(stats, args, result, br_calls):
    # The search accepts y = step, 2*step, ..., y_max and then makes one
    # more solve, the one that fails.
    accepted = round(result[0] / args["step"])
    stats.add("accepted", accepted)
    stats.add("solves", accepted + 1)
    stats.add("best_response_calls", br_calls)


def _count_bifurcation(stats, args, result, br_calls):
    stats.add("values", len(result.parameter_values))


_COUNT_KEYS = {
    "solver.kleene_lfp": ("iterations",),
    "solver.multistart_fixed_points": ("starts", "roots"),
    "dynamics.iterate_game": ("steps",),
    "experiments.max_common_rate": ("accepted", "solves", "best_response_calls"),
    "experiments.bifurcation_sweep": ("values",),
}

_COUNTERS = {
    "solver.kleene_lfp": _count_kleene,
    "solver.multistart_fixed_points": _count_multistart,
    "dynamics.iterate_game": _count_iterate,
    "experiments.max_common_rate": _count_search,
    "experiments.bifurcation_sweep": _count_bifurcation,
}


def layer_counts(stats: dict) -> dict:
    """Counts and ratios of one pass; they repeat exactly for one input."""
    out = {}
    for name, st in stats.items():
        out[f"{name}.calls"] = st.calls
        for key, value in st.counts.items():
            out[f"{name}.{key}"] = value
    oracle = stats["solver.multistart_fixed_points"].counts
    out["solver.multistart_fixed_points.roots_per_start"] = _ratio(oracle["roots"], oracle["starts"])
    search = stats["experiments.max_common_rate"].counts
    out["experiments.max_common_rate.br_per_solve"] = _ratio(search["best_response_calls"], search["solves"])
    out["experiments.max_common_rate.accept_ratio"] = _ratio(search["accepted"], search["solves"])
    return out


def layer_times(stats: dict) -> dict:
    """Self time in seconds of every traced function in one pass."""
    return {f"{name}.self_s": st.self_s for name, st in stats.items()}


def _ratio(num, den) -> float:
    return num / den if den else 0.0
