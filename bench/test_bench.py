"""Tests of the benchmark itself: seeded inputs, tracing, output checks.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import dataclasses
import pickle
import signal
from time import perf_counter

import pytest

import alohagame as ag
import speed
import tracer as tracing
import workloads as wl


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generators_are_deterministic(name):
    generate = wl.WORKLOADS[name].generate
    assert pickle.dumps(generate(5)) == pickle.dumps(generate(5))


@pytest.mark.parametrize("name", ["sweep", "batch"])
def test_seeds_give_different_inputs(name):
    generate = wl.WORKLOADS[name].generate
    assert pickle.dumps(generate(5)) != pickle.dumps(generate(6))


def test_sweep_input_holds_the_set_number_of_pair_limited_trials():
    for s in wl.generate_sweep(3):
        assert len(s.trials) == wl.SWEEP_TRIALS
        flags = sum(wl.pair_limited(t.matrix) for t in s.trials)
        assert flags == wl.SWEEP_PAIR_LIMITED.get(s.density, 0)


def _small_sweep():
    return (wl.Setting("size", 10, 0.1, 17, wl._trials(10, 0.1, 17)),)


def _small_fold():
    return wl.FoldInput(ag.chain_matrix(3), (0.15, 0.15, 0.15), 1, (0.235, 0.255))


def _run(name, inputs):
    return [call() for _, call in wl.WORKLOADS[name].calls(inputs)]


def _run_traced(name, inputs, tracer):
    for tags, call in wl.WORKLOADS[name].calls(inputs):
        with tracer.span("bench.call", **tags):
            call()


def _module_attributes():
    return {m.__name__: dict(vars(m)) for m in tracing.alohagame_modules()}


def test_traced_run_restores_module_attributes():
    before = _module_attributes()
    games = wl.generate_batch(2)[:4]
    original = ag.experiments.best_response
    with tracing.Tracer() as tracer:
        assert ag.experiments.best_response is not original
        assert ag.solver.best_response is ag.game.best_response
        _run_traced("batch", games, tracer)
    after = _module_attributes()
    assert before.keys() <= after.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        assert all(after[name][k] is v for k, v in attrs.items()), name
    assert tracer.stats["solver.multistart_fixed_points"].calls == 4


def test_traced_counts_repeat_and_self_times_fit_in_spans():
    inputs = _small_sweep()
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            _run_traced("sweep", inputs, tracer)
        counts.append(tracing.layer_counts(tracer.stats))
        spans = {s.name: s for s in tracer.spans}
        call = spans["bench.call"]
        assert spans["experiments.size_sweep"].parent == call.id
        assert 0.0 < sum(st.self_s for st in tracer.stats.values()) <= call.end - call.start
    assert counts[0] == counts[1]
    c = counts[0]
    assert c["experiments.max_common_rate.calls"] == wl.SWEEP_TRIALS
    assert c["experiments.max_common_rate.solves"] > wl.SWEEP_TRIALS
    assert 0.0 < c["experiments.max_common_rate.accept_ratio"] < 1.0
    assert c["experiments.max_common_rate.br_per_solve"] >= 1.0
    # Every trial span hangs under the call of the setting it ran at.
    sweep = spans["experiments.size_sweep"]
    assert sweep.tags == {"density": 0.1, "n_values": [10]}
    assert spans["bench.call"].tags == {"n": 10, "density": 0.1}
    trials = [s for s in tracer.spans if s.name == "experiments.max_common_rate"]
    assert len(trials) == wl.SWEEP_TRIALS and {s.parent for s in trials} == {sweep.id}


def test_sweep_checks_flag_corrupted_records():
    inputs = _small_sweep()
    (records,) = _run("sweep", inputs)
    assert wl.check_sweep(inputs, [records]) == (1 + 4 * wl.SWEEP_TRIALS, 0)

    nudged = [dataclasses.replace(records[0], point=records[0].point + 1e-6)] + records[1:]
    assert wl.check_sweep(inputs, [nudged])[1] > 0
    off_grid = [dataclasses.replace(records[0], max_common_rate=records[0].max_common_rate + 0.0005)] + records[1:]
    assert wl.check_sweep(inputs, [off_grid])[1] > 0


def test_fold_checks_flag_corrupted_branches():
    inputs = _small_fold()
    (branch,) = _run("fold", inputs)
    assert wl.WORKLOADS["fold"].items(branch) == 5
    attempted, failed = wl.check_fold(inputs, [branch])
    assert attempted > 1 and failed == 0

    shifted = dataclasses.replace(branch, critical_value=branch.critical_value + 0.01)
    assert wl.check_fold(inputs, [shifted])[1] == 1
    row = list(branch.branches[0])
    row[0] = dataclasses.replace(row[0], point=row[0].point + 1e-6)
    nudged = dataclasses.replace(branch, branches=[row] + branch.branches[1:])
    assert wl.check_fold(inputs, [nudged])[1] > 0


def test_batch_checks_flag_corrupted_outputs():
    games = wl.generate_batch(4)[:9]
    outputs = _run("batch", games)
    assert len(outputs) == 9
    attempted, failed = wl.check_batch(games, outputs)
    assert attempted > 9 and failed == 0

    index = next(i for i, out in enumerate(outputs) if out.roots.interior_points())
    out = outputs[index]
    root = out.roots.points[0] + 1e-6
    off_root = dataclasses.replace(out, roots=ag.FixedPointSet([root] + out.roots.points[1:]))
    lifted = dataclasses.replace(out, lfp=dataclasses.replace(out.lfp, point=out.lfp.point + 0.01))
    for bad in (off_root, lifted):
        corrupted = outputs[:index] + [bad] + outputs[index + 1 :]
        assert wl.check_batch(games, corrupted)[1] > 0


def test_speed_meter_samples_during_the_block_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    meter = speed.SpeedMeter()
    with meter.sampling():
        wall, work = perf_counter(), meter.work_clock()
        while perf_counter() - wall < 0.3:
            pass
        wall, work = perf_counter() - wall, meter.work_clock() - work
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 3
    # The work clock stands still while the samples are taken.
    assert work == pytest.approx(wall - sum(meter.samples), abs=5e-3)
    assert meter.factor(0) > 0.0
