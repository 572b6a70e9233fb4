"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The workload's fixed input is built from ``--seed`` and run through
once per pass, closed-loop in one thread, until ``--seconds`` have
passed; every pass's outputs are checked. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the first
half of the time untraced and the second half traced and reports the
per-layer metrics. Times are scaled to a reference core speed (see
``speed.py``). The last line of standard output is one JSON object; a
fuller record, with the environment, every pass, the raw wall times
and (when traced) every span, goes to ``bench/results/``.
"""

from __future__ import annotations

import checkout

THREAD_PINS = checkout.pin_threads()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

alohagame = checkout.import_alohagame()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 7
SETUP_SAMPLES = 10
PROBE_TIMEOUT_S = 120


@dataclass
class Pass:
    traced: bool
    wall_s: float  # raw wall time of the pass's calls
    factor: float  # reference-speed scale for this pass
    latencies: list  # scaled seconds, one per item
    counts: dict | None = None
    self_s: dict | None = None

    @property
    def run_s(self) -> float:
        return self.wall_s * self.factor


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def setup_seconds(workload: str, seed: int, meter: speed.SpeedMeter) -> list:
    """Import plus input generation, timed inside fresh processes.

    The reference loop cannot run while a probe does (the parent would
    take the other core), so each probe is scaled by samples taken just
    before and just after it.
    """
    times = []
    for _ in range(SETUP_SAMPLES):
        meter.sample()
    for _ in range(SETUP_PROBES):
        since = len(meter.samples) - SETUP_SAMPLES
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        for _ in range(SETUP_SAMPLES):
            meter.sample()
        times.append(float(done.stdout.strip().splitlines()[-1]) * meter.factor(since))
    return times


def run_pass(workload, inputs, meter: speed.SpeedMeter, tracer=None):
    """One pass over the input; returns its outputs, wall time and calls.

    Each call is ``(seconds, first sample, end sample, items)``, with the
    reference samples taken during it in ``first`` up to ``end``. Times
    exclude those samples.
    """
    outputs, calls, wall = [], [], 0.0
    with meter.sampling():
        for tags, call in workload.calls(inputs):
            with tracer.span("bench.call", **tags) if tracer else contextlib.nullcontext():
                first = len(meter.samples)
                start = meter.work_clock()
                output = call()
                elapsed = meter.work_clock() - start
            wall += elapsed
            outputs.append(output)
            calls.append((elapsed, first, len(meter.samples), workload.items(output)))
    return outputs, wall, calls


def item_latencies(calls: list, meter: speed.SpeedMeter) -> list:
    """Scaled latency of every item; each item takes its call's time.

    The core's speed moves within seconds, so each call is scaled by the
    samples taken during it and the one on either side rather than by
    its pass's mean, which would leave a short call's latency at the
    mercy of the moment it ran.
    """
    latencies = []
    for elapsed, first, end, items in calls:
        latencies += [elapsed * meter.factor(max(first - 1, 0), end + 1)] * items
    return latencies


def measure(workload, inputs, seconds: float, meter, checks: Checks, traced=False, spans=None) -> list:
    """Passes over the fixed input until ``seconds`` have gone by.

    At least one pass runs, and at least two when traced, so that every
    traced run compares the counts of two passes.
    """
    passes = []
    least = 2 if traced else 1
    deadline = perf_counter() + seconds
    while len(passes) < least or perf_counter() < deadline:
        since = len(meter.samples)
        if not traced:
            outputs, wall, calls = run_pass(workload, inputs, meter)
            meter.sample()
            passes.append(Pass(False, wall, meter.factor(since), item_latencies(calls, meter)))
        else:
            tracer = tracing.Tracer(clock=meter.work_clock)
            with tracer:
                outputs, wall, calls = run_pass(workload, inputs, meter, tracer)
            meter.sample()
            factor = meter.factor(since)
            times = {name: t * factor for name, t in tracing.layer_times(tracer.stats).items()}
            latencies = item_latencies(calls, meter)
            passes.append(Pass(True, wall, factor, latencies, tracing.layer_counts(tracer.stats), times))
            spans.append([asdict(s) for s in tracer.spans])
        checks.add(*workload.check(inputs, outputs))
    return passes


def end_to_end(passes: list, setup: list) -> dict:
    latencies = [t for p in passes for t in p.latencies]
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(p.run_s for p in passes),
        "items_per_s": statistics.median(len(p.latencies) / p.run_s for p in passes),
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced: list, traced: list, checks: Checks) -> dict:
    counts = traced[0].counts
    # Counts of one input must repeat exactly; a pass that disagrees is
    # a failed check of the program's determinism.
    checks.add(len(traced), sum(p.counts != counts for p in traced))
    metrics = dict(counts)
    for name in traced[0].self_s:
        metrics[name] = statistics.median(p.self_s[name] for p in traced)
    metrics["trace.overhead_s"] = statistics.median(p.run_s for p in traced) - statistics.median(
        p.run_s for p in untraced
    )
    return metrics


def git_sha():
    if not (checkout.ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(checkout.ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def environment(args) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "alohagame": alohagame.__version__,
        "thread_pins": THREAD_PINS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_nominal_s": speed.NOMINAL_S,
    }


def main(argv=None) -> None:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    checks = Checks()
    meter = speed.SpeedMeter()
    record = {"env": environment(args)}

    if args.trace == 0:
        units = declared_units("end_to_end")
        setup = setup_seconds(args.workload, args.seed, meter)
        inputs = workload.generate(args.seed)
        passes = measure(workload, inputs, args.seconds, meter, checks)
        computed = end_to_end(passes, setup)
        record["setup_s"] = setup
    else:
        units = declared_units("per_layer")
        inputs = workload.generate(args.seed)
        spans = []
        untraced = measure(workload, inputs, args.seconds / 2, meter, checks)
        traced = measure(workload, inputs, args.seconds / 2, meter, checks, True, spans)
        passes = untraced + traced
        computed = per_layer(untraced, traced, checks)
        record["spans"] = spans

    metrics = {name: {"value": float(computed[name]), "unit": unit} for name, unit in units.items()}
    record["passes"] = [
        {"traced": p.traced, "wall_s": p.wall_s, "factor": p.factor, "run_s": p.run_s, "items": len(p.latencies)}
        for p in passes
    ]
    record["reference_samples"] = {
        "count": len(meter.samples),
        "median_s": statistics.median(meter.samples),
        "min_s": min(meter.samples),
        "max_s": max(meter.samples),
    }
    record["checks"] = {"attempted": checks.attempted, "failed": checks.failed}
    record["metrics"] = metrics
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, record in {out.relative_to(checkout.ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:50s} {m['value']:.6g} {m['unit']}")
    print(f"  error_rate {checks.failed}/{checks.attempted} checks failed")
    print(json.dumps({k: record["env"][k] for k in ("git_sha", "nproc", "python", "numpy", "scipy", "thread_pins")}))
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
