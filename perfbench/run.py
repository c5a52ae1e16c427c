"""Seeded benchmark for datalin.

    python3 perfbench/run.py --workload zdecide --seed 1 --seconds 20 --trace 0

Runs one workload in this single process, with no threads, from the root
of a checkout that holds `src/datalin`.  Set-up imports the library,
generates the seeded instances, writes them as instance files under
perfbench/work where the workload reads files, and warms up; it is done
several times and its median is `setup_s`.  The measured run then makes timed passes over every instance,
each pass in a fresh seeded order and on a fresh import of the library,
until `--seconds` have passed; the first pass always completes.  The fresh
import means that nothing the library keeps between calls survives from
one pass to the next, so a cache shows only where one pass reuses it.
Every answer is checked against what is known about its instance, and a
wrong answer ends the run with exit code 1 and no result line.

The host's speed drifts: a fixed loop runs at its floor only now and then,
and most of the time up to half again slower, in stretches of seconds to
minutes.  So an instance's latency is its median time over the passes
(what the instance costs relative to the others) times the run's floor
factor: the FLOOR_SHARE quantile, over every timed operation of the run,
of its time over its instance's median.  That factor comes from thousands
of operations, not from the few passes of one instance, so the estimate
is what the code costs when nothing else interferes, and it moves little
with the share of slow stretches in a run.  The latency metrics are the
median and 90th percentile of these latencies over instances, and
`instances_per_s` is the instance count over their sum.

With `--trace 1` the run alternates untraced passes and passes with spans
on datalin's public functions, each on its own fresh import; the wrappers
are installed before each traced pass and removed after it.  It reports
the per-layer metrics of the traced passes (counts from the first, times
as medians) and the tracing overhead, and writes the first traced pass's
spans to perfbench/out.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import gen
import tracing
from workloads import WORKLOADS, WrongAnswer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
OUT = HERE / "out"

SETUP_REPEATS = 5  # set-ups per run; setup_s is their median
FLOOR_SHARE = 0.01  # quantile of time over instance median: the floor factor
WARMUP = 5  # instances run once, untimed, at the end of each set-up

E2E_UNITS = {
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

clock = time.perf_counter


def import_library():
    """A fresh import of datalin and its modules, so that every set-up
    pays the import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "datalin"]:
        del sys.modules[name]
    package = importlib.import_module("datalin")
    for module in tracing.MODULES:
        importlib.import_module(f"datalin.{module}")
    return package


def write_instances(cases, workdir: Path) -> list:
    """One instance file per case, in an emptied directory; their paths."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    paths = []
    for case in cases:
        path = workdir / f"{case.name}.json"
        path.write_bytes(gen.instance_bytes(case))
        paths.append(str(path))
    return paths


def fresh(workload, cases, paths):
    """A fresh import of the library and the inputs prepared for it.  The
    previous import is collected first, so that peak memory does not
    depend on how many passes a run makes."""
    gc.collect()
    lib = import_library()
    return lib, [workload.prepare(lib, c, p) for c, p in zip(cases, paths)]


def setup(workload, seed: int, workdir: Path):
    cases = workload.cases(seed)
    if workload.files:
        paths = write_instances(cases, workdir)
    else:
        paths = [None] * len(cases)
    lib, prepared = fresh(workload, cases, paths)
    run_pass(workload, lib, cases, prepared, range(min(WARMUP, len(cases))))
    return cases, paths


def run_pass(workload, lib, cases, prepared, order, deadline=None, tracer=None):
    """Time the operation on each instance in `order` and check its answer;
    stop before an instance once `deadline` has passed.  Returns
    [(instance index, seconds, Outcome)]."""
    records = []
    for i in order:
        if deadline is not None and clock() >= deadline:
            break
        try:
            if tracer:
                tracer.instance = i
                tracer.enabled = True
            start = clock()
            result = workload.run(lib, prepared[i])
            seconds = clock() - start
            if tracer:
                tracer.enabled = False
            outcome = workload.check(lib, cases[i], prepared[i], result)
        except WrongAnswer as exc:
            raise WrongAnswer(f"instance {cases[i].name}: {exc}") from None
        except Exception as exc:
            raise WrongAnswer(
                f"instance {cases[i].name}: {type(exc).__name__}: {exc}"
            ) from exc
        finally:
            if tracer:
                tracer.enabled = False
        records.append((i, seconds, outcome))
    return records


def shuffled(n: int, rng: random.Random) -> list:
    order = list(range(n))
    rng.shuffle(order)
    return order


class Counts:
    """Operations attempted and failed, summed over passes."""

    def __init__(self):
        self.attempted = self.failed = self.samples = 0

    def add(self, records) -> None:
        for _, _, outcome in records:
            self.attempted += outcome.attempted
            self.failed += outcome.failed
        self.samples += len(records)


def floor_latencies(times):
    """Each instance's median time times the run's floor factor, and that
    factor, from every instance's list of timed passes."""
    medians = [statistics.median(t) for t in times]
    ratios = sorted(sec / m for t, m in zip(times, medians) for sec in t)
    floor = ratios[int(FLOOR_SHARE * len(ratios))]
    return [floor * m for m in medians], floor


def measured_run(workload, cases, paths, seconds, rng):
    deadline = clock() + seconds
    counts, passes = Counts(), 0
    times = [[] for _ in cases]
    while not passes or clock() < deadline:
        lib, prepared = fresh(workload, cases, paths)
        records = run_pass(workload, lib, cases, prepared,
                           shuffled(len(cases), rng),
                           deadline if passes else None)
        if not passes:
            terms = [o.terms for _, _, o in records if o.terms is not None]
        counts.add(records)
        for i, sec, _ in records:
            times[i].append(sec)
        passes += 1
    latency, floor = floor_latencies(times)
    e2e = {
        "instances_per_s": len(cases) / sum(latency),
        "latency_p50_ms": 1e3 * statistics.median(latency),
        "latency_p90_ms": 1e3 * statistics.quantiles(
            latency, n=10, method="inclusive")[8],
    }
    extra = {
        "instances": (len(cases), "count"),
        "passes": (passes, "count"),
        "samples": (counts.samples, "count"),
        "floor_factor": (floor, "ratio"),
    }
    if terms:
        extra["witness_terms_mean"] = (statistics.mean(terms), "count")
    return counts, e2e, extra


def traced_run(workload, cases, paths, seconds, rng, spans_path):
    """Alternate untraced and traced passes over the same order, each on a
    fresh import; only the traced passes run through the wrappers."""
    deadline = clock() + seconds
    counts, walls, traced_walls, layers = Counts(), [], [], []
    while not layers or clock() < deadline:
        order = shuffled(len(cases), rng)
        lib, prepared = fresh(workload, cases, paths)
        plain = run_pass(workload, lib, cases, prepared, order)
        lib, prepared = fresh(workload, cases, paths)
        tracer = tracing.Tracer(lib)
        tracer.install()
        try:
            traced = run_pass(workload, lib, cases, prepared, order,
                              tracer=tracer)
        finally:
            tracer.restore()
        counts.add(plain + traced)
        walls.append(sum(sec for _, sec, _ in plain))
        traced_walls.append(sum(sec for _, sec, _ in traced))
        spans = tracer.take()
        layers.append(tracing.layer_metrics(spans, traced_walls[-1]))
        if len(layers) == 1:
            OUT.mkdir(exist_ok=True)
            tracing.write_spans(spans_path, spans, [c.name for c in cases])
        del spans
    metrics = {}
    for name, unit in tracing.LAYER_METRICS.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(walls)
        elif unit == "count":
            value = layers[0][name]
        else:
            value = statistics.median(layer[name] for layer in layers)
        metrics[name] = value
    extra = {
        "passes": (len(layers), "count"),
        "untraced_pass_s": (statistics.median(walls), "s"),
        "traced_pass_s": (statistics.median(traced_walls), "s"),
    }
    return counts, metrics, extra


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "datalin" / "__init__.py").is_file():
        print(f"error: datalin sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-{args.seed}"
    workdir = WORK / tag
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = clock()
            cases, paths = setup(workload, args.seed, workdir)
            setup_times.append(clock() - start)
        rng = random.Random(f"order:{tag}")
        if args.trace:
            counts, metrics, extra = traced_run(
                workload, cases, paths, args.seconds, rng,
                OUT / f"spans-{tag}.json.gz")
            units = tracing.LAYER_METRICS
        else:
            counts, metrics, extra = measured_run(
                workload, cases, paths, args.seconds, rng)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            units = E2E_UNITS
    except WrongAnswer as exc:
        if exc.__cause__ is not None:
            traceback.print_exception(exc.__cause__, file=sys.stderr)
        print(f"wrong answer: workload {args.workload}, seed {args.seed}, "
              f"{exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    attempted, failed = counts.attempted, counts.failed
    extra["fail_ratio"] = (failed / attempted, "ratio")
    for name, (value, unit) in extra.items():
        print(f"# {name} = {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
