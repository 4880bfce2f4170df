#!/usr/bin/env python3
"""Benchmark of the cadorder lab: two closed-loop workloads, gated for correctness.

Run from the repository root:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

``all`` runs each workload in a child process of its own, so that
``peak_rss_mb`` is that workload's alone, and merges their results.
Each run sets up its inputs from the seed several times, repeats the
workload's iteration on the last inputs until ``--seconds`` have passed,
and sets up several times again; the metrics are medians.  The process
runs on one CPU, and every time it reports is in reference seconds: the
measured time scaled by the speed the probe thread saw meanwhile (see
``PROBE_REFERENCE_S`` and ``tracing.SpeedProbe``).  With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` iterations alternate
between untraced and traced (oracle calls timed one by one), and it holds
the per-layer metrics of the traced ones.  Names and units come from
BENCHMARK.json.  Spans, run details and gate messages are written to
``.bench_out/``.  The exit code is 0 only when every correctness gate
passed and the work counters repeated exactly across iterations.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracing import SpeedProbe, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Each round of setups runs at least SETUPS times and until SETUP_SECONDS
# have passed, so that a cheap setup still yields a steady median.
SETUPS = 2
SETUP_SECONDS = 2.0
# Spans left out of setup_s and reported per layer only.  The kernel's time
# to create the 3,036 files of a check-mixed setup ranged from 0.35 to
# 2.5 s with the file system's recent history, from run to run.
NOT_IN_SETUP_S = ("datagen.write",)
# Median time of the speed probe's kernel on the reference host (2-core
# Intel Xeon KVM guest, Python 3.11.7).  A span's reference time is its
# measured time times this over the probe's mean time during the span.
PROBE_REFERENCE_S = 90e-6

SEARCH = ("search.search_triplets",)
TRAIN = ("training.train",)
CHECKS = ("heuristics.check_n3", "heuristics.check_n8")

# Per-layer metric -> (spans it is read from, counter or "duration"/"self").
LAYER_SOURCES = {
    "features.enumerate_s": (("features.enumerate",), "duration"),
    "features.dedup_s": (("features.dedup",), "duration"),
    "features.descriptors": (("features.enumerate",), "descriptors"),
    "features.classes": (("features.dedup",), "classes"),
    "search.search_s": (SEARCH, "duration"),
    "search.self_s": (SEARCH, "self"),
    "search.triplets": (SEARCH, "triplets"),
    "search.best_cost": (SEARCH, "best_cost"),
    "costmodel.calls.search": (SEARCH, "oracle_calls"),
    "costmodel.calls.training": (TRAIN, "oracle_calls"),
    "costmodel.distinct_pairs": (("pipeline",), "distinct_pairs"),
    "costmodel.oracle_s": (SEARCH + TRAIN, "oracle_s"),
    "training.train_s": (TRAIN, "duration"),
    "training.self_s": (TRAIN, "self"),
    "training.epochs": (TRAIN, "epochs"),
    "training.val_best_cost": (TRAIN, "val_best_cost"),
    "heuristics.check_n3_s": (("heuristics.check_n3",), "duration"),
    "heuristics.check_n8_s": (("heuristics.check_n8",), "duration"),
    "heuristics.problems": (CHECKS, "problems"),
    "heuristics.mismatches": (CHECKS, "mismatches"),
    "heuristics.violations": (CHECKS, "violations"),
    "polyset.parse_s": (("polyset.parse",), "duration"),
    "polyset.problems": (("polyset.parse",), "problems"),
    "polyset.bytes": (("polyset.parse",), "bytes"),
    "datagen.generate_s": (("datagen.generate",), "duration"),
    "datagen.write_s": (("datagen.write",), "duration"),
}

# Work counters and exact results that must not vary between the
# iterations (and setups) of one invocation.
REPEATING = (
    "costmodel.calls.search",
    "costmodel.calls.training",
    "costmodel.distinct_pairs",
    "search.triplets",
    "heuristics.problems",
    "features.classes",
    "search.best_cost",
    "training.val_best_cost",
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def layer_values(tracer, run_id: str, scale: float) -> dict:
    """Per-layer values of one run, for the layers the run reached.

    Times are multiplied by ``scale``, the run's factor from measured to
    reference seconds.
    """
    spans = tracer.run_spans(run_id)
    values = {}
    for metric, (names, field) in LAYER_SOURCES.items():
        hits = [s for s in spans if s.name in names]
        if not hits:
            continue
        if field == "duration":
            values[metric] = scale * sum(s.duration for s in hits)
        elif field == "self":
            values[metric] = scale * sum(tracer.self_time(s) for s in hits)
        else:
            # Some counters exist only in traced runs (oracle time, pairs).
            counted = [s.counters[field] for s in hits if field in s.counters]
            if counted:
                values[metric] = sum(counted) * (scale if field == "oracle_s" else 1)
    calls = values.get("costmodel.calls.search", 0) + values.get("costmodel.calls.training", 0)
    if calls and "costmodel.distinct_pairs" in values:
        values["costmodel.useful_ratio"] = values["costmodel.distinct_pairs"] / calls
    return values


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def set_up(workload, tracer, workdir: Path, setup_runs: list, messages: list):
    """One round of setups; returns the inputs the last one built."""
    started = perf_counter()
    first = len(setup_runs)
    while len(setup_runs) - first < SETUPS or perf_counter() - started < SETUP_SECONDS:
        ctx = None
        i = len(setup_runs)
        run_id = f"setup{i}"
        gc.collect()
        with tracer.run(run_id, "setup"):
            ctx = workload.setup(tracer, workdir)
        setup_runs.append(run_id)
        messages += [f"setup{i}: {m}" for m in workload.check_setup(ctx)]
    return ctx


def run_workload(workload, seconds: int, trace: bool, seed: int, workdir: Path):
    """Set up, measure, set up again; returns (result, details, tracer)."""
    tracer = Tracer()
    setup_runs, messages = [], []
    rng = random.Random(seed)
    iterations = []
    with SpeedProbe() as probe:
        ctx = set_up(workload, tracer, workdir, setup_runs, messages)
        setup_failed = bool(messages)
        deadline = perf_counter() + seconds
        while True:
            i = len(iterations)
            timed = trace and i % 2 == 1
            run_id = f"iter{i}"
            gc.collect()
            with tracer.run(run_id, workload.name):
                out = workload.iterate(ctx, tracer, timed)
            outcome = workload.check(ctx, out, rng)
            del out
            failed = outcome.ops if setup_failed else outcome.failed
            iterations.append({"run_id": run_id, "traced": timed, "ops": outcome.ops,
                               "failed": failed})
            messages += [f"{run_id}: {m}" for m in outcome.messages]
            if perf_counter() >= deadline and (not trace or len(iterations) >= 2):
                break
        # A second round of setups, one run later, makes the median of
        # setup_s span two moments rather than one.
        ctx = None
        set_up(workload, tracer, workdir, setup_runs, messages)

    run_ids = setup_runs + [it["run_id"] for it in iterations]
    roots = {r: tracer.run_spans(r)[0] for r in run_ids}
    scale = {r: PROBE_REFERENCE_S / probe.mean_during(roots[r].start, roots[r].end)
             for r in run_ids}
    setup_steady = {
        r: scale[r] * (roots[r].duration - sum(
            s.duration for s in tracer.run_spans(r) if s.name in NOT_IN_SETUP_S))
        for r in setup_runs
    }
    for it in iterations:
        root = roots[it["run_id"]]
        it.update(wall_s=root.duration, steady_s=root.duration * scale[it["run_id"]])
    per_run = {r: layer_values(tracer, r, scale[r]) for r in run_ids}
    for metric in REPEATING:
        seen = {v[metric] for v in per_run.values() if metric in v}
        if len(seen) > 1:
            messages.append(f"{metric} varies across runs: {sorted(seen)}")

    attempted = sum(it["ops"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    plain = [it for it in iterations if not it["traced"]]
    if trace:
        traced_runs = setup_runs + [it["run_id"] for it in iterations if it["traced"]]
        metrics = {
            m: median_or_zero([per_run[r][m] for r in traced_runs if m in per_run[r]])
            for m in list(LAYER_SOURCES) + ["costmodel.useful_ratio"]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(it["steady_s"] for it in iterations if it["traced"])
            - statistics.median(it["steady_s"] for it in plain)
        )
    else:
        metrics = {
            "setup_s": statistics.median(setup_steady.values()),
            "wall_s": statistics.median(it["steady_s"] for it in plain),
            "ops_per_s": statistics.median(it["ops"] / it["steady_s"] for it in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_ratio": (attempted - failed) / attempted,
        }
    result = {"correct": not messages and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    details = {
        "setup_s": [roots[r].duration for r in setup_runs],
        "setup_steady_s": list(setup_steady.values()),
        "iterations": iterations,
        "messages": messages,
        "probe_samples": probe.samples,
    }
    return result, details, tracer


def with_units(metrics: dict, spec: dict, trace: bool) -> dict:
    """Attach units from BENCHMARK.json; the metric set must match it exactly."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(declared) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="pipeline | check-mixed | all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run_all(names, args) -> dict:
    """Each workload in a child process; their results merged under prefixed names."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        for line in lines[:-1]:
            print(line)
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "cadorder" / "__init__.py").is_file():
        print(f"cadorder sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, describe

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        final = run_all(names, args)
        print(json.dumps(final))
        return 0 if final["correct"] else 1

    spec = load_spec()
    trace = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    name = args.workload
    workload = WORKLOADS[name](args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-work-", dir=OUT))
    try:
        result, details, tracer = run_workload(workload, args.seconds, trace, args.seed, workdir)
    finally:
        shutil.rmtree(workdir)
    result["metrics"] = with_units(result["metrics"], spec, trace)
    meta = {
        "workload": describe(workload), "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "result": result, **details,
    }
    tracer.dump(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", meta)
    print("meta " + json.dumps({k: meta[k] for k in ("workload", "seed", "environment")}))
    for m in details["messages"]:
        print(f"gate: {name}: {m}", file=sys.stderr)
    for metric, v in result["metrics"].items():
        print(f"{name} {metric} {v['value']!r} {v['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
