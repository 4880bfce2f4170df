"""The benchmark's workloads.

Each workload is a closed loop: the next iteration starts when the
previous one ends.  ``setup`` builds the inputs from the seed, ``iterate``
is the measured call sequence, and ``check`` runs the correctness gates
outside the measured time.  Spans are opened around the calls into each
layer; their names are what ``run.py`` turns into per-layer metrics.

Why these two:

* ``pipeline`` is what a lab user waits for: the stages of
  ``scripts/run_pipeline.py`` at its defaults.  Grammar dedup, the
  triplet search with its oracle, and training all run here.
* ``check-mixed`` is ``cadorder check`` on parsed files: thousands of
  n=3 problems through the thread pool and a few dozen n=8 problems
  through the explicit n! output layer.  It uses no oracle and no search.
"""

from __future__ import annotations

import json
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path

from cadorder.costmodel import SyntheticCostModel
from cadorder.datagen import GenConfig, random_dataset, write_dataset
from cadorder.features import (
    FeatureSet,
    dedup_features,
    default_probe,
    enumerate_descriptors,
    selected_triplet,
)
from cadorder.heuristics import check_equivalence
from cadorder.polyset import parse_problem
from cadorder.search import search_triplets
from cadorder.training import TrainableNetwork, TrainConfig, train

import gates
from tracing import CountingOracle, Tracer, TracingOracle

# Random triplets re-priced per search report to confirm rank 1 is minimal.
GATE_SAMPLES = 20

# Threads of ``check_equivalence`` on ``check-mixed``, as ``cadorder check --jobs 2``.
CHECK_JOBS = 2


@dataclass
class Outcome:
    """What one measured iteration did, as the gates judged it."""

    ops: int
    failed: int
    messages: list


def _oracle(ctx, timed: bool) -> CountingOracle:
    """The workload's oracle, wrapped; only traced runs time and collect pairs."""
    return (TracingOracle if timed else CountingOracle)(ctx["oracle"])


def _search_span(tracer: Tracer, pool, dataset, oracle: CountingOracle):
    with tracer.span("search.search_triplets") as s:
        report = search_triplets(pool, dataset, oracle, top_k=10, jobs=1)
    oracle.fold_into(s)
    s.counters["triplets"] = report.triplet_count
    s.counters["best_cost"] = report.ranked[0]["total_cost"]
    return report


def _dedup_spans(tracer: Tracer, probe):
    with tracer.span("features.enumerate") as s:
        candidates = enumerate_descriptors()
    s.counters["descriptors"] = len(candidates)
    with tracer.span("features.dedup") as s:
        fs = dedup_features(candidates, probe)
    s.counters["classes"] = len(fs)
    return candidates, fs


def _generate(tracer: Tracer, cfg: GenConfig, count: int):
    with tracer.span("datagen.generate") as s:
        data = random_dataset(cfg, count)
    s.add("problems", count)
    return data


def _probe(tracer: Tracer, count: int):
    with tracer.span("datagen.generate") as s:
        probe = default_probe(count)
    s.add("problems", len(probe))
    return probe


class Pipeline:
    """``scripts/run_pipeline.py`` with its defaults, through the same calls."""

    name = "pipeline"

    def __init__(self, seed: int, search_count=150, train_count=600, val_count=200,
                 pool_size=10, epochs=30, probe_count=200):
        self.sizes = dict(search_count=search_count, train_count=train_count,
                          val_count=val_count, pool_size=pool_size, epochs=epochs,
                          probe_count=probe_count)
        self.input_seeds = {"search": 3 * seed + 1, "train": 3 * seed + 2, "val": 3 * seed + 3}

    def setup(self, tracer: Tracer, workdir: Path) -> dict:
        z = self.sizes
        return {
            "workdir": workdir,
            "oracle": SyntheticCostModel(),
            "probe": _probe(tracer, z["probe_count"]),
            "search": _generate(tracer, GenConfig(seed=self.input_seeds["search"]), z["search_count"]),
            "train": _generate(tracer, GenConfig(seed=self.input_seeds["train"]), z["train_count"]),
            "val": _generate(tracer, GenConfig(seed=self.input_seeds["val"]), z["val_count"]),
        }

    def check_setup(self, ctx) -> list[str]:
        return []

    def iterate(self, ctx, tracer: Tracer, timed: bool):
        z = self.sizes
        oracle = _oracle(ctx, timed)
        out = ctx["workdir"] / "reports"
        out.mkdir(exist_ok=True)
        candidates, fs = _dedup_spans(tracer, ctx["probe"])
        fs.save(out / "features.json")
        pool = FeatureSet.from_descriptors(fs.descriptors[: z["pool_size"]])
        report = _search_span(tracer, pool, ctx["search"], oracle)
        report.save_json(out / "search.json")
        report.save_csv(out / "search.csv")
        winner = tuple(pool.descriptors[i] for i in report.ranked[0]["features"])
        cfg = TrainConfig(learning_rate=0.05, epochs=z["epochs"], batch_size=64)
        start = TrainableNetwork.brown_init(winner, base_weight=2.0)
        with tracer.span("training.train") as s:
            result = train(start, ctx["train"], ctx["val"], oracle, cfg)
        oracle.fold_into(s)
        s.counters["epochs"] = len(result.entries) - 1
        s.counters["val_best_cost"] = result.best_val_cost
        (out / "train.json").write_text(json.dumps(result.to_json(), indent=2) + "\n")
        if timed:
            tracer.current.counters["distinct_pairs"] = len(oracle.pairs)
        return {"candidates": candidates, "fs": fs, "pool": pool, "report": report,
                "start": start, "result": result}

    def check(self, ctx, out, rng: random.Random) -> Outcome:
        stages = {
            "features": gates.pool_failures(out["fs"], out["candidates"], ctx["probe"]),
            "search": gates.search_failures(out["report"], out["pool"], ctx["search"], rng, GATE_SAMPLES),
            "training": gates.training_failures(out["result"], out["start"], ctx["train"],
                                                ctx["val"]),
        }
        messages = [f"{k}: {m}" for k, ms in stages.items() for m in ms]
        failed = sum(1 for ms in stages.values() if ms)
        return Outcome(len(stages), failed, messages)


class CheckMixed:
    """``cadorder check`` on files: parse, then n=3 and n=8 as two calls."""

    name = "check-mixed"

    def __init__(self, seed: int, n3_count=3000, n8_count=36):
        self.sizes = dict(n3_count=n3_count, n8_count=n8_count, jobs=CHECK_JOBS)
        self.input_seeds = {"n3": seed, "n8": seed}

    def setup(self, tracer: Tracer, workdir: Path) -> dict:
        z = self.sizes
        ctx = {"generated": {}, "dirs": {}}
        # A fresh directory for every setup: ext4 flushes a file that is
        # truncated and rewritten when it is closed, so overwriting the
        # files of an earlier setup took 4x as long, and varied with the disk.
        out = Path(tempfile.mkdtemp(prefix="setup-", dir=workdir))
        for key, n_vars in (("n3", 3), ("n8", 8)):
            cfg = GenConfig(n_vars=n_vars, seed=self.input_seeds[key])
            data = [pr.with_id(f"{key}-{i}") for i, pr in
                    enumerate(_generate(tracer, cfg, z[f"{key}_count"]))]
            with tracer.span("datagen.write"):
                ctx["dirs"][key] = write_dataset(data, out / key, cfg)
            ctx["generated"][key] = data
        return ctx

    def check_setup(self, ctx) -> list[str]:
        return []

    def iterate(self, ctx, tracer: Tracer, timed: bool):
        parsed = {}
        with tracer.span("polyset.parse") as s:
            for key, root in ctx["dirs"].items():
                meta = json.loads((root / "manifest.json").read_text())
                problems = []
                for entry in meta["files"]:
                    data = (root / entry["name"]).read_bytes()
                    s.add("bytes", len(data))
                    problems.append(parse_problem(data.decode(), problem_id=entry["id"]))
                parsed[key] = problems
        s.counters["problems"] = sum(len(p) for p in parsed.values())
        reports = {}
        for key, problems in parsed.items():
            with tracer.span(f"heuristics.check_{key}") as s:
                report = check_equivalence(problems, selected_triplet(), jobs=CHECK_JOBS)
            s.counters.update(problems=report.total, mismatches=len(report.mismatches),
                              violations=len(report.violations))
            reports[key] = report
        return {"parsed": parsed, "reports": reports}

    def check(self, ctx, out, rng: random.Random) -> Outcome:
        ops = failed = 0
        messages = []
        for key, generated in ctx["generated"].items():
            report = out["reports"][key]
            bad = gates.check_failures(report, out["parsed"][key], generated)
            if bad:
                messages.append(f"{key}: {bad} problems failed ({len(report.mismatches)} "
                                f"mismatches, {len(report.violations)} violations)")
            ops += len(generated)
            failed += bad
        return Outcome(ops, failed, messages)


WORKLOADS = {w.name: w for w in (Pipeline, CheckMixed)}


def describe(workload) -> dict:
    return {"name": workload.name, "sizes": dict(workload.sizes),
            "input_seeds": dict(workload.input_seeds)}

