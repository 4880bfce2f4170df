"""Tests of the benchmark itself; run from the repository root:

    python3 -m pytest bench -q
"""

import copy
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cadorder.costmodel import SyntheticCostModel
from cadorder.datagen import GenConfig, random_dataset
from cadorder.features import FeatureSet, brown_features, selected_triplet
from cadorder.search import search_triplets
from cadorder.training import TrainableNetwork, TrainConfig, train

import gates
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent

TINY = {
    "pipeline": dict(search_count=5, train_count=10, val_count=5, pool_size=4, epochs=2,
                     probe_count=5),
    "check-mixed": dict(n3_count=20, n8_count=1),
}


class LyingOracle:
    """Under-prices every ordering that projects variable 0 first."""

    def __init__(self):
        self.truth = SyntheticCostModel()

    def cost(self, pr, ordering):
        c = self.truth.cost(pr, ordering)
        return c / 2 if ordering.perm[0] == 0 else c

    def describe(self):
        return self.truth.describe()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(name, trace, tmp_path):
    spec = run.load_spec()
    workload = workloads.WORKLOADS[name](0, **TINY[name])
    result, details, _ = run.run_workload(workload, 1, trace, 0, tmp_path)
    assert result["correct"], details["messages"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = run.with_units(result["metrics"], spec, trace)
    declared = spec["per_layer" if trace else "end_to_end"]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))
    assert len(metrics) == len(declared)


def test_speed_probe_takes_the_nearest_sample_for_a_span_without_one():
    with tracing.SpeedProbe(period=0.001) as probe:
        time.sleep(0.05)
    (t0, d0), (t1, d1) = probe.samples[:2]
    assert probe.mean_during(t0, t1 + 1e-9) == (d0 + d1) / 2
    assert probe.mean_during(t0 - 2, t0 - 1) == d0


def test_times_are_scaled_to_reference_seconds(tmp_path):
    workload = workloads.WORKLOADS["check-mixed"](0, **TINY["check-mixed"])
    result, details, tracer = run.run_workload(workload, 1, False, 0, tmp_path)
    for it in details["iterations"]:
        root = tracer.run_spans(it["run_id"])[0]
        inside = [d for t, d in details["probe_samples"] if root.start <= t < root.end]
        assert it["wall_s"] == root.duration
        assert it["steady_s"] == pytest.approx(
            root.duration * run.PROBE_REFERENCE_S * len(inside) / sum(inside))
    assert result["metrics"]["wall_s"] == statistics.median(
        it["steady_s"] for it in details["iterations"])


@pytest.fixture(scope="module")
def small_search():
    pool = FeatureSet.from_descriptors(brown_features() + selected_triplet())
    data = random_dataset(GenConfig(seed=3), 6)
    return pool, data, search_triplets(pool, data, SyntheticCostModel(), top_k=5)


def test_search_gate_passes_a_true_report(small_search):
    pool, data, report = small_search
    assert gates.search_failures(report, pool, data, random.Random(0), 10) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r.ranked[0].__setitem__("total_cost", r.ranked[0]["total_cost"] - 1),
    lambda r: r.ranked.reverse(),
    lambda r: r.ranked[2].__setitem__("rank", 7),
    lambda r: setattr(r, "triplet_count", r.triplet_count - 1),
    lambda r: r.baseline.__setitem__("total_cost", r.baseline["total_cost"] + 1),
    # The baseline triplet costs more than rank 1 on this dataset.
    lambda r: r.ranked[0].__setitem__("features", r.baseline["features"]),
])
def test_search_gate_trips_on_a_corrupted_report(small_search, corrupt):
    pool, data, report = small_search
    assert report.baseline["total_cost"] > report.ranked[0]["total_cost"]
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert gates.search_failures(bad, pool, data, random.Random(0), 10)


def test_search_gate_trips_on_a_lying_oracle(small_search):
    pool, data, _ = small_search
    report = search_triplets(pool, data, LyingOracle(), top_k=5)
    assert gates.search_failures(report, pool, data, random.Random(0), 10)


def test_lying_oracle_fails_the_search_stage(tmp_path):
    class LyingPipeline(workloads.Pipeline):
        def setup(self, tracer, workdir):
            ctx = super().setup(tracer, workdir)
            ctx["oracle"] = LyingOracle()
            return ctx

    result, details, _ = run.run_workload(LyingPipeline(0, **TINY["pipeline"]), 1, False, 0, tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert result["metrics"]["ops_ok_ratio"] < 1
    assert any(m.startswith("iter0: search: ") and "re-priced" in m for m in details["messages"])


@pytest.fixture(scope="module")
def small_training():
    train_set = random_dataset(GenConfig(seed=4), 24)
    val_set = random_dataset(GenConfig(seed=5), 12)
    start = TrainableNetwork.brown_init(brown_features(), base_weight=2.0)
    cfg = TrainConfig(learning_rate=0.5, epochs=4, batch_size=8)
    return start, train_set, val_set, train(start, train_set, val_set, SyntheticCostModel(), cfg)


def test_training_gate_passes_a_true_report(small_training):
    start, train_set, val_set, result = small_training
    assert gates.training_failures(result, start, train_set, val_set) == []


def _point_best_at_worst(r):
    worst = max(range(len(r.entries)), key=lambda i: r.entries[i].val_cost)
    r.best_index, r.final_weights = worst, list(r.entries[worst].weights)


@pytest.mark.parametrize("doctor", [
    lambda r: setattr(r.entries[r.best_index], "val_cost", r.best_val_cost - 100),
    lambda r: setattr(r.entries[0], "val_cost", r.epoch0_val_cost + 1),
    lambda r: setattr(r, "final_weights", list(r.entries[0].weights)),
    lambda r: setattr(r, "feature_scale", tuple(2 * x for x in r.feature_scale)),
    # A consistent report whose chosen entry prices above epoch 0.
    _point_best_at_worst,
])
def test_training_gate_trips_on_a_doctored_report(small_training, doctor):
    start, train_set, val_set, result = small_training
    assert result.best_val_cost < result.epoch0_val_cost < max(e.val_cost for e in result.entries)
    bad = copy.deepcopy(result)
    doctor(bad)
    assert gates.training_failures(bad, start, train_set, val_set)


def test_pool_gate_trips_on_a_merged_class():
    pool = FeatureSet.from_descriptors(brown_features())
    candidates = list(brown_features())
    probe = random_dataset(GenConfig(seed=1), 3)
    assert gates.pool_failures(pool, candidates, probe) == [
        f"grammar has 3 descriptors, expected {gates.GRAMMAR_SIZE}"
    ]
    merged = FeatureSet(pool.descriptors[:2], {pool.descriptors[0]: pool.descriptors[:2],
                                               pool.descriptors[1]: pool.descriptors[1:]})
    assert "feature classes overlap" in gates.pool_failures(merged, candidates, probe)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "pipeline", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
