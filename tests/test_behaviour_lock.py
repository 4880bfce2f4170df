"""Behaviour lock: a fixed-seed small pipeline whose report bytes are pinned.

Runs the stages of ``scripts/run_pipeline.py`` at desk scale (grammar
dedup, a search over the first 10 classes on 40 problems, 3 training
epochs) and compares the sha256 of every report it writes with
digests recorded before the ordering code was consolidated.  A refactor
that keeps these digests keeps the program's results.  The default
``scripts/run_pipeline.py`` run (600 training problems, 30 epochs, batches
of 64), which the benchmark's ``pipeline`` workload times, is pinned too,
report by report.

The digests are expected to change on purpose when the ordering direction
is fixed (ROADMAP item 1); that change re-baselines them.  The training
report holds floats from ``sum()`` over floats, so the pins hold for
CPython 3.10 and 3.11 (3.12 made float ``sum()`` compensated).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from cadorder.costmodel import SyntheticCostModel
from cadorder.datagen import GenConfig, random_dataset
from cadorder.features import (
    FeatureSet,
    dedup_features,
    enumerate_descriptors,
    selected_triplet,
)
from cadorder.search import search_triplets
from cadorder.heuristics import Rule
from cadorder.training import TrainConfig, train

PINNED = {
    "features.json": "2caa444e4648688022dc64a88720da829890577a8466d4d32b813f4aea632a90",
    "search.json": "f500a4d497c48035019dd7bcee64a57d1eef086b9ee4141a890dae72980df00c",
    "search.csv": "f3ff7df840d80818c0ad76f335f43c35387d50699d553eada98eeb0a8f32349d",
    "train.json": "0f73d151e97009410ec0bb6e06a9875c8e4445242daa02cb4a626097a04ccb1e",
}

# The reports of ``scripts/run_pipeline.py`` with its defaults.
PINNED_DEFAULT_SCRIPT = {
    "features.json": "2caa444e4648688022dc64a88720da829890577a8466d4d32b813f4aea632a90",
    "search.json": "3624796ee1d6e33eef476431d5edf22c60acba450daafd13d8c18297a007d698",
    "search.csv": "bee3857bbb3d9668f4fed7ca183fdade984dcce96d5a194d5836e5f97cdb97dd",
    "train.json": "d604a13da3379b034bae993c02472516cb7db15f26444d6805bb6d1e407bd6e5",
    "train.ckpt.json": "6c3c680bee7c4b4696c70fbfa78fb4f50ad8fcb1c68fc891a67050a1221f6048",
}

# A training report at n = 4, where the output layer has 24 neurons and
# each score adds four products.
PINNED_N4_TRAIN = "df55277098b21e3ecb4c9fff34749fd6a8dd34f2c8b41021a7af5dca16824390"


def run_small_pipeline(out) -> dict[str, str]:
    """Write the four reports under ``out``; return their sha256 digests."""
    oracle = SyntheticCostModel()
    fs = dedup_features(enumerate_descriptors())
    fs.save(out / "features.json")
    pool = FeatureSet.from_descriptors(fs.descriptors[:10])
    report = search_triplets(pool, random_dataset(GenConfig(seed=10), 40), oracle, top_k=10)
    report.save_json(out / "search.json")
    report.save_csv(out / "search.csv")
    winner = tuple(pool.descriptors[i] for i in report.ranked[0]["features"])
    result = train(
        Rule.brown_init(winner, base_weight=2.0),
        random_dataset(GenConfig(seed=11), 60),
        random_dataset(GenConfig(seed=12), 20),
        oracle,
        TrainConfig(learning_rate=0.05, epochs=3, batch_size=16),
    )
    (out / "train.json").write_text(json.dumps(result.to_json(), indent=2) + "\n")
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED}


def test_small_pipeline_reports_are_pinned(tmp_path):
    assert run_small_pipeline(tmp_path) == PINNED


def test_n4_train_report_is_pinned(tmp_path):
    result = train(
        Rule.brown_init(selected_triplet(), base_weight=2.0),
        random_dataset(GenConfig(n_vars=4, seed=13), 40),
        random_dataset(GenConfig(n_vars=4, seed=14), 12),
        SyntheticCostModel(),
        TrainConfig(learning_rate=0.05, epochs=3, batch_size=16),
    )
    report = json.dumps(result.to_json(), indent=2) + "\n"
    assert hashlib.sha256(report.encode()).hexdigest() == PINNED_N4_TRAIN


def test_default_pipeline_script_reports_are_pinned(tmp_path):
    root = Path(__file__).parents[1]
    subprocess.run(
        [sys.executable, str(root / "scripts" / "run_pipeline.py"), "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        check=True,
    )
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_DEFAULT_SCRIPT}
    assert digests == PINNED_DEFAULT_SCRIPT
