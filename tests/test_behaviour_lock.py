"""Behaviour lock: a fixed-seed small pipeline whose report bytes are pinned.

Runs the stages of ``scripts/run_pipeline.py`` at desk scale (dedup over
``default_probe(60)``, a search over the first 10 classes on 40 problems,
3 training epochs) and compares the sha256 of every report it writes with
digests recorded before the ordering code was consolidated.  A refactor
that keeps these digests keeps the program's results.

The digests are expected to change on purpose when the ordering direction
is fixed (ROADMAP item 1); that change re-baselines them.  The training
report holds floats from ``sum()`` over floats, so the pins hold for
CPython 3.10 and 3.11 (3.12 made float ``sum()`` compensated).
"""

import hashlib
import json

from cadorder.costmodel import SyntheticCostModel
from cadorder.datagen import GenConfig, random_dataset
from cadorder.features import (
    FeatureSet,
    dedup_features,
    default_probe,
    enumerate_descriptors,
    selected_triplet,
)
from cadorder.search import search_triplets
from cadorder.training import TrainableNetwork, TrainConfig, train

PINNED = {
    "features.json": "2caa444e4648688022dc64a88720da829890577a8466d4d32b813f4aea632a90",
    "search.json": "f500a4d497c48035019dd7bcee64a57d1eef086b9ee4141a890dae72980df00c",
    "search.csv": "f3ff7df840d80818c0ad76f335f43c35387d50699d553eada98eeb0a8f32349d",
    "train.json": "0f73d151e97009410ec0bb6e06a9875c8e4445242daa02cb4a626097a04ccb1e",
}

# A training report at n = 4, where the output layer has 24 neurons and
# each score adds four products.
PINNED_N4_TRAIN = "df55277098b21e3ecb4c9fff34749fd6a8dd34f2c8b41021a7af5dca16824390"


def run_small_pipeline(out) -> dict[str, str]:
    """Write the four reports under ``out``; return their sha256 digests."""
    oracle = SyntheticCostModel()
    fs = dedup_features(enumerate_descriptors(), default_probe(60))
    fs.save(out / "features.json")
    pool = FeatureSet.from_descriptors(fs.descriptors[:10])
    report = search_triplets(pool, random_dataset(GenConfig(seed=10), 40), oracle, top_k=10)
    report.save_json(out / "search.json")
    report.save_csv(out / "search.csv")
    winner = tuple(pool.descriptors[i] for i in report.ranked[0]["features"])
    result = train(
        TrainableNetwork.brown_init(winner, base_weight=2.0),
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
        TrainableNetwork.brown_init(selected_triplet(), base_weight=2.0),
        random_dataset(GenConfig(n_vars=4, seed=13), 40),
        random_dataset(GenConfig(n_vars=4, seed=14), 12),
        SyntheticCostModel(),
        TrainConfig(learning_rate=0.05, epochs=3, batch_size=16),
    )
    report = json.dumps(result.to_json(), indent=2) + "\n"
    assert hashlib.sha256(report.encode()).hexdigest() == PINNED_N4_TRAIN
