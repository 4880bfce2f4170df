#!/usr/bin/env python3
"""Desk-scale end-to-end experiment against the synthetic cost oracle.

Generates seeded datasets, enumerates and deduplicates the feature
grammar, exhaustively searches feature triplets, then tunes the weights
of the best triplet's network.  Everything is deterministic for a given
set of seeds; reports land in --out as JSON/CSV, beside the tuned
network's checkpoint, train.ckpt.json.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from cadorder.atomic import write_text
from cadorder.cli import _positive_int
from cadorder.costmodel import SyntheticCostModel
from cadorder.datagen import GenConfig, random_dataset
from cadorder.features import (
    FeatureSet,
    brown_features,
    dedup_features,
    enumerate_descriptors,
)
from cadorder.heuristics import Rule
from cadorder.search import search_triplets
from cadorder.training import DivergenceError, TrainConfig, save_checkpoint, train


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/pipeline", help="output directory")
    parser.add_argument("--search-count", type=_positive_int, default=150,
                        help="search dataset size")
    parser.add_argument("--train-count", type=_positive_int, default=600)
    parser.add_argument("--val-count", type=_positive_int, default=200)
    parser.add_argument("--pool-size", type=int, default=10,
                        help="feature classes fed to the search (0 = all)")
    parser.add_argument("--epochs", type=_positive_int, default=30)
    parser.add_argument("--lr", type=float, default=0.05)
    parser.add_argument("--init-weight", type=float, default=2.0,
                        help="radix base for the starting weights (w^2, w, 1)")
    args = parser.parse_args()
    if args.pool_size < 0:
        parser.error(f"argument --pool-size: must be >= 0, got {args.pool_size}")
    try:
        cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs, batch_size=64)
    except ValueError as e:
        parser.error(f"argument --lr: {e}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    oracle = SyntheticCostModel()

    t0 = time.perf_counter()
    print("== feature grammar ==")
    candidates = enumerate_descriptors()
    fs = dedup_features(candidates)
    print(f"{len(candidates)} valid descriptors collapse to {len(fs)} classes")
    fs.save(out / "features.json")

    pool = fs
    if args.pool_size and args.pool_size < len(fs):
        pool = FeatureSet.from_descriptors(fs.descriptors[: args.pool_size])
    print(f"searching over {len(pool)} features "
          f"({len(pool) * (len(pool) - 1) * (len(pool) - 2)} ordered triplets)")

    print("\n== triplet search ==")
    search_data = random_dataset(GenConfig(seed=10), args.search_count)
    report = search_triplets(pool, search_data, oracle, top_k=10)
    report.save_json(out / "search.json")
    report.save_csv(out / "search.csv")
    print(f"baseline (overall-degree triplet): {report.baseline['total_cost']:.1f}")
    for row in report.ranked[:5]:
        print(f"  #{row['rank']}: {row['descriptions']} -> {row['total_cost']:.1f} "
              f"(beats baseline on {row['wins_vs_brown']} problems)")

    print("\n== weight tuning on the winning triplet ==")
    winner = tuple(pool.descriptors[i] for i in report.ranked[0]["features"])
    train_set = random_dataset(GenConfig(seed=11), args.train_count)
    val_set = random_dataset(GenConfig(seed=12), args.val_count)
    start = Rule.brown_init(winner, base_weight=args.init_weight)
    try:
        result = train(start, train_set, val_set, oracle, cfg)
    except DivergenceError as e:
        sys.exit(f"error: {e}")
    write_text(out / "train.json", json.dumps(result.to_json(), indent=2) + "\n")
    # The tuned network, a heuristic that `cadorder order --heuristic` and `check --triplet` read.
    save_checkpoint(out / "train.ckpt.json", result, winner)
    print(f"validation cost: epoch 0 = {result.epoch0_val_cost:.1f}, "
          f"best (epoch {result.best_epoch}) = {result.best_val_cost:.1f}")
    print(f"final weights: {[round(w, 4) for w in result.final_weights]}")
    print(f"\ndone in {time.perf_counter() - t0:.1f}s; reports under {out}/")


if __name__ == "__main__":
    main()
