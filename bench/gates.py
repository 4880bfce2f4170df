"""Correctness gates: re-derive each result through an independent public path.

Every gate returns a list of failure messages; an empty list is a pass.
The gates never compare against pinned digests, so a deliberate change of
the program's results (say, of the ordering direction) passes as long as
the results stay self-consistent.
"""

from __future__ import annotations

from cadorder.costmodel import SyntheticCostModel, total_cost
from cadorder.features import brown_features, eval_feature
from cadorder.heuristics import feature_matrix, lex_order
from cadorder.training import TrainableNetwork, fit_feature_scale

GRAMMAR_SIZE = 624


def lex_total(triplet, dataset, oracle) -> float:
    """Total cost of the lexicographic orderings, priced by ``oracle``."""
    return total_cost(oracle, dataset, lambda pr: lex_order(feature_matrix(triplet, pr))).total


def pool_failures(fs, candidates, probe) -> list[str]:
    """The pool partitions the grammar and its representatives differ on the probe."""
    out = []
    if len(candidates) != GRAMMAR_SIZE:
        out.append(f"grammar has {len(candidates)} descriptors, expected {GRAMMAR_SIZE}")
    members = [m for rep in fs.descriptors for m in fs.provenance[rep]]
    if len(members) != len(set(members)):
        out.append("feature classes overlap")
    if set(members) != set(candidates):
        out.append("feature classes do not cover exactly the enumerated descriptors")
    for rep in fs.descriptors:
        if rep not in fs.provenance[rep]:
            out.append(f"representative {rep.describe()} is outside its own class")
    vectors = {
        tuple(eval_feature(rep, pr, v) for pr in probe for v in range(pr.n_vars))
        for rep in fs.descriptors
    }
    if len(vectors) != len(fs.descriptors):
        out.append(
            f"{len(fs.descriptors) - len(vectors)} class representatives coincide on the probe"
        )
    return out


def search_failures(report, pool, dataset, rng, samples: int) -> list[str]:
    """Re-price the report's ranks, baseline and a random sample of triplets."""
    oracle = SyntheticCostModel()
    k = len(pool)
    out = []
    if report.pool_size != k:
        out.append(f"pool_size {report.pool_size} != {k}")
    if report.triplet_count != k * (k - 1) * (k - 2):
        out.append(f"triplet_count {report.triplet_count} != {k * (k - 1) * (k - 2)}")
    if not report.ranked:
        return out + ["report ranks no triplet"]
    if [row["rank"] for row in report.ranked] != list(range(1, len(report.ranked) + 1)):
        out.append("ranks are not 1..K")
    costs = [row["total_cost"] for row in report.ranked]
    if any(b < a for a, b in zip(costs, costs[1:])):
        out.append("total_cost decreases down the ranking")
    for row in report.ranked:
        triplet = tuple(pool.descriptors[i] for i in row["features"])
        expected = lex_total(triplet, dataset, oracle)
        if row["total_cost"] != expected:
            out.append(f"rank {row['rank']} costs {row['total_cost']}, re-priced {expected}")
    expected = lex_total(brown_features(), dataset, oracle)
    if report.baseline["total_cost"] != expected:
        out.append(f"baseline costs {report.baseline['total_cost']}, re-priced {expected}")
    best = costs[0]
    for _ in range(samples):
        ids = rng.sample(range(k), 3)
        c = lex_total(tuple(pool.descriptors[i] for i in ids), dataset, oracle)
        if c < best:
            out.append(f"triplet {ids} costs {c}, below rank 1 at {best}")
    return out


def training_failures(result, start, train_set, val_set) -> list[str]:
    """Re-price the start and the best network on the validation set.

    Both networks are rebuilt from their weights with the feature scale
    refitted on the training set, and priced by hard argmax with a fresh
    oracle; the re-priced costs must match the report's and must not rise.
    """
    oracle = SyntheticCostModel()
    triplet = start.triplet
    out = []
    scale = (1.0, 1.0, 1.0)
    if result.config.normalize:
        scale = fit_feature_scale([feature_matrix(triplet, pr) for pr in train_set])
    if tuple(result.feature_scale) != scale:
        out.append(f"feature scale {tuple(result.feature_scale)}, refitted {scale}")

    def val_cost(weights) -> float:
        net = TrainableNetwork(triplet, list(weights), scale)
        return total_cost(oracle, val_set, lambda pr: net.hard_order(feature_matrix(triplet, pr))).total

    epoch0, best = val_cost(start.weights), val_cost(result.final_weights)
    if result.epoch0_val_cost != epoch0:
        out.append(f"epoch 0 validation cost {result.epoch0_val_cost}, re-priced {epoch0}")
    if result.best_val_cost != best:
        out.append(f"best validation cost {result.best_val_cost}, re-priced {best}")
    if best > epoch0:
        out.append(f"re-priced best validation cost {best} above epoch 0 {epoch0}")
    return out


def check_failures(report, parsed, generated) -> int:
    """Problems that failed the check, were not checked, or parsed wrong."""
    bad = {m["problem_id"] for m in report.mismatches}
    bad |= {v["problem_id"] for v in report.violations}
    bad |= {g.id for p, g in zip(parsed, generated) if p != g or p.id != g.id}
    missing = max(len(generated) - report.total, 0) + max(len(generated) - len(parsed), 0)
    return len(bad) + missing
