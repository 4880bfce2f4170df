"""Exhaustive search over ordered feature triplets against a cost oracle.

Every ordered triplet of distinct deduplicated features defines a frozen
lexicographic/network heuristic; each is priced as the summed oracle cost
of the orderings it picks, then ranked.  Evaluation order, worker count,
and checkpoint resume never change the report.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

from .costmodel import CostOracle
from .features import FeatureSet, apply_pipeline, brown_features, eval_kernel
from .heuristics import FeatureMatrix, feature_matrix, lex_order
from .polyset import serialize_problem


@dataclass(frozen=True)
class TripletCandidate:
    """One ordered triplet with its evaluation results."""

    ids: tuple[int, int, int] | None
    total_cost: float
    per_problem: tuple[float, ...]
    uses_average: bool


@dataclass
class SearchReport:
    dataset_id: str
    oracle_id: str
    pool_size: int
    triplet_count: int
    ranked: list[dict]
    baseline: dict

    def to_json(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "oracle_id": self.oracle_id,
            "pool_size": self.pool_size,
            "triplet_count": self.triplet_count,
            "baseline": self.baseline,
            "ranked": self.ranked,
        }

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["rank", "f1", "f2", "f3", "total_cost", "wins_vs_brown"])
        for row in self.ranked:
            writer.writerow(
                [row["rank"], *row["features"], repr(row["total_cost"]), row["wins_vs_brown"]]
            )
        return buf.getvalue()

    def save_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())


def dataset_digest(dataset) -> str:
    h = hashlib.sha256()
    for pr in dataset:
        h.update(serialize_problem(pr).encode())
    return h.hexdigest()[:16]


def enumerate_triplets(fs: FeatureSet) -> list[tuple[int, int, int]]:
    """All ordered triplets of distinct descriptor ids, k*(k-1)*(k-2) of them."""
    k = len(fs)
    if k < 3:
        raise ValueError(f"need at least 3 features, got {k}")
    return list(permutations(range(k), 3))


def _price(triplet, dataset, matrices, oracle: CostOracle, ids=None) -> TripletCandidate:
    """Order every problem by its feature rows and sum the oracle costs."""
    costs = tuple(oracle.cost(pr, lex_order(fm)) for pr, fm in zip(dataset, matrices))
    uses_average = any(fd.uses_average() for fd in triplet)
    return TripletCandidate(ids, sum(costs), costs, uses_average)


def evaluate_triplet(triplet, dataset, oracle: CostOracle) -> TripletCandidate:
    """Price one triplet: order every problem lexicographically, sum the costs."""
    triplet = tuple(triplet)
    return _price(triplet, dataset, (feature_matrix(triplet, pr) for pr in dataset), oracle)


class _PoolValues:
    """Per-descriptor feature values cached over the dataset."""

    def __init__(self, fs: FeatureSet, dataset):
        self.dataset = list(dataset)
        self.values = [[] for _ in fs.descriptors]  # values[d][p] = tuple over variables
        for pr in self.dataset:
            tables = {}
            for d, fd in enumerate(fs.descriptors):
                col = []
                for v in range(pr.n_vars):
                    key = (fd.kernel, v)
                    table = tables.get(key)
                    if table is None:
                        table = tables[key] = eval_kernel(fd.kernel, pr, v)
                    col.append(apply_pipeline(fd.pipeline, table))
                self.values[d].append(tuple(col))

    def candidate(self, ids, fs: FeatureSet, oracle: CostOracle) -> TripletCandidate:
        a, b, c = (self.values[i] for i in ids)
        matrices = (FeatureMatrix(tuple(zip(*cols))) for cols in zip(a, b, c))
        triplet = tuple(fs.descriptors[i] for i in ids)
        return _price(triplet, self.dataset, matrices, oracle, tuple(ids))


def _load_journal(path: Path) -> dict[int, float]:
    """Replay ``index,total`` lines from a journal, if it exists.

    A last line without its newline is a torn write: it is cut from the
    file, so its triplet is evaluated again and later appends start on a
    fresh line.  A malformed complete line raises ValueError.
    """
    if not path.exists():
        return {}
    data = path.read_bytes()
    complete = data[: data.rfind(b"\n") + 1]
    if len(complete) < len(data):
        os.truncate(path, len(complete))
    done: dict[int, float] = {}
    for lineno, line in enumerate(complete.decode().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            idx_text, cost_text = line.split(",")
            done[int(idx_text)] = float(cost_text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed journal line {line!r}") from None
    return done


def search_triplets(
    fs: FeatureSet,
    dataset,
    oracle: CostOracle,
    top_k: int | None = None,
    journal_path: str | Path | None = None,
    jobs: int = 1,
    checkpoint_every: int = 100,
) -> SearchReport:
    """Evaluate every ordered triplet; rank ascending by total cost.

    Cost ties break on the triplet id encoding.  A journal file makes long
    runs resumable: evaluated totals are appended as ``index,total`` lines
    and trusted on resume.
    """
    dataset = list(dataset)
    triplets = enumerate_triplets(fs)
    cache = _PoolValues(fs, dataset)

    done: dict[int, float] = {}
    journal = Path(journal_path) if journal_path is not None else None
    if journal is not None:
        done = _load_journal(journal)

    pending = [i for i in range(len(triplets)) if i not in done]

    def evaluate(idx: int) -> tuple[int, float]:
        return idx, cache.candidate(triplets[idx], fs, oracle).total_cost

    totals: dict[int, float] = dict(done)
    if jobs > 1 and len(pending) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(evaluate, pending))
    else:
        results = [evaluate(i) for i in pending]
    buffer: list[str] = []
    for idx, total in results:
        totals[idx] = total
        if journal is not None:
            buffer.append(f"{idx},{total!r}\n")
            if len(buffer) >= checkpoint_every:
                with open(journal, "a") as fh:
                    fh.writelines(buffer)
                buffer.clear()
    if journal is not None and buffer:
        with open(journal, "a") as fh:
            fh.writelines(buffer)

    order = sorted(range(len(triplets)), key=lambda i: (totals[i], triplets[i]))
    if top_k is not None:
        order = order[: top_k]

    brown = evaluate_triplet(brown_features(), dataset, oracle)
    brown_ids = _triplet_ids(brown_features(), fs)

    ranked = []
    for rank, idx in enumerate(order, start=1):
        cand = cache.candidate(triplets[idx], fs, oracle)
        wins = sum(1 for c, b in zip(cand.per_problem, brown.per_problem) if c < b)
        ranked.append(
            {
                "rank": rank,
                "features": list(cand.ids),
                "descriptions": [fs.descriptors[i].describe() for i in cand.ids],
                "total_cost": cand.total_cost,
                "wins_vs_brown": wins,
                "uses_average": cand.uses_average,
            }
        )

    return SearchReport(
        dataset_id=dataset_digest(dataset),
        oracle_id=oracle.describe(),
        pool_size=len(fs),
        triplet_count=len(triplets),
        ranked=ranked,
        baseline={
            "features": list(brown_ids) if brown_ids else None,
            "total_cost": brown.total_cost,
        },
    )


def _triplet_ids(triplet, fs: FeatureSet) -> tuple[int, ...] | None:
    """Ids of the classes containing each descriptor, or None if any is absent."""
    ids = []
    for fd in triplet:
        rep = fs.class_of(fd)
        if rep is None:
            return None
        ids.append(fs.descriptors.index(rep))
    return tuple(ids)
