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
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

from .costmodel import CostOracle
from .features import FeatureSet, brown_features, eval_descriptors
from .heuristics import FeatureMatrix, lex_order
from .polyset import serialize_problem


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


def _pricer(descriptors, dataset, oracle: CostOracle):
    """``costs(ids)``: per-problem oracle costs of a triplet of indices into ``descriptors``.

    Every descriptor is evaluated once over the whole dataset; each problem
    is then ordered lexicographically by the triplet's feature rows.
    """
    spans, start = [], 0
    for pr in dataset:
        spans.append((start, start + pr.n_vars))
        start += pr.n_vars
    by_descriptor = {}
    for members, flat in eval_descriptors(descriptors, dataset):
        per_problem = [tuple(flat[a:b]) for a, b in spans]
        by_descriptor.update(dict.fromkeys(members, per_problem))
    # values[d][p] = tuple over variables
    values = [by_descriptor[fd] for fd in descriptors]

    def costs(ids) -> tuple[float, ...]:
        a, b, c = (values[i] for i in ids)
        return tuple(
            oracle.cost(pr, lex_order(FeatureMatrix(tuple(zip(*cols)))))
            for pr, cols in zip(dataset, zip(a, b, c))
        )

    return costs


def _load_journal(path: Path) -> dict[int, tuple[float, int]]:
    """Replay ``index,total,wins`` lines from a journal, if it exists.

    A last line without its newline is a torn write: it is cut from the
    file, so its triplet is evaluated again and later appends start on a
    fresh line.  A malformed complete line raises ValueError; so does a
    two-field ``index,total`` line from an older journal, which lacks the
    wins against Brown's triplet.
    """
    if not path.exists():
        return {}
    data = path.read_bytes()
    complete = data[: data.rfind(b"\n") + 1]
    if len(complete) < len(data):
        os.truncate(path, len(complete))
    done: dict[int, tuple[float, int]] = {}
    for lineno, line in enumerate(complete.decode().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            idx_text, cost_text, wins_text = line.split(",")
            done[int(idx_text)] = float(cost_text), int(wins_text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed journal line {line!r}") from None
    return done


def _evaluated(evaluate, pending, jobs: int):
    """Yield ``evaluate(i)`` for each pending index, in order, as results complete."""
    if jobs <= 1 or len(pending) <= 1:
        yield from map(evaluate, pending)
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        try:
            yield from pool.map(evaluate, pending)
        finally:
            # On an error or an abandoned search, start no further triplets.
            pool.shutdown(wait=False, cancel_futures=True)


def search_triplets(
    fs: FeatureSet,
    dataset,
    oracle: CostOracle,
    top_k: int | None = None,
    journal_path: str | Path | None = None,
    jobs: int = 1,
) -> SearchReport:
    """Evaluate every ordered triplet; rank ascending by total cost.

    Cost ties break on the triplet id encoding.  Brown's triplet is priced
    first, by the same path as every pool triplet, so every triplet is
    priced once and its wins against Brown are counted in the same pass.
    A journal file makes long runs resumable: each ``index,total,wins``
    line is written as its triplet finishes, and trusted on resume.
    """
    dataset = list(dataset)
    triplets = enumerate_triplets(fs)
    k = len(fs)
    costs = _pricer(fs.descriptors + brown_features(), dataset, oracle)
    brown = costs((k, k + 1, k + 2))
    brown_ids = _triplet_ids(brown_features(), fs)

    journal = Path(journal_path) if journal_path is not None else None
    results: dict[int, tuple[float, int]] = {}
    if journal is not None:
        results = _load_journal(journal)
    pending = [i for i in range(len(triplets)) if i not in results]

    def evaluate(idx: int) -> tuple[int, float, int]:
        per_problem = costs(triplets[idx])
        wins = sum(1 for c, b in zip(per_problem, brown) if c < b)
        return idx, sum(per_problem), wins

    # Line-buffered, so a killed search leaves every line written so far on file.
    with (open(journal, "a", buffering=1) if journal is not None else nullcontext()) as fh:
        for idx, total, wins in _evaluated(evaluate, pending, jobs):
            results[idx] = total, wins
            if fh is not None:
                fh.write(f"{idx},{total!r},{wins}\n")

    order = sorted(range(len(triplets)), key=lambda i: (results[i][0], triplets[i]))
    if top_k is not None:
        order = order[: top_k]

    ranked = []
    for rank, idx in enumerate(order, start=1):
        ids = triplets[idx]
        total, wins = results[idx]
        ranked.append(
            {
                "rank": rank,
                "features": list(ids),
                "descriptions": [fs.descriptors[i].describe() for i in ids],
                "total_cost": total,
                "wins_vs_brown": wins,
                "uses_average": any(fs.descriptors[i].uses_average() for i in ids),
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
            "total_cost": sum(brown),
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
