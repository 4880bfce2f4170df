"""Exhaustive search over ordered feature triplets against a cost oracle.

Every ordered triplet of distinct deduplicated features defines a frozen
lexicographic/network heuristic; each is priced as the summed oracle cost
of the orderings it picks, then ranked.  Each distinct (problem, ordering)
pair is priced once.  Worker count and checkpoint resume never change the
report.
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

from .atomic import write_text
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
        write_text(path, json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")

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
        write_text(path, self.to_csv())


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


def _dense_ranks(values) -> tuple[int, ...]:
    """Each value's rank among the distinct values; orders them as the values do."""
    distinct = sorted(set(values))
    return tuple(map(distinct.index, values))


def _pricer(descriptors, dataset, oracle: CostOracle, call):
    """``costs(ids)``: per-problem oracle costs of a triplet of indices into ``descriptors``.

    Each descriptor is evaluated once over the dataset and kept as dense
    ranks per problem.  Per problem, a rank triple maps to its cost and an
    ordering to its oracle cost, so each distinct (problem, ordering) pair
    reaches the oracle once; ``call`` maps the oracle over a triplet's new pairs.
    """
    spans, start = [], 0
    for pr in dataset:
        spans.append((start, start + pr.n_vars))
        start += pr.n_vars
    by_descriptor = {}
    for members, flat in eval_descriptors(descriptors, dataset):
        per_problem = [_dense_ranks(flat[a:b]) for a, b in spans]
        by_descriptor.update(dict.fromkeys(members, per_problem))
    # ranks[d][p] = tuple over variables
    ranks = [by_descriptor[fd] for fd in descriptors]
    by_ranks = [{} for _ in dataset]  # (rank_a, rank_b, rank_c) -> cost
    by_order = [{} for _ in dataset]  # ordering -> oracle cost

    def costs(ids) -> list[float]:
        keys = list(zip(*(ranks[i] for i in ids)))
        found = [table.get(key) for table, key in zip(by_ranks, keys)]
        orders = {p: lex_order(FeatureMatrix(tuple(zip(*keys[p]))))
                  for p, c in enumerate(found) if c is None}
        new = [(p, o) for p, o in orders.items() if o not in by_order[p]]
        for (p, o), c in zip(new, call(lambda po: oracle.cost(dataset[po[0]], po[1]), new)):
            by_order[p][o] = c
        for p, o in orders.items():
            found[p] = by_ranks[p][keys[p]] = by_order[p][o]
        return found

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


def search_triplets(
    fs: FeatureSet,
    dataset,
    oracle: CostOracle,
    top_k: int | None = None,
    journal_path: str | Path | None = None,
    jobs: int = 1,
) -> SearchReport:
    """Evaluate every ordered triplet; rank ascending by total cost.

    Cost ties break on the triplet id encoding.  Each distinct (problem,
    ordering) pair is priced once, Brown's triplet first, by the same path
    as every pool triplet; wins against Brown are counted in the same
    pass.  Triplets are scanned in index order, and ``jobs`` oracle calls
    run at once over the pairs a triplet newly needs.  A journal file
    makes long runs resumable: each ``index,total,wins`` line is written
    as its triplet's total is known, and trusted on resume.
    """
    dataset = list(dataset)
    triplets = enumerate_triplets(fs)
    k = len(fs)
    brown_ids = _triplet_ids(brown_features(), fs)

    journal = Path(journal_path) if journal_path is not None else None
    results: dict[int, tuple[float, int]] = {}
    if journal is not None:
        results = _load_journal(journal)

    # Line-buffered, so a killed search leaves every line written so far on file.
    # A failed oracle call cancels the calls its batch has not started.
    with ThreadPoolExecutor(max(jobs, 1)) as pool, (
        open(journal, "a", buffering=1) if journal is not None else nullcontext()
    ) as fh:
        call = pool.map if jobs > 1 else map
        costs = _pricer(fs.descriptors + brown_features(), dataset, oracle, call)
        brown = costs((k, k + 1, k + 2))
        for idx, ids in enumerate(triplets):
            if idx in results:
                continue
            per_problem = costs(ids)
            total = sum(per_problem)
            wins = sum(1 for c, b in zip(per_problem, brown) if c < b)
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
