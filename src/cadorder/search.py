"""Exhaustive search over ordered feature triplets against a cost oracle.

Every ordered triplet of distinct deduplicated features defines a frozen
lexicographic/network heuristic; each is priced as the summed oracle cost
of the orderings it picks, then ranked.  Each distinct (problem, ordering)
pair is priced once, by ``costmodel.PriceStore``, which also keeps the
journal of those prices.  Worker count and resuming from a journal never
change the report.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from itertools import permutations
from pathlib import Path

from .atomic import write_json, write_text
from .costmodel import CostOracle, PriceStore
from .features import FeatureSet, brown_features, scaled_matrix
from .heuristics import lex_order


@dataclass
class SearchReport:
    dataset_id: str
    oracle_id: str
    pool_size: int
    triplet_count: int
    ranked: list[dict]
    baseline: dict

    def to_json(self) -> dict:
        return asdict(self)

    def save_json(self, path: str | Path) -> None:
        write_json(path, self.to_json())

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


def _pricer(descriptors, dataset, store: PriceStore, call):
    """``costs(ids)``: per-problem prices of a triplet of indices into ``descriptors``.

    Each problem's ``scaled_matrix`` is computed once and kept as dense
    ranks per descriptor: its one scale is shared by every descriptor, so
    the ranks are those of the true values.  Per problem, a rank triple
    maps to its price; only a new one asks the ``store``, through ``call``,
    for its ordering's price.
    """
    ranks = [[] for _ in descriptors]  # ranks[d][p] = tuple over variables
    for pr in dataset:
        rows = scaled_matrix(descriptors, pr)[1]
        for j, per_problem in enumerate(ranks):
            per_problem.append(_dense_ranks([row[j] for row in rows]))
    by_ranks = [{} for _ in dataset]  # (rank_a, rank_b, rank_c) -> cost

    def costs(ids) -> list[float]:
        keys = list(zip(*(ranks[i] for i in ids)))
        found = [table.get(key) for table, key in zip(by_ranks, keys)]
        missing = [(p, lex_order(tuple(zip(*keys[p]))))
                   for p, c in enumerate(found) if c is None]
        for (p, _), c in zip(missing, store.prices(missing, call)):
            found[p] = by_ranks[p][keys[p]] = c
        return found

    return costs


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
    makes long runs resumable (``PriceStore``): a resumed search prices
    only the pairs not on file and recomputes every total.
    """
    dataset = list(dataset)
    triplets = enumerate_triplets(fs)
    k = len(fs)
    brown_ids = _triplet_ids(brown_features(), fs)

    # A failed oracle call cancels the calls its batch has not started.
    with ThreadPoolExecutor(max(jobs, 1)) as pool, PriceStore(oracle, dataset, journal_path) as store:
        call = pool.map if jobs > 1 else map
        costs = _pricer(fs.descriptors + brown_features(), dataset, store, call)
        brown = costs((k, k + 1, k + 2))
        totals, wins = [], []
        for per_problem in map(costs, triplets):
            totals.append(sum(per_problem))
            wins.append(sum(1 for c, b in zip(per_problem, brown) if c < b))

    order = sorted(range(len(triplets)), key=lambda i: (totals[i], triplets[i]))
    if top_k is not None:
        order = order[: top_k]

    ranked = []
    for rank, idx in enumerate(order, start=1):
        ids = triplets[idx]
        ranked.append(
            {
                "rank": rank,
                "features": list(ids),
                "descriptions": [fs.descriptors[i].describe() for i in ids],
                "total_cost": totals[idx],
                "wins_vs_brown": wins[idx],
                "uses_average": any(fs.descriptors[i].averages for i in ids),
            }
        )

    return SearchReport(
        dataset_id=store.dataset_id,
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
    rep_of = {fd: rep for rep, members in fs.provenance.items() for fd in members}
    if not all(fd in rep_of for fd in triplet):
        return None
    return tuple(fs.descriptors.index(rep_of[fd]) for fd in triplet)
