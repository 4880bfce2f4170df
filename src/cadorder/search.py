"""Exhaustive search over ordered feature triplets against a cost oracle.

Every ordered triplet of distinct deduplicated features defines a frozen
lexicographic/network heuristic; each is priced as the summed oracle cost
of the orderings it picks, then ranked.  Each distinct (problem, ordering)
pair is priced once, by ``costmodel.PriceStore``, which also runs the
oracle calls and keeps their journal.  Worker count and resuming from a
journal never change the report.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from itertools import permutations
from operator import add, lt, mul
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


def _pricer(descriptors, dataset, store: PriceStore):
    """``costs(ids)``: per-problem prices of a triplet of indices into ``descriptors``.

    Each problem's ``scaled_matrix`` is computed once and kept as dense
    ranks per descriptor: its one scale is shared by every descriptor, so
    the ranks are those of the true values.  Per problem, a triplet's rank
    triple has one int key, the radix first layer on the ranks packed over
    the variables: y_v = n^2 r_a + n r_b + r_c < n^3, key = sum_v y_v n^(3v).
    With R = sum_v r_v n^(3v) per descriptor and problem, the key is
    n^2 R_a + n R_b + R_c, so setup keeps n^2 R, n R and R and a triplet's
    keys take two additions per problem.  A key maps to its price; only a
    new one asks the ``store`` for the price of ``lex_order`` on its rank
    triples; one triplet's new keys are one batch.
    """
    ranks = [[] for _ in descriptors]  # ranks[d][p] = tuple over variables
    for pr in dataset:
        rows = scaled_matrix(descriptors, pr)[1]
        for j, per_problem in enumerate(ranks):
            per_problem.append(_dense_ranks([row[j] for row in rows]))
    ns = [pr.n_vars for pr in dataset]
    packed = [[sum(r * n ** (3 * v) for v, r in enumerate(rank))
               for n, rank in zip(ns, per_problem)] for per_problem in ranks]
    high = [list(map(mul, per_problem, (n * n for n in ns))) for per_problem in packed]
    mid = [list(map(mul, per_problem, ns)) for per_problem in packed]
    by_key = [{} for _ in dataset]  # packed rank triple -> cost

    def costs(ids) -> list[float]:
        a, b, c = ids
        keys = list(map(add, map(add, high[a], mid[b]), packed[c]))
        found = list(map(dict.get, by_key, keys))
        missing = [(p, lex_order(tuple(zip(ranks[a][p], ranks[b][p], ranks[c][p]))))
                   for p, cost in enumerate(found) if cost is None]
        for (p, _), cost in zip(missing, store.prices(missing)):
            found[p] = by_key[p][keys[p]] = cost
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
    pass.  Triplets are scanned in index order; the store runs up to
    ``jobs`` oracle calls at once over the pairs a triplet newly needs.
    A journal file makes long runs resumable (``PriceStore``): a resumed
    search prices only the pairs not on file and recomputes every total
    (``PriceStore.total``).
    """
    dataset = list(dataset)
    triplets = enumerate_triplets(fs)
    k = len(fs)
    brown_ids = _triplet_ids(brown_features(), fs)

    with PriceStore(oracle, dataset, journal_path, jobs) as store:
        costs = _pricer(fs.descriptors + brown_features(), dataset, store)
        brown = costs((k, k + 1, k + 2))
        totals, wins = [], []
        for per_problem in map(costs, triplets):
            totals.append(store.total(per_problem))
            wins.append(sum(map(lt, per_problem, brown)))

    order = sorted(range(len(triplets)), key=lambda i: (totals[i], triplets[i]))[:top_k]

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
            "total_cost": store.total(brown),
        },
    )


def _triplet_ids(triplet, fs: FeatureSet) -> tuple[int, ...] | None:
    """Ids of the classes containing each descriptor, or None if any is absent."""
    rep_of = {fd: rep for rep, members in fs.provenance.items() for fd in members}
    if not all(fd in rep_of for fd in triplet):
        return None
    return tuple(fs.descriptors.index(rep_of[fd]) for fd in triplet)
