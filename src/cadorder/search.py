"""Exhaustive search over ordered feature triplets against a cost oracle.

Every ordered triplet of distinct deduplicated features defines a frozen
lexicographic/network heuristic; each is priced as the summed oracle cost
of the orderings it picks, then ranked.  Each distinct (problem, ordering)
pair is priced once.  Worker count and resuming from a journal of those
prices never change the report.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from itertools import permutations
from pathlib import Path

from .atomic import write_json, write_text
from .costmodel import TIMING_COLUMNS, CostOracle, load_timing_table
from .features import FeatureSet, brown_features, eval_descriptors
from .heuristics import Ordering, order_by_scores, parse_ordering
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


def _pricer(descriptors, dataset, oracle: CostOracle, call, by_order, journal):
    """``costs(ids)``: per-problem oracle costs of a triplet of indices into ``descriptors``.

    Each descriptor is evaluated once over the dataset and kept as dense
    ranks per problem.  Per problem, a rank triple maps to its cost and an
    ordering to its oracle cost (``by_order``), so each distinct (problem,
    ordering) pair reaches the oracle once; ``call`` maps the oracle over a
    triplet's new pairs, and each price is written to the ``journal`` csv
    writer as it arrives.
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

    def costs(ids) -> list[float]:
        keys = list(zip(*(ranks[i] for i in ids)))
        found = [table.get(key) for table, key in zip(by_ranks, keys)]
        orders = {p: order_by_scores(tuple(zip(*keys[p])))
                  for p, c in enumerate(found) if c is None}
        new = [(p, o) for p, o in orders.items() if o not in by_order[p]]
        for (p, o), c in zip(new, call(lambda po: oracle.cost(dataset[po[0]], po[1]), new)):
            by_order[p][o] = c
            if journal is not None:
                journal.writerow([dataset[p].id, o.names(dataset[p]), repr(c), "false"])
        for p, o in orders.items():
            found[p] = by_ranks[p][keys[p]] = by_order[p][o]
        return found

    return costs


def _load_journal(path: str | Path | None, dataset, first_line: str) -> list[dict[Ordering, float]]:
    """Per problem, the prices in a journal that starts with ``first_line``; none without one.

    A journal is a timing table under a first line that names the oracle
    and the dataset.  A non-empty file that starts otherwise raises
    ValueError and is left as it is.  A last row without its newline is a
    torn write: it is cut from the file, so its pair is priced again and
    later appends start on a fresh line.  Rows name problems by id, so the
    ids must be distinct and read back as written; a row that names no
    problem of the dataset, or a bad ordering, raises ValueError naming
    ``path:line``.
    """
    by_order: list[dict[Ordering, float]] = [{} for _ in dataset]
    if path is None:
        return by_order
    index = {pr.id: p for p, pr in enumerate(dataset)}
    # load_timing_table strips each field, so an id must not start or end with whitespace.
    if None in index or len(index) < len(dataset) or any(i != i.strip() for i in index):
        raise ValueError("a journal needs distinct problem ids without surrounding whitespace")
    data = Path(path).read_bytes() if os.path.exists(path) else b""
    if not data:
        return by_order
    if not data.startswith(f"{first_line}\n".encode()):
        got = data.split(b"\n", 1)[0][:200].decode(errors="replace")
        raise ValueError(f"{path}:1: first line {got!r} is not this run's {first_line!r}")
    complete = data[: data.rfind(b"\n") + 1]
    if len(complete) < len(data):
        os.truncate(path, len(complete))
    for rec in load_timing_table(path).records.values():
        try:
            p = index.get(rec.problem_id)
            if p is None:
                raise ValueError(f"no problem {rec.problem_id!r} in the dataset")
            ordering = parse_ordering(rec.ordering, dataset[p])
            if ordering in by_order[p]:
                raise ValueError("pair already on file")
            by_order[p][ordering] = rec.time_s
        except ValueError as e:
            raise ValueError(f"{path}:{rec.line}: {e}") from None
    return by_order


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
    makes long runs resumable: each oracle price is appended to it as it
    arrives, and a resumed search prices only the pairs not on file and
    recomputes every total.  The journal is a timing table whose first
    line binds it to the oracle and the dataset, so ``load_timing_table``
    replays it.
    """
    dataset = list(dataset)
    triplets = enumerate_triplets(fs)
    k = len(fs)
    brown_ids = _triplet_ids(brown_features(), fs)
    digest = dataset_digest(dataset)
    first_line = f"# oracle: {oracle.describe()}; dataset: {digest}"

    by_order = _load_journal(journal_path, dataset, first_line)

    # Line-buffered, so a killed search leaves every price written so far on file.
    # A failed oracle call cancels the calls its batch has not started.
    with ThreadPoolExecutor(max(jobs, 1)) as pool, (
        open(journal_path, "a", buffering=1, newline="")
        if journal_path is not None else nullcontext()
    ) as fh:
        journal = None if fh is None else csv.writer(fh, lineterminator="\n")
        if fh is not None and fh.tell() == 0:
            fh.write(f"{first_line}\n{','.join(TIMING_COLUMNS)}\n")
        call = pool.map if jobs > 1 else map
        costs = _pricer(fs.descriptors + brown_features(), dataset, oracle, call, by_order, journal)
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
        dataset_id=digest,
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
