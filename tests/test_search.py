import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cadorder
from cadorder import search
from conftest import problem_instances
from cadorder.costmodel import SyntheticCostModel, dataset_digest, load_timing_table
from cadorder.datagen import GenConfig, random_dataset
from cadorder.features import (
    Agg,
    FeatureDescriptor,
    FeatureSet,
    Kernel,
    brown_features,
    dedup_features,
    enumerate_descriptors,
    feature_matrix,
    scaled_matrix,
    selected_triplet,
)
from cadorder.heuristics import lex_order, parse_ordering
from cadorder.polyset import parse_problem
from cadorder.search import (
    _dense_ranks,
    enumerate_triplets,
    search_triplets,
)


def _named_pool() -> FeatureSet:
    return FeatureSet.from_descriptors(brown_features() + selected_triplet())


def _average_pool() -> FeatureSet:
    """Pool mixing av_* descriptors (fractional values) with integer ones."""
    return FeatureSet.from_descriptors(
        (
            FeatureDescriptor(Kernel.DEGREE, (Agg.AV_M, Agg.SUM_P, Agg.ID, Agg.ID)),
            FeatureDescriptor(Kernel.DEGREE, (Agg.MAX_M, Agg.AV_P, Agg.ID, Agg.ID)),
            FeatureDescriptor(Kernel.DEGREE, (Agg.AV_MP, Agg.ID, Agg.ID, Agg.ID)),
        )
        + brown_features()[:2]
    )


def _brute_force_best(fs, dataset, oracle):
    """Independent recomputation: lexicographic path per triplet, min by cost."""
    best = None
    for ids in permutations(range(len(fs.descriptors)), 3):
        triplet = tuple(fs.descriptors[i] for i in ids)
        total = 0.0
        for pr in dataset:
            total += oracle.cost(pr, lex_order(feature_matrix(triplet, pr)))
        key = (total, ids)
        if best is None or key < best:
            best = key
    return best


def test_enumerate_triplets_counts():
    for k in (3, 6, 28):
        fs = FeatureSet.from_descriptors(enumerate_descriptors()[:k])
        triplets = enumerate_triplets(fs)
        assert len(triplets) == k * (k - 1) * (k - 2)
        assert len(set(triplets)) == len(triplets)
        assert all(len(set(t)) == 3 for t in triplets)
    assert len(enumerate_triplets(FeatureSet.from_descriptors(enumerate_descriptors()[:28]))) == 19_656


def test_enumerate_triplets_requires_three():
    with pytest.raises(ValueError, match="at least 3"):
        enumerate_triplets(FeatureSet.from_descriptors(enumerate_descriptors()[:2]))


def _row(report, ids):
    return next(row for row in report.ranked if tuple(row["features"]) == ids)


def test_search_brown_on_hand_instances(problem_a, problem_b):
    syn = SyntheticCostModel()
    report = search_triplets(_named_pool(), [problem_a, problem_b], syn)
    # Independent expectation: Brown orders a as x>z>y and b as x>y>z; the
    # synthetic statistic is (3,1,3) for a and (4,3,1) for b.
    assert report.baseline == {"features": [0, 1, 2], "total_cost": 42.0}
    brown = _row(report, (0, 1, 2))
    assert brown["total_cost"] == 42.0
    assert brown["wins_vs_brown"] == 0
    assert not brown["uses_average"]
    for pr, cost in ((problem_a, 19.0), (problem_b, 23.0)):
        assert search_triplets(_named_pool(), [pr], syn).baseline["total_cost"] == cost


def test_search_single_problem_cost(problem_b):
    syn = SyntheticCostModel()
    report = search_triplets(_named_pool(), [problem_b], syn)
    fm = feature_matrix(selected_triplet(), problem_b)
    assert _row(report, (3, 4, 5))["total_cost"] == syn.cost(problem_b, lex_order(fm))


def test_search_flags_averages(problem_a):
    report = search_triplets(_average_pool(), [problem_a], SyntheticCostModel())
    # av_m sum_p, then Brown's first two features.
    assert _row(report, (0, 3, 4))["uses_average"]


def test_search_matches_brute_force():
    dataset = random_dataset(GenConfig(seed=0), 200)
    oracle = SyntheticCostModel()
    for fs, triplets in ((_named_pool(), 120), (_average_pool(), 60)):
        report = search_triplets(fs, dataset, oracle)
        assert report.triplet_count == triplets
        best_cost, best_ids = _brute_force_best(fs, dataset, oracle)
        top = report.ranked[0]
        assert top["total_cost"] == best_cost
        assert tuple(top["features"]) == best_ids
        # Ranking is a total order, ascending.
        costs = [row["total_cost"] for row in report.ranked]
        assert costs == sorted(costs)


def test_search_noisy_oracle_average_pool_matches_brute_force():
    # Noise separates orderings that the plain model prices alike, and the
    # av_* pool brings fractional values and ties into the rank keys.
    dataset = random_dataset(GenConfig(seed=6), 80)
    oracle = SyntheticCostModel(noise_seed=3, noise_scale=0.3)
    report = search_triplets(_average_pool(), dataset, oracle)
    best_cost, best_ids = _brute_force_best(_average_pool(), dataset, oracle)
    assert report.ranked[0]["total_cost"] == best_cost
    assert tuple(report.ranked[0]["features"]) == best_ids
    for row in report.ranked:
        triplet = tuple(_average_pool().descriptors[i] for i in row["features"])
        assert row["total_cost"] == sum(
            oracle.cost(pr, lex_order(feature_matrix(triplet, pr))) for pr in dataset
        )


# One representative of each of the grammar's value classes.
_CLASS_REPS = dedup_features(enumerate_descriptors()).descriptors


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_CLASS_REPS), min_size=3, max_size=5, unique=True),
       st.lists(problem_instances(min_vars=1, max_vars=8), min_size=1, max_size=6))
@example(list(_CLASS_REPS[:5]), [
    parse_problem("vars: x\nx^3 + 2"),
    parse_problem("vars: a,b,c,d,e,f,g,h\na^2*h\nb*c^3 + d\ne*f*g^2 - h^5"),
])
def test_search_totals_match_brute_force_on_mixed_variable_counts(pool, dataset):
    # One dataset mixes variable counts, so each problem has its own scale
    # and its own radix for the search's packed keys (n^3 per variable).
    fs = FeatureSet.from_descriptors(pool)
    oracle = SyntheticCostModel(noise_seed=3, noise_scale=0.3)
    report = search_triplets(fs, dataset, oracle)
    for row in report.ranked:
        triplet = tuple(fs.descriptors[i] for i in row["features"])
        assert row["total_cost"] == sum(
            oracle.cost(pr, lex_order(feature_matrix(triplet, pr))) for pr in dataset
        )


_values = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(_values, min_size=n, max_size=n), min_size=3, max_size=3)
))
def test_dense_rank_rows_order_as_value_rows(columns):
    # Each column ranked within itself, as the search ranks a descriptor
    # within a problem; small value ranges make ties common.
    values = tuple(zip(*columns))
    ranked = tuple(zip(*(_dense_ranks(col) for col in columns)))
    assert lex_order(ranked) == lex_order(values)


def test_search_rank1_not_worse_than_brown():
    fs = _named_pool()
    dataset = random_dataset(GenConfig(seed=3), 120)
    report = search_triplets(fs, dataset, SyntheticCostModel())
    assert report.ranked[0]["total_cost"] <= report.baseline["total_cost"]
    assert report.baseline["features"] == [0, 1, 2]


def test_search_degenerate_oracle_ties_fall_back_to_encoding(problem_a):
    class FlatOracle:
        def cost(self, pr, ordering):
            return 1.0

        def describe(self):
            return "flat"

    fs = _named_pool()
    report = search_triplets(fs, [problem_a], FlatOracle())
    ids = [tuple(row["features"]) for row in report.ranked]
    assert ids == sorted(ids)


def test_search_top_k(problem_a, problem_b):
    fs = _named_pool()
    report = search_triplets(fs, [problem_a, problem_b], SyntheticCostModel(), top_k=1)
    assert len(report.ranked) == 1
    assert report.triplet_count == 120


def test_search_of_one_job_opens_no_thread_pool(problem_a, problem_b, monkeypatch):
    def no_pool(*args):
        raise AssertionError("a thread pool was opened")

    monkeypatch.setattr(cadorder.costmodel, "ThreadPoolExecutor", no_pool)
    fs = _named_pool()
    assert search_triplets(fs, [problem_a, problem_b], SyntheticCostModel(), jobs=1).ranked


def test_search_jobs_deterministic():
    fs = _named_pool()
    dataset = random_dataset(GenConfig(seed=4), 60)
    serial = search_triplets(fs, dataset, SyntheticCostModel(), jobs=1)
    parallel = search_triplets(fs, dataset, SyntheticCostModel(), jobs=8)
    assert json.dumps(serial.to_json(), sort_keys=True) == json.dumps(
        parallel.to_json(), sort_keys=True
    )


class _CountingOracle:
    """Synthetic costs; raises once ``limit`` calls have been made, if given."""

    def __init__(self, limit=None):
        self.inner = SyntheticCostModel()
        self.limit = limit
        self.calls = 0
        self.pairs = []  # (problem id, perm) of each call made
        self.lock = threading.Lock()

    def cost(self, pr, ordering):
        with self.lock:
            if self.calls == self.limit:
                raise RuntimeError("oracle interrupted")
            self.calls += 1
            self.pairs.append((pr.id, ordering.perm))
        return self.inner.cost(pr, ordering)

    def describe(self):
        return self.inner.describe()


def _distinct_pairs(fs, dataset):
    """The (problem, ordering) pairs that Brown's triplet and the pool's triplets pick.

    Computed by the per-problem path, independently of the search's memos.
    """
    triplets = [brown_features()] + [
        tuple(fs.descriptors[i] for i in ids) for ids in enumerate_triplets(fs)
    ]
    return {
        (p, lex_order(feature_matrix(t, pr)).perm)
        for t in triplets
        for p, pr in enumerate(dataset)
    }


def _rows(text):
    """The price rows of a journal's text, below its first line and header."""
    return text.splitlines()[2:]


def test_search_journal_resume(tmp_path):
    fs = _named_pool()
    dataset = random_dataset(GenConfig(seed=5), 40)
    distinct = len(_distinct_pairs(fs, dataset))
    journal = tmp_path / "journal.txt"
    full = search_triplets(fs, dataset, SyntheticCostModel(), journal_path=journal)
    text = journal.read_text()
    lines = text.splitlines()
    assert lines[:2] == [
        f"# oracle: {SyntheticCostModel().describe()}; dataset: {dataset_digest(dataset)}",
        "problem,ordering,time_s,timed_out",
    ]
    assert len(_rows(text)) == distinct
    # Each row is one oracle price: problem id, ordering, repr of the cost.
    by_id = {pr.id: pr for pr in dataset}
    for row in _rows(text):
        problem_id, names, cost, timed_out = row.split(",")
        pr = by_id[problem_id]
        assert cost == repr(SyntheticCostModel().cost(pr, parse_ordering(names, pr)))
        assert timed_out == "false"

    # Simulate a kill at 50%: keep half the rows, then resume.
    half = tmp_path / "half.txt"
    half.write_text("\n".join(lines[: 2 + distinct // 2]) + "\n")
    oracle = _CountingOracle()
    resumed = search_triplets(fs, dataset, oracle, journal_path=half)
    assert resumed.to_json() == full.to_json()
    assert oracle.calls == distinct - distinct // 2
    # The missing pairs are priced in the order a fresh search meets them.
    assert half.read_text() == text

    # A complete journal prices everything: no oracle call, same report.
    oracle = _CountingOracle()
    assert search_triplets(fs, dataset, oracle, journal_path=half).to_json() == full.to_json()
    assert oracle.calls == 0
    assert half.read_text() == text


def test_search_journal_drops_torn_last_line(tmp_path):
    fs = _named_pool()
    dataset = random_dataset(GenConfig(seed=5), 40)
    journal = tmp_path / "journal.txt"
    full = search_triplets(fs, dataset, SyntheticCostModel(), journal_path=journal)
    text = journal.read_text()
    lines = text.splitlines()

    # A write torn mid-number: "rnd-5-3,x0>x2>x1,1" would price the pair at 1.0 if trusted.
    problem_id, names, cost, _ = lines[12].split(",")
    torn_line = f"{problem_id},{names},{cost[0]}"
    assert float(cost[0]) != float(cost)
    torn = tmp_path / "torn.txt"
    torn.write_text("\n".join(lines[:12]) + "\n" + torn_line)
    oracle = _CountingOracle()
    resumed = search_triplets(fs, dataset, oracle, journal_path=torn)
    assert resumed.to_json() == full.to_json()
    assert oracle.calls == len(lines) - 12
    assert torn.read_text() == text


def _preamble(dataset):
    return (f"# oracle: {SyntheticCostModel().describe()}; dataset: {dataset_digest(dataset)}\n"
            "problem,ordering,time_s,timed_out\n")


_PRICE_ROW = "rnd-5-0,x0>x1>x2,12.5,false\n"


def _assert_journal_rejected(journal, text, line, match=""):
    journal.write_text(text)
    with pytest.raises(ValueError, match=f"journal.txt:{line}: .*{match}"):
        search_triplets(_named_pool(), random_dataset(GenConfig(seed=5), 5),
                        SyntheticCostModel(), journal_path=journal)
    assert journal.read_text() == text


@pytest.mark.parametrize(
    "bad, match",
    [
        ("rnd-5-1;x0>x1>x2,3.0,false", "expected 4 fields"),
        ("rnd-5-1,x0>x1>x2,abc,false", "bad time_s"),
        ("rnd-5-5,x0>x1>x2,3.0,false", "no problem 'rnd-5-5'"),  # a dataset of 5
        ("-1,x0>x1>x2,3.0,false", "no problem '-1'"),
        ("1,x0>x1>x2,3.0,false", "no problem '1'"),  # an index, as older journals keyed rows
        ("rnd-5-1,x0>x1,3.0,false", "exactly once"),  # partial ordering
        ("rnd-5-1,x0>x1>x1,3.0,false", "exactly once"),
        ("rnd-5-1,x0>x1>x3,3.0,false", "unknown variable"),
        ("rnd-5-1,x0>x1>x2,-1.0,false", "negative time"),
        ("rnd-5-1,x0>x1>x2,3.0,maybe", "timed_out must be true/false"),
        ("rnd-5-1,x0>x1>x2,3.0,true", "timeout_s is required"),
        ("0,12.5,3", "expected 4 fields"),  # a triplet line of the older index,total,wins format
        ("1,x0>x1>x2,3.0", "expected 4 fields"),  # a price line of the older format
        ("1,x0>x1>x2", "expected 4 fields"),  # a pair without its cost
        ("1,12.5", "expected 4 fields"),  # a line of the oldest index,total format
    ],
)
def test_search_journal_bad_row_raises(tmp_path, bad, match):
    text = _preamble(random_dataset(GenConfig(seed=5), 5)) + _PRICE_ROW + bad + "\n"
    _assert_journal_rejected(tmp_path / "journal.txt", text, 4, match)


def test_search_journal_repeated_pair_raises(tmp_path):
    text = _preamble(random_dataset(GenConfig(seed=5), 5)) + _PRICE_ROW
    _assert_journal_rejected(tmp_path / "journal.txt",
                             text + "rnd-5-1,x0>x1>x2,3.0,false\nrnd-5-0,x0>x1>x2,13.0,false\n",
                             5, "duplicate key")
    # The same pair, spelled with spaces around its variable names.
    _assert_journal_rejected(tmp_path / "journal.txt", text + "rnd-5-0,x0 > x1 > x2,13.0,false\n",
                             4, "already on file")


@pytest.mark.parametrize("first_line", [
    pytest.param("# oracle: synthetic(step=3.0,noise_seed=None,noise_scale=0.0); dataset: {digest}",
                 id="other-oracle"),
    pytest.param("# oracle: {oracle}; dataset: 0000000000000000", id="other-dataset"),
    pytest.param("problem,ordering,time_s,timed_out", id="table-without-first-line"),
    pytest.param("0,x0>x1>x2,12.5", id="older-index-keyed-journal"),
    pytest.param('[{"kernel": "DEGREE", "pipeline": ["max_mp", "id", "id", "id"]}]',
                 id="pool-json-without-newline"),
])
def test_search_journal_of_another_run_is_left_as_it_is(tmp_path, first_line):
    dataset = random_dataset(GenConfig(seed=5), 5)
    text = first_line.replace("{oracle}", SyntheticCostModel().describe()).replace(
        "{digest}", dataset_digest(dataset))
    if not text.startswith("["):
        text += "\n" + _PRICE_ROW
    journal = tmp_path / "journal.txt"
    journal.write_text(text)
    oracle = _CountingOracle()
    with pytest.raises(ValueError, match="journal.txt:1: first line .* is not this run's"):
        search_triplets(_named_pool(), dataset, oracle, journal_path=journal)
    assert journal.read_text() == text
    assert oracle.calls == 0


def test_search_empty_journal_starts_fresh(tmp_path):
    dataset = random_dataset(GenConfig(seed=5), 5)
    fresh, empty = tmp_path / "fresh.txt", tmp_path / "empty.txt"
    empty.write_text("")
    search_triplets(_named_pool(), dataset, SyntheticCostModel(), journal_path=fresh)
    search_triplets(_named_pool(), dataset, SyntheticCostModel(), journal_path=empty)
    assert empty.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("ids", [["a", "b", "a"], ["a", None, "c"], ["a", " b", "c"]],
                         ids=["repeated", "none", "space"])
def test_search_journal_needs_distinct_problem_ids(tmp_path, ids):
    dataset = [pr.with_id(i) for pr, i in zip(random_dataset(GenConfig(seed=5), 3), ids)]
    oracle = _CountingOracle()
    with pytest.raises(ValueError, match="distinct problem ids"):
        search_triplets(_named_pool(), dataset, oracle, journal_path=tmp_path / "j.txt")
    assert oracle.calls == 0
    assert not (tmp_path / "j.txt").exists()
    # Without a journal, ids are not needed.
    search_triplets(_named_pool(), dataset, oracle)


def test_search_journal_round_trips_ids_with_commas_and_quotes(tmp_path):
    fs = _named_pool()
    ids = ['p,"0"', "p'1", 'say "hi", twice']
    dataset = [pr.with_id(i) for pr, i in zip(random_dataset(GenConfig(seed=5), 3), ids)]
    journal = tmp_path / "journal.txt"
    full = search_triplets(fs, dataset, SyntheticCostModel(), journal_path=journal)
    assert {problem for problem, _ in load_timing_table(journal).records} == set(ids)
    oracle = _CountingOracle()
    assert search_triplets(fs, dataset, oracle, journal_path=journal).to_json() == full.to_json()
    assert oracle.calls == 0


def test_search_journal_replays_as_a_timing_table(tmp_path):
    fs = _named_pool()
    dataset = random_dataset(GenConfig(seed=5), 20)
    journal = tmp_path / "journal.txt"
    full = search_triplets(fs, dataset, SyntheticCostModel(), journal_path=journal)
    table = load_timing_table(journal)
    index = {pr.id: p for p, pr in enumerate(dataset)}
    assert {(index[problem], parse_ordering(names, dataset[index[problem]]).perm)
            for problem, names in table.records} == _distinct_pairs(fs, dataset)
    # The table is the replay's only oracle: no solver and no synthetic model.
    replay = search_triplets(fs, dataset, table)
    assert replay.ranked == full.ranked
    assert replay.baseline == full.baseline
    assert replay.oracle_id.startswith("table(")


def test_search_journal_bytes_equal_for_any_jobs(tmp_path):
    fs = _average_pool()
    dataset = random_dataset(GenConfig(seed=8), 30)
    journals = []
    for jobs in (1, 4):
        path = tmp_path / f"journal-{jobs}.txt"
        search_triplets(fs, dataset, SyntheticCostModel(), journal_path=path, jobs=jobs)
        journals.append(path.read_bytes())
    assert journals[0] == journals[1]
    assert len(_rows(journals[0].decode())) == len(_distinct_pairs(fs, dataset))


# sha256 of the journal a fresh seed-5 search writes; recorded while search
# still wrote its journal itself, before the price store took it over.
PINNED_JOURNAL = "ba6974964b6f865c33657175cca8423666dd7011d14c84bbbb6eae39f6688ddb"


@pytest.mark.parametrize("jobs", [1, 4])
def test_search_journal_bytes_are_pinned(tmp_path, jobs):
    journal = tmp_path / "journal.txt"
    search_triplets(_named_pool(), random_dataset(GenConfig(seed=5), 40), SyntheticCostModel(),
                    journal_path=journal, jobs=jobs)
    assert hashlib.sha256(journal.read_bytes()).hexdigest() == PINNED_JOURNAL


def test_search_journal_of_smaller_pool_prices_only_new_pairs(tmp_path):
    # The journal holds prices, not totals, so it serves any pool on the same data.
    dataset = random_dataset(GenConfig(seed=5), 20)
    small = FeatureSet.from_descriptors(_named_pool().descriptors[:4])
    journal = tmp_path / "journal.txt"
    search_triplets(small, dataset, SyntheticCostModel(), journal_path=journal)

    oracle = _CountingOracle()
    resumed = search_triplets(_named_pool(), dataset, oracle, journal_path=journal)
    fresh = search_triplets(_named_pool(), dataset, SyntheticCostModel())
    assert resumed.to_json() == fresh.to_json()
    index = {pr.id: p for p, pr in enumerate(dataset)}
    called = [(index[problem_id], perm) for problem_id, perm in oracle.pairs]
    new = _distinct_pairs(_named_pool(), dataset) - _distinct_pairs(small, dataset)
    assert new
    assert sorted(called) == sorted(new)


def test_search_prices_each_triplet_once():
    dataset = random_dataset(GenConfig(seed=5), 10)
    oracle = _CountingOracle()
    report = search_triplets(_named_pool(), dataset, oracle)
    assert len(report.ranked) == report.triplet_count == 120
    # Every triplet is priced, and every distinct (problem, ordering) pair
    # that Brown's triplet or a pool triplet picks reaches the oracle once.
    assert oracle.calls == len(_distinct_pairs(_named_pool(), dataset))


def test_search_oracle_calls_equal_distinct_pairs_for_any_jobs():
    fs = _average_pool()
    dataset = random_dataset(GenConfig(seed=8), 30)
    distinct = len(_distinct_pairs(fs, dataset))
    reports = []
    for jobs in (1, 4):
        oracle = _CountingOracle()
        reports.append(search_triplets(fs, dataset, oracle, jobs=jobs).to_json())
        assert oracle.calls == distinct
    assert reports[0] == reports[1]


def _pricer_without_memo(descriptors, dataset, store):
    """The search's pricer with no (n, key) memo: ``lex_order`` per problem and new rank triple."""
    rows = [scaled_matrix(descriptors, pr)[1] for pr in dataset]
    by_triples = [{} for _ in dataset]

    def costs(ids):
        triples = [tuple(zip(*(_dense_ranks([row[i] for row in r]) for i in ids))) for r in rows]
        found = list(map(dict.get, by_triples, triples))
        missing = [(p, search.lex_order(triples[p])) for p, cost in enumerate(found)
                   if cost is None]
        for (p, _), cost in zip(missing, store.prices(missing)):
            found[p] = by_triples[p][triples[p]] = cost
        return found

    return costs


def test_search_orders_each_distinct_key_once_with_the_same_report(tmp_path, monkeypatch):
    # n = 2, 3 and 4 in one dataset: one packed key names different rank
    # triples at different n (all ties is key 0 at every n).
    dataset = [pr for n, seed in ((2, 1), (3, 2), (4, 3))
               for pr in random_dataset(GenConfig(n_vars=n, seed=seed), 12)]
    fs = _average_pool()
    runs = []
    for pricer in (search._pricer, _pricer_without_memo):
        calls = []
        monkeypatch.setattr(search, "_pricer", pricer)
        monkeypatch.setattr(search, "lex_order", lambda rows: calls.append(rows) or lex_order(rows))
        oracle = _CountingOracle()
        journal = tmp_path / f"{pricer.__name__}.txt"
        report = search_triplets(fs, dataset, oracle, journal_path=journal)
        runs.append((report.to_json(), report.to_csv(), journal.read_bytes(), oracle.pairs, calls))
    (memo, *memo_outputs, memo_calls), (plain, *plain_outputs, plain_calls) = runs
    assert memo == plain and memo_outputs == plain_outputs
    # The memo orders each distinct (n, rank triples) once.
    distinct = {(len(rows), tuple(rows)) for rows in plain_calls}
    assert len(memo_calls) == len(distinct) < len(plain_calls)


def _stop_limits(fs, dataset):
    """Oracle call counts to stop a search at: inside the first batch, and midway.

    The first batch is Brown's triplet's pairs, one new pair per problem,
    so a stop inside it tells a journal written per price from one written
    per batch.
    """
    return len(dataset) // 2, len(_distinct_pairs(fs, dataset)) // 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_search_interrupted_journal_resumes(tmp_path, jobs):
    fs = _named_pool()
    dataset = random_dataset(GenConfig(seed=5), 10)
    full_journal = tmp_path / "full.txt"
    fresh = search_triplets(fs, dataset, SyntheticCostModel(), journal_path=full_journal)
    distinct = len(_distinct_pairs(fs, dataset))

    for limit in _stop_limits(fs, dataset):
        journal = tmp_path / f"journal-{limit}.txt"
        with pytest.raises(RuntimeError, match="interrupted"):
            search_triplets(fs, dataset, _CountingOracle(limit=limit),
                            journal_path=journal, jobs=jobs)
        text = journal.read_text()
        lines = _rows(text)
        # Prices are written on the calling thread in the order the scan
        # asks for them, so with any worker count the journal is a prefix
        # of a fresh one.  With one worker it holds every price paid; with
        # more, a price that arrived after the failed call in that order is
        # not on file.
        assert full_journal.read_text().startswith(text)
        if jobs == 1:
            assert len(lines) == limit
        else:
            assert len(lines) <= limit

        resumed_oracle = _CountingOracle()
        resumed = search_triplets(fs, dataset, resumed_oracle, journal_path=journal, jobs=jobs)
        assert resumed.to_json() == fresh.to_json()
        assert resumed_oracle.calls == distinct - len(lines)
        assert journal.read_text() == full_journal.read_text()


_KILLED_SEARCH = """
import os, signal, sys
from cadorder.costmodel import SyntheticCostModel
from cadorder.datagen import GenConfig, random_dataset
from cadorder.features import FeatureSet, brown_features, selected_triplet
from cadorder.search import search_triplets

inner = SyntheticCostModel()
calls = 0

class KillingOracle:
    def cost(self, pr, ordering):
        global calls
        if calls == int(sys.argv[2]):
            os.kill(os.getpid(), signal.SIGKILL)
        calls += 1
        return inner.cost(pr, ordering)

    def describe(self):
        return inner.describe()

pool = FeatureSet.from_descriptors(brown_features() + selected_triplet())
search_triplets(pool, random_dataset(GenConfig(seed=5), 10), KillingOracle(), journal_path=sys.argv[1])
"""


def test_search_killed_process_journal_resumes(tmp_path):
    fs = _named_pool()
    dataset = random_dataset(GenConfig(seed=5), 10)
    fresh = search_triplets(fs, dataset, SyntheticCostModel())
    distinct = len(_distinct_pairs(fs, dataset))

    for limit in _stop_limits(fs, dataset):
        # The process kills itself at its oracle call number ``limit + 1``.
        journal = tmp_path / f"journal-{limit}.txt"
        src = Path(cadorder.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_SEARCH, str(journal), str(limit)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        text = journal.read_text()
        assert text.endswith("\n")
        assert len(_rows(text)) == limit

        resumed_oracle = _CountingOracle()
        resumed = search_triplets(fs, dataset, resumed_oracle, journal_path=journal)
        assert resumed.to_json() == fresh.to_json()
        assert resumed_oracle.calls == distinct - limit


def test_report_csv_shape(problem_a, problem_b):
    fs = _named_pool()
    report = search_triplets(fs, [problem_a, problem_b], SyntheticCostModel(), top_k=3)
    lines = report.to_csv().splitlines()
    assert lines[0] == "rank,f1,f2,f3,total_cost,wins_vs_brown"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[4]) == report.ranked[0]["total_cost"]


def test_report_json_round_trip(tmp_path, problem_a):
    fs = _named_pool()
    report = search_triplets(fs, [problem_a], SyntheticCostModel(), top_k=2)
    path = tmp_path / "report.json"
    report.save_json(path)
    payload = json.loads(path.read_text())
    assert payload["pool_size"] == 6
    assert payload["dataset_id"] == dataset_digest([problem_a])
    assert payload["oracle_id"].startswith("synthetic")
