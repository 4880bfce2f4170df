"""Acceptance suite: one test per release criterion, printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they pass; on failure the line is captured in the test report.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import permutations

from conftest import PROBLEM_A_TEXT, PROBLEM_B_TEXT, PROBLEM_C_TEXT
from cadorder.cli import main
from cadorder.costmodel import SyntheticCostModel
from cadorder.datagen import GenConfig, random_dataset
from cadorder.features import (
    FeatureSet,
    brown_features,
    dedup_features,
    default_probe,
    enumerate_descriptors,
    eval_feature,
    feature_matrix,
    selected_triplet,
)
from cadorder.heuristics import (
    BaseWeightError,
    Rule,
    base_weight,
    check_equivalence,
    layer2_scores,
    lex_order,
    order_by_scores,
    radix_scores,
)
from cadorder.polyset import parse_problem
from cadorder.search import enumerate_triplets, search_triplets
from cadorder.training import (
    TrainConfig,
    _loss_and_gradient,
    fit_feature_scale,
    train,
)


class _verdict:
    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number:02d}: {self.name}")
        return False


def test_c01_network_equals_lexicographic_on_10k_problems():
    with _verdict(1, "network ordering == lexicographic ordering, 10,000 problems"):
        started = time.perf_counter()
        problems = random_dataset(GenConfig(), 10_000)
        report = check_equivalence(problems)
        elapsed = time.perf_counter() - started
        assert report.total == 10_000
        assert report.mismatches == []
        assert report.violations == []
        # The sweep genuinely exercises full ties between variables.
        triplet = brown_features()
        full_ties = sum(
            1
            for pr in problems[:500]
            if len(set(feature_matrix(triplet, pr))) < pr.n_vars
        )
        assert full_ties > 0
        assert elapsed <= 30.0, f"took {elapsed:.1f}s"


def test_c02_selected_weight_is_sharp():
    with _verdict(2, "base weight is minimal: w - 1 fails the bound"):
        triplet = brown_features()
        for pr in random_dataset(GenConfig(seed=1), 1_000):
            fm = feature_matrix(triplet, pr)
            w = base_weight(fm)
            radix_scores(fm, w, pr.id)  # every value is below w - 1
            if max(map(max, fm)) >= 1:
                try:
                    radix_scores(fm, w - 1, pr.id)
                except BaseWeightError:
                    continue
                raise AssertionError(f"w={w} not minimal on {pr.id}")


def test_c03_argmax_neuron_equals_descending_sort():
    with _verdict(3, "layer-2 argmax == descending sort with index tie-break"):
        rng = random.Random(0)
        for round_no in range(10_000):
            n = rng.choice((2, 3, 4))
            y = [Fraction(rng.randint(-30, 30), rng.randint(1, 8)) for _ in range(n)]
            if round_no % 3 == 0:
                y[rng.randrange(n)] = y[rng.randrange(n)]  # forced tie
            scores = layer2_scores(y)
            best = 0
            for i in range(1, len(scores)):
                if scores[i] > scores[best]:
                    best = i
            argmax_perm = list(permutations(range(n)))[best]
            expected = tuple(sorted(range(n), key=lambda v: (-y[v], v)))
            assert argmax_perm == expected
            assert order_by_scores(y).perm == expected


def test_c04_hand_derived_feature_values():
    with _verdict(4, "six named features reproduce hand-derived values"):
        a = parse_problem(PROBLEM_A_TEXT, problem_id="a")
        b = parse_problem(PROBLEM_B_TEXT, problem_id="b")
        c = parse_problem(PROBLEM_C_TEXT, problem_id="c")
        f1, f2, f3 = brown_features()
        t1, t2, t3 = selected_triplet()

        def values(fd, pr):
            return [eval_feature(fd, pr, v) for v in range(3)]

        assert values(f1, a) == [2, 1, 2]
        assert values(f2, a) == [3, 3, 3]
        assert values(f3, a) == [2, 1, 2]
        assert values(f1, b) == [3, 2, 1]
        assert values(f2, b) == [3, 2, 2]
        assert values(f3, b) == [2, 2, 1]
        assert values(t1, a) == [3, 1, 3]
        assert values(t2, a) == [6, 3, 4]
        assert values(t3, a) == [2, 1, 2]
        assert values(t1, b) == [4, 3, 1]
        assert values(t2, b) == [4, 4, 2]
        assert values(t3, b) == [2, 2, 1]
        assert values(f1, c) == [2, 0, 0]
        assert values(f2, c) == [2, 0, 0]
        assert values(f3, c) == [2, 0, 0]
        assert values(t1, c) == [2, 0, 0]
        assert values(t2, c) == [2, 0, 0]
        assert values(t3, c) == [1, 0, 0]


def test_c05_containment_features_occupy_distinct_classes():
    with _verdict(5, "monomial vs polynomial containment separate under dedup"):
        fs = dedup_features(enumerate_descriptors(), default_probe())
        monomial_count = brown_features()[2]
        polynomial_count = selected_triplet()[2]
        rep_of = {fd: rep for rep, members in fs.provenance.items() for fd in members}
        assert monomial_count in rep_of and polynomial_count in rep_of
        assert rep_of[monomial_count] != rep_of[polynomial_count]


def test_c06_search_matches_independent_brute_force():
    with _verdict(6, "exhaustive search rank-1 == independent brute force"):
        started = time.perf_counter()
        pool = FeatureSet.from_descriptors(brown_features() + selected_triplet())
        dataset = random_dataset(GenConfig(seed=0), 200)
        oracle = SyntheticCostModel()
        report = search_triplets(pool, dataset, oracle)

        best = None
        for ids in permutations(range(6), 3):
            triplet = tuple(pool.descriptors[i] for i in ids)
            total = sum(
                oracle.cost(pr, lex_order(feature_matrix(triplet, pr)))
                for pr in dataset
            )
            if best is None or (total, ids) < best:
                best = (total, ids)
        elapsed = time.perf_counter() - started

        assert report.triplet_count == 120
        assert tuple(report.ranked[0]["features"]) == best[1]
        assert report.ranked[0]["total_cost"] == best[0]
        assert elapsed <= 10.0, f"took {elapsed:.1f}s"


def test_c07_triplet_count_law():
    with _verdict(7, "ordered-triplet count is k(k-1)(k-2); k=28 gives 19,656"):
        descriptors = enumerate_descriptors()
        for k in (3, 6, 28):
            fs = FeatureSet.from_descriptors(descriptors[:k])
            assert len(enumerate_triplets(fs)) == k * (k - 1) * (k - 2)
        assert 28 * 27 * 26 == 19_656


def test_c08_gradient_matches_central_differences():
    with _verdict(8, "analytic gradient vs central finite differences"):
        started = time.perf_counter()
        rng = random.Random(11)
        triplet = selected_triplet()
        problems = random_dataset(GenConfig(seed=8), 60)
        matrices = [feature_matrix(triplet, pr) for pr in problems]
        scale = fit_feature_scale(matrices)
        h = 1e-4

        for _ in range(120):
            weights = [rng.uniform(-4, 4) for _ in range(3)]
            net = Rule(triplet, weights, scale)
            batch = [
                (
                    net.scaled_rows(matrices[rng.randrange(len(matrices))]),
                    rng.randrange(6),
                )
                for _ in range(rng.randint(1, 5))
            ]
            analytic = _loss_and_gradient(weights, batch, 1.0)[1]
            numeric = []
            for i in range(3):
                up, down = list(weights), list(weights)
                up[i] += h
                down[i] -= h
                numeric.append(
                    (
                        _loss_and_gradient(up, batch, 1.0)[0]
                        - _loss_and_gradient(down, batch, 1.0)[0]
                    )
                    / (2 * h)
                )
            norm = math.sqrt(sum(x * x for x in numeric))
            diff = math.sqrt(sum((a - b) ** 2 for a, b in zip(analytic, numeric)))
            # Near-zero gradients sit at the finite-difference noise floor,
            # where a ratio is meaningless; an absolute bound covers them.
            assert diff <= 1e-8 or diff / norm <= 1e-4
        elapsed = time.perf_counter() - started
        assert elapsed <= 5.0, f"took {elapsed:.1f}s"


def test_c09_training_improves_and_learns():
    with _verdict(9, "tuning never loses to the frozen start; sanity task learns"):
        started = time.perf_counter()
        oracle = SyntheticCostModel()
        triplet = selected_triplet()

        train_set = random_dataset(GenConfig(seed=1), 2_000)
        val_set = random_dataset(GenConfig(seed=2), 500)
        report = train(
            Rule.brown_init(triplet), train_set, val_set, oracle, TrainConfig()
        )
        assert report.best_val_cost <= report.epoch0_val_cost

        # Sanity task: the synthetic optimum sorts by the first feature
        # alone; start from weights that rank by the third instead.
        sane_train = random_dataset(GenConfig(seed=5), 600)
        sane_val = random_dataset(GenConfig(seed=6), 200)
        wrong_init = Rule(triplet, [0.0, 0.0, 1.0])
        sanity = train(
            wrong_init,
            sane_train,
            sane_val,
            oracle,
            TrainConfig(learning_rate=0.05, epochs=50, batch_size=64, seed=0),
        )
        assert max(e.val_accuracy for e in sanity.entries[1:]) >= 0.90
        elapsed = time.perf_counter() - started
        assert elapsed <= 120.0, f"took {elapsed:.1f}s"


def test_c10_cli_outputs_independent_of_worker_count(tmp_path):
    with _verdict(10, "search outputs byte-identical across --jobs; check agrees"):
        data = tmp_path / "data"
        assert main(["gen", "--seed", "0", "--count", "40", "--out", str(data)]) == 0
        pool = tmp_path / "pool.json"
        FeatureSet.from_descriptors(brown_features() + selected_triplet()).save(pool)

        outputs = {}
        for jobs in ("1", "8"):
            prefix = tmp_path / f"search-j{jobs}"
            assert main([
                "search",
                "--pool", str(pool),
                "--data", str(data),
                "--jobs", jobs,
                "--out", str(prefix),
            ]) == 0
            outputs[jobs] = (
                (tmp_path / f"search-j{jobs}.json").read_bytes(),
                (tmp_path / f"search-j{jobs}.csv").read_bytes(),
            )
        assert outputs["1"] == outputs["8"]
        check_out = tmp_path / "check.json"
        assert main(["check", "--data", str(data), "--out", str(check_out)]) == 0
        payload = json.loads(check_out.read_text())
        assert payload["mismatches"] == []
