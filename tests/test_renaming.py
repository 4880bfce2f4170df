"""Renaming a problem's variables renames everything computed from it.

``relabel(pr, perm)`` makes variable i the old variable ``perm[i]``, with
its name and its degrees: the same problem under another variable order.
Feature rows, the variables a rule names, noise-free prices, search
totals and ``check`` must follow the names.  Where rows tie, the variable
index breaks the tie, so a renaming may pick another of the tied
orderings; those problems are left out.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import problem_instances, relabel
from cadorder.costmodel import PriceStore, SyntheticCostModel
from cadorder.features import (
    FeatureSet,
    brown_features,
    dedup_features,
    enumerate_descriptors,
    feature_matrix,
    selected_triplet,
)
from cadorder.heuristics import Ordering, Rule, check_equivalence, parse_ordering
from cadorder.search import enumerate_triplets, search_triplets

REPRESENTATIVES = dedup_features(enumerate_descriptors()).descriptors

RULES = [
    Rule(brown_features()),
    Rule(selected_triplet()),
    # The default pipeline's tuned network, and one that weighs Brown's rows.
    Rule(selected_triplet(), [0.6823740330529985, -1.2035398602233545, -1.341488708574056],
         (4.0, 1.0, 1.0)),
    Rule(brown_features(), [-0.5, 1.25, 3.0], (2.0, 3.0, 1.0)),
]


@st.composite
def relabelled(draw, min_vars=1, max_vars=4):
    """A problem, a permutation of its variables and the problem relabelled by it."""
    pr = draw(problem_instances(min_vars=min_vars, max_vars=max_vars))
    perm = tuple(draw(st.permutations(range(pr.n_vars))))
    return pr, perm, relabel(pr, perm)


@settings(max_examples=100, deadline=None)
@given(relabelled())
def test_representative_rows_permute_with_the_variables(case):
    pr, perm, renamed = case
    assert len(REPRESENTATIVES) == 27
    rows = feature_matrix(REPRESENTATIVES, pr)
    assert list(feature_matrix(REPRESENTATIVES, renamed)) == [rows[j] for j in perm]
    inverse = tuple(sorted(range(len(perm)), key=perm.__getitem__))
    assert relabel(renamed, inverse) == pr


@settings(max_examples=150, deadline=None)
@given(relabelled(min_vars=2), st.sampled_from(RULES))
def test_a_rule_names_the_same_variables_in_the_same_order(case, rule):
    pr, _, renamed = case
    rows = feature_matrix(rule.triplet, pr)
    assume(len(set(rows)) == len(rows))
    if rule.weights is not None:
        assume(len(set(rule.scores(rows))) == len(rows))
    ordering = rule.order(feature_matrix(rule.triplet, renamed))
    assert ordering.names(renamed) == rule.order(rows).names(pr)


@settings(max_examples=100, deadline=None)
@given(relabelled(), st.data())
def test_the_noise_free_price_of_a_named_ordering_is_unchanged(case, data):
    pr, _, renamed = case
    ordering = Ordering(tuple(data.draw(st.permutations(range(pr.n_vars)))))
    same = parse_ordering(ordering.names(pr), renamed)
    oracle = SyntheticCostModel()
    assert oracle.cost(renamed, same) == oracle.cost(pr, ordering)
    assert PriceStore(oracle, [renamed]).prices([(0, same)]) == [oracle.cost(pr, ordering)]


@settings(max_examples=60, deadline=None)
@given(st.lists(relabelled(), min_size=1, max_size=4), st.sampled_from(RULES))
def test_check_finds_no_mismatch_on_relabelled_data(cases, rule):
    report = check_equivalence([renamed for _, _, renamed in cases], rule)
    assert report.ok and report.total == len(cases)


# Classes that rarely tie, so that most drawn problems tie on no searched triplet.
POOL = FeatureSet.from_descriptors([REPRESENTATIVES[i] for i in (6, 8, 10, 25)])
SEARCHED = [brown_features()] + [tuple(POOL.descriptors[i] for i in ids)
                                 for ids in enumerate_triplets(POOL)]


def _untied(case) -> bool:
    """No two variables share a row under Brown's or any pool triplet."""
    pr = case[0]
    return all(len(set(feature_matrix(t, pr))) == pr.n_vars for t in SEARCHED)


@settings(max_examples=60, deadline=None)
@given(st.lists(relabelled(min_vars=2, max_vars=4).filter(_untied), min_size=1, max_size=3))
def test_search_totals_are_unchanged(cases):
    oracle = SyntheticCostModel()
    report = search_triplets(POOL, [pr for pr, _, _ in cases], oracle)
    renamed = search_triplets(POOL, [renamed for _, _, renamed in cases], oracle)
    assert renamed.ranked == report.ranked
    assert renamed.baseline == report.baseline
