import functools
import math
import operator
import random
import sys
import time
from array import array
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import problem_instances
from cadorder.datagen import GenConfig, random_dataset
from cadorder.features import brown_features, feature_matrix, selected_triplet
from cadorder.heuristics import (
    MAX_EXPLICIT_LAYER,
    BaseWeightError,
    Ordering,
    Rule,
    base_weight,
    check_equivalence,
    layer1_columns,
    layer1_scores,
    layer2_backward,
    layer2_columns,
    layer2_scores,
    lex_order,
    order_by_scores,
    parse_ordering,
    permutation_weights,
    radix_scores,
    radix_weights,
    _PACKED_FIELD,
    _order_scores,
    _packed_columns,
    _packed_scores,
    _unrank,
    _weight_columns,
)
from cadorder.polyset import (
    Monomial,
    Polynomial,
    ProblemInstance,
    parse_problem,
)


def test_ordering_validates_permutation():
    with pytest.raises(ValueError):
        Ordering((0, 0, 1))


def test_ordering_names_and_parse(problem_a):
    ordering = Ordering((0, 2, 1))
    assert ordering.names(problem_a) == "x>z>y"
    assert parse_ordering("x>z>y", problem_a) == ordering
    assert ordering.reversed().perm == (1, 2, 0)
    with pytest.raises(ValueError, match="unknown variable"):
        parse_ordering("x>q>y", problem_a)
    # A partial, repeated or overlong ordering of a 3-variable problem.
    for text in ("x>y", "x>x>y", "x>z>y>x"):
        with pytest.raises(ValueError, match="exactly once"):
            parse_ordering(text, problem_a)


def test_base_weight_examples(problem_a, problem_b):
    triplet = brown_features()
    assert base_weight(feature_matrix(triplet, problem_a)) == 5
    assert base_weight(feature_matrix(triplet, problem_b)) == 5
    constant = parse_problem("vars: x\n1")
    assert base_weight(feature_matrix(triplet, constant)) == 2
    # A fractional maximum still gives floor(max) + 2.
    assert base_weight(((Fraction(7, 2), 3, 1), (0, 0, 0))) == 5


def test_lex_order_examples(problem_a, problem_b):
    triplet = brown_features()
    assert lex_order(feature_matrix(triplet, problem_b)).names(problem_b) == "x>y>z"
    assert lex_order(feature_matrix(triplet, problem_a)).names(problem_a) == "x>z>y"
    tied = ((1, 1, 1), (1, 1, 1), (1, 1, 1))
    assert lex_order(tied).perm == (0, 1, 2)


def test_layer1_forward_examples(problem_a, problem_b):
    layer1 = radix_weights(5)
    assert layer1 == (25, 5, 1)
    rows_b = feature_matrix(brown_features(), problem_b)
    assert layer1_scores(layer1, rows_b) == radix_scores(rows_b, 5, "b") == [92, 62, 36]
    rows_a = feature_matrix(brown_features(), problem_a)
    assert layer1_scores(layer1, rows_a) == radix_scores(rows_a, 5, "a") == [67, 41, 67]
    assert layer1_scores(layer1, ((0, 0, 0), (0, 0, 0))) == [0, 0]
    # Exact on Fractions: no float creeps in.
    rows = ((Fraction(1, 3), 2, Fraction(1, 2)),)
    y = layer1_scores(layer1, rows)
    assert y == radix_scores(rows, 5, "f") == [Fraction(1, 3) * 25 + 10 + Fraction(1, 2)]
    assert type(y[0]) is Fraction


def test_layer2_scores_examples():
    scores = layer2_scores((92, 62, 36))
    assert max(scores) == 3 * 92 + 2 * 62 + 36 == 436
    assert scores.index(436) == 0  # neuron of ordering (0, 1, 2)
    assert layer2_scores((0, 0, 0)) == (0,) * 6
    # Each score adds from its first product, so a sum of -0.0 keeps its sign.
    assert _bits(layer2_scores((-0.0, -0.0))) == _bits((-0.0, -0.0))
    best = max(range(6), key=lambda i: layer2_scores((1, 2, 3))[i])
    assert _unrank(3, best) == (2, 1, 0)
    # Built once per n and shared: the same immutable object every call.
    assert permutation_weights(3) is permutation_weights(3)
    assert isinstance(permutation_weights(3), tuple)


def test_layer2_explicit_limit():
    too_many = (0,) * (MAX_EXPLICIT_LAYER + 1)
    message = f"limited to {MAX_EXPLICIT_LAYER} variables"
    with pytest.raises(ValueError, match=message):
        permutation_weights(len(too_many))
    with pytest.raises(ValueError, match=message):
        layer2_scores(too_many)
    with pytest.raises(ValueError, match=message):
        _order_scores(too_many)
    # Past the limit, neither the packed columns nor the neuron table is built.
    with pytest.raises(ValueError, match=message):
        _packed_columns(len(too_many))
    with pytest.raises(ValueError, match=message):
        _order_scores((2**32,) + too_many[1:])


def _dot_per_neuron(y):
    """One left-to-right dot product per neuron, the layer's plain definition.

    ``functools.reduce`` rather than ``sum``: from Python 3.12 ``sum``
    compensates float rounding, which a plain left-to-right sum does not.
    """
    return tuple(
        functools.reduce(operator.add, map(operator.mul, weights, y), 0)
        for weights in permutation_weights(len(y))
    )


def _assert_layer2_matches_reference(y):
    scores, expected = layer2_scores(y), _dot_per_neuron(y)
    assert scores == expected
    assert list(map(type, scores)) == list(map(type, expected))


_LAYER2_VALUES = {
    "int": st.integers(-10**6, 10**6),
    "fraction": st.fractions(min_value=-50, max_value=50, max_denominator=12),
    "float": st.floats(-1e6, 1e6, allow_nan=False),
}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_LAYER2_VALUES)).flatmap(
        lambda kind: st.integers(1, 5).flatmap(
            lambda n: st.lists(_LAYER2_VALUES[kind], min_size=n, max_size=n)
        )
    ),
    st.integers(0, 4),
    st.integers(0, 4),
)
def test_layer2_scores_equal_dot_per_neuron(y, i, j):
    y[i % len(y)] = y[j % len(y)]  # force a tie whenever i and j differ mod n
    _assert_layer2_matches_reference(y)


def _random_vector(rng, kind, n):
    if kind == "int":
        y = [rng.randint(-10**6, 10**6) for _ in range(n)]
    elif kind == "fraction":
        y = [Fraction(rng.randint(-400, 400), rng.randint(1, 12)) for _ in range(n)]
    else:
        y = [rng.uniform(-1e6, 1e6) for _ in range(n)]
    y[rng.randrange(1, n)] = y[0]  # force a tie
    return y


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("kind", sorted(_LAYER2_VALUES))
def test_layer2_scores_equal_dot_per_neuron_large_n(n, kind):
    _assert_layer2_matches_reference(_random_vector(random.Random(f"{kind}-{n}"), kind, n))


@pytest.mark.parametrize("seed", range(4))
def test_argmax_neuron_equals_sort_at_n8_with_ties(seed):
    rng = random.Random(seed)
    ys = [
        [rng.randint(0, 3) for _ in range(8)],
        [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(8)],
        _random_vector(rng, "int", 8),
        [seed] * 8,
    ]
    for y in ys:
        assert _order_scores(y) == order_by_scores(y)


def _expected_packed(y):
    """``layer2_scores(y)`` under the affine map that makes exact ``y`` non-negative ints.

    d * layer2_scores(y) is taken as layer2_scores of the ints d * y_v, the
    same values, since ``layer2_scores`` on Fractions is slow at n = 8.
    """
    n = len(y)
    y = list(map(Fraction, y))
    d = math.lcm(*(v.denominator for v in y))
    offset = d * min(y) * n * (n + 1) // 2
    return [s - offset for s in layer2_scores([int(d * v) for v in y])]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["int", "fraction"]).flatmap(
        lambda kind: st.integers(1, 8).flatmap(
            lambda n: st.lists(_LAYER2_VALUES[kind], min_size=n, max_size=n)
        )
    ),
    st.integers(0, 7),
    st.integers(0, 7),
)
def test_packed_scores_are_layer2_scores_scaled_and_shifted(y, i, j):
    y[i % len(y)] = y[j % len(y)]  # force a tie whenever i and j differ mod n
    scores = _packed_scores(y)
    assert list(scores) == _expected_packed(y)
    assert _order_scores(y) == order_by_scores(y)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(_LAYER2_VALUES["float"], min_size=n, max_size=n)
    ),
    st.integers(0, 5),
    st.integers(0, 5),
)
@example([-0.0, 0.0, 5e-324], 0, 0)
@example([0.1, 0.2, 0.30000000000000004, 0.3], 0, 0)
def test_float_y_is_taken_exactly(y, i, j):
    y[i % len(y)] = y[j % len(y)]  # force a tie whenever i and j differ mod n
    scores = _packed_scores(y)
    if scores is not None:
        assert list(scores) == _expected_packed(y)
    assert _order_scores(y) == order_by_scores(y)


def _with_largest_score(top):
    """y = (0, b, a) with largest score 3a + 2b = ``top``."""
    b = next(b for b in range(3) if (top - 2 * b) % 3 == 0)
    return [0, b, (top - 2 * b) // 3]


@pytest.mark.parametrize("top", [2**32 - 1, 2**32, 2**64])
def test_packed_fields_hold_scores_below_2_pow_32(top):
    y = _with_largest_score(top)
    assert max(layer2_scores(y)) == top
    scores = _packed_scores(y)
    if top < 2**32:
        assert max(scores) == top
        assert list(scores) == _expected_packed(y)
    else:
        assert scores is None  # takes layer2_scores
    assert _order_scores(y) == order_by_scores(y)


@pytest.mark.parametrize("seed", range(3))
def test_order_scores_past_64_bits_equals_sort_at_n8(seed):
    rng = random.Random(seed)
    y = [rng.choice([0, 2**70, 2**70 + 1, rng.randint(0, 2**80)]) for _ in range(8)]
    assert _packed_scores(y) is None
    permutation_weights.cache_clear()
    assert _order_scores(y) == order_by_scores(y)
    # Only this fallback builds the n = 8 neuron table.
    assert permutation_weights.cache_info().currsize == 1


def test_unrank_is_lexicographic_permutation_order():
    for n in range(7):
        assert [_unrank(n, k) for k in range(math.factorial(n))] == list(permutations(range(n)))


def test_neuron_k_weights_the_ordering_unrank_k():
    # Neuron k gives the first variable of ordering _unrank(n, k) weight n, the last 1.
    for n in range(1, 6):
        weights = permutation_weights(n)
        assert len(weights) == math.factorial(n)
        for k, w in enumerate(weights):
            perm = _unrank(n, k)
            assert [w[v] for v in perm] == list(range(n, 0, -1))


def test_every_weight_table_holds_the_same_weights():
    # The neuron table, the gradient's columns and the packed columns read one generator.
    for n in range(1, 7):
        columns = _weight_columns(n)
        assert tuple(zip(*columns)) == permutation_weights(n)
        for column, packed in zip(columns, _packed_columns(n)):
            fields = array(_PACKED_FIELD)
            fields.frombytes(packed.to_bytes(math.factorial(n) * fields.itemsize, sys.byteorder))
            assert list(fields) == list(column)


def _backward_per_neuron(n, dscores, zero):
    """d y_v accumulated neuron by neuron over ``permutation_weights``, from ``zero``."""
    dy = [zero] * n
    for k, weights in enumerate(permutation_weights(n)):
        for v in range(n):
            dy[v] += dscores[k] * weights[v]
    return dy


def _bits(values):
    """Values with each float as its hex form, so signed zeros and last bits compare."""
    return [(type(x), x.hex() if isinstance(x, float) else x) for x in values]


def _samples(size, values):
    """1 to 4 samples, each a list of ``size`` values."""
    return st.lists(st.lists(values, min_size=size, max_size=size), min_size=1, max_size=4)


def _transpose(samples):
    return [list(column) for column in zip(*samples)]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(_LAYER2_VALUES)).flatmap(
        lambda kind: st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.just(kind),
                st.just(n),
                _samples(math.factorial(n), _LAYER2_VALUES[kind]),
            )
        )
    )
)
def test_layer2_backward_equals_per_neuron_loop(case):
    kind, n, samples = case
    columns = layer2_backward(n, _transpose(samples))
    for i, dscores in enumerate(samples):
        expected = _backward_per_neuron(n, dscores, 0.0 if kind == "float" else 0)
        assert _bits([column[i] for column in columns]) == _bits(expected)


_SIGNED_FLOATS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6, allow_nan=False))


def _signed_zero_samples(n):
    """Three samples of n floats: two mixing signed zeros with random values, one all -0.0."""
    rng = random.Random(n)
    mixed = [[rng.choice([0.0, -0.0, rng.uniform(-1e6, 1e6)]) for _ in range(n)] for _ in range(2)]
    return [*mixed, [-0.0] * n]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(lambda n: _samples(n, _SIGNED_FLOATS)),
)
@example(_signed_zero_samples(6))
@example(_signed_zero_samples(7))
@example(_signed_zero_samples(8))
def test_layer2_columns_equal_layer2_scores_per_sample(samples):
    columns = layer2_columns(_transpose(samples))
    assert len(columns) == math.factorial(len(samples[0]))
    for i, y in enumerate(samples):
        assert _bits([column[i] for column in columns]) == _bits(layer2_scores(y))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_SIGNED_FLOATS, min_size=3, max_size=3),
    st.integers(1, 5).flatmap(lambda n: _samples(n, st.tuples(*[_SIGNED_FLOATS] * 3))),
)
def test_layer1_columns_add_left_to_right_from_zero(weights, samples):
    # layer1_scores' sum() up to Python 3.11, spelled out as in _dot_per_neuron.
    # Rows of -0.0 under weights of either sign give y = 0.0, as sum() does.
    columns = [_transpose(var) for var in zip(*samples)]
    ys = layer1_columns(weights, columns)
    for i, rows in enumerate(samples):
        expected = [functools.reduce(operator.add, map(operator.mul, weights, row), 0)
                    for row in rows]
        assert _bits([y[i] for y in ys]) == _bits(expected)


def test_check_does_not_build_permutation_weights():
    problems = random_dataset(GenConfig(n_vars=8, max_degree=3, seed=5), 3)
    permutation_weights.cache_clear()
    for triplet in (brown_features(), selected_triplet()):
        assert check_equivalence(problems, triplet).ok
    # Exact scores below 2**32 take the packed product, never the neuron table.
    assert permutation_weights.cache_info().currsize == 0


# A tuned rule: the pipeline's weights on the selected triplet, feature 1 scaled.
_TUNED = Rule(selected_triplet(), [0.6823740330529985, -1.2035398602233545, -1.341488708574056],
              (4.0, 1.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(problem_instances(min_vars=1, max_vars=4),
       st.lists(st.floats(-4, 4, allow_nan=False), min_size=3, max_size=3))
def test_rule_orders_by_its_scores(pr, weights):
    for triplet in (brown_features(), selected_triplet()):
        rows = feature_matrix(triplet, pr)
        lexicographic = Rule(triplet)
        assert lexicographic.order(rows) == lex_order(rows)
        assert lexicographic.scores(rows) == radix_scores(rows, base_weight(rows), pr.id)
        tuned = Rule(triplet, weights, (2.0, 1.0, 3.0))
        scaled = [tuple(float(x) / s for x, s in zip(row, (2.0, 1.0, 3.0))) for row in rows]
        assert tuned.scores(rows) == layer1_scores(weights, scaled)
        assert tuned.order(rows) == order_by_scores(tuned.scores(rows))
        assert tuned.hard_order(rows) == tuned.order(rows)


@pytest.mark.parametrize(
    "weights, scale, message",
    [
        ([1.0, 2.0], (1.0, 1.0, 1.0), "three weights and three scale divisors"),
        (None, (1.0, 1.0), "three weights and three scale divisors"),
        ([1.0, 2.0, 3.0], (1.0, 0.0, 1.0), "feature scales must be finite and positive"),
        ([float("nan"), 2.0, 3.0], (1.0, 1.0, 1.0), "weights must be finite"),
        ([1.0, float("-inf"), 3.0], (1.0, 1.0, 1.0), "weights must be finite"),
        ([1.0, 2.0, 10**400], (1.0, 1.0, 1.0), "weights must be finite"),
    ],
)
def test_rule_rejects_bad_weights_or_scales(weights, scale, message):
    with pytest.raises(ValueError, match=message):
        Rule(selected_triplet(), weights, scale)
    with pytest.raises(ValueError, match="three feature descriptors required"):
        Rule(selected_triplet()[:2])


def test_check_reads_a_bare_triplet_as_its_lexicographic_rule():
    problems = random_dataset(GenConfig(seed=7), 30)
    for triplet in (brown_features(), selected_triplet()):
        for force_w in (None, 3):
            bare = check_equivalence(problems, triplet, force_w=force_w)
            assert bare == check_equivalence(problems, Rule(triplet), force_w=force_w)
    assert check_equivalence(problems) == check_equivalence(problems, Rule(brown_features()))
    with pytest.raises(ValueError, match="lexicographic rule only"):
        check_equivalence(problems, _TUNED, force_w=5)


@pytest.mark.parametrize("n, count", [(3, 200), (8, 6)])
def test_check_proves_a_tuned_rule(n, count):
    problems = random_dataset(GenConfig(n_vars=n, seed=n), count)
    started = time.perf_counter()
    report = check_equivalence(problems, _TUNED)
    per_problem = (time.perf_counter() - started) / count
    assert report.ok and report.total == count
    # Float y scales past the packed fields; at n = 8 the fallback scores ints, not Fractions.
    assert per_problem < 0.2, f"{per_problem:.3f} s per problem"


def test_check_reports_a_tuned_y_that_is_not_finite(problem_a, problem_b):
    # Finite weights can still overflow y: inf, or nan where infinities of both signs meet.
    for weights in ([1e308, 1e308, 1.0], [1e308, -1e308, 0.0]):
        report = check_equivalence([problem_a, problem_b], Rule(brown_features(), weights))
        assert report.mismatches == []
        assert [v["problem_id"] for v in report.violations] == ["a", "b"]
        assert all("is not finite" in v["error"] and v["w"] is None for v in report.violations)


def test_rule_scores_own_y(problem_a):
    rows = feature_matrix(brown_features(), problem_a)
    assert Rule(brown_features()).scores(rows) == radix_scores(rows, base_weight(rows), None)
    tuned = Rule(brown_features(), [1.5, -2.0, 3.0], (2.0, 4.0, 8.0))
    assert tuned.scores(tuned.scaled_rows(rows), scaled=True) == tuned.scores(rows)
    for weights in ([1e308, 1e308, 1.0], [1e308, -1e308, 0.0]):
        with pytest.raises(ValueError, match=r"^y \[.*\] is not finite$"):
            Rule(brown_features(), weights).scores(rows)


@settings(max_examples=60, deadline=None)
@given(problem_instances(min_vars=1, max_vars=5),
       st.lists(st.floats(-4, 4, allow_nan=False), min_size=3, max_size=3),
       st.tuples(*[st.floats(0.25, 8)] * 3))
def test_check_proves_any_tuned_rule(pr, weights, scale):
    assert check_equivalence([pr], Rule(selected_triplet(), weights, scale)).ok


def _nn_order(triplet, pr, w=None):
    """The frozen network's ordering of ``pr``, at the minimal base weight unless given."""
    rows = feature_matrix(triplet, pr)
    return order_by_scores(radix_scores(rows, base_weight(rows) if w is None else w, pr.id))


def test_nn_order_examples(problem_a, problem_b):
    assert _nn_order(brown_features(), problem_b, 5).names(problem_b) == "x>y>z"
    assert _nn_order(brown_features(), problem_a, 5).names(problem_a) == "x>z>y"
    single = parse_problem("vars: x\nx^2 + 1")
    assert _nn_order(brown_features(), single).perm == (0,)


def test_nn_order_rejects_undersized_weight(problem_b):
    with pytest.raises(BaseWeightError) as err:
        _nn_order(brown_features(), problem_b, 2)
    assert err.value.value == 3
    assert err.value.w == 2
    assert err.value.problem_id == "b"


def test_check_equivalence_hand_instances(problem_a, problem_b, problem_c):
    report = check_equivalence([problem_a, problem_b, problem_c])
    assert report.total == 3
    assert report.ok


def test_check_equivalence_scaled_degrees(problem_a, problem_b):
    scaled = []
    for pr in (problem_a, problem_b):
        polys = tuple(
            Polynomial(tuple(Monomial(m.coeff, tuple(d * 5 for d in m.degrees)) for m in p.monomials))
            for p in pr.polynomials
        )
        scaled.append(ProblemInstance(pr.var_names, polys, pr.id))
    report = check_equivalence(scaled)
    assert report.ok


def test_check_equivalence_force_w_reports_violation(problem_b):
    report = check_equivalence([problem_b], force_w=2)
    assert not report.ok
    assert report.violations[0]["problem_id"] == "b"
    assert report.mismatches == []


@settings(max_examples=150, deadline=None)
@given(problem_instances(min_vars=1, max_vars=4), st.sampled_from(["brown", "selected"]))
def test_equivalence_property(pr, which):
    triplet = brown_features() if which == "brown" else selected_triplet()
    assert _nn_order(triplet, pr).perm == lex_order(feature_matrix(triplet, pr)).perm


@settings(max_examples=100, deadline=None)
@given(problem_instances(min_vars=2, max_vars=3), st.integers(0, 20))
def test_equivalence_holds_for_any_admissible_w(pr, slack):
    triplet = brown_features()
    rows = feature_matrix(triplet, pr)
    assert _nn_order(triplet, pr, base_weight(rows) + slack).perm == lex_order(rows).perm


def _rational_vectors(max_n=4):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=8),
            min_size=n,
            max_size=n,
        )
    )


@settings(max_examples=200, deadline=None)
@given(_rational_vectors())
def test_rearrangement_argmax_equals_sort(y):
    scores = layer2_scores(y)
    best = max(range(len(scores)), key=lambda i: (scores[i], -i))
    perms = list(permutations(range(len(y))))
    assert perms[best] == order_by_scores(y).perm


@settings(max_examples=100, deadline=None)
@given(_rational_vectors(max_n=3), st.integers(0, 2), st.integers(0, 2))
def test_rearrangement_with_forced_ties(y, i, j):
    y = list(y)
    y[i % len(y)] = y[j % len(y)]  # force at least one tie
    scores = layer2_scores(y)
    best = max(range(len(scores)), key=lambda i: (scores[i], -i))
    perms = list(permutations(range(len(y))))
    assert perms[best] == order_by_scores(y).perm


@settings(max_examples=60, deadline=None)
@given(
    problem_instances(min_vars=2, max_vars=3),
    st.fractions(min_value=Fraction(1, 7), max_value=9, max_denominator=7),
)
def test_argmax_scale_invariance(pr, scale):
    rows = feature_matrix(brown_features(), pr)
    y = radix_scores(rows, base_weight(rows), pr.id)
    scaled = tuple(scale * yv for yv in y)
    assert order_by_scores(y).perm == order_by_scores(scaled).perm
    scores = layer2_scores(scaled)
    best = max(range(len(scores)), key=lambda i: (scores[i], -i))
    assert list(permutations(range(pr.n_vars)))[best] == order_by_scores(y).perm


@settings(max_examples=150, deadline=None)
@given(problem_instances(min_vars=2, max_vars=3))
def test_monotone_dominance(pr):
    # If a row strictly beats another at the first differing feature and the
    # weight condition holds, its first-layer score is strictly larger.
    rows = feature_matrix(brown_features(), pr)
    y = radix_scores(rows, base_weight(rows), pr.id)
    for v in range(pr.n_vars):
        for u in range(pr.n_vars):
            if rows[v] > rows[u]:
                assert y[v] > y[u]


@settings(max_examples=100, deadline=None)
@given(problem_instances(min_vars=1, max_vars=3))
def test_selected_weight_is_minimal(pr):
    rows = feature_matrix(brown_features(), pr)
    w = base_weight(rows)
    radix_scores(rows, w, pr.id)  # every value is below w - 1
    if max(map(max, rows)) >= 1:
        with pytest.raises(BaseWeightError):
            radix_scores(rows, w - 1, pr.id)


def test_base_weight_must_be_sane(problem_b):
    # Feature values are never negative, so no w below 2 passes the condition.
    for rows in (feature_matrix(brown_features(), problem_b), ((0, 0, 0),)):
        with pytest.raises(BaseWeightError):
            radix_scores(rows, 1, "b")
