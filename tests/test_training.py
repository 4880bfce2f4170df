import json
import math
import random
from functools import reduce
from itertools import permutations
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import problem_instances
from cadorder.costmodel import PriceStore, SyntheticCostModel
from cadorder.datagen import GenConfig, random_dataset, random_problem
from cadorder.features import (
    brown_features,
    dedup_features,
    descriptor_record,
    enumerate_descriptors,
    feature_matrix,
    selected_triplet,
)
from cadorder.heuristics import (
    Rule,
    base_weight,
    layer2_scores,
    order_by_scores,
    permutation_weights,
    radix_scores,
    radix_weights,
)
from cadorder.training import (
    AdamOptimizer,
    DivergenceError,
    TrainableNetwork,
    TrainConfig,
    TrainReport,
    _argmin,
    _columns,
    _loss_and_gradient,
    _probabilities,
    fit_feature_scale,
    float_rows,
    load_rule,
    save_checkpoint,
    train,
)

TRIPLET = selected_triplet()

# One representative of each of the grammar's 27 value classes.
_CLASS_REPS = dedup_features(enumerate_descriptors()).descriptors


def _neuron(perm) -> int:
    """The output neuron of an ordering: the one weighting its first variable n, its last 1."""
    n = len(perm)
    return permutation_weights(n).index(tuple(n - list(perm).index(v) for v in range(n)))


def _net(weights, scale=(1.0, 1.0, 1.0)):
    return Rule(TRIPLET, list(weights), scale)


def test_zero_weights_give_uniform_distribution(problem_a):
    rows = _net([0.0, 0.0, 0.0]).scaled_rows(feature_matrix(TRIPLET, problem_a))
    probs = [p for (p,) in _probabilities([0.0, 0.0, 0.0], _columns([rows]), 1.0)]
    assert probs == pytest.approx([1 / 6] * 6)


def test_probabilities_normalized_and_positive():
    rng = random.Random(0)
    for index in range(50):
        pr = random_problem(GenConfig(seed=21), index)
        fm = feature_matrix(TRIPLET, pr)
        net = _net([rng.uniform(-5, 5) for _ in range(3)])
        columns = _columns([net.scaled_rows(fm)])
        probs = [p for (p,) in _probabilities(net.weights, columns, rng.choice([0.5, 1.0, 3.0]))]
        assert abs(sum(probs) - 1.0) <= 1e-12
        assert all(p > 0 for p in probs)


def test_temperature_must_be_positive(problem_a):
    rows = _net([1, 1, 1]).scaled_rows(feature_matrix(TRIPLET, problem_a))
    with pytest.raises(ValueError):
        _probabilities([1, 1, 1], _columns([rows]), 0)


def test_argmax_matches_frozen_network_path():
    # The most probable neuron is temperature-free; with integer features and
    # radix-form weights it must reproduce the exact network ordering,
    # index tie-break included.
    triplet = brown_features()
    perms = list(permutations(range(3)))
    for index in range(1000):
        pr = random_problem(GenConfig(seed=13), index)
        rows = feature_matrix(triplet, pr)
        w = base_weight(rows)
        frozen = order_by_scores(radix_scores(rows, w, pr.id))
        soft = Rule.brown_init(triplet, base_weight=w)
        columns = _columns([soft.scaled_rows(rows)])
        probs = [p for (p,) in _probabilities(soft.weights, columns, 1.0)]
        assert perms[max(range(6), key=probs.__getitem__)] == frozen.perm


@pytest.mark.parametrize("w", [2, 5, 30])
def test_brown_init_is_the_frozen_radix_layer(w):
    net = Rule.brown_init(brown_features(), base_weight=w)
    assert net.weights == list(map(float, radix_weights(w)))
    assert all(type(x) is float for x in net.weights)
    if w == 2:
        assert net.weights == [4.0, 2.0, 1.0]


def test_brown_frozen_weights_prefer_lexicographic_ordering(problem_b):
    fm = feature_matrix(brown_features(), problem_b)
    net = Rule.brown_init(brown_features())
    probs = [p for (p,) in _probabilities(net.weights, _columns([net.scaled_rows(fm)]), 1.0)]
    assert max(range(6), key=probs.__getitem__) == 0  # neuron of (x, y, z)


def test_loss_uniform_is_log_six(problem_a, problem_b):
    net = _net([0.0, 0.0, 0.0])
    batch = [
        (net.scaled_rows(feature_matrix(TRIPLET, pr)), _neuron((0, 1, 2)))
        for pr in (problem_a, problem_b)
    ]
    assert _loss_and_gradient(net.weights, batch, 1.0)[0] == pytest.approx(math.log(6))


def test_loss_below_uniform_for_correct_target(problem_b):
    fm = feature_matrix(brown_features(), problem_b)
    net = Rule.brown_init(brown_features())
    batch = [(net.scaled_rows(fm), _neuron((0, 1, 2)))]
    assert _loss_and_gradient(net.weights, batch, 1.0)[0] < math.log(6)


def test_loss_near_zero_when_confident(problem_b):
    fm = feature_matrix(TRIPLET, problem_b)
    strong = _net([500.0, 0.0, 0.0])
    target = strong.order(fm)
    batch = [(strong.scaled_rows(fm), _neuron(target.perm))]
    assert _loss_and_gradient(strong.weights, batch, 1.0)[0] == pytest.approx(0.0, abs=1e-6)


def _finite_difference(weights, batch, temperature, h=1e-4):
    grads = []
    for i in range(3):
        up = list(weights)
        down = list(weights)
        up[i] += h
        down[i] -= h
        grads.append(
            (
                _loss_and_gradient(up, batch, temperature)[0]
                - _loss_and_gradient(down, batch, temperature)[0]
            )
            / (2 * h)
        )
    return grads


def _gradients_match(a, b, rel=1e-4, zero_floor=1e-8):
    norm = math.sqrt(sum(x * x for x in b))
    diff = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    # Near-zero gradients sit at the finite-difference noise floor.
    return diff <= zero_floor or diff / norm <= rel


def test_gradient_matches_finite_differences():
    rng = random.Random(7)
    problems = random_dataset(GenConfig(seed=17), 40)
    matrices = [feature_matrix(TRIPLET, pr) for pr in problems]
    scale = fit_feature_scale(matrices)
    for _ in range(30):
        net = Rule(TRIPLET, [rng.uniform(-3, 3) for _ in range(3)], scale)
        batch = [
            (
                net.scaled_rows(matrices[rng.randrange(len(matrices))]),
                rng.randrange(6),
            )
            for _ in range(rng.randint(1, 6))
        ]
        temperature = rng.choice([0.5, 1.0, 2.0])
        analytic = _loss_and_gradient(net.weights, batch, temperature)[1]
        numeric = _finite_difference(net.weights, batch, temperature)
        assert _gradients_match(analytic, numeric)


def test_gradient_norm_shrinks_as_confidence_grows(problem_b):
    fm = feature_matrix(TRIPLET, problem_b)
    net = _net([1.0, 0.0, 0.0])
    batch = [(net.scaled_rows(fm), _neuron(net.order(fm).perm))]
    norms = []
    for factor in (1.0, 2.0, 4.0, 8.0):
        g = _loss_and_gradient([factor, 0.0, 0.0], batch, 1.0)[1]
        norms.append(math.sqrt(sum(x * x for x in g)))
    assert norms == sorted(norms, reverse=True)
    assert norms[-1] < norms[0]


def test_gradient_zero_on_fully_tied_batch():
    # All feature rows equal: every neuron scores the same, so each target
    # contributes a gradient that cancels exactly.
    rows = _net([0.7, -1.2, 0.4]).scaled_rows(((2, 3, 1), (2, 3, 1), (2, 3, 1)))
    batch = [(rows, _neuron(p)) for p in permutations(range(3))]
    g = _loss_and_gradient([0.7, -1.2, 0.4], batch, 1.0)[1]
    assert all(abs(x) <= 1e-8 for x in g)


def _sum(values):
    """``sum()`` of floats up to Python 3.11: left to right from the int 0."""
    return reduce(add, values, 0)


def _per_sample_loss_and_gradient(weights, batch, temperature):
    """One softmax and one backward pass per sample: what the batch path must equal, bit for bit."""
    total = 0.0
    grad = [0.0, 0.0, 0.0]
    for x, target in batch:
        n = len(x)
        y = [_sum(map(mul, weights, row)) for row in x]
        scores = [s / temperature for s in layer2_scores(y)]
        top = max(scores)
        exps = [math.exp(s - top) for s in scores]
        z = _sum(exps)
        probs = [e / z for e in exps]
        total += -math.log(max(probs[target], 1e-300))
        dscores = [p / temperature for p in probs]
        dscores[target] = (probs[target] - 1.0) / temperature
        columns = zip(*permutation_weights(n))
        dy = [_sum(map(mul, column, dscores)) for column in columns]
        for i in range(3):
            grad[i] += _sum(dy[v] * x[v][i] for v in range(n))
    return total / len(batch), [g / len(batch) for g in grad]


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def _training_samples(draw):
    """(scaled rows, target neuron) with n = 1..5; some samples all (signed) zeros."""
    n = draw(st.integers(1, 5))
    value = _SIGNED_ZERO if draw(st.booleans()) else st.one_of(
        _SIGNED_ZERO, st.floats(-4, 4, allow_nan=False))
    rows = tuple(tuple(draw(value) for _ in range(3)) for _ in range(n))
    return rows, draw(st.integers(0, math.factorial(n) - 1))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(_SIGNED_ZERO, st.floats(-6, 6, allow_nan=False)), min_size=3, max_size=3),
    st.lists(_training_samples(), min_size=1, max_size=8),
    st.sampled_from([0.5, 1.0, 3.0]),
)
def test_batch_loss_and_gradient_equal_per_sample_loop(weights, batch, temperature):
    # Mixed-n batches are computed per n, then summed in batch order: every
    # bit of the loss and of each gradient component must match the loop.
    total, grad = _loss_and_gradient(weights, batch, temperature)
    expected_total, expected_grad = _per_sample_loss_and_gradient(weights, batch, temperature)
    assert total.hex() == expected_total.hex()
    assert [g.hex() for g in grad] == [g.hex() for g in expected_grad]


def test_batch_longer_than_a_chunk_equals_per_sample_loop():
    # 200 mixed-n samples span several of the batch path's chunks.
    rng = random.Random(5)
    batch = []
    for _ in range(200):
        n = rng.choice([1, 2, 3, 3, 4])
        rows = tuple(tuple(rng.uniform(0, 1) for _ in range(3)) for _ in range(n))
        batch.append((rows, rng.randrange(math.factorial(n))))
    weights = [1.5, -2.0, 0.25]
    total, grad = _loss_and_gradient(weights, batch, 1.0)
    expected_total, expected_grad = _per_sample_loss_and_gradient(weights, batch, 1.0)
    assert total.hex() == expected_total.hex()
    assert [g.hex() for g in grad] == [g.hex() for g in expected_grad]


def test_adam_single_step_hand_computed(problem_b):
    fm = feature_matrix(TRIPLET, problem_b)
    target = _argmin(PriceStore(SyntheticCostModel(), [problem_b]).row(0))
    init = [2.0, -1.0, 0.5]
    lr = 0.1

    cfg = TrainConfig()
    net = Rule(TRIPLET, list(init), (1.0, 1.0, 1.0))
    g = _loss_and_gradient(net.weights, [(net.scaled_rows(fm), target)], 1.0)[1]
    expected = [w - lr * gi / (abs(gi) + cfg.epsilon) for w, gi in zip(init, g)]

    opt = AdamOptimizer(lr, cfg.beta1, cfg.beta2, cfg.epsilon)
    weights = list(init)
    opt.step(weights, g)
    assert weights == pytest.approx(expected, rel=1e-12)


def test_train_single_sample_single_epoch_matches_hand_step(problem_b):
    oracle = SyntheticCostModel()
    cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=1, normalize=False)
    net = _net([2.0, -1.0, 0.5])
    report = train(net, [problem_b], [problem_b], oracle, cfg)

    fm = feature_matrix(TRIPLET, problem_b)
    target = _argmin(PriceStore(oracle, [problem_b]).row(0))
    g = _loss_and_gradient(net.weights, [(net.scaled_rows(fm), target)], 1.0)[1]
    expected = [w - 0.1 * gi / (abs(gi) + 1e-8) for w, gi in zip(net.weights, g)]
    assert report.entries[1].weights == pytest.approx(expected, rel=1e-12)


def test_optimal_ordering_breaks_ties_lexicographically():
    class FlatOracle:
        def cost(self, pr, ordering):
            return 1.0

        def describe(self):
            return "flat"

    row = PriceStore(FlatOracle(), [random_problem(GenConfig(), 0)]).row(0)
    assert row == [1.0] * 6
    assert _argmin(row) == 0  # the neuron of (0, 1, 2)
    assert _argmin([3.0, 2.0, 5.0, 2.0, 4.0, 6.0]) == 1


def test_zero_learning_rate_is_flat():
    problems = random_dataset(GenConfig(seed=23), 30)
    cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=8)
    net = Rule.brown_init(TRIPLET)
    report = train(net, problems[:20], problems[20:], SyntheticCostModel(), cfg)
    assert all(e.weights == report.entries[0].weights for e in report.entries)
    assert all(e.val_cost == report.entries[0].val_cost for e in report.entries)


def test_train_deterministic():
    problems = random_dataset(GenConfig(seed=29), 40)
    cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=8, seed=3)
    runs = []
    for _ in range(2):
        net = Rule.brown_init(TRIPLET)
        report = train(net, problems[:30], problems[30:], SyntheticCostModel(), cfg)
        runs.append(json.dumps(report.to_json(), sort_keys=True))
    assert runs[0] == runs[1]


def test_train_does_not_mutate_input_network():
    problems = random_dataset(GenConfig(seed=31), 20)
    net = Rule.brown_init(TRIPLET)
    before = list(net.weights)
    train(net, problems[:15], problems[15:], SyntheticCostModel(),
          TrainConfig(learning_rate=0.1, epochs=1, batch_size=4))
    assert net.weights == before


def test_feature_scale_fits_training_maxima():
    problems = random_dataset(GenConfig(seed=37), 25)
    matrices = [feature_matrix(TRIPLET, pr) for pr in problems]
    scale = fit_feature_scale(matrices)
    for i in range(3):
        top = max(float(fm[v][i]) for fm in matrices for v in range(3))
        assert scale[i] == top
    report = train(
        Rule.brown_init(TRIPLET),
        problems[:20],
        problems[20:],
        SyntheticCostModel(),
        TrainConfig(epochs=1, batch_size=8),
    )
    assert report.feature_scale == scale


def test_divergence_guard():
    problems = random_dataset(GenConfig(seed=41), 10)
    # Finite weights whose output-layer products overflow.
    net = _net([1e308, 1e308, 0.0])
    with pytest.raises(DivergenceError):
        train(net, problems[:8], problems[8:], SyntheticCostModel(),
              TrainConfig(learning_rate=0.1, epochs=1, batch_size=4))


def test_validation_y_that_is_not_finite_is_divergence():
    # Epoch 1's weights are finite, but they overflow the validation y.
    problems = random_dataset(GenConfig(seed=0), 25)
    with pytest.raises(DivergenceError, match=r"^validation y \[.*\] is not finite at epoch 1$"):
        train(Rule.brown_init(TRIPLET), problems, problems, SyntheticCostModel(),
              TrainConfig(learning_rate=1e308, epochs=1))


def test_validate_per_batch_records_every_step():
    problems = random_dataset(GenConfig(seed=43), 20)
    cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=5, validate_per_batch=True)
    report = train(
        Rule.brown_init(TRIPLET),
        problems[:15],
        problems[15:],
        SyntheticCostModel(),
        cfg,
    )
    assert len(report.entries) == 1 + 2 * 3  # epoch 0 plus 3 batches per epoch


class _CountingOracle:
    def __init__(self):
        self.inner = SyntheticCostModel()
        self.calls = 0

    def cost(self, pr, ordering):
        self.calls += 1
        return self.inner.cost(pr, ordering)

    def describe(self):
        return self.inner.describe()


@pytest.mark.parametrize(
    "epochs, per_batch", [(1, False), (5, False), (5, True)]
)
def test_train_prices_each_problem_ordering_once(epochs, per_batch):
    # Targets, validation optima and every validation record read one
    # cost row per problem: n! calls per training and validation problem.
    problems = random_dataset(GenConfig(seed=59), 30)
    oracle = _CountingOracle()
    cfg = TrainConfig(learning_rate=0.05, epochs=epochs, batch_size=5,
                      validate_per_batch=per_batch)
    report = train(Rule.brown_init(TRIPLET), problems[:20], problems[20:],
                   oracle, cfg)
    assert len(report.entries) == 1 + epochs * (4 if per_batch else 1)
    assert oracle.calls == math.factorial(3) * (20 + 10)


def test_train_past_the_explicit_layer_prices_nothing():
    small = random_dataset(GenConfig(seed=59), 4)
    nine = random_dataset(GenConfig(n_vars=9, seed=60), 1)
    oracle = _CountingOracle()
    for train_set, val_set in ((small + nine, small), (small, nine)):
        with pytest.raises(ValueError, match=f"^problem {nine[0].id}: explicit output layer "
                                             "limited to 8 variables$"):
            train(Rule.brown_init(TRIPLET), train_set, val_set, oracle, TrainConfig())
    assert oracle.calls == 0


def test_best_entry_minimizes_validation_cost():
    problems = random_dataset(GenConfig(seed=47), 40)
    report = train(
        Rule.brown_init(TRIPLET),
        problems[:30],
        problems[30:],
        SyntheticCostModel(),
        TrainConfig(learning_rate=0.05, epochs=4, batch_size=8),
    )
    assert report.best_val_cost == min(e.val_cost for e in report.entries)
    assert report.best_val_cost <= report.epoch0_val_cost


def test_checkpoint_round_trip(tmp_path):
    problems = random_dataset(GenConfig(seed=53), 16)
    report = train(
        Rule.brown_init(TRIPLET),
        problems[:12],
        problems[12:],
        SyntheticCostModel(),
        TrainConfig(epochs=1, batch_size=4),
    )
    path = tmp_path / "weights.json"
    save_checkpoint(path, report, TRIPLET)
    net = load_rule(path)
    assert net.triplet == TRIPLET
    assert net.weights == report.final_weights
    assert net.feature_scale == tuple(report.feature_scale)


def test_trainable_network_is_the_rule():
    assert TrainableNetwork is Rule
    assert Rule.hard_order is Rule.order


def test_checkpoint_orders_the_validation_set_at_the_best_cost(tmp_path):
    problems = random_dataset(GenConfig(seed=61), 80)
    train_set, val_set = problems[:60], problems[60:]
    oracle = SyntheticCostModel()
    report = train(Rule(TRIPLET, [0.0, 0.0, 1.0]), train_set, val_set, oracle,
                   TrainConfig(learning_rate=0.05, epochs=4, batch_size=16))
    assert report.best_epoch > 0 and report.best_val_cost < report.epoch0_val_cost
    path = tmp_path / "run.ckpt.json"
    save_checkpoint(path, report, TRIPLET)
    rule = load_rule(str(path))
    costs = [oracle.cost(pr, rule.order(feature_matrix(rule.triplet, pr))) for pr in val_set]
    # Added from 0.0 in validation order, as training adds its validation prices.
    assert reduce(add, costs, 0.0) == report.best_val_cost


def test_load_rule_reads_names_triplet_files_and_checkpoints(tmp_path):
    assert load_rule("brown") == load_rule("nn") == Rule(brown_features())
    assert load_rule("selected") == Rule(TRIPLET)
    triplet_file = tmp_path / "t.json"
    triplet_file.write_text(json.dumps([descriptor_record(fd) for fd in TRIPLET]))
    assert load_rule(str(triplet_file)) == Rule(TRIPLET)
    assert load_rule(triplet_file) == Rule(TRIPLET)
    triplet_file.write_text(json.dumps([descriptor_record(fd) for fd in TRIPLET[:2]]))
    with pytest.raises(ValueError, match=f"^{triplet_file}: triplet file must hold exactly 3"):
        load_rule(str(triplet_file))


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param('{"weights": [1, 2, 3], "feature_scale": [1, 1, 1]}',
                     "checkpoint has no 'triplet'", id="no-triplet"),
        pytest.param('{"weights": [1, 2, 3], "trip', "Unterminated string", id="truncated"),
        pytest.param('{"weights": [1, 2, 3], "feature_scale": [1, 1, 1], '
                     '"triplet": [{"kernel": "FOO", "pipeline": []}]}',
                     "record 0: kernel: unknown kernel 'FOO'", id="bad-descriptor"),
        pytest.param('{"weights": 5, "feature_scale": [1, 1, 1], "triplet": []}',
                     "'weights' must be a list of finite numbers", id="weights-not-a-list"),
        pytest.param('{"weights": [1, 2, 3], "feature_scale": "1", "triplet": []}',
                     "'feature_scale' must be a list of finite numbers", id="scale-not-a-list"),
        pytest.param('{"weights": [1, 2, 3], "feature_scale": [1, 1, 1], "triplet": []}',
                     "three feature descriptors required", id="empty-triplet"),
        pytest.param('{"weights": [1, NaN, 3], "feature_scale": [1, 1, 1], "triplet": []}',
                     "'weights' must be a list of finite numbers", id="nan-weight"),
        pytest.param('{"weights": [1, 2, 3], "feature_scale": [1, Infinity, 1], "triplet": []}',
                     "'feature_scale' must be a list of finite numbers", id="infinite-scale"),
        pytest.param('{"weights": [1, 2, -Infinity], "feature_scale": [1, 1, 1], "triplet": []}',
                     "'weights' must be a list of finite numbers", id="infinite-weight"),
        pytest.param('{"weights": [1, 2, 3], "feature_scale": [NaN, 1, 1], "triplet": []}',
                     "'feature_scale' must be a list of finite numbers", id="nan-scale"),
        pytest.param('{"weights": [true, 2, 3], "feature_scale": [1, 1, 1], "triplet": []}',
                     "'weights' must be a list of finite numbers", id="bool-weight"),
        pytest.param('{"weights": [1, 2, 3], "feature_scale": [1, 1, true], "triplet": []}',
                     "'feature_scale' must be a list of finite numbers", id="bool-scale"),
        pytest.param('{"weights": [1, 2, 1%s], "feature_scale": [1, 1, 1], "triplet": []}'
                     % ("0" * 400),
                     "'weights' must be a list of finite numbers", id="int-past-float-range"),
    ],
)
def test_bad_checkpoint_names_its_file(tmp_path, text, fragment):
    path = tmp_path / "weights.json"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_rule(path)
    assert str(err.value).startswith(f"{path}: ")
    assert fragment in str(err.value)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_network_rejects_a_bad_feature_scale(bad):
    with pytest.raises(ValueError, match="feature scales must be finite and positive"):
        Rule(TRIPLET, [1.0, 2.0, 3.0], (1.0, bad, 1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(softmax_temperature=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


@settings(max_examples=100, deadline=None)
@given(problem_instances(max_vars=5, max_polys=4, max_monomials=7))
def test_float_rows_are_the_floats_of_the_exact_rows(pr):
    # All 27 at once average, so every value is over D; alone, 12 of them do not.
    for descriptors in (_CLASS_REPS, *((fd,) for fd in _CLASS_REPS)):
        rows = float_rows(descriptors, pr)
        exact = feature_matrix(descriptors, pr)
        assert all(type(x) is float for row in rows for x in row)
        assert [[x.hex() for x in row] for row in rows] == [
            [float(x).hex() for x in row] for row in exact
        ]
