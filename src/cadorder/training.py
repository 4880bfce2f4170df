"""Gradient tuning of the first-layer weights.

The frozen network's ordering is an argmax over permutation neurons; for
training, the argmax relaxes to a softmax over the neuron scores and the
loss is cross-entropy against the oracle-optimal neuron of each training
problem: the first minimum of its n! ``PriceStore`` prices, in neuron order.
Weights are three scalars shared across variables; the permutation output
layer stays fixed.  Gradients are analytic; the optimizer is the standard
adaptive-moment scheme (bias-corrected first and second moment estimates).

Each mini-batch is computed column-wise (``_loss_and_gradient``): its
samples are grouped by n, and each network term is one column over the
group's samples, built with the column forms of the layers in
``heuristics``.  The float operations are those of a per-sample pass, in
the same order, and the per-sample losses and gradient terms are added in
batch order, so the results equal a per-sample loop bit for bit.

Feature rows are floats, each ``n / d`` of ``features.scaled_matrix``'s
scaled int and scale (``float_rows``): that division rounds correctly, so
each is ``float()`` of the exact ``feature_matrix`` value, with no
``Fraction`` built.  Feature scaling: inputs can be divided by
per-feature training-set maxima so the three gradient components have
comparable size.  Disable it (``normalize=False``) to train on raw
feature values.

A checkpoint holds a tuned ``heuristics.Rule``: the best weights, the
scale and the triplet.  ``load_rule`` reads it, a triplet file or a name.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass, field, asdict
from functools import reduce
from itertools import groupby, repeat
from operator import add, mul, sub, truediv
from pathlib import Path

from .atomic import write_json
from .costmodel import CostOracle, PriceStore
from .features import (
    brown_features,
    descriptor_record,
    descriptors_from_records,
    scaled_matrix,
    selected_triplet,
)
from .heuristics import (
    MAX_EXPLICIT_LAYER,
    Rule,
    layer1_columns,
    layer2_backward,
    layer2_columns,
    order_by_scores,
)

# Samples per column in ``_loss_and_gradient``.  It bounds the memory that
# a large batch (the whole training set, for the epoch-0 loss) holds at
# once; the results do not depend on it.
_CHUNK = 64


# The benchmark harness still builds networks under this name.
TrainableNetwork = Rule


def _columns(rows) -> list:
    """Same-n samples' feature rows as columns: ``[v][i]`` is feature i of variable v."""
    return [tuple(zip(*var)) for var in zip(*rows)]


def _probabilities(weights, columns, temperature: float) -> list[list[float]]:
    """Softmax over the permutation neurons, one column per neuron.

    Each column holds one probability per sample; every value is computed
    with the float operations of a per-sample softmax, in the same order.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    scores = layer2_columns(layer1_columns(weights, columns))
    if temperature != 1.0:  # x / 1.0 is x, bit for bit
        scores = [list(map(truediv, s, repeat(temperature))) for s in scores]
    top = list(map(max, zip(*scores)))
    exps = [list(map(math.exp, map(sub, s, top))) for s in scores]
    z = repeat(0)
    for e in exps:
        z = list(map(add, z, e))
    return [list(map(truediv, e, z)) for e in exps]


def _terms(weights, rows, targets, temperature: float) -> list[list[float]]:
    """Columns of per-sample cross-entropy and gradient terms, for same-n samples."""
    columns = _columns(rows)
    probs = _probabilities(weights, columns, temperature)
    # At temperature 1, dscores is probs: entry (target, i) is read before it is set.
    dscores = probs if temperature == 1.0 else [list(map(truediv, p, repeat(temperature)))
                                                for p in probs]
    losses = []
    for i, target in enumerate(targets):
        p = probs[target][i]
        losses.append(-math.log(max(p, 1e-300)))
        dscores[target][i] = (p - 1.0) / temperature
    dy = layer2_backward(len(columns), dscores)
    grads = []
    for i in range(3):
        g = repeat(0)
        for dy_v, features in zip(dy, columns):
            g = map(add, g, map(mul, dy_v, features[i]))
        grads.append(list(g))
    return [losses, *grads]


def _loss_and_gradient(weights, batch, temperature: float) -> tuple[float, list[float]]:
    """Mean cross-entropy and its gradient over (scaled rows, target neuron index) pairs.

    Samples are grouped by n and computed column-wise, at most
    ``_CHUNK`` at a time; their terms are put back in batch order and
    added from 0.0, sample by sample.
    """
    ns = [len(rows) for rows, _ in batch]
    order = sorted(range(len(batch)), key=ns.__getitem__)
    terms = [[], [], [], []]
    for start in range(0, len(order), _CHUNK):
        for _, group in groupby(order[start : start + _CHUNK], key=ns.__getitem__):
            rows, targets = zip(*map(batch.__getitem__, group))
            for column, part in zip(terms, _terms(weights, rows, targets, temperature)):
                column.extend(part)
    back = sorted(range(len(order)), key=order.__getitem__)
    total, *grad = (reduce(add, map(column.__getitem__, back), 0.0) for column in terms)
    return total / len(batch), [g / len(batch) for g in grad]


class AdamOptimizer:
    """Adaptive-moment gradient descent with bias correction."""

    def __init__(self, lr: float, beta1: float, beta2: float, eps: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [0.0, 0.0, 0.0]
        self.v = [0.0, 0.0, 0.0]

    def step(self, weights: list[float], grads: list[float]) -> None:
        self.t += 1
        for i, g in enumerate(grads):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1**self.t)
            v_hat = self.v[i] / (1 - self.beta2**self.t)
            weights[i] -= self.lr * m_hat / (math.sqrt(v_hat) + self.eps)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-5
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 3
    batch_size: int = 32
    softmax_temperature: float = 1.0
    seed: int = 0
    normalize: bool = True
    validate_per_batch: bool = False

    def __post_init__(self):
        # Written so that NaN fails each comparison.
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("betas must be in (0, 1)")
        if not 0 < self.softmax_temperature < math.inf:
            raise ValueError(
                f"softmax_temperature must be finite and positive, got {self.softmax_temperature}"
            )
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True).encode()
        ).hexdigest()[:16]


@dataclass
class TrainEntry:
    epoch: int
    step: int
    train_loss: float
    val_cost: float
    val_accuracy: float
    weights: list[float] = field(repr=False, default_factory=list)


@dataclass
class TrainReport:
    entries: list[TrainEntry]
    best_index: int
    final_weights: list[float]
    feature_scale: tuple[float, float, float]
    config: TrainConfig

    @property
    def best_epoch(self) -> int:
        return self.entries[self.best_index].epoch

    @property
    def epoch0_val_cost(self) -> float:
        return self.entries[0].val_cost

    @property
    def best_val_cost(self) -> float:
        return self.entries[self.best_index].val_cost

    def to_json(self) -> dict:
        return {
            "entries": [
                {
                    "epoch": e.epoch,
                    "step": e.step,
                    "train_loss": e.train_loss,
                    "val_cost": e.val_cost,
                    "val_accuracy": e.val_accuracy,
                }
                for e in self.entries
            ],
            "best_epoch": self.best_epoch,
            "best_val_cost": self.best_val_cost,
            "final_weights": self.final_weights,
            "feature_scale": list(self.feature_scale),
            "config": asdict(self.config),
        }


def _argmin(row: list[float]) -> int:
    """Index of the first cheapest price in a row; ties pick the smallest permutation."""
    return row.index(min(row))


def float_rows(triplet, pr) -> list[tuple[float, ...]]:
    """The ``feature_matrix`` rows of ``pr`` as floats, each ``n / d`` of ``scaled_matrix``.

    Int true division rounds correctly, as ``float()`` of a Fraction does,
    so each value is ``float()`` of its exact value, with no Fraction built.
    """
    d, rows = scaled_matrix(triplet, pr)
    return [tuple(map(truediv, row, repeat(d))) for row in rows]


def fit_feature_scale(matrices) -> tuple[float, float, float]:
    """Per-feature maxima over the training set; absent features scale by 1."""
    top = [0.0, 0.0, 0.0]
    for rows in matrices:
        for row in rows:
            for i, x in enumerate(row):
                top[i] = max(top[i], float(x))
    return tuple(t if t > 0 else 1.0 for t in top)


class DivergenceError(RuntimeError):
    """Training loss, or a validation y, became non-finite."""


def train(
    net: Rule,
    train_set,
    val_set,
    oracle: CostOracle,
    cfg: TrainConfig,
) -> TrainReport:
    """Mini-batch tuning with per-epoch (or per-batch) validation.

    The input network is not mutated; the report carries the weights of
    the entry with the lowest validation cost (the pre-training state
    counts as epoch 0), each the ``PriceStore.total`` of the picks of
    ``Rule.scores`` on pre-scaled rows.  A non-finite loss or validation
    y raises DivergenceError.  Deterministic for a given config and data.
    """
    train_set = list(train_set)
    val_set = list(val_set)
    if not train_set or not val_set:
        raise ValueError("training and validation sets must be nonempty")
    for pr in train_set + val_set:  # before any price: a row holds n! of them
        if pr.n_vars > MAX_EXPLICIT_LAYER:
            raise ValueError(f"problem {pr.id}: explicit output layer limited to {MAX_EXPLICIT_LAYER} variables")

    train_matrices = [float_rows(net.triplet, pr) for pr in train_set]
    scale = fit_feature_scale(train_matrices) if cfg.normalize else (1.0, 1.0, 1.0)
    work = Rule(net.triplet, list(net.weights), scale)

    # Each problem is priced and its rows scaled once; training's prices go with their store.
    targets = list(map(_argmin, map(PriceStore(oracle, train_set).row, range(len(train_set)))))
    samples = [(work.scaled_rows(rows), t) for rows, t in zip(train_matrices, targets)]
    val_store = PriceStore(oracle, val_set)
    val_best = [min(val_store.row(p)) for p in range(len(val_set))]
    val_rows = [work.scaled_rows(float_rows(net.triplet, pr)) for pr in val_set]

    temperature = cfg.softmax_temperature
    entries: list[TrainEntry] = []

    def record(epoch: int, step: int, train_loss: float) -> None:
        """An entry: the hard-argmax picks' total cost and the share that are optimal."""
        try:
            picks = [order_by_scores(work.scores(x, scaled=True)) for x in val_rows]
        except ValueError as e:
            raise DivergenceError(f"validation {e} at epoch {epoch}") from None
        costs = val_store.prices(enumerate(picks))
        hits = sum(c == best for c, best in zip(costs, val_best))
        entries.append(TrainEntry(epoch, step, train_loss, val_store.total(costs),
                                  hits / len(costs), list(work.weights)))

    record(0, 0, _loss_and_gradient(work.weights, samples, temperature)[0])

    rng = random.Random(cfg.seed)
    optimizer = AdamOptimizer(cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon)
    order = list(range(len(samples)))
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        rng.shuffle(order)
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [samples[i] for i in order[start : start + cfg.batch_size]]
            batch_loss, grads = _loss_and_gradient(work.weights, batch, temperature)
            if not math.isfinite(batch_loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            epoch_losses.append(batch_loss)
            optimizer.step(work.weights, grads)
            step += 1
            if cfg.validate_per_batch:
                record(epoch, step, batch_loss)
        if not cfg.validate_per_batch:
            record(epoch, step, sum(epoch_losses) / len(epoch_losses))

    best_index = min(range(len(entries)), key=lambda i: entries[i].val_cost)
    return TrainReport(
        entries=entries,
        best_index=best_index,
        final_weights=list(entries[best_index].weights),
        feature_scale=scale,
        config=cfg,
    )


def save_checkpoint(path: str | Path, report: TrainReport, triplet) -> None:
    payload = {
        "weights": report.final_weights,
        "feature_scale": list(report.feature_scale),
        "triplet": [descriptor_record(fd) for fd in triplet],
        "config_hash": report.config.digest(),
    }
    write_json(path, payload)


# The built-in heuristics; any other spec names a triplet file or a checkpoint.
NAMED_RULES = {"brown": brown_features, "nn": brown_features, "selected": selected_triplet}


def load_rule(spec: str | Path) -> Rule:
    """The heuristic a spec names: a built-in name, a triplet file or a checkpoint.

    A JSON list of three descriptor records is a lexicographic rule; an
    object is the tuned rule ``save_checkpoint`` wrote.  A ValueError names
    the file and what is wrong.
    """
    if spec in NAMED_RULES:
        return Rule(NAMED_RULES[spec]())
    try:
        payload = json.loads(Path(spec).read_text())
        if not isinstance(payload, dict):
            triplet = descriptors_from_records(payload)
            if len(triplet) != 3:
                raise ValueError(f"triplet file must hold exactly 3 descriptors, got {len(triplet)}")
            return Rule(tuple(triplet))
        for key in ("triplet", "weights", "feature_scale"):
            if key not in payload:
                raise ValueError(f"checkpoint has no {key!r}")
        for key in ("weights", "feature_scale"):
            value = payload[key]
            # A bool is no number here; NaN, infinities and ints past a float's range
            # fail the bound.
            if not isinstance(value, list) or not all(
                type(x) in (int, float) and abs(x) <= sys.float_info.max for x in value
            ):
                raise ValueError(f"{key!r} must be a list of finite numbers")
        triplet = tuple(descriptors_from_records(payload["triplet"]))
        return Rule(triplet, list(payload["weights"]), tuple(payload["feature_scale"]))
    except ValueError as e:
        raise ValueError(f"{spec}: {e}") from None

