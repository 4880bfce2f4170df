"""The constrained network, the orderings it encodes, and ``Rule``, the one heuristic type.

A ``Rule`` is a feature triplet, read lexicographically, or the same
triplet with tuned first-layer weights.  ``Rule.rows`` gives the rows it
reads: ``features.scaled_matrix``'s ints, or their ``float_rows`` once
tuned.  Its ``order`` is a descending sort, of the rows (``lex_order``)
or of its y (``order_by_scores``), ties going to the lower variable
index; production code takes only that route.

The network behind a rule has two layers.  Layer 1 scores each
variable.  A lexicographic rule's y is a radix-w encoding of its row,

    y_v = f1(v) * w**2 + f2(v) * w + f3(v),

with a base weight w such that every feature value is below w - 1
(``base_weight``, ``radix_weights``, ``radix_scores``), so comparing
scores is comparing rows digit by digit.  That needs whole digits: the
rows (0, 1.5, 0) and (0, 1, 2.5) score 6 and 6.5 at w = 4, in the wrong
order.  So the digits are the scaled ints, whose scale is the same for
every variable of a problem and keeps the rows' order.  A tuned rule's y
weighs the rows divided by its feature scale and must be finite
(``Rule.scores``).
The output layer has one neuron per permutation of the variables,
scoring y under the fixed weight pattern n, n-1, ..., 1 (first position
weighted n; ``_weights_by_variable``); its argmax neuron names the
ordering.  On exact scores that argmax is the sort, ties included (the
rearrangement inequality), and ``check_equivalence`` proves it per
problem for any rule, taking y exactly, floats included: every neuron's
score is one field of a packed integer product, the fields as wide as
the largest score needs, and the argmax is read from it with bit
operations (``_order_scores``).  Evaluated in floats, rounding can make
nominally equal neuron scores differ, so the argmax may name another of
the tied orderings.

Every layer is defined here, once.  Training relaxes the output layer
to a softmax and reads the layers in column form (``layer1_columns``,
``layer2_columns``, the gradient ``layer2_backward``): one column per
variable or neuron, one value per sample, added as for one sample.

Convention: the variable with the lexicographically greatest feature row
is placed first in the ordering (the CLI can flip the printed order with
--reverse).
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import asdict, dataclass
from functools import lru_cache, reduce
from itertools import permutations, repeat
from operator import add, getitem, mul

# ``feature_matrix`` is imported for the benchmark's gates, which read it from here.
from .features import FeatureDescriptor, brown_features, feature_matrix, float_rows, scaled_matrix
from .polyset import ProblemInstance

# The factorial output layer is only materialized up to this many variables;
# past it, check_equivalence compares against the sort path (same result by
# the rearrangement inequality).
MAX_EXPLICIT_LAYER = 8

# Default base weight of ``Rule.brown_init``'s radix starting point.
INIT_WEIGHT = 30.0


class BaseWeightError(ValueError):
    """A feature value breaks the base-weight condition value < w - 1."""

    def __init__(self, problem_id, variable, feature_index, value, w):
        self.problem_id = problem_id
        self.variable = variable
        self.feature_index = feature_index
        self.value = value
        self.w = w
        super().__init__(
            f"feature {feature_index} of variable {variable} is {value}, "
            f"not below w - 1 = {w - 1} (problem {problem_id!r})"
        )


@dataclass(frozen=True)
class Ordering:
    """A permutation of variable indices, first-projected variable first."""

    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"{self.perm} is not a permutation of 0..n-1")

    def names(self, pr: ProblemInstance) -> str:
        return ">".join(pr.var_names[i] for i in self.perm)

    def reversed(self) -> Ordering:
        return Ordering(self.perm[::-1])


def parse_ordering(text: str, pr: ProblemInstance) -> Ordering:
    """Parse the ``x>y>z`` form, which names each of a problem's variables once."""
    index = {name: i for i, name in enumerate(pr.var_names)}
    try:
        perm = tuple(index[name.strip()] for name in text.split(">"))
    except KeyError as e:
        raise ValueError(f"unknown variable {e.args[0]!r} in ordering {text!r}") from None
    if sorted(perm) != list(range(pr.n_vars)):
        raise ValueError(f"ordering {text!r} must name each of {pr.var_names} exactly once")
    return Ordering(perm)


def radix_weights(w):
    """First-layer weights (w**2, w, 1): y_v is row v read as radix-w digits."""
    return (w * w, w, 1)


def base_weight(rows) -> int:
    """Smallest integer w with every value of ``rows`` below w - 1."""
    return math.floor(max(map(max, rows))) + 2


def layer1_scores(weights, rows) -> list:
    """First-layer score y_v = sum_i weights[i] * row_v[i] of each row; exact on ints and Fractions."""
    return [sum(map(mul, weights, row)) for row in rows]


def layer1_columns(weights, columns) -> list:
    """Column form of ``layer1_scores`` over a batch of samples with the same n.

    ``columns[v][i]`` holds feature i of variable v, one value per sample;
    the result holds y_v per sample, added as ``layer1_scores`` adds it:
    left to right from the int 0 that ``sum`` starts from.
    """
    out = []
    for features in columns:
        y = repeat(0)
        for weight, x in zip(weights, features):
            y = map(add, y, map(mul, repeat(weight), x))
        out.append(list(y))
    return out


def radix_scores(rows, w: int, problem_id) -> list:
    """First-layer scores of the frozen network with base weight ``w``.

    Raises BaseWeightError unless every feature value is below w - 1, the
    condition under which comparing scores is comparing rows.
    """
    bound = w - 1
    for v, row in enumerate(rows):
        for i, value in enumerate(row):
            if not value < bound:
                raise BaseWeightError(problem_id, v, i, value, w)
    return layer1_scores(radix_weights(w), rows)


def check_layer_size(n: int, problem_id=None) -> None:
    """Raise ValueError, naming ``problem_id`` if given, unless n variables fit the n! layer."""
    if n > MAX_EXPLICIT_LAYER:
        where = "" if problem_id is None else f"problem {problem_id}: "
        raise ValueError(f"{where}explicit output layer limited to {MAX_EXPLICIT_LAYER} variables")


def _weights_by_variable(n: int) -> list[array]:
    """Each variable's weight in every neuron, in ``permutations`` order: n minus its position."""
    check_layer_size(n)
    columns = [array("B") for _ in range(n)]
    for perm in permutations(range(n)):
        for weight, v in zip(range(n, 0, -1), perm):
            columns[v].append(weight)
    return columns


@lru_cache(maxsize=None)
def permutation_weights(n: int) -> tuple[tuple[int, ...], ...]:
    """The weight vector of every output neuron; neuron k's ordering is ``_unrank(n, k)``.

    The transpose of ``_weights_by_variable``: neurons follow the orderings'
    lexicographic order.  Built once per n; every caller shares the same tuple.
    """
    return tuple(zip(*_weights_by_variable(n)))


def layer2_scores(y) -> tuple:
    """Score of every permutation neuron for first-layer output ``y``.

    Each score is sum_v W[v] * y[v], added left to right over v from the
    first product (not from 0, which would turn a sum of -0.0 into 0.0).
    """
    return tuple(reduce(add, map(mul, weights, y)) for weights in permutation_weights(len(y)))


def layer2_columns(y) -> tuple:
    """Column form of ``layer2_scores`` over a batch of samples with the same n.

    ``y[v]`` holds y_v, one value per sample; the result holds one column
    of scores per neuron, each added exactly as ``layer2_scores`` adds it.
    Each product column w * y_v is built once and shared by the neurons
    that give variable v the weight w; for w = 1 it is y_v itself, as
    ``1 * x`` is ``x``, bit for bit.
    """
    n = len(y)
    products = [{w: yv if w == 1 else list(map(mul, repeat(w), yv)) for w in range(1, n + 1)}
                for yv in y]
    return tuple(
        reduce(lambda a, b: list(map(add, a, b)), map(getitem, products, weights))
        for weights in permutation_weights(n)
    )


@lru_cache(maxsize=None)
def _weight_columns(n: int) -> tuple[array, ...]:
    """Per variable, the weight each output neuron gives it, in neuron order."""
    return tuple(_weights_by_variable(n))


def layer2_backward(n: int, dscores) -> list:
    """Gradient of the output layer: d(sum_k dscores[k] * score_k) / d y_v per variable.

    Column in, column out: ``dscores[k]`` holds one value per sample, and
    so does each variable's result, its weight column dotted with the
    sample's ``dscores``, added left to right in neuron order from 0;
    exact on Fractions.  A weight-1 term is added unmultiplied.
    """
    out = []
    for column in _weight_columns(n):
        dy = repeat(0)
        for weight, d in zip(column, dscores):
            dy = map(add, dy, d if weight == 1 else map(mul, repeat(weight), d))
        out.append(list(dy))
    return out


def _unrank(n: int, k: int) -> tuple[int, ...]:
    """The k-th permutation of range(n) in lexicographic order (factorial base)."""
    pool = list(range(n))
    perm = []
    for i in range(n - 1, -1, -1):
        digit, k = divmod(k, math.factorial(i))
        perm.append(pool.pop(digit))
    return tuple(perm)


def _scaled_ints(y) -> list[int]:
    """Exact ``y`` (ints, Fractions, floats) times its denominators' lcm, minus its minimum."""
    ratios = [v.as_integer_ratio() for v in y]
    d = math.lcm(*[q for _, q in ratios])
    ints = [p * (d // q) for p, q in ratios]
    low = min(ints)
    return [v - low for v in ints]


def _field_bytes(top: int) -> int:
    """Bytes per packed field for scores up to ``top``: whole bytes, a spare high bit, at least 4.

    So every score is below 2**(8 * width - 1).
    """
    return max(4, top.bit_length() // 8 + 1)


@lru_cache(maxsize=8)
def _packed_layer(n: int, width: int) -> tuple[tuple[int, ...], int]:
    """The output layer packed ``width`` bytes per neuron, neuron 0 in the lowest field.

    Per variable, one int holding its weight in neuron k in field k
    (``_weight_columns``); then the int holding 1 in every field.  At
    n = 8 one width takes 9 * 40,320 * width bytes and a few ms to build,
    so only the most recently used (n, width) pairs are kept.
    """
    columns = _weight_columns(n)
    fields = bytearray(math.factorial(n) * width)

    def pack(weights) -> int:
        fields[::width] = weights
        return int.from_bytes(fields, "little")

    return tuple(map(pack, columns)), pack(bytes([1]) * math.factorial(n))


def _packed_product(y) -> tuple[int, int, int]:
    """(total, width, top): every neuron's score of exact ``y`` in one int, ``width`` bytes each.

    y is read as ``_scaled_ints(y)``: times the lcm D of its denominators
    and shifted by D * min(y), which maps every neuron's score s to
    D * s - D * min(y) * n(n+1)/2, since each neuron gives the weights
    1..n; the map keeps the argmax and its ties.  The largest score, top,
    weights the greatest value n (rearrangement inequality) and sizes the
    fields (``_field_bytes``), so ``total = sum(ints_v * column_v)`` holds
    neuron k's score, computed exactly, in field k.
    """
    ints = _scaled_ints(y)
    n = len(ints)
    top = sum(map(mul, sorted(ints, reverse=True), range(n, 0, -1)))
    width = _field_bytes(top)
    return sum(map(mul, ints, _packed_layer(n, width)[0])), width, top


def _order_scores(y) -> Ordering:
    """Argmax neuron of exact ``y``, first (lexicographically smallest) on ties.

    Read from ``_packed_product`` with b-bit fields, every score below
    2**(b-1): adding 2**(b-1) - top to every field sets its high bit
    exactly where the score is top, and the lowest such bit is the first
    argmax neuron, unranked in factorial base.  No score is unpacked and
    the neuron table ``permutation_weights(n)`` is never built.  Raises
    RuntimeError if no neuron attains top.
    """
    total, width, top = _packed_product(y)
    ones = _packed_layer(len(y), width)[1]
    high = 8 * width - 1
    hits = (total + ((1 << high) - top) * ones) >> high & ones
    if not hits:
        raise RuntimeError(f"no neuron of the layer scores {top}, the largest score of y = {y}")
    return Ordering(_unrank(len(y), ((hits & -hits).bit_length() - 1) // (high + 1)))


def order_by_scores(y) -> Ordering:
    """Descending stable sort of y; equals the argmax neuron's ordering."""
    return Ordering(tuple(sorted(range(len(y)), key=y.__getitem__, reverse=True)))


def lex_order(rows) -> Ordering:
    """Descending sort of tuple rows, compared lexicographically; full ties by ascending index."""
    return order_by_scores(rows)


@dataclass
class Rule:
    """A variable-ordering heuristic: a feature triplet, lexicographic while ``weights`` is None."""

    triplet: tuple[FeatureDescriptor, FeatureDescriptor, FeatureDescriptor]
    weights: list[float] | None = None
    feature_scale: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.triplet) != 3:
            raise ValueError("three feature descriptors required")
        if (self.weights is not None and len(self.weights) != 3) or len(self.feature_scale) != 3:
            raise ValueError("three weights and three scale divisors required")
        # Written so that NaN fails the comparison.
        if not all(0 < s < math.inf for s in self.feature_scale):
            raise ValueError(f"feature scales must be finite and positive, got {self.feature_scale}")
        if self.weights is not None and not all(abs(w) <= sys.float_info.max for w in self.weights):
            raise ValueError(f"weights must be finite, got {self.weights}")

    @classmethod
    def brown_init(cls, triplet, base_weight: float = INIT_WEIGHT) -> Rule:
        """The radix layer (w^2, w, 1) as tuned weights: training's starting point."""
        return cls(tuple(triplet), list(map(float, radix_weights(float(base_weight)))))

    def rows(self, pr: ProblemInstance) -> list:
        """The rows this rule reads: ``scaled_matrix``'s ints, or ``float_rows`` once tuned."""
        if self.weights is None:
            return scaled_matrix(self.triplet, pr)[1]
        return float_rows(self.triplet, pr)

    def scaled_rows(self, rows) -> list[tuple[float, float, float]]:
        s = self.feature_scale
        return [tuple(float(x) / s[i] for i, x in enumerate(row)) for row in rows]

    def scores(self, rows, scaled: bool = False) -> list:
        """Layer 1's y: radix scores at the minimal base weight, or the tuned weighted sum.

        A tuned rule divides ``rows`` by its feature scale unless they are
        ``scaled`` already; its y raises ValueError unless finite.
        """
        if self.weights is None:
            return radix_scores(rows, base_weight(rows), None)
        y = layer1_scores(self.weights, rows if scaled else self.scaled_rows(rows))
        if not all(map(math.isfinite, y)):
            raise ValueError(f"y {y} is not finite")
        return y

    def order(self, rows, y=None) -> Ordering:
        """Descending sort of the rows (``lex_order``), or of y once tuned: ``scores(rows)`` unless given."""
        if self.weights is None:
            return lex_order(rows)
        return order_by_scores(self.scores(rows) if y is None else y)

    hard_order = order


@dataclass
class EquivalenceReport:
    total: int
    mismatches: list[dict]
    violations: list[dict]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.violations

    def to_json(self) -> dict:
        return asdict(self)


def check_equivalence(dataset, rule=None, force_w: int | None = None, jobs: int = 1) -> EquivalenceReport:
    """Prove per problem, in dataset order, that the n! layer's argmax on y is the rule's order.

    A bare triplet is read as its lexicographic rule (None: Brown's), whose
    y is the radix score of its ``Rule.rows``, the scaled ints, at each
    problem's minimal base weight or at ``force_w`` (in the ints' units),
    else ``Rule.scores``; a ValueError there is a violation.  Each y is
    computed once per problem.  Expect zero mismatches.  ``jobs`` is
    ignored: threads only slowed this loop.
    """
    if not isinstance(rule, Rule):
        rule = Rule(brown_features() if rule is None else tuple(rule))
    if rule.weights is not None and force_w is not None:
        raise ValueError("a base weight applies to a lexicographic rule only")
    dataset = list(dataset)
    violations, mismatches, w = [], [], None
    for pr in dataset:
        rows = rule.rows(pr)
        if rule.weights is None:
            w = base_weight(rows) if force_w is None else force_w
        try:
            y = rule.scores(rows) if w is None else radix_scores(rows, w, pr.id)
        except ValueError as e:
            violations.append({"problem_id": pr.id, "w": w, "error": str(e)})
            continue
        nn = _order_scores(y) if pr.n_vars <= MAX_EXPLICIT_LAYER else order_by_scores(y)
        order = rule.order(rows, y)
        if nn != order:
            mismatches.append(
                {"problem_id": pr.id, "lex": order.names(pr), "nn": nn.names(pr), "w": w}
            )
    return EquivalenceReport(len(dataset), mismatches, violations)
