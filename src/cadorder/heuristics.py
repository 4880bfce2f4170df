"""The constrained network and the variable orderings it encodes.

The direct way sorts variables by their (f1, f2, f3) feature rows
(``features.feature_matrix``) compared lexicographically.  The network
way encodes the same comparison as a two-layer summation network: with a
base weight w chosen so that every feature value is below w - 1
(``base_weight``), the first-layer score

    y_v = f1(v) * w**2 + f2(v) * w + f3(v)

is a radix-w encoding of the row (``radix_weights``, ``layer1_scores``),
so comparing scores is comparing rows digit by digit.  The output layer
has one neuron per permutation of the variables, scoring y under the
fixed weight pattern n, n-1, ..., 1 (first position weighted n); its
argmax neuron names the chosen ordering.  Both paths share the same
deterministic tie-break (ascending variable index), so on exact scores
(ints, Fractions) they agree exactly, ties included.  On float scores
with tied values, rounding can make nominally equal neuron scores
differ, so the argmax neuron may name another of the tied orderings.

Every layer of the network is defined here, once; training reuses them
with trainable first-layer weights.  The frozen network's first layer is
evaluated in one function, ``radix_scores``: it checks the weight
condition and returns y, for ``check_equivalence`` and for the CLI's
``order --heuristic nn``.  Production code orders by the sort
(``lex_order``, ``order_by_scores``).  The explicit n! output layer is
the reference that ``check_equivalence`` compares against, and the layer
that training relaxes to a softmax; its gradient is ``layer2_backward``.

``check_equivalence`` scores exact y (ints, Fractions) as one packed
integer product (``_packed_scores``).  y is scaled by the lcm of its
denominators and shifted by its minimum; every neuron's weights are a
permutation of 1..n, so that moves every score by the same affine map
and keeps the argmax and its ties.  Each variable's weight in every
neuron is packed into one int, one unsigned field per neuron
(``_packed_columns``), so the scores are sum_v y_v * column_v: n big-int
multiplications per problem.  The fields are 32 bits wide, and the
n = 8 columns take about 1.3 MB.  Scores of 2**32 or more go through
``layer2_scores`` instead, which no benchmark workload reaches at the
minimal base weight: at n = 8 it builds ``permutation_weights(8)``
(40,320 weight vectors, 4.5 MB; neuron k's ordering is not stored but
unranked, ``_unrank(n, k)``) and takes 322,560 multiplications and
about as many additions, some 55 ms per problem on one core of a Xeon
with Python 3.11.

``layer2_scores`` is the layer's definition, one dot product per neuron,
added left to right over the variables from the first product, the order
that training's column form needs.  Training evaluates a mini-batch at a
time, in column form: ``layer1_columns`` and ``layer2_columns`` take one
column per variable, holding one value per sample, and add every value
as ``layer1_scores`` and ``layer2_scores`` add it for one sample;
``layer2_backward`` is column in, column out.  ``check_equivalence``
unranks the argmax neuron in factorial base, so on packed scores it
never builds ``permutation_weights(8)``.

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

from .features import brown_features, feature_matrix
from .polyset import ProblemInstance

# The factorial output layer is only materialized up to this many variables;
# past it, check_equivalence compares against the sort path (same result by
# the rearrangement inequality).
MAX_EXPLICIT_LAYER = 8

# Unsigned array typecode of the packed output layer's fields (32 bits).
_PACKED_FIELD = "I"


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


def _check_layer_size(n: int) -> None:
    if n > MAX_EXPLICIT_LAYER:
        raise ValueError(f"explicit output layer limited to {MAX_EXPLICIT_LAYER} variables")


def _neuron(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The weight of each variable in the neuron of ordering ``perm``, n for the first."""
    n = len(perm)
    weights = [0] * n
    for pos, v in enumerate(perm):
        weights[v] = n - pos
    return tuple(weights)


@lru_cache(maxsize=None)
def permutation_weights(n: int) -> tuple[tuple[int, ...], ...]:
    """The weight vector of every output neuron; neuron k's ordering is ``_unrank(n, k)``.

    The weight vector lists, per variable index, the weight that neuron
    applies: n for the ordering's first variable down to 1 for its last.
    Neurons follow the orderings' lexicographic order, ``permutations``'.
    Built once per n; every caller shares the same immutable tuple.
    """
    _check_layer_size(n)
    return tuple(map(_neuron, permutations(range(n))))


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
    that give variable v the weight w.
    """
    n = len(y)
    products = [{w: list(map(mul, repeat(w), yv)) for w in range(1, n + 1)} for yv in y]
    return tuple(
        reduce(lambda a, b: list(map(add, a, b)), map(getitem, products, weights))
        for weights in permutation_weights(n)
    )


@lru_cache(maxsize=None)
def _weight_columns(n: int) -> tuple[tuple[int, ...], ...]:
    """Per variable, the weight each output neuron gives it, in neuron order."""
    return tuple(zip(*permutation_weights(n)))


def layer2_backward(n: int, dscores) -> list:
    """Gradient of the output layer: d(sum_k dscores[k] * score_k) / d y_v per variable.

    Column in, column out: ``dscores[k]`` holds one value per sample, and
    so does each variable's result, its weight column dotted with the
    sample's ``dscores``, added left to right in neuron order from 0;
    exact on Fractions.
    """
    out = []
    for column in _weight_columns(n):
        dy = repeat(0)
        for weight, d in zip(column, dscores):
            dy = list(map(add, dy, map(mul, repeat(weight), d)))
        out.append(dy)
    return out


def _unrank(n: int, k: int) -> tuple[int, ...]:
    """The k-th permutation of range(n) in lexicographic order (factorial base)."""
    pool = list(range(n))
    perm = []
    for i in range(n - 1, -1, -1):
        digit, k = divmod(k, math.factorial(i))
        perm.append(pool.pop(digit))
    return tuple(perm)


@lru_cache(maxsize=None)
def _packed_columns(n: int) -> tuple[int, ...]:
    """Per variable, its weight in every output neuron, packed into one int.

    Neuron k's weight is field k of an unsigned ``array(_PACKED_FIELD)``,
    read as one int in native byte order, so ``sum(y_v * column_v)`` holds
    neuron k's score in field k while every score fits its field.
    """
    _check_layer_size(n)
    return tuple(
        int.from_bytes(
            array(_PACKED_FIELD, [n - perm.index(v) for perm in permutations(range(n))]).tobytes(),
            sys.byteorder,
        )
        for v in range(n)
    )


def _packed_scores(y) -> array | None:
    """Every neuron's score of exact ``y`` (ints, Fractions) as one packed integer product.

    ``y`` is scaled by the lcm D of its denominators and shifted by its
    minimum, so neuron k's field holds D * s_k - D * min(y) * n(n+1)/2 for
    its score s_k: one affine map for every neuron, since each gives the
    weights 1..n, which keeps the argmax and its ties.  None if the
    largest score does not fit a field.
    """
    d = math.lcm(*(v.denominator for v in y))
    ints = [v.numerator * (d // v.denominator) for v in y]
    low = min(ints)
    ints = [v - low for v in ints]
    n = len(ints)
    # The largest score weights the greatest value n (rearrangement inequality).
    top = sum(map(mul, sorted(ints, reverse=True), range(n, 0, -1)))
    scores = array(_PACKED_FIELD)
    if top >= 1 << (8 * scores.itemsize):
        return None
    total = sum(map(mul, ints, _packed_columns(n)))
    scores.frombytes(total.to_bytes(math.factorial(n) * scores.itemsize, sys.byteorder))
    return scores


def _order_scores(y) -> Ordering:
    """Argmax neuron of exact ``y``, first (lexicographically smallest) on ties."""
    scores = _packed_scores(y)
    if scores is None:
        scores = layer2_scores(y)
    return Ordering(_unrank(len(y), scores.index(max(scores))))


def order_by_scores(y) -> Ordering:
    """Descending stable sort of y; equals the argmax neuron's ordering."""
    return Ordering(tuple(sorted(range(len(y)), key=lambda v: y[v], reverse=True)))


def lex_order(rows) -> Ordering:
    """Sort variables by feature row, lexicographically descending.

    Rows are tuples, so the score sort compares them lexicographically and
    breaks full ties by ascending variable index, as the network does.
    """
    return order_by_scores(rows)


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


def check_equivalence(dataset, triplet=None, force_w: int | None = None, jobs: int = 1) -> EquivalenceReport:
    """Compare the two ordering paths on every problem, in dataset order.

    Per problem the base weight is re-selected minimally (unless forced),
    so the result is expected to have zero mismatches.  The check runs on
    one thread; threads only slowed this pure-Python loop.  ``jobs`` is
    accepted and ignored, for callers that still pass it.
    """
    triplet = tuple(triplet) if triplet is not None else brown_features()
    dataset = list(dataset)
    violations, mismatches = [], []
    for pr in dataset:
        rows = feature_matrix(triplet, pr)
        w = force_w if force_w is not None else base_weight(rows)
        try:
            y = radix_scores(rows, w, pr.id)
        except BaseWeightError as e:
            violations.append({"problem_id": pr.id, "w": w, "error": str(e)})
            continue
        nn = _order_scores(y) if pr.n_vars <= MAX_EXPLICIT_LAYER else order_by_scores(y)
        lex = lex_order(rows)
        if nn != lex:
            mismatches.append(
                {"problem_id": pr.id, "lex": lex.names(pr), "nn": nn.names(pr), "w": w}
            )
    return EquivalenceReport(len(dataset), mismatches, violations)
