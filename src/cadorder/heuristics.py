"""The constrained network and the variable orderings it encodes.

The direct way sorts variables by their (f1, f2, f3) feature rows compared
lexicographically.  The network way encodes the same comparison as a
two-layer summation network: with a base weight w chosen so that every
feature value is below w - 1 (``base_weight``), the first-layer score

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
``layer2_scores`` instead.

``layer2_scores`` adds each score sum_v W[v] * y[v] left to right over
the variables, the order that training's column form needs, and the
neurons that give variables 0..v the same weights share that partial
sum.  That takes n(n+1) products and about 2.7 * n! additions (n = 8: 72
multiplications and 109,592 additions, against 322,560 of each for one
dot product per neuron), through a gather plan built once per n.
Training evaluates a mini-batch at a time, in column form:
``layer1_columns`` and ``layer2_columns`` take one column per variable,
holding one value per sample, and add every value as ``layer1_scores``
and ``layer2_scores`` add it for one sample; ``layer2_backward`` is
column in, column out.  ``check_equivalence`` unranks the argmax neuron
in factorial base, so it never builds ``permutation_weights(8)`` (40,320
weight vectors, 10.5 MB); only ``layer2_backward`` and the tests read
that table.

Convention: the variable with the lexicographically greatest feature row
is placed first in the ordering (the CLI can flip the printed order with
--reverse).
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, repeat
from operator import add, itemgetter, mul

from .features import apply_stages, brown_features, eval_kernel, problem_scale
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
        return ">".join(pr.variables[i].name for i in self.perm)

    def reversed(self) -> Ordering:
        return Ordering(self.perm[::-1])


def parse_ordering(text: str, pr: ProblemInstance) -> Ordering:
    """Parse the ``x>y>z`` form, which names each of a problem's variables once."""
    index = {v.name: v.index for v in pr.variables}
    try:
        perm = tuple(index[name.strip()] for name in text.split(">"))
    except KeyError as e:
        raise ValueError(f"unknown variable {e.args[0]!r} in ordering {text!r}") from None
    if sorted(perm) != list(range(pr.n_vars)):
        raise ValueError(f"ordering {text!r} must name each of {pr.var_names} exactly once")
    return Ordering(perm)


def feature_matrix(triplet, pr: ProblemInstance) -> tuple[tuple, ...]:
    """Feature rows, one (f1, f2, f3) tuple per variable, sharing kernel tables.

    The tables are scaled by ``problem_scale(pr)`` only when a descriptor
    averages; each value is then a Fraction of its scaled int, else the int.
    """
    d = problem_scale(pr) if any(fd.averages for fd in triplet) else 1
    kernels = []
    for fd in triplet:
        if fd.kernel not in kernels:
            kernels.append(fd.kernel)
    slots = [kernels.index(fd.kernel) for fd in triplet]
    rows = []
    for v in range(pr.n_vars):
        tables = [eval_kernel(kernel, pr, v, d) for kernel in kernels]
        row = [apply_stages(fd, tables[i], d) for fd, i in zip(triplet, slots)]
        rows.append(tuple(row) if d == 1 else tuple(Fraction(n, d) for n in row))
    return tuple(rows)


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


def _neurons(n: int):
    """(ordering, weight vector) of each output neuron, lexicographic."""
    _check_layer_size(n)
    return map(_neuron, permutations(range(n)))


def _neuron(perm: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """An ordering and the weight of each variable in its neuron, n for the first."""
    n = len(perm)
    weights = [0] * n
    for pos, v in enumerate(perm):
        weights[v] = n - pos
    return perm, tuple(weights)


@lru_cache(maxsize=None)
def permutation_weights(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All (ordering, weight-vector) pairs of the output layer, lexicographic.

    The weight vector lists, per variable index, the weight that neuron
    applies: n for the ordering's first variable down to 1 for its last.
    Built once per n; every caller shares the same immutable tuple.
    """
    return tuple(_neurons(n))


@lru_cache(maxsize=None)
def _layer2_plan(n: int) -> tuple:
    """Gathers that sum the output layer over shared weight prefixes.

    Level v keeps one partial sum per distinct prefix (W[0], ..., W[v]) of
    the neurons' weight vectors: its parent's sum plus the product
    ``P[v * (n + 1) + W[v]] = W[v] * y[v]``.  Level 0 is the products
    w * y[0] for w = 1..n, and the levels below n - 2 are in lexicographic
    prefix order.  A prefix of n - 1 weights fixes the neuron, so the last
    two levels are in neuron order, filled in one pass over the neurons;
    the last level's parent is the sum at its own position (``tuple`` of a
    tuple is that tuple).
    """
    neurons = _neurons(n)  # checks the size limit before any work
    if n < 2:
        return ()  # level 0 is the whole layer
    lex = max(n - 2, 1)
    weights = range(1, n + 1)
    level = [(w,) for w in weights]
    steps = []
    for v in range(1, lex):
        index = {p: i for i, p in enumerate(level)}
        level = [p + (w,) for p in level for w in weights if w not in p]
        steps.append((
            itemgetter(*(index[p[:-1]] for p in level)),
            itemgetter(*(v * (n + 1) + p[-1] for p in level)),
        ))
    index = {p: i for i, p in enumerate(level)}
    parents, terms = [], {v: [] for v in range(lex, n)}
    for _, w in neurons:
        parents.append(index[w[:lex]])
        for v, column in terms.items():
            column.append(v * (n + 1) + w[v])
    for v, column in terms.items():
        steps.append((itemgetter(*parents) if v == lex else tuple, itemgetter(*column)))
    return tuple(steps)


def layer2_scores(y) -> tuple:
    """Score of every permutation neuron for first-layer output ``y``.

    Each score is sum_v W[v] * y[v], added left to right over v; neurons
    that agree on W[0..v] share that partial sum.
    """
    n = len(y)
    steps = _layer2_plan(n)
    products = [w * yv for yv in y for w in range(n + 1)]
    sums = products[1 : n + 1]
    for parents, terms in steps:
        sums = tuple(map(add, parents(sums), terms(products)))
    return tuple(sums)


def layer2_columns(y) -> tuple:
    """Column form of ``layer2_scores`` over a batch of samples with the same n.

    ``y[v]`` holds y_v, one value per sample; the result holds one column
    of scores per neuron, each added exactly as ``layer2_scores`` adds it.
    """
    n = len(y)
    steps = _layer2_plan(n)
    products = [list(map(mul, repeat(w), yv)) for yv in y for w in range(n + 1)]
    sums = tuple(products[1 : n + 1])
    for parents, terms in steps:
        sums = tuple([list(map(add, a, b)) for a, b in zip(parents(sums), terms(products))])
    return sums


@lru_cache(maxsize=None)
def _weight_columns(n: int) -> tuple[tuple[int, ...], ...]:
    """Per variable, the weight each output neuron gives it, in neuron order."""
    return tuple(zip(*(weights for _, weights in permutation_weights(n))))


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


def _rank(perm) -> int:
    """Lexicographic index of a permutation of range(n); the inverse of ``_unrank``."""
    pool = sorted(perm)
    k = 0
    for i, v in enumerate(perm):
        k += pool.index(v) * math.factorial(len(perm) - 1 - i)
        pool.remove(v)
    return k


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
