"""Per-variable features of polynomial problems, built from a small grammar.

A feature is a scalar function of (problem, variable) obtained by applying
four aggregation stages to a base kernel table.  The kernel assigns one
integer to every (polynomial p, monomial m) cell: either the variable's
degree in that monomial, or its containment sign times the monomial's
total degree.  Aggregators then reduce the monomial axis, the polynomial
axis, or both, with elementwise sign/identity allowed anywhere.

Averages are per the usual per-polynomial definitions: av_m divides each
polynomial's sum by its own monomial count, and av_mp is the mean of the
per-polynomial means (not the grand mean over all cells).

All evaluation is exact and on plain ints.  Every stage runs on values
scaled by one positive integer per problem, ``problem_scale(pr)`` =
D = lcm(monomial counts) * |P|, with |P| the polynomial count, so a
feature's true value is its scaled value over D.  Multiply the kernel
table by D; then every value a stage produces is an integer:

* sgn maps to {-D, 0, D}; max and sum keep the scale;
* av_m divides a row sum of multiples of D by the row's monomial count
  |p|, which divides D, leaving multiples of D / |p|, still multiples
  of |P|;
* so av_p, or av_mp's outer mean, divides exactly by |P|.

Stages use exact integer ``//``.  All values come from one evaluator,
``scaled_matrix``: it scales by D only when a descriptor averages, and by
1 otherwise, and returns the scaled ints with their scale.
``feature_matrix`` turns them into exact values, ``Fraction`` exactly when
a descriptor averages; ``eval_feature`` is one entry of its rows.  The
search ranks the scaled ints: the scale is the same for every variable of
a problem, so ranking within a problem sees the true values' ranks.

The monomial axis must be reduced before or together with the polynomial
axis: the kernel table is ragged (polynomials have different monomial
counts), so a polynomial-axis reduction of the full table has no
meaningful cell alignment.  Descriptors that attempt it are invalid,
as are those that reduce an axis twice or leave one unreduced.  Building
one raises, so every descriptor is valid by construction.

Both kernels are nonnegative (``d_v >= 0`` and ``sgn(d_v)*totdeg >= 0``),
and three identities follow:

1. ``sgn`` after a max, sum or av reduction equals that axis's max after
   ``sgn``: on nonnegative values each of them is positive exactly when
   some entry is.  So every ``sgn`` can be pushed down onto the kernel
   table, and each reduction it passes becomes a max.
2. ``sgn`` on the table erases the kernel: ``totdeg >= d_v``, so both
   kernels are positive in the same cells.
3. ``sgn`` after ``sgn`` is ``sgn``.  Also ``id`` is a no-op, and
   ``max_mp``, ``sum_mp`` and ``av_mp`` are the m-reduction followed by
   the p-reduction of the same kind.

So a descriptor's values depend only on its ``value_key``: (indicator,
kernel or None, m-reduction, p-reduction).  That gives 2*3*3 + 3*3 = 27
keys, and ``dedup_features`` groups the 624 valid descriptors by them.
The keys are distinct classes: ``default_probe()`` tells all 27 apart,
which the tests check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path

from .atomic import write_json
from .polyset import ProblemInstance, parse_problem


class Kernel(Enum):
    """Base per-(monomial, polynomial) quantity for one variable."""

    DEGREE = "d_v"
    SIGNED_TOTAL_DEGREE = "sgn(d_v)*totdeg"


class Agg(Enum):
    """Aggregation stages; declaration order is the canonical encoding order."""

    MAX_P = "max_p"
    MAX_M = "max_m"
    MAX_MP = "max_mp"
    SUM_P = "sum_p"
    SUM_M = "sum_m"
    SUM_MP = "sum_mp"
    AV_P = "av_p"
    AV_M = "av_m"
    AV_MP = "av_mp"
    SGN = "sgn"
    ID = "id"


_KERNEL_CODE = {k: i for i, k in enumerate(Kernel)}
_AGG_CODE = {a: i for i, a in enumerate(Agg)}


# Stage functions take (value, d): a value scaled by the problem's scale d.
def _sgn(x, d):
    return d if x > 0 else -d if x < 0 else 0


def _sgn_p(values, d):
    return [d if x > 0 else -d if x < 0 else 0 for x in values]


def _sgn_mp(table, d):
    return [[d if x > 0 else -d if x < 0 else 0 for x in row] for row in table]


def _max_p(values, d):
    return max(values)


def _sum_p(values, d):
    return sum(values)


def _av_p(values, d):
    return sum(values) // len(values)


def _max_m(table, d):
    return list(map(max, table))


def _sum_m(table, d):
    return list(map(sum, table))


def _av_m(table, d):
    return [sum(row) // len(row) for row in table]


def _max_mp(table, d):
    return max(map(max, table))


def _sum_mp(table, d):
    return sum(map(sum, table))


def _av_mp(table, d):
    return _av_p(_av_m(table, d), d)


# Axis states: "mp" = full table, "p" = per-polynomial vector, "" = scalar.
# Each entry is (next state, the stage's function on a value in this state);
# ``id`` has no function.  A stage absent from a state's row cannot apply in
# that state.
_TRANSITIONS = {
    "mp": {Agg.MAX_M: ("p", _max_m), Agg.MAX_MP: ("", _max_mp), Agg.SUM_M: ("p", _sum_m),
           Agg.SUM_MP: ("", _sum_mp), Agg.AV_M: ("p", _av_m), Agg.AV_MP: ("", _av_mp),
           Agg.SGN: ("mp", _sgn_mp), Agg.ID: ("mp", None)},
    "p": {Agg.MAX_P: ("", _max_p), Agg.SUM_P: ("", _sum_p), Agg.AV_P: ("", _av_p),
          Agg.SGN: ("p", _sgn_p), Agg.ID: ("p", None)},
    "": {Agg.SGN: ("", _sgn), Agg.ID: ("", None)},
}


def problem_scale(pr: ProblemInstance) -> int:
    """D = lcm(monomial counts) * polynomial count: every scaled stage value is an int."""
    return math.lcm(*[len(p.monomials) for p in pr.polynomials]) * len(pr.polynomials)


def _transition(agg: Agg, state: str) -> tuple:
    """(axis state after ``agg``, its function), or (None, None) when ``agg`` cannot apply."""
    return _TRANSITIONS[state].get(agg, (None, None))


def _value_key(kernel: Kernel, pipeline) -> tuple:
    """(indicator, kernel or None, m-reduction, p-reduction) of a valid pipeline.

    A reduction is named by its kind, "max", "sum" or "av"; an ``_mp``
    stage counts as the m-reduction followed by the p-reduction of its kind.
    """
    indicator, m, p = False, None, None
    for agg in pipeline:
        if agg is Agg.SGN:
            indicator, kernel = True, None
            m, p = m and "max", p and "max"
        elif agg is not Agg.ID:
            kind, axes = agg.value.split("_")
            m = kind if "m" in axes else m
            p = kind if "p" in axes else p
    return indicator, kernel, m, p


class InvalidDescriptorError(ValueError):
    """The aggregation pipeline does not reduce each axis exactly once."""


@dataclass(frozen=True)
class FeatureDescriptor:
    """A kernel plus four aggregation stages that reduce each axis exactly once.

    ``stages`` holds the functions of the stages other than ``id``, in
    order, found in the state table once, at construction; ``averages``
    says whether one of them is a mean.  ``encoding``, the (kernel code,
    stage codes) key of the canonical order, is also fixed at construction,
    and so is ``value_key``, (indicator, kernel or None, m-reduction,
    p-reduction): two descriptors have equal values on every problem
    exactly when their keys are equal (see the module docstring).
    """

    kernel: Kernel
    pipeline: tuple[Agg, Agg, Agg, Agg]
    stages: tuple = field(init=False, repr=False, compare=False)
    averages: bool = field(init=False, repr=False, compare=False)
    encoding: tuple[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    value_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.pipeline) != 4:
            raise ValueError("pipeline must have exactly 4 stages")
        state = "mp"
        stages = []
        for agg in self.pipeline:
            nxt, function = _transition(agg, state)
            if nxt is None:
                raise InvalidDescriptorError(
                    f"{agg.value} cannot apply when state is {state or 'scalar'!r}"
                )
            if function is not None:
                stages.append(function)
            state = nxt
        if state:
            raise InvalidDescriptorError(f"pipeline left axis state {state!r} unreduced")
        object.__setattr__(self, "stages", tuple(stages))
        object.__setattr__(self, "averages", any(f in (_av_m, _av_p, _av_mp) for f in stages))
        encoding = _KERNEL_CODE[self.kernel], tuple(_AGG_CODE[a] for a in self.pipeline)
        object.__setattr__(self, "encoding", encoding)
        object.__setattr__(self, "value_key", _value_key(self.kernel, self.pipeline))

    @property
    def stage_count(self) -> int:
        """Number of non-identity stages; ties in dedup prefer fewer."""
        return len(self.stages)

    def describe(self) -> str:
        """Math-style reading, outermost stage first, e.g. ``sum_p max_m d_v``."""
        stages = [a.value for a in self.pipeline if a is not Agg.ID]
        return " ".join(list(reversed(stages)) + [self.kernel.value])


def eval_kernel(kernel: Kernel, pr: ProblemInstance, v: int, d: int = 1) -> list[list[int]]:
    """Kernel table for variable index ``v``, scaled by ``d``: one row per polynomial."""
    if kernel is Kernel.DEGREE:
        table = [[m.degrees[v] for m in p.monomials] for p in pr.polynomials]
    else:
        table = [
            [m.total_degree if m.degrees[v] else 0 for m in p.monomials]
            for p in pr.polynomials
        ]
    if d == 1:
        return table
    return [[x * d for x in row] for row in table]


def scaled_matrix(descriptors, pr: ProblemInstance) -> tuple[int, list[list[int]]]:
    """``(d, rows)``: per variable, each descriptor's exact value times ``d``, an int.

    ``d`` is D = ``problem_scale(pr)`` when a descriptor averages, else 1.
    Each kernel table is built once per variable, scaled by ``d``, and
    shared by the descriptors that read it.
    """
    d = problem_scale(pr) if any(fd.averages for fd in descriptors) else 1
    kernels = list(dict.fromkeys(fd.kernel for fd in descriptors))
    slots = [(kernels.index(fd.kernel), fd.stages) for fd in descriptors]
    rows = []
    for v in range(pr.n_vars):
        tables = [eval_kernel(kernel, pr, v, d) for kernel in kernels]
        row = []
        for i, stages in slots:
            value = tables[i]
            for function in stages:
                value = function(value, d)
            row.append(value)
        rows.append(row)
    return d, rows


def feature_matrix(descriptors, pr: ProblemInstance) -> tuple[tuple, ...]:
    """Feature rows of ``pr``: per variable, a tuple of each descriptor's exact value.

    The rows of :func:`scaled_matrix`: when a descriptor averages, each
    value is a Fraction of its scaled int over D; otherwise it is the int
    itself.
    """
    d, rows = scaled_matrix(descriptors, pr)
    if any(fd.averages for fd in descriptors):
        return tuple(tuple(Fraction(n, d) for n in row) for row in rows)
    return tuple(map(tuple, rows))


def eval_feature(fd: FeatureDescriptor, pr: ProblemInstance, v: int):
    """Exact value of the feature for variable index ``v``: one entry of :func:`feature_matrix`."""
    return feature_matrix((fd,), pr)[v][0]


def _fd(kernel: Kernel, *stages: Agg) -> FeatureDescriptor:
    pipeline = tuple(stages) + (Agg.ID,) * (4 - len(stages))
    return FeatureDescriptor(kernel, pipeline)


def brown_features() -> tuple[FeatureDescriptor, FeatureDescriptor, FeatureDescriptor]:
    """The three metrics of Brown's ordering heuristic, in priority order.

    Overall degree of the variable; maximum total degree of monomials
    containing it; count of monomials containing it.
    """
    return (
        _fd(Kernel.DEGREE, Agg.MAX_MP),
        _fd(Kernel.SIGNED_TOTAL_DEGREE, Agg.MAX_MP),
        _fd(Kernel.DEGREE, Agg.SGN, Agg.SUM_MP),
    )


def selected_triplet() -> tuple[FeatureDescriptor, FeatureDescriptor, FeatureDescriptor]:
    """The tuned triplet found by exhaustive search over the grammar.

    Per-polynomial maxima summed over polynomials: of the variable's
    degree; of the total degree of monomials containing it; and of its
    containment sign (the number of polynomials containing it).
    """
    return (
        _fd(Kernel.DEGREE, Agg.MAX_M, Agg.SUM_P),
        _fd(Kernel.SIGNED_TOTAL_DEGREE, Agg.MAX_M, Agg.SUM_P),
        _fd(Kernel.DEGREE, Agg.SGN, Agg.MAX_M, Agg.SUM_P),
    )


def enumerate_descriptors() -> list[FeatureDescriptor]:
    """All valid descriptors, in canonical (kernel, pipeline-encoding) order.

    Grows stage prefixes through the state table, building only scalar ends.
    """
    prefixes = [((), "mp")]
    for _ in range(4):
        prefixes = [
            (pipeline + (agg,), nxt)
            for pipeline, state in prefixes
            for agg in Agg
            if (nxt := _transition(agg, state)[0]) is not None
        ]
    return [FeatureDescriptor(k, p) for k in Kernel for p, state in prefixes if not state]


@dataclass(frozen=True)
class FeatureSet:
    """Deduplicated descriptors plus the equivalence classes they represent."""

    descriptors: tuple[FeatureDescriptor, ...]
    provenance: dict[FeatureDescriptor, tuple[FeatureDescriptor, ...]]

    def __len__(self) -> int:
        return len(self.descriptors)

    @classmethod
    def from_descriptors(cls, descriptors) -> FeatureSet:
        """One class per descriptor; a descriptor listed twice raises ValueError."""
        descriptors = tuple(descriptors)
        provenance = {fd: (fd,) for fd in descriptors}
        if len(provenance) < len(descriptors):
            repeated = next(fd for i, fd in enumerate(descriptors) if fd in descriptors[:i])
            raise ValueError(f"descriptor {repeated.describe()!r} is listed twice")
        return cls(descriptors, provenance)

    def to_json(self) -> list[dict]:
        return [
            {
                "id": i,
                **descriptor_record(fd),
                "description": fd.describe(),
                "class_size": len(self.provenance.get(fd, (fd,))),
            }
            for i, fd in enumerate(self.descriptors)
        ]

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())


def descriptor_record(fd: FeatureDescriptor) -> dict:
    """The ``{"kernel", "pipeline"}`` record that ``descriptor_from_record`` reads back."""
    return {"kernel": fd.kernel.name, "pipeline": [a.value for a in fd.pipeline]}


def descriptor_from_record(record: dict) -> FeatureDescriptor:
    """Descriptor of a ``{"kernel", "pipeline"}`` record; a ValueError names the bad field."""
    if not isinstance(record, dict):
        raise ValueError(f"descriptor record must be an object, got {record!r}")
    for field in ("kernel", "pipeline"):
        if field not in record:
            raise ValueError(f"descriptor record has no {field!r}")
    kernel, stages = record["kernel"], record["pipeline"]
    if not isinstance(kernel, str) or kernel not in Kernel.__members__:
        raise ValueError(f"kernel: unknown kernel {kernel!r}")
    if not isinstance(stages, list):
        raise ValueError(f"pipeline: expected a list of stages, got {stages!r}")
    for stage in stages:
        if stage not in [a.value for a in Agg]:
            raise ValueError(f"pipeline: unknown stage {stage!r}")
    return FeatureDescriptor(Kernel[kernel], tuple(Agg(v) for v in stages))


def descriptors_from_records(records) -> list[FeatureDescriptor]:
    """Descriptors of a list of records; a ValueError names the bad record."""
    if not isinstance(records, list):
        raise ValueError("expected a list of descriptor records")
    descriptors = []
    for i, record in enumerate(records):
        try:
            descriptors.append(descriptor_from_record(record))
        except ValueError as e:
            raise ValueError(f"record {i}: {e}") from None
    return descriptors


def load_descriptors(path: str | Path) -> list[FeatureDescriptor]:
    """Descriptors of a JSON list of records; a ValueError names the file and record."""
    try:
        return descriptors_from_records(json.loads(Path(path).read_text()))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def load_feature_set(path: str | Path) -> FeatureSet:
    """The pool of a descriptor file; a ValueError names the file."""
    descriptors = load_descriptors(path)
    try:
        return FeatureSet.from_descriptors(descriptors)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def dedup_features(candidates, probe=None) -> FeatureSet:
    """Partition candidates into classes of equal values, by their ``value_key``.

    Each class keeps one representative: fewest non-identity stages, then
    smallest encoding.  A ``probe``, when given, only checks that the
    classes differ: see ``_check_classes_differ``.
    """
    classes: dict[tuple, list[FeatureDescriptor]] = {}
    for fd in candidates:
        classes.setdefault(fd.value_key, []).append(fd)

    reps = {}
    for members in classes.values():
        rep = min(members, key=lambda fd: (fd.stage_count, fd.encoding))
        reps[rep] = tuple(sorted(members, key=lambda fd: fd.encoding))
    ordered = tuple(sorted(reps, key=lambda fd: fd.encoding))
    if probe is not None:
        _check_classes_differ(ordered, probe)
    return FeatureSet(ordered, {fd: reps[fd] for fd in ordered})


def _check_classes_differ(representatives, probe) -> None:
    """Raise ValueError unless the probe tells every pair of representatives apart.

    The probe must be nonempty, with one variable count.  Its problems are
    evaluated one at a time, each on the representatives not yet told
    apart, and the walk stops once every one is apart.  The error names
    each group that no problem splits.
    """
    probe = list(probe)
    if not probe:
        raise ValueError("probe set must be nonempty")
    n_vars = probe[0].n_vars
    if any(pr.n_vars != n_vars for pr in probe):
        raise ValueError("probe problems must share n_vars")

    groups = [list(representatives)] if len(representatives) > 1 else []
    for pr in probe:
        if not groups:
            return
        pending = [fd for group in groups for fd in group]
        columns = dict(zip(pending, zip(*feature_matrix(pending, pr))))
        split = []
        for group in groups:
            by_values: dict[tuple, list[FeatureDescriptor]] = {}
            for fd in group:
                by_values.setdefault(columns[fd], []).append(fd)
            split += [g for g in by_values.values() if len(g) > 1]
        groups = split
    if groups:
        named = "; ".join(" = ".join(fd.describe() for fd in group) for group in groups)
        raise ValueError(f"the probe does not tell apart {len(groups)} group(s) of classes: {named}")


def separation_probes() -> list[ProblemInstance]:
    """Small hand instances that split near-duplicate features.

    The third one distinguishes monomial-containment counts from
    polynomial-containment counts (two monomials of one polynomial
    contain x).
    """
    texts = [
        "vars: x,y,z\nx^2*y + z\nx*z^2 - 1",
        "vars: x,y,z\nx^3 + y*z\ny^2 - x",
        "vars: x,y,z\nx^2 + x",
    ]
    return [parse_problem(t, problem_id=f"probe-{i}") for i, t in enumerate(texts)]


def default_probe(count: int = 200, seed: int = 0) -> list[ProblemInstance]:
    """Probe that tells the feature classes apart: seeded random problems plus hand instances."""
    from .datagen import GenConfig, random_dataset

    return random_dataset(GenConfig(seed=seed), count) + separation_probes()
