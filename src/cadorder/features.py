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

So a descriptor's values depend only on its ``value_key``: (kernel,
m-reduction, p-reduction), with kernel None for an indicator, a key
whose ``sgn`` erased the kernel.  That gives 2*3*3 + 3*3 = 27 keys, and
``dedup_features`` groups the 624 valid descriptors by them.  The keys
are distinct classes: ``default_probe()`` tells all 27 apart, which the
tests check.

Values are computed from the key, so the evaluator relies on these
identities; the tests check it against the stages' literal rules.  A
key's value is one table, the kernel's or, for an indicator key, the
table of the variable's containment sign, reduced per polynomial by the
m-reduction and then by the p-reduction.  All evaluation is exact and on
plain ints: the table is scaled by one positive integer per problem,
``problem_scale(pr)`` = D = lcm(monomial counts) * |P|, with |P| the
polynomial count, so a feature's true value is its scaled value over D.
Every reduction then yields an integer:

* max and sum keep the scale;
* av_m divides a row sum of multiples of D by the row's monomial count
  |p|, which divides D, leaving multiples of D / |p|, still multiples
  of |P|;
* so av_p divides exactly by |P|.

Means use exact integer ``//``.  All values come from one evaluator,
``scaled_matrix``: it scales by D only when a key holds a mean, and by
1 otherwise, and returns the scaled ints with their scale.
``feature_matrix`` turns them into exact values, ``Fraction`` exactly when
a descriptor averages; ``eval_feature`` is one entry of its rows.  The
search ranks the scaled ints: the scale is the same for every variable of
a problem, so ranking within a problem sees the true values' ranks.
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


# Each reduction kind on a row or vector of scaled values: the scale makes
# every mean an exact integer division.
_REDUCTIONS = {"max": max, "sum": sum, "av": lambda values: sum(values) // len(values)}


# Axis states: "mp" = full table, "p" = per-polynomial vector, "" = scalar.
# Each entry maps a stage to the axis state after it.  A stage absent from a
# state's row cannot apply in that state.
_TRANSITIONS = {
    "mp": {Agg.MAX_M: "p", Agg.MAX_MP: "", Agg.SUM_M: "p", Agg.SUM_MP: "",
           Agg.AV_M: "p", Agg.AV_MP: "", Agg.SGN: "mp", Agg.ID: "mp"},
    "p": {Agg.MAX_P: "", Agg.SUM_P: "", Agg.AV_P: "", Agg.SGN: "p", Agg.ID: "p"},
    "": {Agg.SGN: "", Agg.ID: ""},
}


def problem_scale(pr: ProblemInstance) -> int:
    """D = lcm(monomial counts) * polynomial count: every scaled value is an int."""
    return math.lcm(*[len(p.monomials) for p in pr.polynomials]) * len(pr.polynomials)


class InvalidDescriptorError(ValueError):
    """The aggregation pipeline does not reduce each axis exactly once."""


@dataclass(frozen=True)
class FeatureDescriptor:
    """A kernel plus four aggregation stages that reduce each axis exactly once.

    One walk of the state table at construction checks the stages and
    fixes ``encoding``, the (kernel code, stage codes) key of the canonical
    order, and ``value_key``, (kernel, or None once ``sgn`` erased it,
    m-reduction, p-reduction), each reduction named by its kind, "max",
    "sum" or "av".
    Values are computed from the key alone, so two descriptors with equal
    keys have equal values on every problem (see the module docstring).
    ``averages`` says whether a mean is one of the key's reductions.
    """

    kernel: Kernel
    pipeline: tuple[Agg, Agg, Agg, Agg]
    encoding: tuple[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    value_key: tuple = field(init=False, repr=False, compare=False)
    averages: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.pipeline) != 4:
            raise ValueError("pipeline must have exactly 4 stages")
        state, kernel, m, p = "mp", self.kernel, None, None
        for agg in self.pipeline:
            nxt = _TRANSITIONS[state].get(agg)
            if nxt is None:
                raise InvalidDescriptorError(
                    f"{agg.value} cannot apply when state is {state or 'scalar'!r}"
                )
            if agg is Agg.SGN:
                # sgn erases the kernel and turns each reduction so far into max.
                kernel, m, p = None, m and "max", p and "max"
            elif agg is not Agg.ID:
                # An _mp stage is the m-reduction then the p-reduction of its kind.
                kind, axes = agg.value.split("_")
                m = kind if "m" in axes else m
                p = kind if "p" in axes else p
            state = nxt
        if state:
            raise InvalidDescriptorError(f"pipeline left axis state {state!r} unreduced")
        encoding = _KERNEL_CODE[self.kernel], tuple(_AGG_CODE[a] for a in self.pipeline)
        object.__setattr__(self, "encoding", encoding)
        object.__setattr__(self, "value_key", (kernel, m, p))
        object.__setattr__(self, "averages", "av" in (m, p))

    @property
    def stage_count(self) -> int:
        """Number of non-identity stages; ties in dedup prefer fewer."""
        return sum(a is not Agg.ID for a in self.pipeline)

    def describe(self) -> str:
        """Math-style reading, outermost stage first, e.g. ``sum_p max_m d_v``."""
        stages = [a.value for a in self.pipeline if a is not Agg.ID]
        return " ".join(list(reversed(stages)) + [self.kernel.value])


def eval_kernel(kernel: Kernel | None, pr: ProblemInstance, v: int, d: int = 1) -> list[list[int]]:
    """Kernel table for variable index ``v``, scaled by ``d``: one row per polynomial.

    Kernel ``None`` is the indicator table: ``d`` where the variable occurs, else 0.
    """
    if kernel is None:
        return [[d if m.degrees[v] else 0 for m in p.monomials] for p in pr.polynomials]
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

    Values come from the descriptors' ``value_key``s alone.  ``d`` is D =
    ``problem_scale(pr)`` when a key holds a mean, else 1.  A key's value
    is its table, scaled by ``d``, reduced per polynomial by the key's
    m-reduction, then by its p-reduction.  The shared work is planned once
    per call: each distinct table and each distinct (table, m-reduction)
    vector is built once per variable and read by every key that needs it.
    """
    keys = [fd.value_key for fd in descriptors]
    d = problem_scale(pr) if any(fd.averages for fd in descriptors) else 1
    vectors = list(dict.fromkeys((kernel, m) for kernel, m, _ in keys))
    tables = list(dict.fromkeys(kernel for kernel, _ in vectors))
    vector_plan = [(tables.index(kernel), _REDUCTIONS[m]) for kernel, m in vectors]
    slots = [(vectors.index((kernel, m)), _REDUCTIONS[p]) for kernel, m, p in keys]
    rows = []
    for v in range(pr.n_vars):
        built = [eval_kernel(kernel, pr, v, d) for kernel in tables]
        reduced = [list(map(reduce_m, built[t])) for t, reduce_m in vector_plan]
        rows.append([reduce_p(reduced[i]) for i, reduce_p in slots])
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
            if (nxt := _TRANSITIONS[state].get(agg)) is not None
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
                "class_size": len(self.provenance[fd]),
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

    The probe must be nonempty, with one variable count.  Each
    representative's values on the problems so far form a tuple, extended
    by one ``feature_matrix`` call per problem; the walk stops once every
    tuple differs.  The error names each group of equal tuples.
    """
    probe = list(probe)
    if not probe:
        raise ValueError("probe set must be nonempty")
    n_vars = probe[0].n_vars
    if any(pr.n_vars != n_vars for pr in probe):
        raise ValueError("probe problems must share n_vars")

    values = [()] * len(representatives)
    for pr in probe:
        if len(set(values)) == len(values):
            return
        rows = feature_matrix(representatives, pr)
        values = [v + tuple(row[i] for row in rows) for i, v in enumerate(values)]
    groups: dict[tuple, list[FeatureDescriptor]] = {}
    for fd, key in zip(representatives, values):
        groups.setdefault(key, []).append(fd)
    named = [" = ".join(fd.describe() for fd in g) for g in groups.values() if len(g) > 1]
    if named:
        raise ValueError(
            f"the probe does not tell apart {len(named)} group(s) of classes: {'; '.join(named)}"
        )


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
