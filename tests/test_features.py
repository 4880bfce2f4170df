import json
import re
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import problem_instances
from cadorder.features import (
    _TRANSITIONS,
    Agg,
    FeatureDescriptor,
    FeatureSet,
    InvalidDescriptorError,
    Kernel,
    brown_features,
    dedup_features,
    default_probe,
    descriptor_from_record,
    descriptor_record,
    enumerate_descriptors,
    eval_feature,
    eval_kernel,
    feature_matrix,
    load_feature_set,
    problem_scale,
    scaled_matrix,
    selected_triplet,
    separation_probes,
)
from cadorder.polyset import parse_problem


def _fd(kernel, *stages):
    return FeatureDescriptor(kernel, tuple(stages) + (Agg.ID,) * (4 - len(stages)))


# Polynomials of 2, 3, 5 and 7 monomials: coprime counts, the largest scale
# for their size.
_COPRIME = parse_problem(
    "vars: x,y,z\nx + y\nx^2 + y + z\nx^3 + x^2*y + y^2 + z + 1\n"
    "x^4 + x^3*z + x*y*z + y^3 + z^2 + y + 1"
)


def test_degree_kernel(problem_a):
    assert eval_kernel(Kernel.DEGREE, problem_a, 0) == [[2, 0], [1, 0]]
    assert eval_kernel(Kernel.DEGREE, problem_a, 0, 3) == [[6, 0], [3, 0]]


def test_indicator_table(problem_a):
    # Kernel None: the scale where the variable occurs, else 0.
    assert eval_kernel(None, problem_a, 0) == [[1, 0], [1, 0]]
    assert eval_kernel(None, problem_a, 0, 3) == [[3, 0], [3, 0]]


def test_signed_total_degree_kernel(problem_a):
    assert eval_kernel(Kernel.SIGNED_TOTAL_DEGREE, problem_a, 0) == [[3, 0], [3, 0]]


def test_kernel_absent_variable():
    pr = parse_problem("vars: x,y\nx^2 + 1")
    assert eval_kernel(Kernel.DEGREE, pr, 1) == [[0, 0]]
    assert eval_kernel(Kernel.SIGNED_TOTAL_DEGREE, pr, 1) == [[0, 0]]
    assert eval_kernel(None, pr, 1, 5) == [[0, 0]]


def test_eval_feature_examples(problem_a):
    f1 = _fd(Kernel.DEGREE, Agg.MAX_MP)
    f3 = _fd(Kernel.DEGREE, Agg.SGN, Agg.SUM_MP)
    sum_max = _fd(Kernel.DEGREE, Agg.MAX_M, Agg.SUM_P)
    assert eval_feature(f1, problem_a, 0) == 2
    assert eval_feature(f3, problem_a, 0) == 2
    assert eval_feature(sum_max, problem_a, 2) == 3


def test_average_is_exact(problem_a):
    avm_sum = _fd(Kernel.DEGREE, Agg.AV_M, Agg.SUM_P)
    assert eval_feature(avm_sum, problem_a, 0) == Fraction(3, 2)


def test_av_mp_is_mean_of_per_polynomial_means():
    # Rows have different monomial counts: [2] and [1, 0].
    pr = parse_problem("vars: x\nx^2\nx + 1")
    av_mp = _fd(Kernel.DEGREE, Agg.AV_MP)
    assert eval_feature(av_mp, pr, 0) == Fraction(Fraction(2) + Fraction(1, 2), 2)


def _reference_sgn(x):
    return (x > 0) - (x < 0)


def _reference_av_p(values):
    return Fraction(sum(values), len(values))


def _reference_av_m(table):
    return [Fraction(sum(row), len(row)) for row in table]


# The grammar's stages on true values, with a Fraction wherever a mean
# divides: the literal rules that each descriptor's value, computed from its
# key, must reproduce.
_REFERENCE_STAGES = {
    "mp": {Agg.MAX_M: ("p", lambda t: list(map(max, t))),
           Agg.MAX_MP: ("", lambda t: max(map(max, t))),
           Agg.SUM_M: ("p", lambda t: list(map(sum, t))),
           Agg.SUM_MP: ("", lambda t: sum(map(sum, t))),
           Agg.AV_M: ("p", _reference_av_m),
           Agg.AV_MP: ("", lambda t: _reference_av_p(_reference_av_m(t))),
           Agg.SGN: ("mp", lambda t: [[_reference_sgn(x) for x in row] for row in t]),
           Agg.ID: ("mp", None)},
    "p": {Agg.MAX_P: ("", max), Agg.SUM_P: ("", sum), Agg.AV_P: ("", _reference_av_p),
          Agg.SGN: ("p", lambda values: [_reference_sgn(x) for x in values]),
          Agg.ID: ("p", None)},
    "": {Agg.SGN: ("", _reference_sgn), Agg.ID: ("", None)},
}


def _reference_feature(fd, pr, v):
    value, state = eval_kernel(fd.kernel, pr, v), "mp"
    for agg in fd.pipeline:
        state, function = _REFERENCE_STAGES[state][agg]
        if function is not None:
            value = function(value)
    return value


# A ragged kernel table (rows of 3, 1 and 2 monomials), a per-polynomial
# vector holding a Fraction, and a scalar: hand values of each reference
# stage on true values, which pin the reference every descriptor is checked
# against.
_RAGGED = [[2, 0, 1], [3], [0, 5]]
_VECTOR = [1, Fraction(5, 2), 0]
_STAGE_CASES = [
    ("mp", Agg.MAX_M, _RAGGED, "p", [2, 3, 5]),
    ("mp", Agg.SUM_M, _RAGGED, "p", [3, 3, 5]),
    ("mp", Agg.AV_M, _RAGGED, "p", [Fraction(1), Fraction(3), Fraction(5, 2)]),
    ("mp", Agg.MAX_MP, _RAGGED, "", 5),
    ("mp", Agg.SUM_MP, _RAGGED, "", 11),
    # The mean of the row means, 13/6, not the grand mean over cells, 11/6.
    ("mp", Agg.AV_MP, _RAGGED, "", Fraction(13, 6)),
    ("mp", Agg.SGN, _RAGGED, "mp", [[1, 0, 1], [1], [0, 1]]),
    ("p", Agg.MAX_P, _VECTOR, "", Fraction(5, 2)),
    ("p", Agg.SUM_P, _VECTOR, "", Fraction(7, 2)),
    ("p", Agg.AV_P, _VECTOR, "", Fraction(7, 6)),
    ("p", Agg.SGN, _VECTOR, "p", [1, 1, 0]),
    ("", Agg.SGN, Fraction(-7, 2), "", -1),
]


@pytest.mark.parametrize("state, agg, value, next_state, expected", _STAGE_CASES,
                         ids=[f"{state or 'scalar'}-{agg.value}" for state, agg, *_ in _STAGE_CASES])
def test_stage_table_entry(state, agg, value, next_state, expected):
    got_state, function = _REFERENCE_STAGES[state][agg]
    got = function(value)
    assert got_state == _TRANSITIONS[state][agg] == next_state
    assert got == expected
    assert _types(got) == _types(expected)


def _types(value):
    return [_types(x) for x in value] if isinstance(value, list) else type(value)


def test_stage_cases_cover_the_table():
    entries = {(state, agg) for state, row in _TRANSITIONS.items() for agg in row}
    stages = {(state, agg) for state, agg, *_ in _STAGE_CASES}
    assert entries - stages == {("mp", Agg.ID), ("p", Agg.ID), ("", Agg.ID)}
    assert len(stages) == len(_STAGE_CASES) == 12
    assert all(_TRANSITIONS[state][Agg.ID] == state for state in _TRANSITIONS)
    # The reference walks the same state table.
    reference_states = {state: {agg: nxt for agg, (nxt, _) in row.items()}
                        for state, row in _REFERENCE_STAGES.items()}
    assert reference_states == _TRANSITIONS


def test_invalid_pipelines_raise():
    cases = [
        ((Agg.MAX_M, Agg.MAX_M), "max_m cannot apply when state is 'p'"),
        ((), "pipeline left axis state 'mp' unreduced"),
        # The table is ragged, so the polynomial axis cannot reduce first.
        ((Agg.SUM_P, Agg.SUM_M), "sum_p cannot apply when state is 'mp'"),
    ]
    for stages, message in cases:
        with pytest.raises(InvalidDescriptorError) as err:
            _fd(Kernel.DEGREE, *stages)
        assert str(err.value) == message


def test_problem_scale_hand_cases():
    # Rows of 3, 1 and 2 monomials, as in the stage cases: lcm 6 times 3 polynomials.
    assert problem_scale(parse_problem("vars: x,y\nx^2 + x*y + y\nx^3\ny^5 + 1")) == 18
    assert problem_scale(parse_problem("vars: x\nx^2")) == 1
    # Coprime monomial counts 2, 3, 5 and 7: lcm 210 times 4 polynomials.
    assert problem_scale(_COPRIME) == 210 * 4


_MEANS = (Agg.AV_M, Agg.AV_P, Agg.AV_MP)


def _mean_survives(pipeline):
    """Whether some mean stage has no ``sgn`` after it."""
    return any(a in _MEANS and Agg.SGN not in pipeline[i + 1:] for i, a in enumerate(pipeline))


def test_descriptors_walk_the_state_table():
    for fd in enumerate_descriptors():
        state = "mp"
        for agg in fd.pipeline:
            state = _TRANSITIONS[state][agg]
        assert state == ""
        assert fd.stage_count == len(_stripped(fd))
        assert fd.averages == _mean_survives(fd.pipeline)
    counts = Counter((any(a in _MEANS for a in fd.pipeline), fd.averages)
                     for fd in enumerate_descriptors())
    # 128 descriptors have a mean that a later sgn erases.
    assert counts == {(True, True): 176, (True, False): 128, (False, False): 320}


def test_a_mean_erased_by_sgn_gives_its_representatives_values_and_types():
    erased = _fd(Kernel.DEGREE, Agg.AV_M, Agg.SGN, Agg.MAX_P)
    assert erased.describe() == "max_p sgn av_m d_v"
    rep = next(rep for rep, members in _CLASSES.provenance.items() if erased in members)
    assert rep != erased and rep.value_key == erased.value_key
    assert not erased.averages and not rep.averages
    for pr in separation_probes() + [_COPRIME]:
        got, want = feature_matrix((erased,), pr), feature_matrix((rep,), pr)
        assert got == want
        assert all(type(x) is int for row in got for x in row)


def test_encoding_is_fixed_at_construction():
    field = {f.name: f for f in fields(FeatureDescriptor)}["encoding"]
    assert not (field.init or field.repr or field.compare)
    kernels, aggs = list(Kernel), list(Agg)
    for fd in enumerate_descriptors():
        expected = kernels.index(fd.kernel), tuple(map(aggs.index, fd.pipeline))
        assert vars(fd)["encoding"] == expected


def test_brown_feature_values(problem_b):
    f1, f2, f3 = brown_features()
    assert [eval_feature(f1, problem_b, v) for v in range(3)] == [3, 2, 1]
    assert [eval_feature(f2, problem_b, v) for v in range(3)] == [3, 2, 2]
    assert [eval_feature(f3, problem_b, v) for v in range(3)] == [2, 2, 1]


def test_selected_triplet_values(problem_a):
    t1, t2, t3 = selected_triplet()
    assert [eval_feature(t1, problem_a, v) for v in range(3)] == [3, 1, 3]
    assert [eval_feature(t2, problem_a, v) for v in range(3)] == [6, 3, 4]
    assert [eval_feature(t3, problem_a, v) for v in range(3)] == [2, 1, 2]


def test_formal_composition_count():
    assert len(list(Kernel)) * len(list(Agg)) ** 4 == 2 * 11**4 == 29_282


def test_enumeration_matches_independent_count():
    valid = enumerate_descriptors()
    # Independent recount: an axes-pair reduction in one of 4 slots with
    # sgn/id elsewhere, or a monomial reduction before a polynomial one.
    both_at_once = 4 * 3 * 2**3
    m_then_p = 6 * (3 * 3) * 2**2
    assert len(valid) == 2 * (both_at_once + m_then_p) == 624
    assert len(set(valid)) == len(valid)


def test_enumeration_equals_brute_force():
    buildable = []
    for kernel, pipeline in product(Kernel, product(Agg, repeat=4)):
        try:
            buildable.append(FeatureDescriptor(kernel, pipeline))
        except InvalidDescriptorError:
            pass
    assert enumerate_descriptors() == buildable


def test_enumeration_is_canonically_ordered():
    valid = enumerate_descriptors()
    assert valid == sorted(valid, key=lambda fd: fd.encoding)


def test_axis_bookkeeping_invariant():
    reduces_m = {Agg.MAX_M, Agg.SUM_M, Agg.AV_M, Agg.MAX_MP, Agg.SUM_MP, Agg.AV_MP}
    reduces_p = {Agg.MAX_P, Agg.SUM_P, Agg.AV_P, Agg.MAX_MP, Agg.SUM_MP, Agg.AV_MP}
    for fd in enumerate_descriptors():
        assert sum(1 for a in fd.pipeline if a in reduces_m) == 1
        assert sum(1 for a in fd.pipeline if a in reduces_p) == 1


def test_id_padding_collapses():
    early = FeatureDescriptor(Kernel.DEGREE, (Agg.MAX_MP, Agg.ID, Agg.ID, Agg.ID))
    late = FeatureDescriptor(Kernel.DEGREE, (Agg.ID, Agg.MAX_MP, Agg.ID, Agg.ID))
    fs = dedup_features([early, late])
    assert fs.descriptors == (early,)
    assert fs.provenance[early] == (early, late)


def test_sgn_idempotence_collapses():
    double = FeatureDescriptor(Kernel.DEGREE, (Agg.SGN, Agg.SGN, Agg.SUM_MP, Agg.ID))
    single = FeatureDescriptor(Kernel.DEGREE, (Agg.SGN, Agg.SUM_MP, Agg.ID, Agg.ID))
    fs = dedup_features([double, single])
    assert fs.descriptors == (single,)


def test_monomial_vs_polynomial_containment_separate(problem_a, problem_c):
    brown_count = brown_features()[2]
    poly_count = selected_triplet()[2]
    assert eval_feature(brown_count, problem_c, 0) == 2
    assert eval_feature(poly_count, problem_c, 0) == 1
    fs = dedup_features([brown_count, poly_count])
    assert fs.descriptors == (poly_count, brown_count)
    assert dedup_features([brown_count, poly_count], [problem_c]) == fs
    # In problem_a no polynomial holds a variable in two monomials, so the
    # two counts agree there: that probe cannot tell the classes apart.
    with pytest.raises(ValueError) as err:
        dedup_features([brown_count, poly_count], [problem_a])
    assert str(err.value) == (
        "the probe does not tell apart 1 group(s) of classes: sum_p max_m sgn d_v = sum_mp sgn d_v"
    )


def test_a_probe_that_cannot_tell_classes_apart_names_them(problem_c):
    # problem_c is one polynomial, so the three p-reductions agree on it, and
    # x's monomials have no other variable, so the two kernels agree too.
    with pytest.raises(ValueError, match=r"does not tell apart 4 group\(s\) of classes: ") as err:
        dedup_features(enumerate_descriptors(), [problem_c])
    groups = str(err.value).split(": ", 1)[1].split("; ")
    assert len(groups) == 4
    assert ("max_p av_m d_v = sum_p av_m d_v = av_mp d_v = max_p av_m sgn(d_v)*totdeg"
            " = sum_p av_m sgn(d_v)*totdeg = av_mp sgn(d_v)*totdeg") in groups


def test_dedup_requires_probe():
    with pytest.raises(ValueError, match="probe set must be nonempty"):
        dedup_features(enumerate_descriptors()[:5], [])


def test_dedup_requires_shared_nvars(problem_a):
    one_var = parse_problem("vars: x\nx^2")
    with pytest.raises(ValueError, match="share n_vars"):
        dedup_features(enumerate_descriptors()[:5], [problem_a, one_var])


def test_dedup_idempotent():
    candidates = enumerate_descriptors()[:120]
    once = dedup_features(candidates)
    twice = dedup_features(once.descriptors)
    assert twice.descriptors == once.descriptors


def test_grammar_has_27_classes():
    candidates = enumerate_descriptors()
    fs = dedup_features(candidates)
    assert len(candidates) == 624
    assert len(fs) == 27 == 2 * 3 * 3 + 3 * 3
    assert sum(len(fs.provenance[rep]) for rep in fs.descriptors) == 624
    assert {rep.value_key for rep in fs.descriptors} == {fd.value_key for fd in candidates}
    assert Counter(rep.value_key[0] is None for rep in fs.descriptors) == {False: 18, True: 9}


def test_value_key_is_fixed_at_construction():
    field = {f.name: f for f in fields(FeatureDescriptor)}["value_key"]
    assert not (field.init or field.repr or field.compare)
    brown_degree, brown_total, brown_count = brown_features()
    assert brown_degree.value_key == (Kernel.DEGREE, "max", "max")
    assert brown_total.value_key == (Kernel.SIGNED_TOTAL_DEGREE, "max", "max")
    assert brown_count.value_key == (None, "sum", "sum")
    # sgn after both reductions turns each into max.
    late_sgn = _fd(Kernel.SIGNED_TOTAL_DEGREE, Agg.AV_M, Agg.SUM_P, Agg.SGN)
    assert late_sgn.value_key == (None, "max", "max")
    # sgn between them turns only the m-reduction into max.
    assert selected_triplet()[2].value_key == (None, "max", "sum")
    assert _fd(Kernel.DEGREE, Agg.SUM_M, Agg.SGN, Agg.AV_P).value_key == (None, "max", "av")


# Every key class of the grammar, members in canonical order.
_CLASSES = dedup_features(enumerate_descriptors())
_KEY_CLASSES = list(_CLASSES.provenance.values())


@settings(max_examples=40, deadline=None)
@given(problem_instances(min_vars=1, max_vars=4, max_polys=4, max_monomials=7))
@example(_COPRIME)
def test_equal_value_keys_give_equal_values(pr):
    for members in _KEY_CLASSES:
        for v in range(pr.n_vars):
            values = {_reference_feature(fd, pr, v) for fd in members}
            assert len(values) == 1, (members[0].describe(), values)


def _probe_dedup(candidates, probe):
    """Reference: group candidates by their values over the probe.

    Every descriptor is evaluated on every probe problem by the stages'
    literal rules, which know nothing of value keys.
    """
    classes = {}
    for fd in candidates:
        vector = tuple(_reference_feature(fd, pr, v) for pr in probe for v in range(pr.n_vars))
        classes.setdefault(vector, []).append(fd)
    reps = {}
    for members in classes.values():
        rep = min(members, key=lambda fd: (fd.stage_count, fd.encoding))
        reps[rep] = tuple(sorted(members, key=lambda fd: fd.encoding))
    ordered = tuple(sorted(reps, key=lambda fd: fd.encoding))
    return FeatureSet(ordered, {fd: reps[fd] for fd in ordered})


def test_key_classes_equal_probe_grouping_on_default_probe():
    candidates = enumerate_descriptors()
    probe = default_probe()
    fs = dedup_features(candidates)
    assert _probe_dedup(candidates, probe) == fs
    assert dedup_features(candidates, probe) == fs


def _stripped(fd):
    return tuple(a for a in fd.pipeline if a is not Agg.ID)


# Every valid descriptor, grouped by kernel and id-stripped stages: each
# group holds one stage sequence and all of its id paddings.
_PADDINGS: dict = {}
for _d in enumerate_descriptors():
    _PADDINGS.setdefault((_d.kernel, _stripped(_d)), []).append(_d)
_SEQUENCES = sorted(_PADDINGS, key=lambda key: _PADDINGS[key][0].encoding)
_PROBE_POOL = default_probe(count=12, seed=3)


@st.composite
def _padded_candidates(draw):
    """Candidate subsets that take one or more id paddings of each drawn sequence."""
    keys = draw(st.lists(st.sampled_from(_SEQUENCES), min_size=1, max_size=25, unique=True))
    out = []
    for key in keys:
        out += draw(st.lists(st.sampled_from(_PADDINGS[key]), min_size=1, unique=True))
    return draw(st.permutations(out))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(_PROBE_POOL), min_size=1, max_size=6, unique=True),
    _padded_candidates(),
)
def test_dedup_matches_naive_grouping(probe, candidates):
    classes = dedup_features(candidates)
    naive = _probe_dedup(candidates, probe)
    if len(naive) == len(classes):
        assert naive == classes == dedup_features(candidates, probe)
    else:
        # The probe merges classes, and the check names the ones it merges.
        with pytest.raises(ValueError, match="does not tell apart") as err:
            dedup_features(candidates, probe)
        merged = [group for group in naive.provenance.values()
                  if sum(rep in group for rep in classes.descriptors) > 1]
        assert f"tell apart {len(merged)} group(s)" in str(err.value)


# The first problems of the default probe, which tell all 27 classes apart.
_SEPARATING = default_probe()[:4]


@settings(max_examples=20, deadline=None)
@given(st.lists(problem_instances(min_vars=3, max_vars=3), min_size=1, max_size=3),
       _padded_candidates())
def test_a_probe_never_changes_the_classes(extra, candidates):
    # Any subset of the grammar keeps the classes it takes from the whole,
    # and a probe that tells those apart only confirms them.
    classes = dedup_features(candidates)
    assert dedup_features(candidates, _SEPARATING + extra) == classes
    assert dedup_features(candidates, extra + _SEPARATING) == classes


@settings(max_examples=40, deadline=None)
@given(problem_instances(min_vars=1, max_vars=3), _padded_candidates())
def test_shared_prefix_values_match_per_problem_path(pr, candidates):
    # scaled_matrix shares each table and each m-reduced vector among the
    # candidates that read it; each value is still the one descriptor's
    # exact value times d.
    d, rows = scaled_matrix(candidates, pr)
    assert d == (problem_scale(pr) if any(fd.averages for fd in candidates) else 1)
    assert all(type(x) is int for row in rows for x in row)
    assert rows == [[x * d for x in row] for row in feature_matrix(candidates, pr)]
    assert rows == [[eval_feature(fd, pr, v) * d for fd in candidates]
                    for v in range(pr.n_vars)]


def test_every_yielded_value_is_an_int():
    descriptors = enumerate_descriptors()
    assert len(descriptors) == 624
    for pr in separation_probes() + [_COPRIME]:
        d, rows = scaled_matrix(descriptors, pr)
        assert d == problem_scale(pr)
        assert len(rows) == pr.n_vars and all(len(row) == 624 for row in rows)
        assert all(type(x) is int for row in rows for x in row)
        assert rows == [[x * d for x in row] for row in feature_matrix(descriptors, pr)]


@settings(max_examples=25, deadline=None)
@given(problem_instances(min_vars=1, max_vars=5, max_polys=4, max_monomials=7))
@example(_COPRIME)
def test_eval_feature_matches_fraction_reference(pr):
    for fd in enumerate_descriptors():
        for v in range(pr.n_vars):
            got, want = eval_feature(fd, pr, v), _reference_feature(fd, pr, v)
            assert got == want and str(got) == str(want)


# Two descriptors sharing a kernel, one of them averaging, and a third on
# the other kernel.
_MIXED_TRIPLE = (
    _fd(Kernel.DEGREE, Agg.AV_M, Agg.SUM_P),
    _fd(Kernel.DEGREE, Agg.MAX_MP),
    _fd(Kernel.SIGNED_TOTAL_DEGREE, Agg.SGN, Agg.SUM_MP),
)


@settings(max_examples=60, deadline=None)
@given(
    problem_instances(min_vars=1, max_vars=5, max_polys=4, max_monomials=7),
    st.lists(st.sampled_from(enumerate_descriptors()), min_size=3, max_size=3),
)
@example(_COPRIME, list(_MIXED_TRIPLE))
@example(_COPRIME, list(brown_features()))
# One monomial: the scale is 1, and the averaging descriptor still gives Fractions.
@example(parse_problem("vars: x,y\nx^2*y"), list(_MIXED_TRIPLE))
def test_feature_matrix_rows_match_fraction_reference(pr, triple):
    rows = feature_matrix(triple, pr)
    exact = Fraction if any(fd.averages for fd in triple) else int
    assert len(rows) == pr.n_vars
    for v, row in enumerate(rows):
        want = tuple(_reference_feature(fd, pr, v) for fd in triple)
        assert row == want and list(map(str, row)) == list(map(str, want))
        assert all(type(x) is exact for x in row)


def test_named_features_survive_enumeration_dedup():
    fs = dedup_features(enumerate_descriptors())
    members = [fd for group in fs.provenance.values() for fd in group]
    for fd in brown_features() + selected_triplet():
        assert fd in members


def test_describe_strings():
    t1, t2, t3 = selected_triplet()
    assert t1.describe() == "sum_p max_m d_v"
    assert t2.describe() == "sum_p max_m sgn(d_v)*totdeg"
    assert t3.describe() == "sum_p max_m sgn d_v"
    assert brown_features()[0].describe() == "max_mp d_v"


def test_feature_set_json_round_trip(tmp_path):
    fs = dedup_features(enumerate_descriptors()[:60])
    path = tmp_path / "features.json"
    fs.save(path)
    loaded = load_feature_set(path)
    assert loaded.descriptors == fs.descriptors


def test_feature_set_rejects_a_repeated_descriptor(tmp_path):
    brown = brown_features()
    with pytest.raises(ValueError, match="descriptor 'max_mp d_v' is listed twice"):
        FeatureSet.from_descriptors(brown + brown[:1])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps([descriptor_record(fd) for fd in brown + brown[:1]]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: descriptor 'max_mp d_v'"):
        load_feature_set(path)


def test_descriptor_record_round_trip():
    for fd in brown_features() + selected_triplet():
        record = {"kernel": fd.kernel.name, "pipeline": [a.value for a in fd.pipeline]}
        assert descriptor_from_record(record) == fd


def test_default_probe_contains_separators():
    probe = default_probe(count=5)
    assert len(probe) == 8
    assert all(pr.n_vars == 3 for pr in probe)


@given(problem_instances(min_vars=1, max_vars=3))
def test_integer_features_on_integer_pipelines(pr):
    # No averaging stage: values stay integral.
    for fd in brown_features() + selected_triplet():
        for v in range(pr.n_vars):
            value = eval_feature(fd, pr, v)
            assert value == int(value)
