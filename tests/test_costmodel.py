import hashlib
from dataclasses import replace
from itertools import permutations

import pytest

from conftest import problem_instances
from hypothesis import example, given, settings

from cadorder.costmodel import (
    CostRecord,
    ExternalSolverAdapter,
    MissingRecordError,
    PriceStore,
    SolverError,
    SyntheticCostModel,
    TimingTable,
    load_timing_table,
    total_cost,
)
from cadorder.features import brown_features, eval_feature, feature_matrix, selected_triplet
from cadorder.heuristics import Ordering, lex_order
from cadorder.polyset import parse_problem, serialize_problem


def test_synthetic_examples(problem_a):
    syn = SyntheticCostModel(step_base=2.0)
    assert syn.cost(problem_a, Ordering((0, 2, 1))) == 19.0
    assert syn.cost(problem_a, Ordering((1, 0, 2))) == 13.0


def test_synthetic_statistic_matches_feature_module(problem_a, problem_b):
    # The per-variable statistic is the same quantity as the first selected
    # feature; cross-check the independent implementations.
    from cadorder.costmodel import _per_poly_max_degrees

    first = selected_triplet()[0]
    for pr in (problem_a, problem_b):
        assert _per_poly_max_degrees(pr) == [
            eval_feature(first, pr, v) for v in range(pr.n_vars)
        ]


def test_synthetic_determinism(problem_a):
    noisy = SyntheticCostModel(step_base=2.0, noise_seed=4, noise_scale=0.5)
    ordering = Ordering((0, 1, 2))
    first = noisy.cost(problem_a, ordering)
    assert first == noisy.cost(problem_a, ordering)
    base = SyntheticCostModel(step_base=2.0).cost(problem_a, ordering)
    assert base <= first < 1.5 * base
    assert noisy.cost(problem_a, Ordering((1, 0, 2))) != first


@settings(max_examples=200, deadline=None)
@given(problem_instances(min_vars=1, max_vars=8, max_monomials=3))
@example(parse_problem("vars: x\nx^3"))
@example(parse_problem("vars: x,y\nx^2*y\ny^4\n3"))
@example(parse_problem("vars: a,b,c,d,e,f,g,h\na^2*h\nb*c^3 + d\ne*f*g^2 - h^5"))
def test_per_poly_max_degrees_equals_per_variable_loop(pr):
    from cadorder.costmodel import _per_poly_max_degrees

    expected = [
        sum(max(m.degrees[v] for m in p.monomials) for p in pr.polynomials)
        for v in range(pr.n_vars)
    ]
    result = _per_poly_max_degrees(pr)
    assert result == expected
    assert all(type(x) is int for x in result)


@settings(max_examples=60, deadline=None)
@given(problem_instances(min_vars=2, max_vars=4, max_degree=4))
def test_synthetic_optimum_sorts_statistic_ascending(pr):
    from cadorder.costmodel import _per_poly_max_degrees

    syn = SyntheticCostModel()
    m = _per_poly_max_degrees(pr)
    brute_best = min(
        (syn.cost(pr, Ordering(perm)) for perm in permutations(range(pr.n_vars)))
    )
    ascending = Ordering(tuple(sorted(range(pr.n_vars), key=lambda v: m[v])))
    assert syn.cost(pr, ascending) == brute_best


def _reference_cost(model, pr, ordering):
    """The synthetic price as defined, with each m_v recomputed from the monomials."""
    n = pr.n_vars
    m = [sum(max(mono.degrees[v] for mono in p.monomials) for p in pr.polynomials)
         for v in range(n)]
    total = float(sum(model.step_base ** (n - 1 - k) * m[v] for k, v in enumerate(ordering.perm)))
    if model.noise_seed is not None and model.noise_scale > 0.0:
        payload = f"{serialize_problem(pr)}|{ordering.names(pr)}|{model.noise_seed}"
        digest = hashlib.sha256(payload.encode()).digest()
        total *= 1.0 + model.noise_scale * (int.from_bytes(digest[:8], "big") >> 11) * 2.0**-53
    return total


@settings(max_examples=60, deadline=None)
@given(problem_instances(max_vars=5, max_monomials=4))
def test_synthetic_price_reads_the_degree_table_bit_for_bit(pr):
    # Every ordering, priced before and after the table is kept, noisy and noise-free.
    for model in (SyntheticCostModel(), SyntheticCostModel(1.5, noise_seed=7, noise_scale=0.4)):
        fresh = replace(pr)
        assert fresh._degree_table is None
        for perm in permutations(range(pr.n_vars)):
            ordering = Ordering(perm)
            expected = _reference_cost(model, pr, ordering).hex()
            assert model.cost(fresh, ordering).hex() == expected
            assert model.cost(pr, ordering).hex() == expected
        assert fresh.degree_table() is fresh.degree_table()


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticCostModel(step_base=0.0)
    with pytest.raises(ValueError):
        SyntheticCostModel(noise_scale=1.0)


def test_timing_table_lookup(problem_a):
    rec = CostRecord("a", "x>y>z", 1.25, False)
    table = TimingTable({("a", "x>y>z"): rec}, timeout_s=10.0)
    assert table.cost(problem_a, Ordering((0, 1, 2))) == 1.25
    with pytest.raises(MissingRecordError):
        table.cost(problem_a, Ordering((2, 1, 0)))


def test_timing_table_timeout_penalty(problem_a):
    rec = CostRecord("a", "x>y>z", 10.0, True)
    table = TimingTable({("a", "x>y>z"): rec}, timeout_s=10.0, penalty_factor=2.0)
    assert table.cost(problem_a, Ordering((0, 1, 2))) == 20.0


def test_load_timing_table(tmp_path):
    path = tmp_path / "times.csv"
    path.write_text(
        "problem,ordering,time_s,timed_out\n"
        "p1,x>y>z,1.5,false\n"
        "p1,z>y>x,10.0,true\n"
        "p2,x>y>z,0.25,false\n"
    )
    table = load_timing_table(path, timeout_s=10.0, penalty_factor=1.0)
    assert len(table.records) == 3
    assert table.records[("p1", "z>y>x")].timed_out


@pytest.mark.parametrize(
    "rows, fragment",
    [
        ("p1,x>y,-1,false\n", "bad.csv:2: negative time"),
        ("p1,x>y,1.0,false\np1,x>y,2.0,false\n", "duplicate key"),
        ("p1,x>y,abc,false\n", "bad time_s"),
        ("p1,x>y,nan,false\n", "bad.csv:2: bad time_s 'nan'"),
        ("p1,x>y,inf,false\n", "bad.csv:2: bad time_s 'inf'"),
        ("p1,x>y,-inf,false\n", "bad.csv:2: negative time"),
        ("p1,x>y,1.0,maybe\n", "timed_out"),
        ("p1,x>y,1.0\n", "expected 4 fields"),
    ],
)
def test_load_timing_table_errors(tmp_path, rows, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("problem,ordering,time_s,timed_out\n" + rows)
    with pytest.raises(ValueError, match=fragment):
        load_timing_table(path, timeout_s=10.0)
    # Below one leading "#" line, each error names the line one further down.
    line = rows.count("\n") + 1
    path.write_text("# oracle: synthetic; dataset: 0\nproblem,ordering,time_s,timed_out\n" + rows)
    with pytest.raises(ValueError, match=f"bad.csv:{line + 1}: "):
        load_timing_table(path, timeout_s=10.0)


@pytest.mark.parametrize(
    "text, message",
    [
        ("p1,x>y,1.0,false\n", "t.csv:1: expected header"),
        ("# a\n# b\nproblem,ordering,time_s,timed_out\n", "t.csv:2: expected header"),
        ("problem,ordering,time_s,timed_out\n\np1,x>y,1.0,false\np1,x>y,2.0,false\n",
         "t.csv:4: duplicate key ('p1', 'x>y') (first at line 3)"),
        ('problem,ordering,time_s,timed_out\n"p\n1",x>y,1.0,false\np2,x>y,-1.0,false\n',
         "t.csv:4: negative time"),  # a quoted id spans lines 2 and 3
        ("problem,ordering,time_s,timed_out\np1,x>y,9.9,true\n",
         "t.csv:2: timed out, so a timeout_s is required"),
    ],
)
def test_load_timing_table_errors_name_file_and_line(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as e:
        load_timing_table(path)
    assert str(e.value).startswith(f"{path.parent}/{message}")


def test_load_timing_table_skips_one_leading_comment_line(tmp_path):
    path = tmp_path / "times.csv"
    path.write_text("# recorded on the lab machine\n"
                    "problem,ordering,time_s,timed_out\n"
                    "p1,x>y>z,1.5,false\n")
    table = load_timing_table(path)
    assert table.records == {("p1", "x>y>z"): CostRecord("p1", "x>y>z", 1.5, False)}
    assert table.records[("p1", "x>y>z")].line == 3


def test_describe_names_every_setting_that_changes_a_price(tmp_path):
    template = "mycad {problem_file} --order {ordering}"
    assert ExternalSolverAdapter(template, 1.0, 2.0).describe() == (
        f"cmd({template!r},timeout=1.0,penalty=2.0)"
    )
    assert (ExternalSolverAdapter(template, 1.0, 2.0).describe()
            != ExternalSolverAdapter(template, 1.0, 3.0).describe())

    def table(rows):
        path = tmp_path / "t.csv"
        path.write_text("problem,ordering,time_s,timed_out\n" + "".join(rows))
        return load_timing_table(path, timeout_s=10.0)

    a = ["a,x>y>z,1.5,false\n", "a,x>z>y,10.0,true\n"]
    b = ["a,x>y>z,1.25,false\n", "a,x>z>y,10.0,true\n"]
    c = ["a,x>y>z,1.5,false\n", "a,x>z>y,10.0,false\n"]
    # The same row count, but other prices: each description differs.
    assert len({table(rows).describe() for rows in (a, b, c)}) == 3
    # The row order does not change a price, nor the description.
    assert table(a[::-1]).describe() == table(a).describe()
    assert table(a).describe().startswith("table(n=2,sha256=")


def test_load_timing_table_header_required(tmp_path):
    path = tmp_path / "none.csv"
    path.write_text("p1,x>y,1.0,false\n")
    with pytest.raises(ValueError, match="header"):
        load_timing_table(path)


def test_timed_out_rows_need_timeout(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("problem,ordering,time_s,timed_out\np1,x>y,9.9,true\n")
    with pytest.raises(ValueError, match="timeout_s is required"):
        load_timing_table(path)


def test_total_cost_brown_chooser(problem_a):
    syn = SyntheticCostModel()
    triplet = brown_features()
    chooser = lambda pr: lex_order(feature_matrix(triplet, pr))
    result = total_cost(syn, [problem_a], chooser)
    assert result.total == 19.0  # Brown picks x>z>y on this instance
    assert result.per_problem == (("a", 19.0),)


def test_total_cost_empty_dataset():
    result = total_cost(SyntheticCostModel(), [], lambda pr: Ordering((0,)))
    assert result.total == 0.0


def test_total_cost_fixed_ordering(problem_a, problem_b):
    syn = SyntheticCostModel()
    fixed = lambda pr: Ordering((0, 1, 2))
    result = total_cost(syn, [problem_a, problem_b], fixed)
    assert result.total == syn.cost(problem_a, fixed(problem_a)) + syn.cost(
        problem_b, fixed(problem_b)
    )


class _CountingOracle:
    """Synthetic costs, with the (problem id, perm) of every call made."""

    def __init__(self):
        self.inner = SyntheticCostModel(noise_seed=1, noise_scale=0.5)
        self.pairs = []

    def cost(self, pr, ordering):
        self.pairs.append((pr.id, ordering.perm))
        return self.inner.cost(pr, ordering)

    def describe(self):
        return self.inner.describe()


def test_price_store_row_prices_each_ordering_once(problem_a, problem_b):
    oracle = _CountingOracle()
    store = PriceStore(oracle, [problem_a, problem_b])
    row = store.row(1)
    perms = list(permutations(range(3)))
    # One call per ordering, in permutations order, the prices the oracle charged.
    assert oracle.pairs == [("b", perm) for perm in perms]
    assert row == [oracle.inner.cost(problem_b, Ordering(perm)) for perm in perms]
    assert store.prices((1, Ordering(perm)) for perm in reversed(perms)) == row[::-1]
    assert store.row(1) == row
    assert len(oracle.pairs) == 6
    # The other problem is priced on its own.
    ordering = Ordering((2, 0, 1))
    assert store.prices([(0, ordering)]) == [oracle.inner.cost(problem_a, ordering)]
    assert oracle.pairs[6:] == [("a", (2, 0, 1))]


def test_price_store_asks_a_repeated_pair_once(problem_a, problem_b, tmp_path):
    journal = tmp_path / "journal.txt"
    pairs = [(1, Ordering((0, 2, 1))), (0, Ordering((1, 0, 2))), (1, Ordering((0, 2, 1)))]
    oracle = _CountingOracle()
    with PriceStore(oracle, [problem_a, problem_b], journal) as store:
        prices = store.prices(pairs, call=lambda f, xs: list(map(f, xs)))
    assert prices[0] == prices[2]
    # In the order of first appearance, one call and one journal row each.
    assert oracle.pairs == [("b", (0, 2, 1)), ("a", (1, 0, 2))]
    rows = journal.read_text().splitlines()[2:]
    assert rows == [f"b,x>z>y,{prices[0]!r},false", f"a,y>x>z,{prices[1]!r},false"]
    # So the journal resumes: every pair on file, no call.
    resumed_oracle = _CountingOracle()
    with PriceStore(resumed_oracle, [problem_a, problem_b], journal) as store:
        assert store.prices(pairs) == prices
    assert resumed_oracle.pairs == []


def test_price_store_without_a_journal_writes_nothing(problem_a, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with PriceStore(SyntheticCostModel(), [problem_a]) as store:
        assert store.row(0) == [SyntheticCostModel().cost(problem_a, Ordering(perm))
                                for perm in permutations(range(3))]
    assert list(tmp_path.iterdir()) == []


def test_timeout_accounting(problem_a):
    records = {}
    for perm in permutations(range(3)):
        names = Ordering(perm).names(problem_a)
        records[("a", names)] = CostRecord("a", names, 5.0, True)
    table = TimingTable(records, timeout_s=5.0, penalty_factor=3.0)
    result = total_cost(table, [problem_a] * 4, lambda pr: Ordering((0, 1, 2)))
    assert result.total == 4 * 5.0 * 3.0


def test_external_adapter_instant_command(problem_a):
    # A timed-out run would cost timeout_s * penalty_factor = 15.
    adapter = ExternalSolverAdapter("true {problem_file} {ordering}", timeout_s=5.0,
                                    penalty_factor=3.0)
    assert 0.0 < adapter.cost(problem_a, Ordering((0, 1, 2))) < 5.0


# Exits 0 only when given exactly an existing problem file and the ordering x>y>z.
_ARGV_CHECK = (
    "import os, sys; "
    "sys.exit(0 if len(sys.argv) == 3 and os.path.isfile(sys.argv[1]) "
    "and sys.argv[2] == 'x>y>z' else 1)"
)


def test_external_adapter_placeholders_stay_one_argument(problem_a, tmp_path, monkeypatch):
    import shlex
    import sys
    import tempfile

    # The temporary problem file's path holds a space and a quote.
    tmp = tmp_path / "tmp dir's"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    template = f"{shlex.quote(sys.executable)} -c {shlex.quote(_ARGV_CHECK)} {{problem_file}} {{ordering}}"
    adapter = ExternalSolverAdapter(template, timeout_s=30.0)
    assert 0.0 < adapter.cost(problem_a, Ordering((0, 1, 2))) < 30.0
    with pytest.raises(SolverError, match="exited 1"):
        adapter.cost(problem_a, Ordering((1, 0, 2)))
    assert list(tmp.iterdir()) == []  # each run removes its problem file


def test_external_adapter_timeout(problem_a):
    import sys

    sleeper = f"{sys.executable} -c 'import time; time.sleep(10)' {{problem_file}} {{ordering}}"
    adapter = ExternalSolverAdapter(sleeper, timeout_s=0.1, penalty_factor=3.0)
    # Timed out: the price is timeout_s * penalty_factor, not the wall time.
    assert adapter.cost(problem_a, Ordering((0, 1, 2))) == pytest.approx(0.3)


def test_external_adapter_timeout_kills_grandchildren(problem_a, tmp_path):
    import shlex
    import sys
    import time
    from pathlib import Path

    script = Path(__file__).with_name("fake_solver.py")
    marker = tmp_path / "grandchild-survived"
    args = " ".join(shlex.quote(str(a)) for a in (sys.executable, script))
    adapter = ExternalSolverAdapter(
        f"{args} {{problem_file}} {{ordering}} {shlex.quote(str(marker))}", timeout_s=0.5
    )
    start = time.perf_counter()
    assert adapter.cost(problem_a, Ordering((0, 1, 2))) == 0.5  # timed out
    assert time.perf_counter() - start < 10  # the solver itself sleeps 30 s
    # A surviving grandchild creates the marker 1.5 s after it starts.
    time.sleep(max(0.0, start + 3.0 - time.perf_counter()))
    assert not marker.exists()


def test_external_adapter_template_validation():
    with pytest.raises(ValueError, match="{ordering}"):
        ExternalSolverAdapter("mycad {problem_file}", timeout_s=1.0)
    with pytest.raises(ValueError, match="{problem_file}"):
        ExternalSolverAdapter("mycad --order {ordering}", timeout_s=1.0)


def test_external_adapter_failure_raises(problem_a):
    adapter = ExternalSolverAdapter("false {problem_file} {ordering}", timeout_s=5.0)
    with pytest.raises(SolverError):
        adapter.cost(problem_a, Ordering((0, 1, 2)))
    missing = ExternalSolverAdapter(
        "definitely-not-a-command-xyz {problem_file} {ordering}", timeout_s=5.0
    )
    with pytest.raises(SolverError, match="spawn"):
        missing.cost(problem_a, Ordering((0, 1, 2)))
