import pytest

from cadorder.datagen import (
    GenConfig,
    SplitMix64,
    load_dataset,
    random_dataset,
    random_problem,
    write_dataset,
)
from cadorder.polyset import parse_problem, serialize_problem


def test_splitmix_reference_values():
    # First outputs for seed 0 of the standard SplitMix64 stream.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


def test_splitmix_bounded_draws_stay_in_range():
    rng = SplitMix64(42)
    values = [rng.next_int(-3, 5) for _ in range(500)]
    assert set(values) <= set(range(-3, 6))
    assert min(values) == -3 and max(values) == 5
    floats = [SplitMix64(1).next_float() for _ in range(10)]
    assert all(0.0 <= f < 1.0 for f in floats)


def test_random_problem_deterministic():
    cfg = GenConfig()
    assert random_problem(cfg, 0) == random_problem(cfg, 0)
    assert serialize_problem(random_problem(cfg, 3)) == serialize_problem(random_problem(cfg, 3))
    assert random_problem(cfg, 0).id == "rnd-0-0"


def test_random_problem_pure_in_index():
    cfg = GenConfig(seed=5)
    batch = random_dataset(cfg, 10)
    assert batch[7] == random_problem(cfg, 7)


def test_forced_structure():
    cfg = GenConfig(density=1.0, max_degree=1, min_monomials=1, max_monomials=1)
    pr = random_problem(cfg, 0)
    for poly in pr.polynomials:
        for m in poly.monomials:
            assert m.degrees == (1, 1, 1)


def test_invariant_sweep():
    cfg = GenConfig(seed=11)
    for pr in random_dataset(cfg, 300):
        assert pr.n_vars == 3
        assert 1 <= len(pr.polynomials) <= 4
        for poly in pr.polynomials:
            assert 1 <= len(poly.monomials) <= 8
            degrees = [m.degrees for m in poly.monomials]
            assert degrees == sorted(set(degrees), reverse=True)
            assert any(m.total_degree > 0 for m in poly.monomials)
            for m in poly.monomials:
                # Like-term merging may push a summed coefficient past the
                # sampling range, so only nonzero-ness is guaranteed.
                assert m.coeff != 0
                assert all(0 <= d <= 6 for d in m.degrees)


def test_every_problem_parses_from_serialization():
    for pr in random_dataset(GenConfig(seed=2), 100):
        assert parse_problem(serialize_problem(pr)) == pr


def test_different_seeds_differ():
    a = random_dataset(GenConfig(seed=0), 50)
    b = random_dataset(GenConfig(seed=1), 50)
    assert [serialize_problem(p) for p in a] != [serialize_problem(p) for p in b]


def test_count_must_be_positive():
    with pytest.raises(ValueError):
        random_dataset(GenConfig(), 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_vars": 0},
        {"min_polys": 0},
        {"min_polys": 3, "max_polys": 2},
        {"max_degree": 0},
        {"coeff_min": 0, "coeff_max": 0},
        {"density": 0.0},
        {"density": 1.5},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        GenConfig(**kwargs)


def test_write_and_load_dataset(tmp_path):
    cfg = GenConfig(seed=9)
    problems = random_dataset(cfg, 12)
    out = write_dataset(problems, tmp_path / "ds", cfg)
    assert (out / "manifest.json").exists()
    loaded = load_dataset(out)
    assert loaded == problems
    assert [p.id for p in loaded] == [p.id for p in problems]


def test_failed_manifest_write_leaves_old_manifest(tmp_path, monkeypatch):
    from cadorder import atomic

    cfg = GenConfig(seed=9)
    problems = random_dataset(cfg, 3)
    out = write_dataset(problems, tmp_path / "ds", cfg)
    before = (out / "manifest.json").read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(atomic.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk gone"):
        write_dataset(problems, out, None)
    assert (out / "manifest.json").read_bytes() == before
    assert sorted(p.name for p in out.iterdir() if p.suffix != ".poly") == ["manifest.json"]


def test_load_dataset_without_manifest(tmp_path):
    d = tmp_path / "plain"
    d.mkdir()
    (d / "q1.poly").write_text("vars: x\nx^2\n")
    loaded = load_dataset(d)
    assert loaded[0].id == "q1"
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "empty_does_not_exist")
