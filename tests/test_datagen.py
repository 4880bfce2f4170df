import hashlib
import sys
from itertools import islice

import pytest

from cadorder import datagen
from cadorder.datagen import (
    GenConfig,
    _int_draw,
    _stream,
    load_dataset,
    random_dataset,
    random_problem,
    write_dataset,
)
from cadorder.polyset import parse_problem, serialize_problem


def test_splitmix_reference_values():
    # First outputs for seed 0 of the standard SplitMix64 stream.
    next_u64 = _stream(0).__next__
    assert next_u64() == 0xE220A8397B1DCDAF
    assert next_u64() == 0x6E789E6AA1B965F4


GAMMA = 0x9E3779B97F4A7C15


def reference_stream(seed):
    """SplitMix64 one output at a time: output k is mix64(seed + k * GAMMA)."""
    state = seed % 2**64
    while True:
        state = (state + GAMMA) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        yield z ^ (z >> 31)


# Enough draws to cross three block boundaries, and a few into the next block.
DRAWS = 3 * datagen._BLOCK + 5

# The 33rd state of the last seed is 2**64 - 1, so the 34th wraps past
# 2**64 in the middle of the first block.
SEEDS = [0, 1, 2**64 - 1, (2**64 - 1 - 33 * GAMMA) % 2**64]


@pytest.mark.parametrize("seed", SEEDS)
def test_splitmix_blocks_match_the_scalar_recurrence(seed):
    next_u64 = _stream(seed).__next__
    assert [next_u64() for _ in range(DRAWS)] == list(islice(reference_stream(seed), DRAWS))


@pytest.mark.parametrize("seed", SEEDS)
def test_splitmix_bounded_draws_match_the_scalar_recurrence(seed):
    # Half the 64-bit range lies above _int_draw(_, 0, 2**63)'s rejection limit.
    ref = reference_stream(seed)
    expected, consumed = [], 0
    for _ in range(DRAWS):
        r = next(ref)
        consumed += 1
        while r > 2**63:
            r = next(ref)
            consumed += 1
        expected.append(r)
    assert consumed > DRAWS + DRAWS // 4
    draw = _int_draw(_stream(seed).__next__, 0, 2**63)
    assert [draw() for _ in range(DRAWS)] == expected


def test_splitmix_block_unpacking_in_either_byte_order(monkeypatch):
    expected = list(islice(reference_stream(7), 1, datagen._BLOCK + 1))
    assert list(datagen._mix64_block(7 + GAMMA)) == expected
    # The other byte order, emulated: its 8-byte words read back swapped.
    monkeypatch.setattr(sys, "byteorder", {"little": "big", "big": "little"}[sys.byteorder])
    words = datagen._mix64_block(7 + GAMMA)
    monkeypatch.undo()
    words.byteswap()
    assert list(words) == expected


@pytest.mark.parametrize("p", [1.0, 0.7, 0.5, 1e-9, 2**-53, 3 * 2**-54, 5e-324])
def test_float_limit_is_the_exact_next_float_threshold(p):
    bound = datagen._float_limit(p)
    for u in (0, bound - 2049, bound - 2048, bound - 1, bound, bound + 2047, 2**64 - 1):
        if 0 <= u < 2**64:
            assert ((u >> 11) * 2.0**-53 < p) == (u < bound)


def test_splitmix_bounded_draws_stay_in_range():
    draw = _int_draw(_stream(42).__next__, -3, 5)
    values = [draw() for _ in range(500)]
    assert set(values) <= set(range(-3, 6))
    assert min(values) == -3 and max(values) == 5


def test_random_problem_deterministic():
    cfg = GenConfig()
    assert random_problem(cfg, 0) == random_problem(cfg, 0)
    assert serialize_problem(random_problem(cfg, 3)) == serialize_problem(random_problem(cfg, 3))
    assert random_problem(cfg, 0).id == "rnd-0-0"


def test_random_problem_pure_in_index():
    cfg = GenConfig(seed=5)
    batch = random_dataset(cfg, 10)
    assert batch[7] == random_problem(cfg, 7)


# sha256 of the concatenated serializations; recorded before the
# generator's draws were computed a block at a time, and unchanged since.
PINNED_DATASETS = [
    (GenConfig(seed=10), 150, "d422f5aed0f5b7db2bc2e897513deb96a8777f2bb4375c058c2c503d717d6017"),
    (GenConfig(n_vars=8, seed=1), 36, "9034a122c7d884f84f072ac3b335614f126d638c71fd755f431ab07833dc2ce2"),
    # Zero lies outside the coefficient range: _nonzero_coeff's second branch.
    (
        GenConfig(coeff_min=1, coeff_max=3, density=1.0, max_degree=1),
        50,
        "1dd4776e19c4fec48358477958b68d38f491118dc0ca2e9d469148b40c1acba0",
    ),
    # Every monomial is constant, so each polynomial takes the 100-rejection fallback.
    (GenConfig(density=1e-9), 4, "2309a1fe942721bfd4ebc22a35ffb22e4e1f18d650772e34b4dd1508d1578960"),
]


def _dataset_digest(cfg, count):
    text = "".join(serialize_problem(p) for p in random_dataset(cfg, count))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("cfg,count,digest", PINNED_DATASETS)
def test_generated_datasets_are_pinned(cfg, count, digest):
    assert _dataset_digest(cfg, count) == digest


def test_sparse_config_reaches_the_rejection_fallback():
    # The fallback forces x0 to degree 1 in the last rejected draw, whose
    # other monomials are all constant.
    for pr in random_dataset(GenConfig(density=1e-9), 4):
        for poly in pr.polynomials:
            degrees = {m.degrees for m in poly.monomials}
            assert (1, 0, 0) in degrees and degrees <= {(1, 0, 0), (0, 0, 0)}


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
