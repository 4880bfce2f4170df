"""Seeded random polynomial-problem generation.

Determinism contract: problems are a pure function of (config, index).
Randomness comes from SplitMix64 (Steele, Lea & Flood's mix function:
state advances by the 64-bit golden-ratio gamma, outputs are finalized
with two xor-shift multiplies), implemented here in plain integer
arithmetic so identical datasets arise byte-for-byte on any platform.
The per-problem stream seed is ``mix64(mix64(seed) ^ (index + GAMMA))``.

The generator is counter-based: output k (from 1) of a stream seeded s is
``mix64(s + k * GAMMA mod 2**64)``.  So ``_stream`` computes its draws
``_BLOCK`` at a time, as one packed integer with a 128-bit lane per draw
(``_mix64_block``), and yields them one by one; the outputs, and so every
dataset, are those of the one-at-a-time recurrence.  A problem's draws
all come from one ``next_u64``, the ``__next__`` of its stream.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from array import array
from dataclasses import dataclass, asdict
from pathlib import Path

from .atomic import write_json
from .polyset import (
    ParseError,
    Polynomial,
    ProblemInstance,
    parse_problem,
    serialize_problem,
)

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# Draws computed per packed evaluation of mix64, one 128-bit lane each.
_BLOCK = 64
_LANE_BITS = 128
_LANES_LOW = sum(_MASK << (_LANE_BITS * i) for i in range(_BLOCK))
_LANES_ONE = sum(1 << (_LANE_BITS * i) for i in range(_BLOCK))
_LANES_STEP = sum((i + 1) * _GAMMA << (_LANE_BITS * i) for i in range(_BLOCK))


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_block(state: int) -> array:
    """``mix64(state + k * GAMMA)`` for k = 1.._BLOCK and a state below 2**64.

    Lane k - 1 of one packed int holds the k-th state in its low 64 bits,
    and every step of ``_mix64`` runs on all lanes at once.  It stays exact
    because each lane is masked back to 64 bits before a shift or multiply:
    a lane times a 64-bit constant is below 2**128, so no carry reaches the
    next lane, and a right shift of at most 31 bits moves the next lane's
    bits only into the cleared bits 64..127.  The last shift's spill is left
    there, in the high words that the unpacking drops.
    """
    z = (state * _LANES_ONE + _LANES_STEP) & _LANES_LOW
    z = ((z ^ (z >> 30)) & _LANES_LOW) * 0xBF58476D1CE4E5B9 & _LANES_LOW
    z = ((z ^ (z >> 27)) & _LANES_LOW) * 0x94D049BB133111EB & _LANES_LOW
    z ^= z >> 31
    # Native order: a lane's low word comes first in little-endian bytes;
    # in big-endian bytes the lanes are reversed and the low word is second.
    words = array("Q", z.to_bytes(_BLOCK * _LANE_BITS // 8, sys.byteorder))
    return words[::2] if sys.byteorder == "little" else words[::-2]


def _stream(state: int):
    """Every output of the stream seeded ``state``, a block at a time."""
    while True:
        yield from _mix64_block(state)
        state = (state + _BLOCK * _GAMMA) & _MASK


def _int_draw(next_u64, lo: int, hi: int):
    """A callable drawing uniform integers in [lo, hi] from ``next_u64``.

    Rejection avoids modulo bias; the span and rejection limit are
    computed here, once, rather than on every draw.
    """
    span = hi - lo + 1
    if span <= 0:
        raise ValueError(f"empty range [{lo}, {hi}]")
    limit = (1 << 64) - ((1 << 64) % span)

    def draw() -> int:
        r = next_u64()
        while r >= limit:
            r = next_u64()
        return lo + r % span

    return draw


def _float_limit(p: float) -> int:
    """The bound b with ``(u >> 11) * 2.0**-53 < p`` exactly when ``u < b``.

    Scaling by 2**53 is exact, and ``floor(u / 2**11) < x`` holds exactly
    when ``u < ceil(x) * 2**11``.
    """
    return math.ceil(p * 2.0**53) << 11


@dataclass(frozen=True)
class GenConfig:
    """Generation parameters; every value is explicit configuration.

    Defaults give small 3-variable systems where full ties on per-variable
    degree statistics still occur in a few percent of instances.
    """

    n_vars: int = 3
    min_polys: int = 1
    max_polys: int = 4
    min_monomials: int = 1
    max_monomials: int = 8
    max_degree: int = 6
    coeff_min: int = -100
    coeff_max: int = 100
    density: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError("n_vars must be >= 1")
        if not (1 <= self.min_polys <= self.max_polys):
            raise ValueError("bad polynomial-count range")
        if not (1 <= self.min_monomials <= self.max_monomials):
            raise ValueError("bad monomial-count range")
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if self.coeff_min > self.coeff_max or (self.coeff_min == 0 == self.coeff_max):
            raise ValueError("coefficient range must contain a nonzero value")
        if not (0.0 < self.density <= 1.0):
            raise ValueError("density must be in (0, 1]")


def _nonzero_coeff_draw(next_u64, lo: int, hi: int):
    """A callable drawing nonzero integers in [lo, hi]; one draw each."""
    if lo <= 0 <= hi:
        draw = _int_draw(next_u64, lo, hi - 1)

        def nonzero() -> int:
            c = draw()
            return c + 1 if c >= 0 else c

        return nonzero
    return _int_draw(next_u64, lo, hi)


def _monomial_draw(next_u64, cfg: GenConfig):
    """A callable drawing ``(coeff, degrees)`` pairs.

    Per variable, a density float and, below the density, a degree int;
    the coefficient is drawn last.
    """
    density_limit = _float_limit(cfg.density)
    degree = _int_draw(next_u64, 1, cfg.max_degree)
    coeff = _nonzero_coeff_draw(next_u64, cfg.coeff_min, cfg.coeff_max)
    variables = range(cfg.n_vars)

    def draw() -> tuple[int, tuple[int, ...]]:
        degrees = tuple([degree() if next_u64() < density_limit else 0 for _ in variables])
        return coeff(), degrees

    return draw


def _sample_polynomial(monomial, size) -> Polynomial:
    """A polynomial of ``size()`` draws of ``monomial()``.

    Degenerate draws (empty after cancellation, or constant-only) are
    resampled; after 100 rejections one variable is forced to degree 1.
    """
    last = None
    for _ in range(100):
        raw = [monomial() for _ in range(size())]
        try:
            poly = Polynomial.from_terms(raw)
        except ValueError:
            last = raw
            continue
        last = raw
        if any(m.total_degree > 0 for m in poly.monomials):
            return poly
    coeff, degrees = last[0]
    return Polynomial.from_terms([(coeff, (1,) + degrees[1:])] + last[1:])


def random_problem(cfg: GenConfig, index: int) -> ProblemInstance:
    """Deterministic problem number ``index`` of the stream defined by ``cfg``."""
    next_u64 = _stream(_mix64(_mix64(cfg.seed) ^ ((index + _GAMMA) & _MASK))).__next__
    n_polys = _int_draw(next_u64, cfg.min_polys, cfg.max_polys)()
    monomial = _monomial_draw(next_u64, cfg)
    size = _int_draw(next_u64, cfg.min_monomials, cfg.max_monomials)
    polys = tuple(_sample_polynomial(monomial, size) for _ in range(n_polys))
    names = tuple(f"x{i}" for i in range(cfg.n_vars))
    return ProblemInstance(names, polys, f"rnd-{cfg.seed}-{index}")


def random_dataset(cfg: GenConfig, count: int) -> list[ProblemInstance]:
    if count < 1:
        raise ValueError("count must be >= 1")
    return [random_problem(cfg, i) for i in range(count)]


def write_dataset(problems, out_dir: str | Path, cfg: GenConfig | None = None) -> Path:
    """Write one .poly file per problem plus a manifest with content hashes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for i, pr in enumerate(problems):
        pid = pr.id or f"problem-{i}"
        name = f"{pid}.poly"
        data = serialize_problem(pr).encode()
        (out / name).write_bytes(data)
        files.append({"name": name, "id": pid, "sha256": hashlib.sha256(data).hexdigest()})
    manifest = {
        "config": asdict(cfg) if cfg is not None else None,
        "count": len(files),
        "files": files,
    }
    write_json(out / "manifest.json", manifest)
    return out


def load_dataset(path: str | Path) -> list[ProblemInstance]:
    """Load a dataset directory; manifest order if present, else sorted names.

    Files listed in a manifest must lie in its directory, exist and match
    its sha256 values; a missing file or a mismatch raises ValueError naming
    the file, as does a malformed manifest.  A file that is not UTF-8 or
    does not parse is an error naming it too.
    """
    root = Path(path)
    manifest = root / "manifest.json"
    problems = []
    if manifest.exists():
        for entry in _manifest_files(manifest):
            file = root / entry["name"]
            try:
                data = file.read_bytes()
            except FileNotFoundError:
                raise ValueError(f"{file}: listed in manifest.json but missing") from None
            if hashlib.sha256(data).hexdigest() != entry["sha256"]:
                raise ValueError(f"{file}: sha256 does not match manifest.json")
            problems.append(parse_file(file, data, entry["id"]))
    else:
        for f in sorted(root.glob("*.poly")):
            problems.append(parse_file(f, f.read_bytes(), f.stem))
    if not problems:
        raise FileNotFoundError(f"no .poly files under {root}")
    return problems


def _manifest_files(manifest: Path) -> list[dict]:
    """The manifest's file entries, each with string name, id and sha256.

    A name must be a plain file name in the manifest's directory: no
    separator, not absolute, and not ``.`` or ``..``.
    """
    try:
        meta = json.loads(manifest.read_text())
    except ValueError as e:
        raise ValueError(f"{manifest}: {e}") from None
    if not isinstance(meta, dict) or not isinstance(meta.get("files"), list):
        raise ValueError(f"{manifest}: expected an object with a 'files' list")
    for i, entry in enumerate(meta["files"]):
        for key in ("name", "id", "sha256"):
            if not isinstance(entry, dict) or not isinstance(entry.get(key), str):
                raise ValueError(f"{manifest}: files[{i}] has no {key!r} string")
        name = entry["name"]
        if name in ("", ".", "..") or Path(name).name != name:
            raise ValueError(f"{manifest}: files[{i}] name {name!r} is not a plain file name")
    return meta["files"]


def parse_file(file: Path, data: bytes, problem_id: str) -> ProblemInstance:
    """Decode and parse the bytes of one problem file; every error names the file.

    Bytes that are not UTF-8 raise a ValueError giving the offset of the
    first bad byte.
    """
    try:
        text = data.decode()
    except UnicodeDecodeError as e:
        raise ValueError(
            f"{file}: not UTF-8: {e.reason} (byte 0x{data[e.start]:02x} at offset {e.start})"
        ) from None
    try:
        return parse_problem(text, problem_id=problem_id)
    except ParseError as e:
        raise ParseError(f"{file}: {e.message}", e.line, e.col) from None
