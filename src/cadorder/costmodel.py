"""Cost oracles: price a (problem, ordering) pair.

Three implementations share the same contract: a table of recorded
timings (a search journal is one), a deterministic synthetic model for
desk-scale experiments, which sums each problem's ``degree_table()``
(built at the problem's first price, then kept with it), and an adapter
whose ``cost`` runs an external solver and measures wall time; each
placeholder of its command template fills one argument.  Timed-out runs
cost timeout_s * penalty_factor.

Search and training price orderings through a ``PriceStore``, which asks
the oracle once per pair and journals the prices of a resumable run.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import shlex
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from pathlib import Path
from typing import Callable, Protocol

from .heuristics import Ordering, parse_ordering
from .polyset import ProblemInstance, serialize_problem


class MissingRecordError(KeyError):
    """A timing table has no record for the requested (problem, ordering)."""


class SolverError(RuntimeError):
    """The external solver failed for a reason other than timing out."""


TIMING_COLUMNS = ("problem", "ordering", "time_s", "timed_out")


class CostOracle(Protocol):
    def cost(self, pr: ProblemInstance, ordering: Ordering) -> float: ...

    def describe(self) -> str: ...


@dataclass(frozen=True)
class CostRecord:
    problem_id: str
    ordering: str
    time_s: float
    timed_out: bool
    line: int | None = field(default=None, compare=False)  # in the file it was read from


@dataclass(frozen=True)
class TimingTable:
    """Recorded costs; lookups of missing pairs are an error, never zero."""

    records: dict[tuple[str, str], CostRecord]
    timeout_s: float | None = None
    penalty_factor: float = 1.0

    def cost(self, pr: ProblemInstance, ordering: Ordering) -> float:
        key = (pr.id, ordering.names(pr))
        rec = self.records.get(key)
        if rec is None:
            raise MissingRecordError(f"no timing record for {key}")
        return self.timeout_s * self.penalty_factor if rec.timed_out else rec.time_s

    def describe(self) -> str:
        rows = sorted((key, rec.time_s, rec.timed_out) for key, rec in self.records.items())
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
        return (f"table(n={len(self.records)},sha256={digest},"
                f"timeout={self.timeout_s},penalty={self.penalty_factor})")


def _check_pricing(timeout_s: float | None, penalty_factor: float) -> None:
    """A timeout, when given, must be finite and positive; a penalty finite and >= 0.

    The comparisons are written so that NaN fails them.
    """
    if timeout_s is not None and not 0 < timeout_s < math.inf:
        raise ValueError(f"timeout must be finite and positive, got {timeout_s}")
    if not 0 <= penalty_factor < math.inf:
        raise ValueError(f"penalty factor must be finite and >= 0, got {penalty_factor}")


def _parse_bool(text: str, where: str) -> bool:
    value = text.strip().lower()
    if value in ("true", "1"):
        return True
    if value in ("false", "0"):
        return False
    raise ValueError(f"{where}: timed_out must be true/false, got {text!r}")


def load_timing_table(
    path: str | Path, timeout_s: float | None = None, penalty_factor: float = 1.0
) -> TimingTable:
    """Load the CSV schema ``problem,ordering,time_s,timed_out``.

    One leading ``#`` line, such as a search journal's first line, is
    skipped.  An error in the file's contents names ``path:line``.
    """
    _check_pricing(timeout_s, penalty_factor)
    records: dict[tuple[str, str], CostRecord] = {}
    with open(path, newline="") as fh:
        skipped = fh.readline().startswith("#")
        if not skipped:
            fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(TIMING_COLUMNS):
            raise ValueError(
                f"{path}:{skipped + 1}: expected header {','.join(TIMING_COLUMNS)}, got {header}"
            )
        for row in reader:
            line = skipped + reader.line_num
            where = f"{path}:{line}"
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"{where}: expected 4 fields, got {len(row)}")
            problem, ordering, time_text, timed_text = (f.strip() for f in row)
            try:
                time_s = float(time_text)
            except ValueError:
                raise ValueError(f"{where}: bad time_s {time_text!r}") from None
            if time_s < 0:
                raise ValueError(f"{where}: negative time {time_s}")
            if not time_s < math.inf:  # also false for NaN
                raise ValueError(f"{where}: bad time_s {time_text!r}")
            timed_out = _parse_bool(timed_text, where)
            if timed_out and timeout_s is None:
                raise ValueError(f"{where}: timed out, so a timeout_s is required")
            if not timed_out and timeout_s is not None and time_s > timeout_s:
                raise ValueError(f"{where}: time {time_s} exceeds timeout {timeout_s}")
            key = (problem, ordering)
            if key in records:
                raise ValueError(f"{where}: duplicate key {key} (first at line {records[key].line})")
            records[key] = CostRecord(problem, ordering, time_s, timed_out, line)
    return TimingTable(records, timeout_s, penalty_factor)


def _per_poly_max_degrees(pr: ProblemInstance) -> list[int]:
    """m_v = sum over polynomials of the variable's maximum degree in each."""
    return list(map(sum, zip(*pr.degree_table())))


@dataclass(frozen=True)
class SyntheticCostModel:
    """Deterministic stand-in cost: earlier-projected variables weigh more.

    cost = sum over positions k of step_base**(n-1-k) * m(ordering[k]),
    so the cheapest ordering sorts m ascending; m sums the problem's
    ``degree_table()``, built once and read by every ordering priced on
    it.  Optional multiplicative noise is a pure hash of (problem,
    ordering, seed): bit-identical on every platform.
    """

    step_base: float = 2.0
    noise_seed: int | None = None
    noise_scale: float = 0.0

    def __post_init__(self):
        if not 0 < self.step_base < math.inf:
            raise ValueError(f"step_base must be finite and positive, got {self.step_base}")
        if not (0.0 <= self.noise_scale < 1.0):
            raise ValueError("noise_scale must be in [0, 1)")

    def cost(self, pr: ProblemInstance, ordering: Ordering) -> float:
        m = _per_poly_max_degrees(pr)
        n = pr.n_vars
        total = float(sum(self.step_base ** (n - 1 - k) * m[v] for k, v in enumerate(ordering.perm)))
        if self.noise_seed is not None and self.noise_scale > 0.0:
            payload = f"{serialize_problem(pr)}|{ordering.names(pr)}|{self.noise_seed}"
            digest = hashlib.sha256(payload.encode()).digest()
            u = (int.from_bytes(digest[:8], "big") >> 11) * 2.0**-53
            total *= 1.0 + self.noise_scale * u
        return total

    def describe(self) -> str:
        return f"synthetic(step={self.step_base},noise_seed={self.noise_seed},noise_scale={self.noise_scale})"


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill every process in ``proc``'s group, then reap ``proc``."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


@dataclass(frozen=True)
class ExternalSolverAdapter:
    """Runs a command template and prices the pair by wall-clock seconds.

    The template must contain {problem_file} and {ordering}; the problem is
    written to a temporary file in the .poly grammar.  The template is split
    into ``argv`` once, at construction, so each placeholder is replaced
    inside one argument, whatever the temporary file's path holds.
    """

    template: str
    timeout_s: float
    penalty_factor: float = 1.0
    argv: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_pricing(self.timeout_s, self.penalty_factor)
        for placeholder in ("{problem_file}", "{ordering}"):
            if placeholder not in self.template:
                raise ValueError(f"command template is missing {placeholder}")
        try:
            object.__setattr__(self, "argv", tuple(shlex.split(self.template)))
        except ValueError as e:
            raise ValueError(f"command template does not split into arguments: {e}") from None

    def cost(self, pr: ProblemInstance, ordering: Ordering) -> float:
        """The solver's wall-clock seconds, or timeout_s * penalty_factor if it timed out."""
        names = ordering.names(pr)
        with tempfile.NamedTemporaryFile("w", suffix=".poly", delete=False) as fh:
            fh.write(serialize_problem(pr))
            problem_file = fh.name
        cmd = [a.replace("{problem_file}", problem_file).replace("{ordering}", names)
               for a in self.argv]
        try:
            start = time.perf_counter()
            try:
                # A session of its own, so a timeout ends the solver's whole
                # process group: killing only the direct child would leave
                # the grandchildren of a shell template running.
                proc = subprocess.Popen(
                    cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
                )
            except OSError as e:
                raise SolverError(f"failed to spawn {cmd[0]!r}: {e}") from e
            try:
                _, stderr = proc.communicate(timeout=self.timeout_s)
            except subprocess.TimeoutExpired:
                _kill_group(proc)
                return self.timeout_s * self.penalty_factor
            except BaseException:  # interrupted: leave no solver running
                _kill_group(proc)
                raise
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                raise SolverError(
                    f"solver exited {proc.returncode}: {stderr.decode(errors='replace').strip()}"
                )
            return elapsed
        finally:
            Path(problem_file).unlink(missing_ok=True)

    def describe(self) -> str:
        return f"cmd({self.template!r},timeout={self.timeout_s},penalty={self.penalty_factor})"


@dataclass(frozen=True)
class CostTotal:
    total: float
    per_problem: tuple[tuple[str, float], ...]


def total_cost(
    oracle: CostOracle,
    dataset,
    chooser: Callable[[ProblemInstance], Ordering],
) -> CostTotal:
    """Sum of per-problem costs for the orderings the chooser picks."""
    items = []
    total = 0.0
    for i, pr in enumerate(dataset):
        c = oracle.cost(pr, chooser(pr))
        total += c
        items.append((pr.id or str(i), c))
    return CostTotal(total, tuple(items))


def dataset_digest(dataset) -> str:
    h = hashlib.sha256()
    for pr in dataset:
        h.update(serialize_problem(pr).encode())
    return h.hexdigest()[:16]


class PriceStore:
    """Oracle prices of a dataset's (position, ``Ordering``) pairs, each asked for once.

    Prices are kept by ``perm``: an ``Ordering``'s hash runs in Python.  A
    journal is a timing table under a first line naming the oracle and
    ``dataset_id``, the dataset's digest; inside the ``with`` block each new
    price is appended as it arrives.  A non-empty file without that first line
    raises ValueError and is left as it is; a torn last row is cut and its
    pair priced again.  Rows name problems by id, so ids must be distinct and
    read back as written; a bad row raises ValueError naming ``path:line``.
    """

    def __init__(self, oracle: CostOracle, dataset, journal_path: str | Path | None = None):
        self.oracle = oracle
        self.dataset = list(dataset)
        self.path = journal_path
        self._known: list[dict[tuple[int, ...], float]] = [{} for _ in self.dataset]
        self._journal = None
        if journal_path is not None:
            self._first_line = f"# oracle: {oracle.describe()}; dataset: {self.dataset_id}"
            self._read_journal()

    @cached_property
    def dataset_id(self) -> str:
        return dataset_digest(self.dataset)

    def _read_journal(self) -> None:
        path, dataset, first_line = self.path, self.dataset, self._first_line
        index = {pr.id: p for p, pr in enumerate(dataset)}
        # load_timing_table strips each field, so an id must not start or end with whitespace.
        if None in index or len(index) < len(dataset) or any(i != i.strip() for i in index):
            raise ValueError("a journal needs distinct problem ids without surrounding whitespace")
        data = Path(path).read_bytes() if os.path.exists(path) else b""
        if not data:
            return
        if not data.startswith(f"{first_line}\n".encode()):
            got = data.split(b"\n", 1)[0][:200].decode(errors="replace")
            raise ValueError(f"{path}:1: first line {got!r} is not this run's {first_line!r}")
        complete = data[: data.rfind(b"\n") + 1]
        if len(complete) < len(data):
            os.truncate(path, len(complete))
        for rec in load_timing_table(path).records.values():
            try:
                p = index.get(rec.problem_id)
                if p is None:
                    raise ValueError(f"no problem {rec.problem_id!r} in the dataset")
                perm = parse_ordering(rec.ordering, dataset[p]).perm
                if perm in self._known[p]:
                    raise ValueError("pair already on file")
                self._known[p][perm] = rec.time_s
            except ValueError as e:
                raise ValueError(f"{path}:{rec.line}: {e}") from None

    def __enter__(self) -> PriceStore:
        if self.path is not None:  # line-buffered: a killed run keeps every price paid for
            self._fh = open(self.path, "a", buffering=1, newline="")
            if self._fh.tell() == 0:
                self._fh.write(f"{self._first_line}\n{','.join(TIMING_COLUMNS)}\n")
            self._journal = csv.writer(self._fh, lineterminator="\n")
        return self

    def __exit__(self, *exc) -> None:
        if self._journal is not None:
            self._fh.close()

    def prices(self, pairs, call=map) -> list[float]:
        """One price per pair; ``call`` maps the oracle over the new pairs.

        Each new pair is asked for once, in order of first appearance, and
        its price is kept, and journaled, on the calling thread as it arrives.
        """
        pairs, known = list(pairs), self._known
        asked = list({(p, o.perm): (p, o) for p, o in pairs if o.perm not in known[p]}.values())
        priced = call(lambda po: self.oracle.cost(self.dataset[po[0]], po[1]), asked)
        for (p, ordering), c in zip(asked, priced):
            known[p][ordering.perm] = c
            if self._journal is not None:
                pr = self.dataset[p]
                self._journal.writerow([pr.id, ordering.names(pr), repr(c), "false"])
        return [known[p][ordering.perm] for p, ordering in pairs]

    def row(self, p: int) -> list[float]:
        """The prices of all n! orderings of problem ``p``, in ``permutations`` order."""
        n = self.dataset[p].n_vars
        return self.prices((p, Ordering(perm)) for perm in permutations(range(n)))
