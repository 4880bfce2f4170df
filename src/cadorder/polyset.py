"""Exact representation and parsing of polynomial problem instances.

A problem instance is a set of multivariate integer polynomials over n
ordered variables.  Everything here is immutable after construction and
exact (integer coefficients, integer degree vectors), so instances are
safe to share across parallel workers.

Problem file grammar (UTF-8, ``#`` starts a comment to end of line,
one polynomial per nonblank line)::

    file       := [header NL] polynomial (NL polynomial)*
    header     := "vars:" ident ("," ident)*
    polynomial := ["-"] term (("+" | "-") term)*
    term       := integer | integer "*" factors | factors
    factors    := factor ("*" factor)*
    factor     := ident ["^" integer]

With a ``vars:`` header the variable index order is the header order;
without one it is first-occurrence order across the file.  A problem
must have at least one variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class ParseError(ValueError):
    """Input text does not conform to the problem grammar."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)


@dataclass(frozen=True)
class VariableId:
    """A variable, identified by its 0-based index and unique name."""

    index: int
    name: str


@dataclass(frozen=True)
class Monomial:
    """One term: an exact integer coefficient times a product of variable powers.

    ``degrees`` has one entry per problem variable; zero-coefficient
    monomials are never constructed.
    """

    coeff: int
    degrees: tuple[int, ...]

    def __post_init__(self):
        if self.coeff == 0:
            raise ValueError("zero-coefficient monomial")
        if any(d < 0 for d in self.degrees):
            raise ValueError("negative exponent in monomial")

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)


def canonicalize_monomials(monomials) -> tuple[Monomial, ...]:
    """Merge like terms, drop zero coefficients, sort by degree vector descending."""
    merged: dict[tuple[int, ...], int] = {}
    for m in monomials:
        merged[m.degrees] = merged.get(m.degrees, 0) + m.coeff
    out = [Monomial(c, d) for d, c in merged.items() if c != 0]
    out.sort(key=lambda m: m.degrees, reverse=True)
    return tuple(out)


@dataclass(frozen=True)
class Polynomial:
    """A nonempty sum of monomials over a shared variable list."""

    monomials: tuple[Monomial, ...]

    def __post_init__(self):
        if not self.monomials:
            raise ValueError("a polynomial needs at least one monomial")

    @classmethod
    def from_terms(cls, monomials) -> Polynomial:
        """Build in canonical form; raises if the terms cancel to zero."""
        canon = canonicalize_monomials(monomials)
        if not canon:
            raise ValueError("zero polynomial (all terms cancelled)")
        return cls(canon)

    @property
    def is_canonical(self) -> bool:
        degs = [m.degrees for m in self.monomials]
        return degs == sorted(set(degs), reverse=True)


@dataclass(frozen=True)
class ProblemInstance:
    """An ordered-variable set of polynomials.

    The optional ``id`` label is bookkeeping only and excluded from
    equality, so parse/serialize round-trips compare structurally.
    """

    variables: tuple[VariableId, ...]
    polynomials: tuple[Polynomial, ...]
    id: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.polynomials:
            raise ValueError("a problem needs at least one polynomial")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if [v.index for v in self.variables] != list(range(len(self.variables))):
            raise ValueError("variable indices must be contiguous from 0")
        n = len(self.variables)
        for p in self.polynomials:
            for m in p.monomials:
                if len(m.degrees) != n:
                    raise ValueError(
                        f"degree vector of length {len(m.degrees)} in a {n}-variable problem"
                    )

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def with_id(self, problem_id: str) -> ProblemInstance:
        return ProblemInstance(self.variables, self.polynomials, problem_id)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^,]))"
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class _LineParser:
    """Recursive-descent parser for one polynomial line.

    Produces a list of (coeff, {name: exponent}) raw terms; variable
    indices are assigned by the caller once all lines are seen.
    """

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, col)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                stripped = text[pos:].strip()
                if not stripped:
                    break
                raise ParseError(
                    f"unexpected character {stripped[0]!r}", lineno, pos + 1
                )
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind) + 1))
            pos = m.end()
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is not None:
            self.i += 1
        return tok

    def _fail(self, expected: str):
        tok = self._peek()
        if tok is None:
            raise ParseError(
                f"syntax error at end of input: expected {expected}",
                self.lineno,
                len(self.text) + 1,
            )
        raise ParseError(
            f"syntax error: expected {expected}, got {tok[1]!r}", self.lineno, tok[2]
        )

    def parse_polynomial(self) -> list[tuple[int, dict[str, int]]]:
        terms = []
        sign = 1
        tok = self._peek()
        if tok is not None and tok[:2] == ("op", "-"):
            self._next()
            sign = -1
        terms.append(self._term(sign))
        while (tok := self._peek()) is not None:
            if tok[0] == "op" and tok[1] in "+-":
                self._next()
                terms.append(self._term(-1 if tok[1] == "-" else 1))
            else:
                self._fail("'+' or '-'")
        return terms

    def _term(self, sign: int) -> tuple[int, dict[str, int]]:
        tok = self._peek()
        if tok is None:
            self._fail("term")
        if tok[0] == "int":
            self._next()
            coeff = sign * int(tok[1])
            nxt = self._peek()
            if nxt is not None and nxt[:2] == ("op", "*"):
                self._next()
                return coeff, self._factors()
            return coeff, {}
        if tok[0] == "ident":
            return sign, self._factors()
        self._fail("term")

    def _factors(self) -> dict[str, int]:
        powers = self._factor({})
        while (tok := self._peek()) is not None and tok[:2] == ("op", "*"):
            self._next()
            powers = self._factor(powers)
        return powers

    def _factor(self, powers: dict[str, int]) -> dict[str, int]:
        tok = self._peek()
        if tok is None or tok[0] != "ident":
            self._fail("identifier")
        self._next()
        name = tok[1]
        exp = 1
        nxt = self._peek()
        if nxt is not None and nxt[:2] == ("op", "^"):
            self._next()
            etok = self._next()
            negative = False
            if etok is not None and etok[:2] == ("op", "-"):
                negative = True
                etok = self._next()
            if etok is None or etok[0] != "int":
                self.i -= 1
                self._fail("integer exponent")
            if negative:
                raise ParseError("negative exponent", self.lineno, etok[2])
            exp = int(etok[1])
        powers[name] = powers.get(name, 0) + exp
        return powers


def _significant_lines(text: str) -> list[tuple[int, str]]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    return lines


def parse_problem(text: str, problem_id: str | None = None) -> ProblemInstance:
    """Parse problem text into a canonicalized :class:`ProblemInstance`.

    Deterministic: the same input bytes always produce the same instance,
    including variable index assignment.
    """
    lines = _significant_lines(text)
    header_names: list[str] | None = None
    if lines and lines[0][1].startswith("vars:"):
        lineno, content = lines.pop(0)
        header_names = []
        for name in content[len("vars:") :].split(","):
            name = name.strip()
            if not _IDENT_RE.match(name):
                raise ParseError(f"bad variable name {name!r} in header", lineno)
            if name in header_names:
                raise ParseError(f"duplicate variable {name!r} in header", lineno)
            header_names.append(name)
        if not header_names:
            raise ParseError("empty vars: header", lineno)
    if not lines:
        raise ParseError("empty problem: no polynomials")

    raw_polys = [(lineno, _LineParser(content, lineno).parse_polynomial())
                 for lineno, content in lines]

    if header_names is not None:
        names = header_names
        index = {name: i for i, name in enumerate(names)}
        for lineno, terms in raw_polys:
            for _, powers in terms:
                for name in powers:
                    if name not in index:
                        raise ParseError(f"unknown variable {name!r}", lineno)
    else:
        names = []
        index = {}
        for _, terms in raw_polys:
            for _, powers in terms:
                for name in powers:
                    if name not in index:
                        index[name] = len(names)
                        names.append(name)

    if not names:
        raise ParseError("problem has no variables")
    n = len(names)
    variables = tuple(VariableId(i, name) for i, name in enumerate(names))
    polynomials = []
    for lineno, terms in raw_polys:
        monomials = []
        for coeff, powers in terms:
            if coeff == 0:
                continue
            degrees = [0] * n
            for name, exp in powers.items():
                degrees[index[name]] += exp
            monomials.append(Monomial(coeff, tuple(degrees)))
        canon = canonicalize_monomials(monomials)
        if not canon:
            raise ParseError("zero polynomial", lineno)
        polynomials.append(Polynomial(canon))
    return ProblemInstance(variables, tuple(polynomials), problem_id)


def _format_monomial(m: Monomial, names: tuple[str, ...]) -> tuple[int, str]:
    """Return (sign, unsigned term text)."""
    factors = []
    for name, d in zip(names, m.degrees):
        if d == 1:
            factors.append(name)
        elif d > 1:
            factors.append(f"{name}^{d}")
    mag = abs(m.coeff)
    if not factors:
        body = str(mag)
    elif mag == 1:
        body = "*".join(factors)
    else:
        body = f"{mag}*" + "*".join(factors)
    return (1 if m.coeff > 0 else -1), body


def serialize_problem(pr: ProblemInstance) -> str:
    """Render a problem in the file grammar; parsing the result round-trips."""
    out = ["vars: " + ",".join(pr.var_names)]
    for poly in pr.polynomials:
        parts = []
        for k, m in enumerate(poly.monomials):
            sign, body = _format_monomial(m, pr.var_names)
            if k == 0:
                parts.append(("-" if sign < 0 else "") + body)
            else:
                parts.append(("- " if sign < 0 else "+ ") + body)
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"
