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
must have at least one variable.  A :class:`ParseError` gives the file
line and, for a syntax error, the column, counted from 1 at the start of
that line.
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
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^,])|(?P<bad>\S))"
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _tokens(text: str, lineno: int) -> list[tuple[str, str, int]]:
    """Split one line into (kind, value, col) tokens, ending in an "end" marker."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        token = (kind, m.group(kind), m.start(kind) + 1)
        if kind == "bad":
            raise ParseError(f"unexpected character {token[1]!r}", lineno, token[2])
        tokens.append(token)
    tokens.append(("end", "", len(text) + 1))
    return tokens


def _expected(what: str, token: tuple[str, str, int], lineno: int) -> ParseError:
    kind, value, col = token
    if kind == "end":
        return ParseError(f"syntax error at end of input: expected {what}", lineno, col)
    return ParseError(f"syntax error: expected {what}, got {value!r}", lineno, col)


def _too_long(token: tuple[str, str, int], lineno: int) -> ParseError:
    """An integer literal past ``int()``'s digit limit (sys.set_int_max_str_digits)."""
    return ParseError(f"integer literal too long ({len(token[1])} digits)", lineno, token[2])


def _parse_terms(text: str, lineno: int) -> list[tuple[int, list[tuple[str, int]]]]:
    """Parse one polynomial line into (coeff, [(name, exponent), ...]) terms.

    Variable indices are assigned by the caller once all lines are seen.
    """
    tokens = _tokens(text, lineno)
    terms = []
    i = 0
    sign = 1
    if tokens[0][1] == "-":
        sign, i = -1, 1
    while True:
        kind, value, _ = tokens[i]
        if kind == "int":
            try:
                coeff = sign * int(value)
            except ValueError:
                raise _too_long(tokens[i], lineno) from None
            i += 1
            has_factors = tokens[i][1] == "*"
            i += has_factors
        elif kind == "ident":
            coeff, has_factors = sign, True
        else:
            raise _expected("term", tokens[i], lineno)
        powers = []
        while has_factors:
            kind, name, _ = tokens[i]
            if kind != "ident":
                raise _expected("identifier", tokens[i], lineno)
            i += 1
            exp = 1
            if tokens[i][1] == "^":
                i += 1
                negative = tokens[i][1] == "-"
                i += negative
                if tokens[i][0] != "int":
                    raise _expected("integer exponent", tokens[i], lineno)
                if negative:
                    raise ParseError("negative exponent", lineno, tokens[i][2])
                try:
                    exp = int(tokens[i][1])
                except ValueError:
                    raise _too_long(tokens[i], lineno) from None
                i += 1
            powers.append((name, exp))
            has_factors = tokens[i][1] == "*"
            i += has_factors
        terms.append((coeff, powers))
        kind, value, _ = tokens[i]
        if kind == "end":
            return terms
        if value not in ("+", "-"):
            raise _expected("'+' or '-'", tokens[i], lineno)
        sign = -1 if value == "-" else 1
        i += 1


def parse_problem(text: str, problem_id: str | None = None) -> ProblemInstance:
    """Parse problem text into a canonicalized :class:`ProblemInstance`.

    Deterministic: the same input bytes always produce the same instance,
    including variable index assignment.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].rstrip()
        if code:
            lines.append((lineno, code))
    index: dict[str, int] = {}
    has_header = bool(lines) and lines[0][1].lstrip().startswith("vars:")
    if has_header:
        lineno, code = lines.pop(0)
        for name in code.lstrip()[len("vars:") :].split(","):
            name = name.strip()
            if not _IDENT_RE.match(name):
                raise ParseError(f"bad variable name {name!r} in header", lineno)
            if name in index:
                raise ParseError(f"duplicate variable {name!r} in header", lineno)
            index[name] = len(index)
    if not lines:
        raise ParseError("empty problem: no polynomials")

    parsed = [(lineno, _parse_terms(code, lineno)) for lineno, code in lines]
    for lineno, terms in parsed:
        for _, powers in terms:
            for name, _ in powers:
                if name not in index:
                    if has_header:
                        raise ParseError(f"unknown variable {name!r}", lineno)
                    index[name] = len(index)
    if not index:
        raise ParseError("problem has no variables")

    n = len(index)
    polynomials = []
    for lineno, terms in parsed:
        monomials = []
        for coeff, powers in terms:
            if coeff:
                degrees = [0] * n
                for name, exp in powers:
                    degrees[index[name]] += exp
                monomials.append(Monomial(coeff, tuple(degrees)))
        try:
            polynomials.append(Polynomial.from_terms(monomials))
        except ValueError:
            raise ParseError("zero polynomial", lineno) from None
    variables = tuple(VariableId(i, name) for name, i in index.items())
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
