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
line and, for an error at a token or a header name, the column, counted
from 1 at the start of that line.  Lines are read in file order, and the
first error in that order is the one reported; within a line, a character
that no token can start with is reported before any other error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice


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


@dataclass(frozen=True, slots=True)
class VariableId:
    """A variable, identified by its 0-based index and unique name."""

    index: int
    name: str


@dataclass(frozen=True, slots=True)
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
        if min(self.degrees, default=0) < 0:
            raise ValueError("negative exponent in monomial")

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)


def canonicalize_monomials(terms) -> tuple[Monomial, ...]:
    """Merge ``(coeff, degrees)`` pairs into like terms, drop zero coefficients,
    and build one :class:`Monomial` per kept term, by degree vector descending.
    """
    merged: dict[tuple[int, ...], int] = {}
    for coeff, degrees in terms:
        merged[degrees] = merged.get(degrees, 0) + coeff
    return tuple(Monomial(c, d) for d, c in sorted(merged.items(), reverse=True) if c)


@dataclass(frozen=True, slots=True)
class Polynomial:
    """A nonempty sum of monomials over a shared variable list."""

    monomials: tuple[Monomial, ...]

    def __post_init__(self):
        if not self.monomials:
            raise ValueError("a polynomial needs at least one monomial")

    @classmethod
    def from_terms(cls, terms) -> Polynomial:
        """Build from ``(coeff, degrees)`` pairs in canonical form; raises if they cancel to zero."""
        canon = canonicalize_monomials(terms)
        if not canon:
            raise ValueError("zero polynomial (all terms cancelled)")
        return cls(canon)


@dataclass(frozen=True, slots=True)
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

# The characters that no token can start with: the ``bad`` group's.
_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z_,*^+-]")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Every token from findall sets exactly one of its four fields; the end
# marker sets none and is recognised by identity.
_END = ("", "", "", "")


def _tokens(text: str, lineno: int) -> list[tuple[str, str, str, str]]:
    """Split one line into (int, ident, op, bad) string tuples, ending in ``_END``.

    A character that no token can start with is an error before any other
    in its line, so no ``bad`` field is ever set.
    """
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", lineno, bad.start() + 1)
    tokens = _TOKEN_RE.findall(text)
    tokens.append(_END)
    return tokens


def _error(message: str, text: str, i: int, lineno: int) -> ParseError:
    """An error at token ``i`` of ``text``, whose column is found only now."""
    match = next(islice(_TOKEN_RE.finditer(text), i, None), None)
    col = len(text) + 1 if match is None else match.start(match.lastgroup) + 1
    return ParseError(message, lineno, col)


def _expected(what: str, text: str, tokens: list, i: int, lineno: int) -> ParseError:
    if tokens[i] is _END:
        return _error(f"syntax error at end of input: expected {what}", text, i, lineno)
    return _error(f"syntax error: expected {what}, got {''.join(tokens[i])!r}", text, i, lineno)


def _too_long(text: str, tokens: list, i: int, lineno: int) -> ParseError:
    """An integer literal past ``int()``'s digit limit (sys.set_int_max_str_digits)."""
    return _error(f"integer literal too long ({len(tokens[i][0])} digits)", text, i, lineno)


def _parse_terms(
    text: str, lineno: int, index: dict[str, int], fixed: bool
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Parse one polynomial line into (coeff, [(variable index, exponent), ...]) terms.

    Each name is resolved through ``index`` as it is read.  A ``fixed``
    index (a header's) makes an unknown name an error; otherwise a new name
    takes the next index, so indices follow first occurrence in file order.
    """
    tokens = _tokens(text, lineno)
    terms = []
    i = 0
    sign = 1
    if tokens[0][2] == "-":
        sign, i = -1, 1
    while True:
        digits, name, _, _ = tokens[i]
        if digits:
            try:
                coeff = sign * int(digits)
            except ValueError:
                raise _too_long(text, tokens, i, lineno) from None
            i += 1
            has_factors = tokens[i][2] == "*"
            i += has_factors
        elif name:
            coeff, has_factors = sign, True
        else:
            raise _expected("term", text, tokens, i, lineno)
        powers = []
        while has_factors:
            name = tokens[i][1]
            if not name:
                raise _expected("identifier", text, tokens, i, lineno)
            v = index.get(name)
            if v is None:
                if fixed:
                    raise _error(f"unknown variable {name!r}", text, i, lineno)
                v = index[name] = len(index)
            i += 1
            exp = 1
            if tokens[i][2] == "^":
                i += 1
                negative = tokens[i][2] == "-"
                i += negative
                digits = tokens[i][0]
                if not digits:
                    raise _expected("integer exponent", text, tokens, i, lineno)
                if negative:
                    raise _error("negative exponent", text, i, lineno)
                try:
                    exp = int(digits)
                except ValueError:
                    raise _too_long(text, tokens, i, lineno) from None
                i += 1
            powers.append((v, exp))
            has_factors = tokens[i][2] == "*"
            i += has_factors
        terms.append((coeff, powers))
        if tokens[i] is _END:
            return terms
        op = tokens[i][2]
        if op not in ("+", "-"):
            raise _expected("'+' or '-'", text, tokens, i, lineno)
        sign = -1 if op == "-" else 1
        i += 1


def _parse_header(code: str, lineno: int) -> dict[str, int]:
    """Index of each name in a ``vars:`` header line, in header order."""
    index: dict[str, int] = {}
    col = code.index("vars:") + len("vars:") + 1
    for piece in code[col - 1 :].split(","):
        name = piece.strip()
        at = col + len(piece) - len(piece.lstrip())
        if not _IDENT_RE.match(name):
            raise ParseError(f"bad variable name {name!r} in header", lineno, at)
        if name in index:
            raise ParseError(f"duplicate variable {name!r} in header", lineno, at)
        index[name] = len(index)
        col += len(piece) + 1
    return index


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
    has_header = bool(lines) and lines[0][1].lstrip().startswith("vars:")
    index: dict[str, int] = {}
    if has_header:
        lineno, code = lines.pop(0)
        index = _parse_header(code, lineno)
    if not lines:
        raise ParseError("empty problem: no polynomials")

    parsed = [(lineno, code, _parse_terms(code, lineno, index, has_header)) for lineno, code in lines]
    if not index:
        raise ParseError("problem has no variables")

    n = len(index)
    polynomials = []
    for lineno, code, terms in parsed:
        pairs = []
        for coeff, powers in terms:
            degrees = [0] * n
            for v, exp in powers:
                degrees[v] += exp
            pairs.append((coeff, tuple(degrees)))
        try:
            polynomials.append(Polynomial.from_terms(pairs))
        except ValueError:
            col = len(code) - len(code.lstrip()) + 1  # the line's first token
            raise ParseError("zero polynomial", lineno, col) from None
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
