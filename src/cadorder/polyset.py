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

The variable index is fixed before any polynomial line is read: it is the
header's, or else every name in the file in first-occurrence order.  A
valid line is read by regular expressions alone: one fullmatch of the
grammar (``_POLY_RE``) and one findall of its terms.  A term's coefficient
is its digits; its degree vector comes from its factor text (``x0^2*x1``)
through :func:`_degrees`, a table keyed by that text, the file's variable
names and ``int()``'s digit limit, and bounded at ``_DEGREES_CACHE_SIZE``
entries, so each distinct factor text is read by one findall of its
factors, once per variable list and limit.  A line that fails them goes
to a walker over its ``_TOKEN_RE`` matches, which runs only to locate and
word the line's first error.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NoReturn


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


_set_coeff = Monomial.coeff.__set__
_set_degrees = Monomial.degrees.__set__


def _monomial(coeff: int, degrees: tuple[int, ...]) -> Monomial:
    """A :class:`Monomial` whose invariants the caller has already checked."""
    m = object.__new__(Monomial)
    _set_coeff(m, coeff)
    _set_degrees(m, degrees)
    return m


def canonicalize_monomials(terms) -> tuple[Monomial, ...]:
    """Merge ``(coeff, degrees)`` pairs into like terms, drop zero coefficients,
    and build one :class:`Monomial` per kept term, by degree vector descending.

    Raises ``ValueError`` if any distinct degree vector has a negative entry,
    whether or not its terms cancel.  After that one check per distinct vector,
    and with zero coefficients dropped, every kept term meets
    :class:`Monomial`'s invariants, so it is built without checking them again.
    """
    merged: dict[tuple[int, ...], int] = {}
    for coeff, degrees in terms:
        merged[degrees] = merged.get(degrees, 0) + coeff
    if min(map(min, filter(None, merged)), default=0) < 0:
        raise ValueError("negative exponent in monomial")
    return tuple(_monomial(c, d) for d, c in sorted(merged.items(), reverse=True) if c)


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

    Variable ``i`` is ``var_names[i]``, and entry ``i`` of every degree
    vector is its degree.  The optional ``id`` label is bookkeeping only
    and excluded from equality, so parse/serialize round-trips compare
    structurally.
    """

    var_names: tuple[str, ...]
    polynomials: tuple[Polynomial, ...]
    id: str | None = field(default=None, compare=False)
    # degree_table()'s value once computed; equality, hash, repr and pickles leave it out.
    _degree_table: tuple[tuple[int, ...], ...] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if not self.polynomials:
            raise ValueError("a problem needs at least one polynomial")
        n = len(self.var_names)
        if len(set(self.var_names)) != n:
            raise ValueError("duplicate variable names")
        for p in self.polynomials:
            for m in p.monomials:
                if len(m.degrees) != n:
                    raise ValueError(
                        f"degree vector of length {len(m.degrees)} in a {n}-variable problem"
                    )

    def __reduce__(self):
        return ProblemInstance, (self.var_names, self.polynomials, self.id)

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    def degree_table(self) -> tuple[tuple[int, ...], ...]:
        """Per polynomial, each variable's degree in it: the maximum over its monomials.

        Computed on the first call and kept; two threads that fill it at
        once store equal tables.
        """
        table = self._degree_table
        if table is None:
            table = tuple(tuple(map(max, zip(*(m.degrees for m in p.monomials))))
                          for p in self.polynomials)
            object.__setattr__(self, "_degree_table", table)
        return table

    def with_id(self, problem_id: str) -> ProblemInstance:
        return ProblemInstance(self.var_names, self.polynomials, problem_id)


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"

_TOKEN_RE = re.compile(rf"\s*(?:(?P<int>\d+)|(?P<ident>{_NAME})|(?P<op>[-+*^,])|(?P<bad>\S))")

_NAME_RE = re.compile(_NAME)

# The polynomial grammar over _TOKEN_RE's classes, with whitespace allowed
# around every token.  A match splits a line into the walker's tokens: what
# may follow an integer or a name starts with whitespace or an operator, so
# neither can stop short inside a run of its own characters.
_FACTOR = rf"{_NAME}(?:\s*\^\s*\d+)?"
_FACTORS = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
_TERM = rf"(?:\d+(?:\s*\*\s*{_FACTORS})?|{_FACTORS})"
_POLY_RE = re.compile(rf"\s*-?\s*{_TERM}(?:\s*[-+]\s*{_TERM})*\s*")

# In a line _POLY_RE accepts: each term's sign, coefficient digits and
# factor text, then each factor's name and exponent digits.  The lookahead
# keeps findall from matching an empty term at the end of the line.
_TERM_RE = re.compile(r"(?=\S)([-+]?)\s*(\d*)\s*\*?\s*([^-+]*)")
_FACTOR_RE = re.compile(rf"({_NAME})(?:\s*\^\s*(\d+))?")


def _group(token: re.Match | None, name: str) -> str | None:
    """The text of group ``name`` of a ``_TOKEN_RE`` match; None past the line's end."""
    return token and token[name]


def _error(message: str, token: re.Match | None, text: str, lineno: int) -> ParseError:
    """An error at ``token``'s start, or at the end of ``text`` if ``token`` is None."""
    col = len(text) + 1 if token is None else token.start(token.lastgroup) + 1
    return ParseError(message, lineno, col)


def _expected(what: str, token: re.Match | None, text: str, lineno: int) -> ParseError:
    if token is None:
        return _error(f"syntax error at end of input: expected {what}", token, text, lineno)
    got = token[token.lastgroup]
    return _error(f"syntax error: expected {what}, got {got!r}", token, text, lineno)


def _check_int(token: re.Match, text: str, lineno: int) -> None:
    """Raise if integer ``token`` is past ``int()``'s digit limit (sys.set_int_max_str_digits)."""
    digits = token["int"]
    try:
        int(digits)
    except ValueError:
        message = f"integer literal too long ({len(digits)} digits)"
        raise _error(message, token, text, lineno) from None


def _raise_line_error(text: str, lineno: int, names: tuple[str, ...]) -> NoReturn:
    """Raise the first error in a polynomial line that :func:`_read_line` could not read.

    Tokenizes the line once.  A character that no token can start with is
    reported before any other error; otherwise the walk follows the grammar
    over the tokens, so the error is the first in the line and its column
    is its token's.  A name not in ``names`` is an unknown variable.
    """
    tokens = list(_TOKEN_RE.finditer(text))
    for token in tokens:
        if token["bad"]:
            raise _error(f"unexpected character {token['bad']!r}", token, text, lineno)
    step = partial(next, iter(tokens), None)
    token = step()
    if _group(token, "op") == "-":
        token = step()
    while True:
        if _group(token, "int"):
            _check_int(token, text, lineno)
            token = step()
            has_factors = _group(token, "op") == "*"
            if has_factors:
                token = step()
        elif _group(token, "ident"):
            has_factors = True
        else:
            raise _expected("term", token, text, lineno)
        while has_factors:
            name = _group(token, "ident")
            if not name:
                raise _expected("identifier", token, text, lineno)
            if name not in names:
                raise _error(f"unknown variable {name!r}", token, text, lineno)
            token = step()
            if _group(token, "op") == "^":
                token = step()
                negative = _group(token, "op") == "-"
                if negative:
                    token = step()
                if not _group(token, "int"):
                    raise _expected("integer exponent", token, text, lineno)
                if negative:
                    raise _error("negative exponent", token, text, lineno)
                _check_int(token, text, lineno)
                token = step()
            has_factors = _group(token, "op") == "*"
            if has_factors:
                token = step()
        if token is None:
            raise AssertionError(f"line {lineno} is valid but _read_line rejected it: {text!r}")
        if token["op"] not in ("+", "-"):
            raise _expected("'+' or '-'", token, text, lineno)
        token = step()


# Distinct factor texts kept by _degrees.  3,000 generated n=3 problems hold
# 670 in 33,591 terms; at n=8 nearly every term's text is new.
_DEGREES_CACHE_SIZE = 4096


@lru_cache(maxsize=_DEGREES_CACHE_SIZE)
def _degrees(factors: str, names: tuple[str, ...], digit_limit: int) -> tuple[int, ...]:
    """The degree vector of a term's factor text over ``names``, in index order.

    ``digit_limit`` is ``int()``'s digit limit when the text is read.  It is
    part of the key and nothing more, so an entry read under a looser limit
    is never served under a tighter one.  Raises ``ValueError`` for a name
    not in ``names`` or an exponent past the limit; ``lru_cache`` keeps no
    exception, so such a text is read again, and raises again, every time.
    """
    degrees = [0] * len(names)
    for name, exp in _FACTOR_RE.findall(factors):
        degrees[names.index(name)] += int(exp) if exp else 1
    return tuple(degrees)


# int()'s digit limit (sys.set_int_max_str_digits); Python before 3.10.7 has none.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _read_line(
    text: str, lineno: int, names: tuple[str, ...], digit_limit: int
) -> list[tuple[int, tuple[int, ...]]]:
    """The ``(coeff, degrees)`` terms of one polynomial line, over the variables ``names``.

    A line that ``_POLY_RE`` accepts, whose names are all in ``names`` and
    whose integers ``int()`` reads, is read with one findall for its terms;
    each term's degree vector is :func:`_degrees` of its factor text under
    ``digit_limit``, ``int()``'s current one.  Any other line goes to the
    walker over its tokens, which raises its first error.
    """
    if _POLY_RE.fullmatch(text):
        terms = []
        try:
            for sign, digits, factors in _TERM_RE.findall(text):
                coeff = int(digits) if digits else 1
                degrees = _degrees(factors, names, digit_limit)
                terms.append((-coeff if sign == "-" else coeff, degrees))
        except ValueError:
            pass
        else:
            return terms
    _raise_line_error(text, lineno, names)


def _parse_header(code: str, lineno: int) -> tuple[str, ...]:
    """The names of a ``vars:`` header line, in header order."""
    index: dict[str, int] = {}
    col = code.index("vars:") + len("vars:") + 1
    for piece in code[col - 1 :].split(","):
        name = piece.strip()
        at = col + len(piece) - len(piece.lstrip())
        if not _NAME_RE.fullmatch(name):
            raise ParseError(f"bad variable name {name!r} in header", lineno, at)
        if name in index:
            raise ParseError(f"duplicate variable {name!r} in header", lineno, at)
        index[name] = len(index)
        col += len(piece) + 1
    return tuple(index)


def parse_problem(text: str, problem_id: str | None = None) -> ProblemInstance:
    """Parse problem text into a canonicalized :class:`ProblemInstance`.

    The variable index is the header's, or else every name in the file in
    first-occurrence order, one findall per line.  A valid polynomial line
    is then read by one ``_POLY_RE`` fullmatch and one findall of its terms,
    with each term's degree vector looked up by its factor text under
    ``int()``'s digit limit, read once per file (:func:`_read_line`); the
    walker over a line's tokens runs only on a line that fails them, to
    locate and word its error.

    Deterministic: the same input bytes always produce the same instance,
    including variable index assignment.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].rstrip()
        if code:
            lines.append((lineno, code))
    has_header = bool(lines) and lines[0][1].lstrip().startswith("vars:")
    if has_header:
        lineno, code = lines.pop(0)
        names = _parse_header(code, lineno)
    if not lines:
        raise ParseError("empty problem: no polynomials")
    if not has_header:
        names = tuple(dict.fromkeys(name for _, code in lines for name in _NAME_RE.findall(code)))

    digit_limit = _digit_limit()
    parsed = [(lineno, code, _read_line(code, lineno, names, digit_limit)) for lineno, code in lines]
    if not names:
        raise ParseError("problem has no variables")

    polynomials = []
    for lineno, code, terms in parsed:
        try:
            polynomials.append(Polynomial.from_terms(terms))
        except ValueError:
            col = len(code) - len(code.lstrip()) + 1  # the line's first token
            raise ParseError("zero polynomial", lineno, col) from None
    return ProblemInstance(names, tuple(polynomials), problem_id)


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
