import ast
import re
import sys
from contextlib import contextmanager
from dataclasses import FrozenInstanceError
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import problem_instances
from cadorder.polyset import (
    _POLY_RE,
    Monomial,
    ParseError,
    Polynomial,
    ProblemInstance,
    canonicalize_monomials,
    parse_problem,
    serialize_problem,
)


@contextmanager
def _default_digit_limit():
    """Pin int()'s digit limit to its default, 4,300, for the parse."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_two_polynomials(problem_a):
    assert problem_a.n_vars == 3
    assert problem_a.var_names == ("x", "y", "z")
    assert len(problem_a.polynomials) == 2
    p1, p2 = problem_a.polynomials
    assert {(m.coeff, m.degrees) for m in p1.monomials} == {(1, (2, 1, 0)), (1, (0, 0, 1))}
    assert {(m.coeff, m.degrees) for m in p2.monomials} == {(1, (1, 0, 2)), (-1, (0, 0, 0))}


def test_like_terms_merge():
    pr = parse_problem("vars: x\n3*x - 2*x")
    assert pr.polynomials[0].monomials == (Monomial(1, (1,)),)


def test_cancelled_terms_are_dropped():
    kept = (Monomial(3, (0, 1)),)
    assert Polynomial.from_terms([(2, (1, 0)), (3, (0, 1)), (-2, (1, 0))]).monomials == kept
    assert parse_problem("vars: x,y\n2*x + 3*y - 2*x").polynomials[0].monomials == kept


def test_repeated_factor_multiplies():
    pr = parse_problem("vars: x\nx*x^2")
    assert pr.polynomials[0].monomials == (Monomial(1, (3,)),)


def test_first_occurrence_order_without_header():
    pr = parse_problem("b*a + c\nc^2")
    assert pr.var_names == ("b", "a", "c")


def test_header_order_wins():
    pr = parse_problem("vars: c,b,a\nb*a + c")
    assert pr.var_names == ("c", "b", "a")
    (poly,) = pr.polynomials
    assert {m.degrees for m in poly.monomials} == {(0, 1, 1), (1, 0, 0)}


def test_comments_and_blank_lines():
    pr = parse_problem("# heading\nvars: x,y  # trailing\n\nx + y # term\n\n# done\n")
    assert pr.n_vars == 2
    assert len(pr.polynomials) == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("vars: x,y\nx^2 + ", "end of input"),
        ("vars: x\nx^-2", "negative exponent"),
        ("vars: x\nx + w", "unknown variable"),
        ("vars: x\n", "empty problem"),
        ("", "empty problem"),
        ("vars: x\nx - x", "zero polynomial"),
        ("vars: x\n0", "zero polynomial"),
        ("vars: x,x\nx", "duplicate variable"),
        ("vars: x\n2*3", "expected identifier"),
        ("vars: x\nx ? 2", "unexpected character"),
        ("vars: x\n+x", "expected term"),
        ("5", "problem has no variables"),
        ("# a constant\n5\n-3", "problem has no variables"),
        # Each syntax branch, with its full message; columns count from 1
        # at the start of the file line.
        ("vars: x\nx y", "syntax error: expected '+' or '-', got 'y' (line 2, col 3)"),
        ("vars: x\n\tx + *", "syntax error: expected term, got '*' (line 2, col 6)"),
        ("vars: x,y\nx^2 +   # more", "syntax error at end of input: expected term (line 2, col 6)"),
        ("vars: x\n2*3", "syntax error: expected identifier, got '3' (line 2, col 3)"),
        ("vars: x,y\nx^y", "syntax error: expected integer exponent, got 'y' (line 2, col 3)"),
        ("vars: x\nx^", "syntax error at end of input: expected integer exponent (line 2, col 3)"),
        ("vars: x\nx^-2", "negative exponent (line 2, col 4)"),
        ("vars: x\n  x ? 2", "unexpected character '?' (line 2, col 5)"),
        # Past int()'s digit limit, which the test pins to its default.
        pytest.param("vars: x\n" + "1" * 5000 + "*x",
                     "integer literal too long (5000 digits) (line 2, col 1)", id="long-coefficient"),
        pytest.param("vars: x\nx^" + "1" * 5000,
                     "integer literal too long (5000 digits) (line 2, col 3)", id="long-exponent"),
        # A polynomial whose terms cancel is placed at the line's first token.
        pytest.param("vars: x\n  x - x", "zero polynomial (line 2, col 3)", id="zero-polynomial-col"),
        pytest.param("vars: x,y\n0\n\t0*y", "zero polynomial (line 2, col 1)",
                     id="zero-polynomial-first-col"),
        pytest.param("vars: x,y\nx\n\ty - y  # gone", "zero polynomial (line 3, col 2)",
                     id="zero-polynomial-tab-col"),
        # Header names and unknown variables are placed at the name.
        pytest.param("vars: x\nx + w", "unknown variable 'w' (line 2, col 5)", id="unknown-variable-col"),
        pytest.param("vars: x\n  3*x*w^2", "unknown variable 'w' (line 2, col 7)",
                     id="unknown-factor-col"),
        pytest.param("vars: x,x\nx", "duplicate variable 'x' in header (line 1, col 9)",
                     id="duplicate-variable-col"),
        pytest.param("  vars: x, 1y\nx", "bad variable name '1y' in header (line 1, col 12)",
                     id="bad-variable-name-col"),
        pytest.param("vars: x,\nx", "bad variable name '' in header (line 1, col 9)",
                     id="empty-variable-name-col"),
        # With two errors, the first in file order is reported; within a
        # line, a character no token can start with comes first.
        pytest.param("vars: x\nw\nx y", "unknown variable 'w' (line 2, col 1)", id="first-error-line"),
        pytest.param("vars: x\nw y", "unknown variable 'w' (line 2, col 1)", id="first-error-col"),
        pytest.param("vars: x\nx y ?", "unexpected character '?' (line 2, col 5)",
                     id="bad-character-after-syntax-error"),
    ],
)
def test_parse_errors(text, fragment):
    with _default_digit_limit(), pytest.raises(ParseError) as err:
        parse_problem(text)
    assert fragment in str(err.value)


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_problem("vars: x\nx^2 + ")
    assert err.value.line == 2


_FUZZ_PIECES = ["x", "y", "ab_1", "0", "1", "12", "+", "-", "*", "^", ",", "?", ":", " ", "#",
                "\n", "vars:", "vars: x,y", " + ", " - ", "x^2", "2*"]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_FUZZ_PIECES), max_size=30).map("".join))
def test_fuzz_parse_round_trips_or_raises_parse_error(text):
    try:
        pr = parse_problem(text)
    except ParseError as e:
        if e.col is not None:
            assert 1 <= e.col <= len(text.splitlines()[e.line - 1]) + 1
    else:
        assert parse_problem(serialize_problem(pr)) == pr


# The token or name an error quotes: after "got", "character", "variable" or "name".
_QUOTED_RE = re.compile(r"(?:got|character|variable|name) ('(?:[^'\\]|\\.)*')")


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_FUZZ_PIECES + ["w", "\t", "x,"]), max_size=30).map("".join))
def test_fuzz_error_columns_point_at_their_token(text):
    """A quoted token or name is at its error's column; end of input is one past the code."""
    try:
        parse_problem(text)
    except ParseError as e:
        if e.col is None:
            return
        line = text.splitlines()[e.line - 1]
        if "end of input" in e.message:
            assert e.col == len(line.split("#", 1)[0].rstrip()) + 1
        elif quoted := _QUOTED_RE.search(e.message):
            value = ast.literal_eval(quoted.group(1))
            assert line[e.col - 1 : e.col - 1 + len(value)] == value


# The parser as it was before valid lines were read by _POLY_RE and two
# findall passes: every line through the token walker, which builds the
# terms, and like terms merged here, each kept one built by Monomial(c, d).
# parse_problem must give the same instance or the same error.
_REF_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^,])|(?P<bad>\S))"
)
_REF_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z_,*^+-]")
_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_REF_END = ("", "", "", "")


def _ref_tokens(text, lineno):
    bad = _REF_BAD_CHAR_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", lineno, bad.start() + 1)
    tokens = _REF_TOKEN_RE.findall(text)
    tokens.append(_REF_END)
    return tokens


def _ref_error(message, text, i, lineno):
    match = next(islice(_REF_TOKEN_RE.finditer(text), i, None), None)
    col = len(text) + 1 if match is None else match.start(match.lastgroup) + 1
    return ParseError(message, lineno, col)


def _ref_expected(what, text, tokens, i, lineno):
    if tokens[i] is _REF_END:
        return _ref_error(f"syntax error at end of input: expected {what}", text, i, lineno)
    return _ref_error(f"syntax error: expected {what}, got {''.join(tokens[i])!r}", text, i, lineno)


def _ref_too_long(text, tokens, i, lineno):
    return _ref_error(f"integer literal too long ({len(tokens[i][0])} digits)", text, i, lineno)


def _ref_parse_terms(text, lineno, index, fixed):
    tokens = _ref_tokens(text, lineno)
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
                raise _ref_too_long(text, tokens, i, lineno) from None
            i += 1
            has_factors = tokens[i][2] == "*"
            i += has_factors
        elif name:
            coeff, has_factors = sign, True
        else:
            raise _ref_expected("term", text, tokens, i, lineno)
        powers = []
        while has_factors:
            name = tokens[i][1]
            if not name:
                raise _ref_expected("identifier", text, tokens, i, lineno)
            v = index.get(name)
            if v is None:
                if fixed:
                    raise _ref_error(f"unknown variable {name!r}", text, i, lineno)
                v = index[name] = len(index)
            i += 1
            exp = 1
            if tokens[i][2] == "^":
                i += 1
                negative = tokens[i][2] == "-"
                i += negative
                digits = tokens[i][0]
                if not digits:
                    raise _ref_expected("integer exponent", text, tokens, i, lineno)
                if negative:
                    raise _ref_error("negative exponent", text, i, lineno)
                try:
                    exp = int(digits)
                except ValueError:
                    raise _ref_too_long(text, tokens, i, lineno) from None
                i += 1
            powers.append((v, exp))
            has_factors = tokens[i][2] == "*"
            i += has_factors
        terms.append((coeff, powers))
        if tokens[i] is _REF_END:
            return terms
        op = tokens[i][2]
        if op not in ("+", "-"):
            raise _ref_expected("'+' or '-'", text, tokens, i, lineno)
        sign = -1 if op == "-" else 1
        i += 1


def _ref_parse_header(code, lineno):
    index = {}
    col = code.index("vars:") + len("vars:") + 1
    for piece in code[col - 1 :].split(","):
        name = piece.strip()
        at = col + len(piece) - len(piece.lstrip())
        if not _REF_IDENT_RE.match(name):
            raise ParseError(f"bad variable name {name!r} in header", lineno, at)
        if name in index:
            raise ParseError(f"duplicate variable {name!r} in header", lineno, at)
        index[name] = len(index)
        col += len(piece) + 1
    return index


def _ref_parse_problem(text):
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].rstrip()
        if code:
            lines.append((lineno, code))
    has_header = bool(lines) and lines[0][1].lstrip().startswith("vars:")
    index = {}
    if has_header:
        lineno, code = lines.pop(0)
        index = _ref_parse_header(code, lineno)
    if not lines:
        raise ParseError("empty problem: no polynomials")
    parsed = [(lineno, code, _ref_parse_terms(code, lineno, index, has_header))
              for lineno, code in lines]
    if not index:
        raise ParseError("problem has no variables")
    n = len(index)
    polynomials = []
    for lineno, code, terms in parsed:
        merged = {}
        for coeff, powers in terms:
            degrees = [0] * n
            for v, exp in powers:
                degrees[v] += exp
            key = tuple(degrees)
            merged[key] = merged.get(key, 0) + coeff
        monomials = tuple(Monomial(c, d) for d, c in sorted(merged.items(), reverse=True) if c)
        if not monomials:
            col = len(code) - len(code.lstrip()) + 1
            raise ParseError("zero polynomial", lineno, col)
        polynomials.append(Polynomial(monomials))
    return ProblemInstance(tuple(index), tuple(polynomials))


def _outcome(parse, text):
    """The instance's names and monomials, or the error's message, line and column."""
    try:
        pr = parse(text)
    except ParseError as e:
        return ("error", e.message, e.line, e.col)
    return ("ok", pr.var_names, pr.polynomials)


_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\xa0"])
_DIGITS = st.sampled_from(["1", "2", "12", "007", "0", "٣", "١٢"])
_MUTATIONS = _FUZZ_PIECES + ["w", "\t", "\xa0", "٣", "^ -", "\r\n", "é"]


@st.composite
def _grammar_texts(draw):
    """A problem from the grammar, with random whitespace around ``*``, ``^``,
    ``+`` and ``-``, a header in random order or none, trailing comments, and
    then one random mutation or none; about half of these parse.
    """
    names = draw(st.lists(st.sampled_from(["x", "y", "z", "w", "ab_1", "_t"]),
                          min_size=1, max_size=4, unique=True))
    lines = []
    if draw(st.booleans()):
        order = draw(st.permutations(names))
        lines.append("vars:" + ",".join(draw(_SPACE) + name + draw(_SPACE) for name in order))
    for _ in range(draw(st.integers(1, 3))):
        line = ""
        for k in range(draw(st.integers(1, 4))):
            factors = []
            for name in draw(st.lists(st.sampled_from(names), max_size=3)):
                if draw(st.booleans()):
                    name += draw(_SPACE) + "^" + draw(_SPACE) + draw(_DIGITS)
                factors.append(name)
            term = "".join(
                (draw(_SPACE) + "*" + draw(_SPACE) if j else "") + f for j, f in enumerate(factors)
            )
            if not factors or draw(st.booleans()):
                coeff = draw(_DIGITS)
                term = coeff + draw(_SPACE) + "*" + draw(_SPACE) + term if factors else coeff
            sign = draw(st.sampled_from(["", "-"] if k == 0 else ["+", "-"]))
            line += draw(_SPACE) + sign + draw(_SPACE) + term
        if draw(st.booleans()):
            line += draw(_SPACE) + "# note"
        lines.append(line)
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    mutation = draw(st.sampled_from(["none", "delete", "insert", "replace"]))
    if mutation == "none":
        return text
    at = draw(st.integers(0, len(text)))
    piece = "" if mutation == "delete" else draw(st.sampled_from(_MUTATIONS))
    return text[:at] + piece + text[at + (mutation != "insert") :]


@settings(max_examples=500)
@given(st.one_of(
    st.lists(st.sampled_from(_FUZZ_PIECES + ["\t", "\xa0", "٣", "w", "^ -", "\r\n", "1" * 4301]),
             max_size=30).map("".join),
    _grammar_texts(),
))
def test_parse_matches_the_reference_parser(text):
    with _default_digit_limit():
        assert _outcome(parse_problem, text) == _outcome(_ref_parse_problem, text)


def test_bad_character_is_reported_before_any_other_error():
    """Every code point below U+3100, alone on a line and after a syntax error."""
    for c in map(chr, range(0x3100)):
        for text in ("vars: x\n" + c, "vars: x\nx x " + c):
            assert _outcome(parse_problem, text) == _outcome(_ref_parse_problem, text), ascii(text)


def _terms(pr):
    return [[(m.coeff, m.degrees) for m in p.monomials] for p in pr.polynomials]


def test_factor_table_is_keyed_by_the_variable_names():
    """One factor text read under different variable lists in one process."""
    assert _terms(parse_problem("vars: x,y\nx^2*y")) == [[(1, (2, 1))]]
    assert _terms(parse_problem("vars: y,x\nx^2*y")) == [[(1, (1, 2))]]
    first, second = parse_problem("x^2*y + y"), parse_problem("y + x^2*y")
    assert (first.var_names, _terms(first)) == (("x", "y"), [[(1, (2, 1)), (1, (0, 1))]])
    assert (second.var_names, _terms(second)) == (("y", "x"), [[(1, (1, 2)), (1, (1, 0))]])
    # x^2*y is now known under (x, y) and (y, x), but not under (x,).
    text = "vars: x\nx^2*y"
    assert _outcome(parse_problem, text) == ("error", "unknown variable 'y'", 2, 5)
    assert _outcome(parse_problem, text) == _outcome(_ref_parse_problem, text)


def test_long_exponent_raises_after_shorter_ones_are_read():
    long_text = "vars: x\nx^" + "1" * 4301
    error = ("error", "integer literal too long (4301 digits)", 2, 3)
    with _default_digit_limit():
        for digits in ("1", "12", "1" * 4300):
            parse_problem("vars: x\nx^" + digits)
        assert _outcome(parse_problem, long_text) == error
        assert _outcome(parse_problem, long_text) == _outcome(_ref_parse_problem, long_text)
    # Read under no limit, then under the default one, the same text raises again.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert _terms(parse_problem(long_text)) == [[(1, (int("1" * 4301),))]]
    finally:
        sys.set_int_max_str_digits(limit)
    with _default_digit_limit():
        assert _outcome(parse_problem, long_text) == error


def _ref_reads(line):
    try:
        _ref_parse_terms(line, 1, {}, False)
    except ParseError:
        return False
    return True


def test_poly_re_character_classes_match_the_reference():
    """_POLY_RE uses the token classes: a [0-9] or [ \\t] for \\d or \\s shows here."""
    for c in map(chr, range(0x3100)):
        for line in (c, "x^" + c, "x " + c):
            assert bool(_POLY_RE.fullmatch(line)) == _ref_reads(line), ascii(line)


def test_serialize_examples(problem_a):
    assert serialize_problem(problem_a) == "vars: x,y,z\nx^2*y + z\nx*z^2 - 1\n"
    neg = parse_problem("vars: x\n-x + 1")
    assert serialize_problem(neg) == "vars: x\n-x + 1\n"
    const = parse_problem("vars: x\n-1\nx")
    assert serialize_problem(const).splitlines()[1] == "-1"


def test_zero_coefficient_monomial_rejected():
    with pytest.raises(ValueError):
        Monomial(0, (1,))


def test_canonical_monomials_are_plain_monomials():
    canon = canonicalize_monomials([(2, (1, 0)), (4, (1, 1)), (3, (0, 2)), (-1, (1, 0)), (-4, (1, 1))])
    built = (Monomial(1, (1, 0)), Monomial(3, (0, 2)))
    assert canon == built
    assert [hash(m) for m in canon] == [hash(m) for m in built]
    for m in canon:
        with pytest.raises(FrozenInstanceError):
            m.coeff = 5
        with pytest.raises(FrozenInstanceError):
            m.degrees = (0, 0)
    assert canonicalize_monomials([(2, ()), (1, ())]) == (Monomial(3, ()),)


def test_negative_exponent_rejected():
    """Built directly, or through from_terms whether or not the term cancels."""
    with pytest.raises(ValueError, match="negative exponent"):
        Monomial(1, (0, -1))
    for terms in ([(1, (0, -1))], [(2, (1, 0)), (1, (0, -1)), (-1, (0, -1))]):
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial.from_terms(terms)


def test_polynomial_must_be_nonempty():
    with pytest.raises(ValueError):
        Polynomial(())
    with pytest.raises(ValueError):
        Polynomial.from_terms([(1, (1,)), (-1, (1,))])


def test_degree_vector_length_checked():
    one_var_polys = parse_problem("vars: x\nx").polynomials
    two_var_polys = parse_problem("vars: x,y\nx*y").polynomials
    with pytest.raises(ValueError, match="degree vector"):
        ProblemInstance(("x", "y"), one_var_polys)
    with pytest.raises(ValueError, match="duplicate variable names"):
        ProblemInstance(("x", "x"), two_var_polys)


@given(problem_instances())
def test_round_trip(pr):
    assert parse_problem(serialize_problem(pr)) == pr


@given(problem_instances())
def test_canonicalization_idempotent(pr):
    for poly in pr.polynomials:
        once = canonicalize_monomials((m.coeff, m.degrees) for m in poly.monomials)
        assert canonicalize_monomials((m.coeff, m.degrees) for m in once) == once
        degrees = [m.degrees for m in once]
        assert degrees == sorted(set(degrees), reverse=True)


def test_parse_determinism(problem_a):
    text = "y*x + x\nx^3"
    first = parse_problem(text)
    for _ in range(3):
        assert parse_problem(text) == first
        assert parse_problem(text).var_names == first.var_names


def test_id_excluded_from_equality(problem_a):
    relabeled = problem_a.with_id("other")
    assert relabeled == problem_a
    assert relabeled.id == "other"
