import ast
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import problem_instances
from cadorder.polyset import (
    _BAD_CHAR_RE,
    _TOKEN_RE,
    Monomial,
    ParseError,
    Polynomial,
    canonicalize_monomials,
    parse_problem,
    serialize_problem,
)


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


def test_bad_character_class_matches_bad_tokens():
    for c in map(chr, range(0x3100)):
        token = _TOKEN_RE.match(c)
        assert bool(_BAD_CHAR_RE.match(c)) == (token is not None and token.lastgroup == "bad"), c


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
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError) as err:
            parse_problem(text)
    finally:
        sys.set_int_max_str_digits(limit)
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


def test_serialize_examples(problem_a):
    assert serialize_problem(problem_a) == "vars: x,y,z\nx^2*y + z\nx*z^2 - 1\n"
    neg = parse_problem("vars: x\n-x + 1")
    assert serialize_problem(neg) == "vars: x\n-x + 1\n"
    const = parse_problem("vars: x\n-1\nx")
    assert serialize_problem(const).splitlines()[1] == "-1"


def test_zero_coefficient_monomial_rejected():
    with pytest.raises(ValueError):
        Monomial(0, (1,))


def test_polynomial_must_be_nonempty():
    with pytest.raises(ValueError):
        Polynomial(())
    with pytest.raises(ValueError):
        Polynomial.from_terms([(1, (1,)), (-1, (1,))])


def test_degree_vector_length_checked():
    from cadorder.polyset import ProblemInstance, VariableId

    two_vars = (VariableId(0, "x"), VariableId(1, "y"))
    one_var_polys = parse_problem("vars: x\nx").polynomials
    with pytest.raises(ValueError, match="degree vector"):
        ProblemInstance(two_vars, one_var_polys)


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
