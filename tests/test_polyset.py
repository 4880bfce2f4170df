import pytest
from hypothesis import given

from conftest import problem_instances
from cadorder.polyset import (
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
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_problem(text)


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_problem("vars: x\nx^2 + ")
    assert err.value.line == 2


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
        Polynomial.from_terms([Monomial(1, (1,)), Monomial(-1, (1,))])


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
        once = canonicalize_monomials(poly.monomials)
        assert canonicalize_monomials(once) == once
        assert Polynomial(once).is_canonical


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
