import pytest
from hypothesis import strategies as st

from cadorder.polyset import (
    Polynomial,
    ProblemInstance,
    parse_problem,
)

# Small hand instances reused across modules.  The third one has two
# monomials of one polynomial sharing a variable, which separates
# monomial-containment from polynomial-containment features.
PROBLEM_A_TEXT = "vars: x,y,z\nx^2*y + z\nx*z^2 - 1"
PROBLEM_B_TEXT = "vars: x,y,z\nx^3 + y*z\ny^2 - x"
PROBLEM_C_TEXT = "vars: x,y,z\nx^2 + x"


@pytest.fixture
def problem_a():
    return parse_problem(PROBLEM_A_TEXT, problem_id="a")


@pytest.fixture
def problem_b():
    return parse_problem(PROBLEM_B_TEXT, problem_id="b")


@pytest.fixture
def problem_c():
    return parse_problem(PROBLEM_C_TEXT, problem_id="c")


def nonzero_ints(lo=-9, hi=9):
    return st.integers(lo, hi).filter(lambda c: c != 0)


@st.composite
def problem_instances(draw, min_vars=1, max_vars=4, max_polys=3, max_monomials=5, max_degree=5):
    """Structurally valid random problems; no cancellation by construction."""
    n = draw(st.integers(min_vars, max_vars))
    degree_vectors = st.tuples(*[st.integers(0, max_degree)] * n)
    polys = []
    for _ in range(draw(st.integers(1, max_polys))):
        terms = draw(
            st.dictionaries(degree_vectors, nonzero_ints(), min_size=1, max_size=max_monomials)
        )
        polys.append(Polynomial.from_terms((c, d) for d, c in terms.items()))
    return ProblemInstance(tuple(f"x{i}" for i in range(n)), tuple(polys))


def relabel(pr, perm):
    """``pr`` with its variables renamed: variable i becomes the old variable ``perm[i]``.

    Each name keeps its degrees, so the problem is the same one under
    another variable order; monomials are re-canonicalized.
    """
    return ProblemInstance(
        tuple(pr.var_names[j] for j in perm),
        tuple(
            Polynomial.from_terms((m.coeff, tuple(m.degrees[j] for j in perm)) for m in p.monomials)
            for p in pr.polynomials
        ),
        pr.id,
    )
