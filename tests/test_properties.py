"""Property tests of the exact polynomial layer: the ring laws of Poly,
exact division, the polynomial gcd, the coefficient types, and the GF(2)
nullspace of the sign-symmetry solver.  Skipped without hypothesis."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glomkit.errors import ContractViolation
from glomkit.exactmath import Poly, VarTable, divide_exact
from glomkit.exactmath.linalg import poly_gcd
from glomkit.models import _gf2_nullspace

from helpers import parse

# the same examples in every environment; no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

TABLE = VarTable.for_model(3, 1)
# two state variables and two parameters; the rest of the table stays unused
VARIABLES = tuple(TABLE.index(name) for name in ("x1", "x2", "a1", "p1"))


def _monomial(exponents) -> tuple[int, ...]:
    mono = [0] * len(TABLE)
    for i, e in zip(VARIABLES, exponents):
        mono[i] = e
    return tuple(mono)


monomials = st.tuples(*[st.integers(0, 2)] * len(VARIABLES)).map(_monomial)
coefficients = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)
polys = st.dictionaries(monomials, coefficients, max_size=4).map(lambda terms: Poly(TABLE, terms))
nonzero_polys = polys.filter(bool)


def _canonical(p: Poly) -> bool:
    """Every coefficient is a nonzero int, or a Fraction that is not integral."""
    return all(
        type(c) is int and c or type(c) is Fraction and c.denominator != 1
        for c in p.terms.values()
    )


@PROPERTY
@given(polys, polys, polys)
def test_poly_ring_laws(a, b, c):
    zero, one = TABLE.zero(), TABLE.const(1)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a - a == zero and -(-a) == a
    assert a - b == a + (-b)


@PROPERTY
@given(polys, nonzero_polys)
def test_divide_exact_undoes_a_product(a, b):
    assert divide_exact(a * b, b) == a


@PROPERTY
@given(polys, nonzero_polys, coefficients.filter(bool))
def test_divide_exact_refuses_a_non_multiple(a, b, c):
    # a * b + c is a multiple of b only if the constant c is, which needs
    # b to be a constant
    assume(b.total_degree() > 0)
    with pytest.raises(ContractViolation):
        divide_exact(a * b + TABLE.const(c), b)


@settings(PROPERTY, max_examples=50)
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_poly_gcd_divides_both_and_leaves_coprime_cofactors(a, b, h):
    left, right = a * h, b * h
    g = poly_gcd(left, right)
    assert g == g.normalized()
    divide_exact(g, h)  # the common factor divides the gcd
    cofactors = divide_exact(left, g), divide_exact(right, g)
    assert poly_gcd(*cofactors) == TABLE.const(1)


@PROPERTY
@given(polys, nonzero_polys, coefficients)
def test_coefficients_are_ints_when_integral(a, b, k):
    # Poly stores an integral coefficient as an int, and never a float
    results = [a + b, a - b, a * b, -a, a.scale(k), divide_exact(a * b, b), a.normalized()]
    for p in results:
        assert _canonical(p)


def test_integral_results_hold_ints():
    p, q = parse(TABLE, "1/2*x1 + 3*a1"), parse(TABLE, "1/2*x1 - a1")
    for r in (p + q, p - q, (p * q).scale(4), p.scale(Fraction(4, 2)), divide_exact(p * q, q).scale(2)):
        assert r and all(type(c) is int for c in r.terms.values()), r
    assert all(type(c) is int for c in p.normalized().terms.values())
    assert TABLE.const(Fraction(6, 3)).terms == {_monomial((0, 0, 0, 0)): 2}


# (bit count, equations as row bitmasks)
gf2_systems = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=8))
)


@PROPERTY
@given(gf2_systems)
def test_gf2_nullspace_solves_the_system(case):
    n_bits, equations = case
    basis = _gf2_nullspace(equations, n_bits)
    for vec in basis:
        assert all((row & vec).bit_count() % 2 == 0 for row in equations)
    # rank + nullity = n_bits, and the basis is independent
    assert _gf2_rank(basis) == len(basis)
    assert _gf2_rank(equations) + len(basis) == n_bits


def _gf2_rank(rows) -> int:
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)
