"""Property tests of the exact polynomial layer: the ring laws of Poly,
exact division, the polynomial gcd, the coefficient types, vector
proportionality, the symbolic nullspace of skew matrices, and the GF(2)
nullspace of the sign-symmetry solver.  Skipped without hypothesis."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glomkit.errors import ContractViolation
from glomkit.exactmath import Poly, PolyMatrix, divide_exact, nullspace_symbolic
from glomkit.exactmath.linalg import poly_gcd, proportional
from glomkit.models import _gf2_nullspace

from helpers import (
    dense_matrix,
    model_table,
    mul_vector,
    nullspace_symbolic_reference,
    parse,
    proportional_reference,
)

# the same examples in every environment; no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

TABLE = model_table(3, 1)
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
# one nonzero term: the closed-form branch of poly_gcd
nonzero_terms = st.builds(lambda m, c: Poly(TABLE, {m: c}), monomials, coefficients.filter(bool))


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
@given(*[st.one_of(nonzero_terms, nonzero_polys)] * 3)
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


vectors = st.lists(polys, min_size=1, max_size=5)


def _scaled(case):
    # lam * u and mu * u: parallel, zero where u is
    u, lam, mu = case
    return [lam * e for e in u], [mu * e for e in u]


def _rezeroed(case):
    # one entry of the second vector set to zero, the zero pattern of the
    # first changed unless that entry was zero already
    (v1, v2), i = case
    i %= len(v2)
    return v1, [TABLE.zero() if j == i else e for j, e in enumerate(v2)]


def _perturbed(case):
    # d added to one entry of the second vector: mostly the zero pattern
    # stays and the vectors stop being parallel
    (v1, v2), i, d = case
    i %= len(v2)
    return v1, [e + d if j == i else e for j, e in enumerate(v2)]


# c * v and lam(x) * v (nonzero_polys holds constants as well), those
# with one entry zeroed or perturbed, pairs of unrelated vectors, and
# all-zero vectors
scaled_pairs = st.tuples(vectors, nonzero_polys, nonzero_polys).map(_scaled)
vector_pairs = st.one_of(
    scaled_pairs,
    st.tuples(scaled_pairs, st.integers(0, 4)).map(_rezeroed),
    st.tuples(scaled_pairs, st.integers(0, 4), nonzero_polys).map(_perturbed),
    st.integers(1, 5).flatmap(lambda n: st.tuples(*[st.lists(polys, min_size=n, max_size=n)] * 2)),
    st.integers(1, 5).map(lambda n: ([TABLE.zero()] * n,) * 2),
)


@PROPERTY
@given(vector_pairs)
def test_proportional_matches_the_all_pairs_reference(pair):
    v1, v2 = pair
    assert proportional(v1, v2) == proportional_reference(v1, v2)


def _affine(coeffs) -> Poly:
    """coeffs[0] + coeffs[1]*x1 + coeffs[2]*x2 + coeffs[3]*a1 + coeffs[4]*p1"""
    n = len(VARIABLES)
    monos = [(0,) * n] + [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return Poly(TABLE, {_monomial(e): c for e, c in zip(monos, coeffs)})


def _skew(n: int, upper) -> PolyMatrix:
    rows = [[TABLE.zero()] * n for _ in range(n)]
    cells = ((i, j) for i in range(n) for j in range(i + 1, n))
    for (i, j), e in zip(cells, upper):
        rows[i][j], rows[j][i] = e, -e
    return dense_matrix(TABLE, rows)


# M = 2..6; each entry above the diagonal is zero half the time, else affine
skew_entries = st.one_of(
    st.just(TABLE.zero()),
    st.tuples(*[st.integers(-3, 3)] * (len(VARIABLES) + 1)).map(_affine),
)
skew_matrices = st.integers(2, 6).flatmap(
    lambda n: st.lists(skew_entries, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
        lambda upper: _skew(n, upper)
    )
)


@settings(PROPERTY, max_examples=50)
@given(skew_matrices)
def test_nullspace_symbolic_matches_the_elimination_reference(m):
    basis = nullspace_symbolic(m)
    assert basis == nullspace_symbolic_reference(m)
    for vec in basis:
        assert not any(mul_vector(m, vec))


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
