"""Invariant counts and bases, J, its Jacobi residuals and nullspace, the
Casimir gradients and the polynomial gcd checked against sympy."""

import itertools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from glomkit.exactmath import Poly
from glomkit.exactmath.linalg import poly_gcd
from glomkit.hamiltonian import build_J, casimirs, jacobi
from glomkit.hierarchy import member
from glomkit.invariants import build_system, count_invariants
from glomkit.models import assemble_field, builtin_model, no_linear_feedback

from helpers import dense_rows, hamiltonian_models, model_table

MODELS = ("model1", "model2", "model3", "model4", "model5", "euler")


def sympy_rows(system, point):
    """The system as sympy rationals, each entry evaluated at the point."""
    names = system.matrix.table.names
    values = {name: sympy.Rational(v.numerator, v.denominator) for name, v in point.items()}
    rows = []
    for row in dense_rows(system.matrix):
        out = []
        for entry in row:
            total = sympy.Integer(0)
            for mono, c in entry.terms.items():
                term = sympy.Rational(c.numerator, c.denominator)
                for i, k in enumerate(mono):
                    if k:
                        term *= values[names[i]] ** k
                total += term
            out.append(total)
        rows.append(out)
    return sympy.Matrix(rows)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("feedback_free", [False, True])
def test_invariant_count_and_basis_match_sympy(name, feedback_free):
    g = builtin_model(name)
    if feedback_free:
        g = no_linear_feedback(g)
    system = build_system(g)
    for seed in (0, 20251):
        report = count_invariants(g, seed=seed)
        a = sympy_rows(system, report.param_point or {})
        assert report.raw_count == system.cols - a.rank()
        vectors = [
            [sympy.Rational(c.numerator, c.denominator) for c in form.numeric_coeffs()]
            for form in report.basis
        ]
        for v in vectors:
            assert a * sympy.Matrix(v) == sympy.zeros(system.rows, 1)
        if vectors:
            assert sympy.Matrix(vectors).rank() == report.raw_count


# ---------------------------------------------------------------------------
# J, Jacobi residuals, NULL(J) and Casimirs


HAMILTONIAN_MODELS = hamiltonian_models()


def to_sympy(poly):
    names = poly.table.names
    total = sympy.Integer(0)
    for mono, c in poly.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for i, k in enumerate(mono):
            if k:
                term *= sympy.Symbol(names[i]) ** k
        total += term
    return total


def spec_to_sympy(spec):
    c = sympy.Rational(spec.coeff.numerator, spec.coeff.denominator)
    return c * sympy.Symbol(spec.symbol) if spec.is_symbolic else c


def sympy_J(g):
    """J from the gyrostat formula: [[0, -c, p*x_m2 + b], [c, 0, q*x_m1 - a], skew]."""
    x = sympy.symbols(f"x1:{g.modes + 1}")
    J = sympy.zeros(g.modes, g.modes)
    for gyro in g.gyrostats:
        m1, m2, m3 = (m - 1 for m in gyro.modes)
        a, b, c, p, q = (spec_to_sympy(gyro.param(letter)) for letter in "abcpq")
        for i, j, entry in ((m1, m2, -c), (m1, m3, p * x[m2] + b), (m2, m3, q * x[m1] - a)):
            J[i, j] += entry
            J[j, i] -= entry
    return J, x


def is_zero(expr) -> bool:
    return sympy.expand(expr) == 0


@pytest.mark.parametrize("name", HAMILTONIAN_MODELS)
def test_J_and_jacobi_residuals_match_sympy(name):
    g = HAMILTONIAN_MODELS[name]
    J, x = sympy_J(g)
    M = g.modes
    ours = build_J(g)
    assert all(is_zero(to_sympy(ours[i, j]) - J[i, j]) for i in range(M) for j in range(M))
    field = assemble_field(g).components
    assert all(is_zero(got - to_sympy(want)) for got, want in zip(J * sympy.Matrix(x), field))
    report = jacobi(ours)
    aggregate = sympy.Integer(0)
    for triple in itertools.combinations(range(M), 3):
        i, j, k = triple
        residual = sum(
            J[i, m] * sympy.diff(J[j, k], x[m])
            + J[j, m] * sympy.diff(J[k, i], x[m])
            + J[k, m] * sympy.diff(J[i, j], x[m])
            for m in range(M)
        )
        aggregate += residual
        got = report.residuals.get(tuple(t + 1 for t in triple))
        assert is_zero(residual - (to_sympy(got) if got is not None else 0)), triple
    assert is_zero(aggregate - to_sympy(report.aggregate))


# plus subclasses pinned as golden reports: two odd ones of corank 1, and
# two of nullity 2 and 3, whose kernel vectors are the sub-Pfaffians of
# P + {j} for the pivot columns P of the elimination; and unconstrained odd
# members, whose kernel comes from the sub-Pfaffians of all of J
# (unconstrained, dense1 and dense2 are one model)
NULLSPACE_MODELS = {
    **HAMILTONIAN_MODELS,
    "model4_c1c2c3": builtin_model("model4").zeroed(["c1", "c2", "c3"]),
    "model3_p3q3": builtin_model("model3").zeroed(["p3", "q3"]),
    "model5_b3p3": builtin_model("model5").zeroed(["b3", "p3"]),
    "model2_c1a2q2": builtin_model("model2").zeroed(["c1", "a2", "q2"]),
    **{f"sparse{K}_free": member("sparse", K, False) for K in (2, 3)},
    **{f"dense{K}_free": member("dense1", K, False) for K in (3, 5)},
}


def is_primitive(entries) -> bool:
    """Is the gcd of the nonzero entries over the integers 1?"""
    gens = sorted(set().union(*(e.free_symbols for e in entries)), key=str) or [sympy.Dummy()]
    polys = sorted((sympy.Poly(e, *gens) for e in entries if e != 0), key=lambda p: len(p.terms()))
    g = polys[0]
    for p in polys[1:]:  # folded from the smallest
        if g.is_ground:
            break
        g = g.gcd(p)
    return g.is_ground and abs(g.LC()) == 1


@pytest.mark.parametrize("name", NULLSPACE_MODELS)
def test_nullspace_and_casimirs_match_sympy(name):
    g = NULLSPACE_MODELS[name]
    J, x = sympy_J(g)
    cs = casimirs(g)
    rng = random.Random(20251)
    point = {
        s: sympy.Rational(rng.randrange(1, 10**6), rng.randrange(1, 10**3))
        for s in sorted(J.free_symbols, key=str)
    }
    assert len(cs.nullspace_basis) == g.modes - J.subs(point).rank()
    vectors = [sympy.Matrix([to_sympy(v) for v in vec]) for vec in cs.nullspace_basis]
    for v in vectors:
        assert all(is_zero(e) for e in J * v)
        assert is_primitive(v)
    for form in cs.casimirs:
        value = to_sympy(form.value_poly())
        grad = [sympy.diff(value, xi) for xi in x]
        assert any(
            all(is_zero(grad[i] * v[j] - grad[j] * v[i]) for i in range(g.modes) for j in range(i))
            for v in vectors
        ), form


def test_poly_gcd_matches_sympy_on_products_with_a_common_factor():
    table = model_table(3, 2)
    names = ("x1", "x2", "x3", "a1", "b1", "c2", "p2")
    rng = random.Random(11)

    def random_poly(terms):
        p = table.zero()
        for _ in range(terms):
            term = table.const(Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)))
            for _ in range(rng.randrange(3)):
                term = term * table.var(rng.choice(names))
            p = p + term
        return p

    def check(a, b):
        got, want = to_sympy(poly_gcd(a, b)), sympy.gcd(to_sympy(a), to_sympy(b))
        assert sympy.cancel(got / want).is_Rational, (str(a), str(b))

    checked = monomials = 0
    for _ in range(40):
        common = random_poly(rng.randrange(1, 4))
        a = random_poly(rng.randrange(1, 5)) * common
        b = random_poly(rng.randrange(1, 5)) * common
        if not (a and b):
            continue
        check(a, b)
        checked += 1
        # a monomial operand: one term of a times a random term, either order
        mono, coef = next(iter(a.terms.items()))
        term = Poly(table, {mono: coef}) * random_poly(1)
        if term:
            check(term, b)
            check(b, term)
            monomials += 1
    assert checked >= 30 and monomials >= 20
