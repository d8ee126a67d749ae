"""Invariant counts and bases, J, its Jacobi residuals and nullspace, and
the Casimir gradients checked against sympy."""

import itertools
import random

import pytest

sympy = pytest.importorskip("sympy")

from glomkit.hamiltonian import build_J, casimirs, jacobi
from glomkit.hierarchy import member
from glomkit.invariants import build_system, count_invariants
from glomkit.models import ParamSpec, assemble_field, builtin_model, no_linear_feedback

MODELS = ("model1", "model2", "model3", "model4", "model5", "euler")


def sympy_rows(system, point):
    """The system as sympy rationals, each entry evaluated at the point."""
    names = system.matrix.table.names
    values = {name: sympy.Rational(v.numerator, v.denominator) for name, v in point.items()}
    rows = []
    for row in system.matrix.entries:
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


def hamiltonian_models():
    """model1-5, euler and the subclasses of acceptance criteria 5 and 6."""
    models = {name: builtin_model(name) for name in MODELS}
    models["model2_q2"] = builtin_model("model2").zeroed(["q2"])
    for names in (["p1", "b1", "c1"], ["p2", "c1", "b2"]):
        models["model1_" + "".join(names)] = builtin_model("model1").zeroed(names)
    models["model3_branch"] = builtin_model("model3").with_params(
        {
            "p2": ParamSpec.scaled("p1", 1),
            "q1": ParamSpec.scaled("p1", 1),
            "p3": ParamSpec.scaled("q2", -1),
            "q3": ParamSpec.scaled("q2", -1),
        }
    )
    for K in range(1, 5):
        models[f"sparse{K}"] = member("sparse", K)
    return models


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
    ours = build_J(g).matrix
    assert all(is_zero(to_sympy(ours[i, j]) - J[i, j]) for i in range(M) for j in range(M))
    field = assemble_field(g).components
    assert all(is_zero(got - to_sympy(want)) for got, want in zip(J * sympy.Matrix(x), field))
    report = jacobi(build_J(g))
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


@pytest.mark.parametrize("name", HAMILTONIAN_MODELS)
def test_nullspace_and_casimirs_match_sympy(name):
    g = HAMILTONIAN_MODELS[name]
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
    for form in cs.casimirs:
        value = to_sympy(form.value_poly())
        grad = [sympy.diff(value, xi) for xi in x]
        assert any(
            all(is_zero(grad[i] * v[j] - grad[j] * v[i]) for i in range(g.modes) for j in range(i))
            for v in vectors
        ), form
