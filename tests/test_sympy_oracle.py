"""Invariant counts and bases checked against sympy's exact linear algebra."""

import pytest

sympy = pytest.importorskip("sympy")

from glomkit.invariants import build_system, count_invariants
from glomkit.models import builtin_model, no_linear_feedback

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
