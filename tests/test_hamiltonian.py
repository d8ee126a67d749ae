import random
from fractions import Fraction

import pytest

from glomkit.errors import ContractViolation, EnergyViolation
from glomkit.exactmath import Poly, poly_proportional, proportional
from glomkit.hamiltonian import build_J, casimirs, gyrostat_increment, is_gradient, jacobi
from glomkit.hierarchy import member
from glomkit.invariants import (
    QuadraticForm,
    basis_contains,
    count_invariants,
    verify_conserved,
)
from glomkit.models import Glom, Gyrostat, ParamSpec, assemble_field, builtin_model

from helpers import (
    FAMILY_TOP_K,
    dense_rows,
    is_gradient_reference,
    mul_vector,
    parse,
    parse_matrix,
    parse_vector,
    reference_models,
    state_degree,
)

SINGLE_J = [
    ["0", "-c1", "p1*x2 + b1"],
    ["c1", "0", "q1*x1 - a1"],
    ["-(p1*x2 + b1)", "-(q1*x1 - a1)", "0"],
]

MODEL1_J = [
    ["0", "-c1", "p1*x2 + b1", "0"],
    ["c1", "0", "q1*x1 - a1 - c2", "p2*x3 + b2"],
    ["-(p1*x2 + b1)", "-(q1*x1 - a1) + c2", "0", "q2*x2 - a2"],
    ["0", "-(p2*x3 + b2)", "-(q2*x2 - a2)", "0"],
]


def model3_hamiltonian_branch() -> Glom:
    return builtin_model("model3").with_params(
        {
            "p2": ParamSpec.scaled("p1", 1),
            "q1": ParamSpec.scaled("p1", 1),
            "p3": ParamSpec.scaled("q2", -1),
            "q3": ParamSpec.scaled("q2", -1),
        }
    )


def test_single_gyrostat_J_matches_printed_matrix():
    g = builtin_model("sparse", 1)
    J = build_J(g)
    assert dense_rows(J) == parse_matrix(g.var_table, SINGLE_J)


def test_model1_J_matches_printed_superposition():
    g = builtin_model("model1")
    J = build_J(g)
    assert dense_rows(J) == parse_matrix(g.var_table, MODEL1_J)


def test_J_times_x_recovers_field_and_skewness():
    # build_J does not re-check these identities, so they are proven here on
    # every kind of model the analysis runs on
    ex, gen = ParamSpec.exact, ParamSpec.generic
    exact_r = Glom(
        4,
        (
            Gyrostat((1, 2, 3), a=gen(), b=ex("1/2"), c=gen(), p=ex(1), q=ex(2), r_explicit=ex(-3)),
            Gyrostat((2, 3, 4), a=gen(), b=gen(), c=ex(0), p=ex("-1/3"), q=ex(0), r_explicit=ex("1/3")),
        ),
    )
    tied = builtin_model("model2").with_params(
        {"c2": ParamSpec.scaled("b2", 1), "a1": ParamSpec.scaled("q1", -2)}
    )
    models = [*reference_models().values(), builtin_model("model5_numeric"), exact_r, tied]
    models += [
        member(family, K, constrained)
        for family, k_top in FAMILY_TOP_K.items()
        for K in range(1, k_top + 1)
        for constrained in (True, False)
    ]
    for g in models:
        J = build_J(g)
        assert (J.rows, J.cols) == (g.modes, g.modes)
        jx = mul_vector(J, [g.var_table.x(i) for i in range(1, g.modes + 1)])
        assert jx == list(assemble_field(g).components)
        for i in range(g.modes):
            for j in range(g.modes):
                assert (J[i, j] + J[j, i]).is_zero()
                assert state_degree(J[i, j]) <= 1


def test_no_gyrostats_gives_zero_J():
    zero = ParamSpec.zero()
    g = Glom(3, (Gyrostat((1, 2, 3), a=zero, b=zero, c=zero, p=zero, q=zero),))
    assert not any(e for row in dense_rows(build_J(g)) for e in row)


def test_build_J_refuses_energy_violation():
    one = ParamSpec.exact(1)
    g = Glom(3, (Gyrostat((1, 2, 3), a=one, b=one, c=one, p=one, q=one, r_explicit=one),))
    with pytest.raises(EnergyViolation) as exc:
        build_J(g)
    assert str(exc.value) == (
        "gyrostat 1: p + q + r != 0; d/dt of the energy is not identically zero"
    )


# ---------------------------------------------------------------------------
# Jacobi condition


def test_single_gyrostat_always_hamiltonian():
    rep = jacobi(build_J(builtin_model("sparse", 1)))
    assert rep.is_hamiltonian and rep.strict_jacobi


def test_model2_hamiltonian_iff_q2_zero():
    g = builtin_model("model2")
    rep = jacobi(build_J(g))
    assert not rep.is_hamiltonian
    # conditions span q2*q1, q2*p1, q2*(b1 - a1)
    table = g.var_table
    expected = parse_vector(table, ["q1*q2", "p1*q2", "a1*q2 - b1*q2"])
    assert len(rep.constraint_polys) == 3
    for want in expected:
        assert any(poly_proportional(got, want) for got in rep.constraint_polys)
    constrained = jacobi(build_J(g.zeroed(["q2"])))
    assert constrained.is_hamiltonian and constrained.strict_jacobi


def test_model1_hamiltonian_branches():
    g = builtin_model("model1")
    assert not jacobi(build_J(g)).is_hamiltonian
    first = jacobi(build_J(g.zeroed(["p1", "b1", "c1"])))
    assert first.is_hamiltonian and first.strict_jacobi
    second = jacobi(build_J(g.zeroed(["p2", "c1", "b2"])))
    assert second.is_hamiltonian and second.strict_jacobi


def test_model3_branch_passes_aggregate_but_not_every_triple():
    rep = jacobi(build_J(model3_hamiltonian_branch()))
    assert rep.is_hamiltonian
    # the aggregate criterion is weaker than the per-triple identity here;
    # the divergence must be reported, not silently absorbed
    assert not rep.strict_jacobi
    assert rep.strict_divergence


def test_model4_generic_is_not_hamiltonian():
    assert not jacobi(build_J(builtin_model("model4"))).is_hamiltonian


def test_residual_triples_are_recorded():
    rep = jacobi(build_J(builtin_model("model2")))
    assert set(rep.residuals) == {(1, 4, 5), (2, 4, 5)}


# ---------------------------------------------------------------------------
# Casimirs


def test_single_gyrostat_casimir():
    g = builtin_model("sparse", 1)
    cs = casimirs(g)
    table = g.var_table
    assert cs.gradient_flags == (True,)
    expected_grad = parse_vector(table, ["a1 - q1*x1", "b1 + p1*x2", "c1"])
    assert proportional(list(cs.nullspace_basis[0]), expected_grad)
    expected_potential = parse(
        table, "-1/2*q1*x1^2 + 1/2*p1*x2^2 + a1*x1 + b1*x2 + c1*x3"
    )
    assert poly_proportional(cs.casimirs[0].value_poly(), expected_potential)
    assert not cs.advisory


def test_partial_feedback_branch_has_one_casimir_of_two_vectors():
    g = builtin_model("model1").zeroed(["p2", "c1", "b2"])
    cs = casimirs(g)
    assert len(cs.nullspace_basis) == 2
    assert sum(cs.gradient_flags) == 1
    table = g.var_table
    grad = parse_vector(table, ["a1 + c2 - q1*x1", "b1 + p1*x2", "0", "0"])
    assert proportional(cs.gradients()[0], grad)
    potential = parse(table, "-1/2*q1*x1^2 + 1/2*p1*x2^2 + (a1 + c2)*x1 + b1*x2")
    assert poly_proportional(cs.casimirs[0].value_poly(), potential)
    non_gradient = [v for v, ok in zip(cs.nullspace_basis, cs.gradient_flags) if not ok][0]
    assert proportional(list(non_gradient), parse_vector(table, ["q2*x2 - a2", "0", "0", "p1*x2 + b1"]))


def test_model2_constrained_casimir_gradient():
    g = builtin_model("model2").zeroed(["q2"])
    cs = casimirs(g)
    assert len(cs.casimirs) == 1
    expected = parse_vector(
        g.var_table,
        ["a2*(a1 - q1*x1)", "a2*(b1 + p1*x2)", "a2*c1", "c1*(b2 + p2*x4)", "c1*c2"],
    )
    assert proportional(cs.gradients()[0], expected)


def test_casimirs_conserved_and_annihilated():
    for g in (
        builtin_model("sparse", 1),
        builtin_model("model2").zeroed(["q2"]),
        builtin_model("model1").zeroed(["p2", "c1", "b2"]),
    ):
        J = build_J(g)
        field = assemble_field(g)
        cs = casimirs(g)
        for form in cs.casimirs:
            grad = form.gradient()
            assert all(e.is_zero() for e in mul_vector(J, grad))
            assert form.time_derivative(field).is_zero()


def test_advisory_casimirs_still_conserved():
    g = builtin_model("model4")  # not Hamiltonian, nullspace still meaningful
    cs = casimirs(g)
    assert cs.advisory
    field = assemble_field(g)
    J = build_J(g)
    for vec in cs.nullspace_basis:
        assert all(e.is_zero() for e in mul_vector(J, vec))
    for form in cs.casimirs:
        assert form.time_derivative(field).is_zero()


def test_from_gradient_recovers_gradient():
    g = builtin_model("model2").zeroed(["q2"])
    cs = casimirs(g)
    vec = list(cs.nullspace_basis[0])
    assert is_gradient(vec)
    form = QuadraticForm.from_gradient(vec)
    assert form.gradient() == vec
    # every form is read back from its own gradient, coefficient by coefficient
    for name in ("euler", "model1", "model2", "model4"):  # M = 3, 4, 5, 7
        g = builtin_model(name)
        table = g.var_table
        vec = [
            parse(table, f"{k}*a1 - 1/{k}*b{g.K}*c1 + 3") if k % 3 else table.zero()
            for k in range(1, g.modes * (g.modes + 3) // 2 + 1)
        ]
        form = QuadraticForm.from_coeff_vector(table, vec)
        read = QuadraticForm.from_gradient(form.gradient())
        assert read == form, name


def test_aggregate_sums_the_gyrostat_increments():
    # by bilinearity the aggregate condition is the sum over gyrostats of
    # their cross terms with the earlier ones sharing a mode
    models = list(reference_models().values())
    for family, top in FAMILY_TOP_K.items():
        models += [member(family, top, c) for c in (False, True)]
    for g in models:
        increments = [gyrostat_increment(g, K) for K in range(1, g.K + 1)]
        assert sum(increments, g.var_table.zero()) == jacobi(build_J(g)).aggregate


def test_is_gradient_pairs_the_derivative_terms():
    # the term-by-term test against the O(M^2) comparison of derivatives,
    # on kernel vectors and on gradients of random potentials, half of
    # them with one entry perturbed
    models = list(reference_models().values())
    for family, top in FAMILY_TOP_K.items():
        models += [member(family, K, c) for K in range(1, top + 1) for c in (False, True)]
    vectors = [list(v) for g in models for v in casimirs(g).nullspace_basis]
    kernel = len(vectors)
    rng = random.Random(5)
    table = member("dense1", 3, constrained=False).var_table
    M, width = table.state_count, len(table.names)

    def random_term(max_state_degree):
        exps = [0] * width
        for _ in range(rng.randint(1, max_state_degree)):
            exps[rng.randrange(M)] += 1
        if rng.random() < 0.5:
            exps[rng.randrange(M, width)] += 1
        return Poly(table, {table.pack(exps): Fraction(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 3))})

    for trial in range(200):
        potential = sum((random_term(4) for _ in range(rng.randint(1, 6))), table.zero())
        vector = [potential.diff(i) for i in range(M)]
        if trial % 2:
            i = rng.randrange(M)
            vector[i] = vector[i] + random_term(3)
        vectors.append(vector)
    flags = [is_gradient(v) for v in vectors]
    assert flags == [is_gradient_reference(v) for v in vectors]
    # both answers occur among the kernel vectors and the random ones
    assert 0 < sum(flags[:kernel]) < kernel
    assert 0 < sum(flags[kernel:]) < len(flags) - kernel


def test_from_gradient_refuses_state_degree_two():
    table = builtin_model("model2").var_table
    vec = parse_vector(table, ["x1*x2", "0", "0"])
    with pytest.raises(ContractViolation, match="not quadratic"):
        QuadraticForm.from_gradient(vec)


def test_odd_mode_models_have_nullspace_of_matching_parity():
    # skew matrices have even rank, so odd M forces dimension >= 1
    from glomkit.exactmath import nullspace_symbolic

    for name in ("model2", "model3", "model4"):
        g = builtin_model(name)
        assert g.modes % 2 == 1
        basis = nullspace_symbolic(build_J(g))
        assert len(basis) >= 1
        assert (g.modes - len(basis)) % 2 == 0


def test_casimirs_in_invariant_span_at_exact_points():
    rng = random.Random(31)
    g = builtin_model("model2").zeroed(["q2"])
    for _ in range(3):
        values = {
            n: ParamSpec.exact(Fraction(rng.randrange(2, 40))) for n in g.generic_param_names()
        }
        exact = g.with_params(values)
        report = count_invariants(exact, seed=13)
        for form in casimirs(exact).casimirs:
            assert verify_conserved(exact, form)
            assert basis_contains(report.basis, form)
