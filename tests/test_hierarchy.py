import itertools

import pytest

from glomkit.errors import ContractViolation, EnergyViolation
from glomkit.exactmath import linalg, poly_proportional, proportional
from glomkit.exactmath.poly import normalized_vector
from glomkit.hierarchy import (
    FAMILY_MAX_K,
    HierarchySpec,
    check_recurrence,
    family_triples,
    generate,
    hierarchy_report,
    incremental_condition,
    incremental_jacobi,
    member,
    projection_consistency,
)
from glomkit.hamiltonian import _superpose, build_J, jacobi
from glomkit.models import Glom, Gyrostat, ParamSpec, assemble_field, generic_model

from helpers import (
    FAMILY_TOP_K,
    check_recurrence_reference,
    family_constraints_reference,
    incremental_condition_reference,
    incremental_jacobi_reference,
    parse,
    parse_vector,
    projects_onto_reference,
    triple_residual as bilinear_residual,
)

# gradients of the single Casimir of the sparse constrained family
SPARSE_GRADIENTS = {
    1: ["a1 - q1*x1", "b1 + p1*x2", "c1"],
    2: ["a2*(a1 - q1*x1)", "a2*(b1 + p1*x2)", "a2*c1", "c1*(b2 + p2*x4)", "c1*c2"],
    3: [
        "a2*a3*(a1 - q1*x1)",
        "a2*a3*(b1 + p1*x2)",
        "a2*a3*c1",
        "a3*c1*(b2 + p2*x4)",
        "a3*c1*c2",
        "c1*c2*(b3 + p3*x6)",
        "c1*c2*c3",
    ],
    4: [
        "a2*a3*a4*(a1 - q1*x1)",
        "a2*a3*a4*(b1 + p1*x2)",
        "a2*a3*a4*c1",
        "a3*a4*c1*(b2 + p2*x4)",
        "a3*a4*c1*c2",
        "a4*c1*c2*(b3 + p3*x6)",
        "a4*c1*c2*c3",
        "c1*c2*c3*(b4 + p4*x8)",
        "c1*c2*c3*c4",
    ],
}

DENSE1_GRADIENTS = {
    1: ["a1 - q1*x1", "b1 + p1*x2", "c1"],
    3: [
        "a3*(a1 + c2 - q1*x1)",
        "a3*(b1 + p1*x2)",
        "a3*c1",
        "c1*(b3 + p3*x4)",
        "c1*(a2 + c3)",
    ],
}

DENSE2_GRADIENTS = {
    1: ["a1 - q1*x1", "0", "c1"],
    3: ["a3*(a1 + c2 - q1*x1)", "0", "a3*c1", "0", "c1*(a2 + c3)"],
}

COUPLED_GRADIENTS = {
    1: ["a1", "a1 + p1*x2", "a1"],
    2: ["a1*a2", "a2*(a1 + p1*x2)", "a1*a2", "-a1*(a2 - p2*x4)", "-a1*a2"],
}
COUPLED_K3_SECOND = ["0", "0", "0", "0", "0", "a3 - q3*x6", "b3", "c3"]

SPARSE_INCREMENTAL = {
    2: "q2*(q1*x1 + p1*x2 + b1 - a1)",
    3: "q3*(q2*x3 + p2*x4 + b2 - a2)",
    4: "q4*(q3*x5 + p3*x6 + b3 - a3)",
}

DENSE_INCREMENTAL = {
    2: "p1*p2*(x2 - x3) + b1*p2 - b2*p1 - q2*c1",
    3: "p2*p3*(x3 - x4) + b2*p3 - b3*p2 + q3*(q1*x1 + p1*x2 + b1 - a1 - c2)",
    4: "p3*p4*(x4 - x5) + b3*p4 - b4*p3 + q4*(q2*x2 + p2*x3 + b2 - a2 - c3)",
}

MODEL4_INCREMENTAL_K3 = (
    "-q1*p3*x6 + q1*(c3 - b3) - q2*p3*x6 + (c3 - b3)*q2"
    " - q3*p1*x2 - q3*p2*x4 + q3*(c1 - b1 + c2 - b2)"
)

# the constrained sparse K=2 member
SPARSE_K2_FIELD = [
    "p1*x2*x3 + b1*x3 - c1*x2",
    "q1*x3*x1 + c1*x1 - a1*x3",
    "-(p1+q1)*x1*x2 + a1*x2 - b1*x1 + p2*x4*x5 + b2*x5 - c2*x4",
    "c2*x3 - a2*x5",
    "-p2*x3*x4 + a2*x4 - b2*x3",
]

# the unconstrained dense K=3 member
DENSE_K3_FIELD = [
    "p1*x2*x3 + b1*x3 - c1*x2",
    "q1*x3*x1 + c1*x1 - a1*x3 + p2*x3*x4 + b2*x4 - c2*x3",
    "-(p1+q1)*x1*x2 + a1*x2 - b1*x1 + q2*x4*x2 + c2*x2 - a2*x4 + p3*x4*x5 + b3*x5 - c3*x4",
    "-(p2+q2)*x2*x3 + a2*x3 - b2*x2 + q3*x5*x3 + c3*x3 - a3*x5",
    "-(p3+q3)*x3*x4 + a3*x4 - b3*x3",
]


def test_generate_shapes():
    sparse = generate(HierarchySpec("sparse", 3))
    assert [g.modes for g in sparse] == [3, 5, 7]
    dense = generate(HierarchySpec("dense1", 3))
    assert [g.modes for g in dense] == [3, 4, 5]
    coupled = generate(HierarchySpec("model5", 5))
    assert [g.modes for g in coupled] == [3, 5, 8, 8, 8]
    assert [g.modes for g in generate(HierarchySpec("model4", 3))] == [3, 5, 7]


def test_generate_caps_coupled_families():
    with pytest.raises(ContractViolation):
        generate(HierarchySpec("model4", 4))
    with pytest.raises(ContractViolation):
        generate(HierarchySpec("model5", 6))


@pytest.mark.parametrize("family", ["sparse", "dense1", "dense2", "model4", "model5"])
def test_member_refuses_k_below_one(family):
    for K in (0, -1):
        for constrained in (True, False):
            with pytest.raises(ContractViolation, match="^K must be at least 1$"):
                member(family, K, constrained)
        with pytest.raises(ContractViolation, match="^K must be at least 1$"):
            HierarchySpec(family, K)


@pytest.mark.parametrize("family, cap", [("model4", 3), ("model5", 5)])
def test_member_refuses_k_past_the_cap(family, cap):
    assert member(family, cap).K == cap
    for constrained in (True, False):
        with pytest.raises(ContractViolation, match=f"^family {family} has at most {cap} gyrostats$"):
            member(family, cap + 1, constrained)


def test_sparse_constrained_member_matches_printed_model():
    g = member("sparse", 2)
    field = assemble_field(g)
    assert list(field.components) == parse_vector(g.var_table, SPARSE_K2_FIELD)


def test_dense_unconstrained_member_matches_printed_model():
    g = member("dense1", 3, constrained=False)
    field = assemble_field(g)
    assert list(field.components) == parse_vector(g.var_table, DENSE_K3_FIELD)


@pytest.mark.parametrize("family", list(FAMILY_TOP_K))
def test_member_matches_the_whole_member_constraints(family):
    # each gyrostat carries its own constraints; the reference builds the
    # generic member and substitutes the constraints spelled for all of it
    for K in range(1, FAMILY_MAX_K.get(family, 20) + 1):
        base = generic_model(family_triples(family, K))
        for constrained in (False, True):
            expected = base.with_params(family_constraints_reference(family, K)) if constrained else base
            g = member(family, K, constrained)
            assert g == expected, (family, K, constrained)
            assert g.var_table is expected.var_table


@pytest.mark.parametrize("family", list(FAMILY_TOP_K))
def test_member_gyrostats_are_a_prefix_of_the_next_member(family):
    for K in range(1, FAMILY_MAX_K.get(family, 20)):
        for constrained in (False, True):
            small, big = member(family, K, constrained), member(family, K + 1, constrained)
            assert big.gyrostats[:K] == small.gyrostats, (family, K, constrained)


@pytest.mark.parametrize("family", list(FAMILY_TOP_K))
def test_member_builds_each_gyrostat_once(family, monkeypatch):
    # generic_gyrostat names the slots itself, so the model keeps every
    # gyrostat as built instead of rebuilding it to name placeholders
    built = []
    check = Gyrostat.__post_init__
    monkeypatch.setattr(Gyrostat, "__post_init__", lambda self: (built.append(self), check(self))[1])
    for K in range(1, FAMILY_MAX_K.get(family, 8) + 1):
        for constrained in (False, True):
            built.clear()
            g = member(family, K, constrained)
            assert len(built) == g.K == K, (family, K, constrained)
            assert all(a is b for a, b in zip(built, g.gyrostats)), (family, K, constrained)


def test_k1_member_is_single_gyrostat():
    for family in ("sparse", "dense1", "dense2", "model4", "model5"):
        g = member(family, 1)
        assert g.K == 1 and g.modes == 3


# ---------------------------------------------------------------------------
# incremental conditions


@pytest.mark.parametrize("K", [2, 3, 4])
def test_sparse_incremental_conditions(K):
    cond = incremental_condition("sparse", K)
    expected = parse(member("sparse", K, constrained=False).var_table, SPARSE_INCREMENTAL[K])
    assert poly_proportional(cond, expected)


@pytest.mark.parametrize("K", [2, 3, 4])
def test_dense_incremental_conditions(K):
    cond = incremental_condition("dense1", K)
    expected = parse(member("dense1", K, constrained=False).var_table, DENSE_INCREMENTAL[K])
    assert poly_proportional(cond, expected)


def test_model4_incremental_condition_k3():
    cond = incremental_condition("model4", 3)
    expected = parse(member("model4", 3, constrained=False).var_table, MODEL4_INCREMENTAL_K3)
    assert poly_proportional(cond, expected)


def test_model5_k3_condition_is_vacuous():
    assert incremental_condition("model5", 3).is_zero()


def test_incremental_requires_extension():
    with pytest.raises(ContractViolation):
        incremental_jacobi(member("sparse", 3), member("sparse", 1))
    with pytest.raises(ContractViolation):
        # dense2 zeroes p1 and b1, so its single gyrostat is not a prefix
        incremental_jacobi(member("sparse", 2), member("dense2", 1))


def test_incremental_refuses_energy_violation():
    # build_J's refusal, worded by check_energy
    one = ParamSpec.exact(1)
    small = member("sparse", 1)
    bad = Gyrostat((3, 4, 5), a=one, b=one, c=one, p=one, q=one, r_explicit=one)
    with pytest.raises(EnergyViolation, match="^gyrostat 2: p \\+ q \\+ r != 0"):
        incremental_jacobi(Glom(5, (*small.gyrostats, bad)), small)


def test_incremental_cross_terms_telescope():
    # an increment is the cross terms of the newest gyrostat against the
    # earlier ones: by bilinearity, and since a lone gyrostat's residual
    # vanishes, they are the full residual minus the previous member's
    for family, K_top in FAMILY_TOP_K.items():
        for constrained in (False, True):
            members = generate(HierarchySpec(family, K_top, constrained))
            for small, g in zip(members, members[1:]):
                table = g.var_table
                blocks = [_superpose(table, g.modes, [gy]) for gy in g.gyrostats]
                prev_J = _superpose(table, g.modes, g.gyrostats[:-1])
                new_J = blocks[-1]
                full_J = build_J(g)
                residuals = jacobi(full_J).residuals
                for r, s in itertools.product(range(g.modes), repeat=2):
                    # J is the entrywise sum of the single-gyrostat blocks
                    total = table.zero()
                    for b in blocks:
                        total = total + b[r, s]
                    assert total == full_J[r, s]
                cross_total = table.zero()
                for triple in itertools.combinations(range(g.modes), 3):
                    # per-gyrostat self terms vanish
                    assert not any(bilinear_residual(b, b, triple) for b in blocks)
                    full = bilinear_residual(full_J, full_J, triple)
                    key = tuple(t + 1 for t in triple)
                    assert full == residuals.get(key, table.zero())
                    cross = bilinear_residual(prev_J, new_J, triple) + bilinear_residual(
                        new_J, prev_J, triple
                    )
                    assert cross == full - bilinear_residual(prev_J, prev_J, triple)
                    cross_total = cross_total + cross
                assert incremental_jacobi(g, small).condition == cross_total
            # at the largest member, the cross terms over all pairs of blocks
            # add up to the full residual
            for triple in itertools.combinations(range(g.modes), 3):
                total = table.zero()
                for a, b in itertools.permutations(blocks, 2):
                    total = total + bilinear_residual(a, b, triple)
                assert total == bilinear_residual(full_J, full_J, triple)


def test_recurrence_flags():
    assert check_recurrence("sparse", 4)
    assert check_recurrence("dense1", 4)
    assert check_recurrence("dense2", 4)
    assert not check_recurrence("model5", 5)
    # k_max=3 gives the steps to K=2 and K=3 only, and the first pair
    # compared is K=3 against K=4: nothing is compared
    assert check_recurrence("model4", 3) is True
    with pytest.raises(ContractViolation, match="^family model4 has at most 3 gyrostats$"):
        check_recurrence("model4", 4)
    with pytest.raises(ContractViolation, match="^unknown family 'bogus'$"):
        check_recurrence("bogus", 3)


def test_pair_increments_match_the_two_aggregate_reference():
    # each step sums the aggregates of the new gyrostat's mode-sharing
    # pairs; the reference differences two whole-member aggregates
    for family in ("sparse", "dense1", "dense2", "model4", "model5"):
        top = FAMILY_MAX_K.get(family, 12)
        for K in range(3, top + 1):
            assert check_recurrence(family, K) == check_recurrence_reference(family, K), (family, K)
        for K in range(2, min(top, 8) + 1):
            assert incremental_condition(family, K) == incremental_condition_reference(family, K)
            for constrained in (False, True):
                g, small = (member(family, k, constrained) for k in (K, K - 1))
                assert incremental_jacobi(g, small).condition == incremental_jacobi_reference(g, small)


# ---------------------------------------------------------------------------
# reports: Casimir structure along the hierarchies


def test_sparse_hierarchy_casimirs():
    rep = hierarchy_report(HierarchySpec("sparse", 4))
    assert rep.casimir_counts() == [1, 1, 1, 1]
    assert rep.all_hamiltonian()
    for m, g in zip(rep.members, generate(HierarchySpec("sparse", 4))):
        assert m.jacobi == jacobi(build_J(g))
        expected = parse_vector(
            member("sparse", m.K).var_table, SPARSE_GRADIENTS[m.K]
        )
        assert proportional(m.casimir_set.gradients()[0], expected)
    assert [m.projection_consistent for m in rep.members] == [None, True, True, True]


@pytest.mark.parametrize("family,grads", [("dense1", DENSE1_GRADIENTS), ("dense2", DENSE2_GRADIENTS)])
def test_dense_hierarchy_parity(family, grads):
    rep = hierarchy_report(HierarchySpec(family, 4))
    assert rep.casimir_counts() == [1, 0, 1, 0]
    assert rep.all_hamiltonian()
    for m in rep.members:
        if m.K in grads:
            expected = parse_vector(member(family, m.K).var_table, grads[m.K])
            assert proportional(m.casimir_set.gradients()[0], expected)
    assert rep.members[2].projection_consistent


def test_coupled_hierarchy_casimirs():
    rep = hierarchy_report(HierarchySpec("model5", 5))
    assert rep.casimir_counts() == [1, 1, 2, 0, 0]
    assert rep.all_hamiltonian()
    for K in (1, 2):
        expected = parse_vector(member("model5", K).var_table, COUPLED_GRADIENTS[K])
        assert proportional(rep.members[K - 1].casimir_set.gradients()[0], expected)
    k3 = rep.members[2].casimir_set.gradients()
    table3 = member("model5", 3).var_table
    padded_k2 = parse_vector(table3, COUPLED_GRADIENTS[2] + ["0", "0", "0"])
    second = parse_vector(table3, COUPLED_K3_SECOND)
    assert any(proportional(g, padded_k2) for g in k3)
    assert any(proportional(g, second) for g in k3)
    assert rep.members[1].projection_consistent
    assert rep.members[2].projection_consistent


def test_model4_family_loses_casimirs_after_k1():
    rep = hierarchy_report(HierarchySpec("model4", 3))
    assert rep.casimir_counts() == [1, 0, 0]
    assert rep.all_hamiltonian()
    # the K=2 nullspace vector exists but is not a gradient
    k2 = rep.members[1].casimir_set
    assert len(k2.nullspace_basis) == 1
    assert k2.gradient_flags == (False,)
    table = member("model4", 2).var_table
    footnote = parse_vector(
        table,
        [
            "a2*(a1 - q1*x1)",
            "a2*(b1 + p1*x2)",
            "a2*c1",
            "b2*(a1 - q1*x1)",
            "b2*(a1 - q1*x1)",
        ],
    )
    assert proportional(list(k2.nullspace_basis[0]), footnote)


def test_every_constrained_member_is_hamiltonian():
    for family, k_max in (("sparse", 4), ("dense1", 4), ("dense2", 4), ("model4", 3), ("model5", 5)):
        for g in generate(HierarchySpec(family, k_max)):
            assert jacobi(build_J(g)).is_hamiltonian


def test_multiple_casimirs_have_independent_gradients():
    rep = hierarchy_report(HierarchySpec("model5", 3))
    grads = rep.members[2].casimir_set.gradients()
    assert len(grads) == 2
    assert not proportional(grads[0], grads[1])


# ---------------------------------------------------------------------------
# projection primitive


def test_projection_consistency_sparse():
    big = parse_vector(member("sparse", 3).var_table, SPARSE_GRADIENTS[3])
    small = parse_vector(member("sparse", 2).var_table, SPARSE_GRADIENTS[2])
    assert projection_consistency(big, small)


def test_projection_consistency_dense_needs_zeroing():
    big = parse_vector(member("dense1", 3).var_table, DENSE1_GRADIENTS[3])
    small = parse_vector(member("dense1", 1).var_table, DENSE1_GRADIENTS[1])
    assert not projection_consistency(big, small)
    assert projection_consistency(big, small, {"c2"})


def test_projection_consistency_identical_vectors():
    table = member("sparse", 1).var_table
    v = parse_vector(table, SPARSE_GRADIENTS[1])
    assert projection_consistency(v, v)


def test_projection_consistency_refuses_empty_vectors():
    v = parse_vector(member("sparse", 1).var_table, SPARSE_GRADIENTS[1])
    for big, small in (([], []), (v, [])):
        with pytest.raises(ContractViolation, match="^gradients must not be empty$"):
            projection_consistency(big, small)


@pytest.mark.parametrize(
    "family, K, constrained",
    [(f, K, c) for f, K in FAMILY_TOP_K.items() for c in (True, False)]
    + [("dense1", 12, True), ("dense2", 12, True)],
)
def test_one_zeroed_projection_test_matches_the_two_attempt_rule(family, K, constrained):
    # the report tests each pair once, with the non-factor absent parameters
    # zeroed; the reference tries the plain restriction first.  They agree
    # because every earlier gradient is primitive, the premise checked here
    rep = hierarchy_report(HierarchySpec(family, K, constrained))
    expected, last = [], None
    for m, g in zip(rep.members, generate(rep.spec)):
        flag = None
        for v in m.casimir_set.gradients():
            assert not linalg._gcd_all(p for p in v if p).total_degree(), (family, m.K)
            assert normalized_vector(v) == v, (family, m.K)
        if m.casimir_count and last is not None:
            small_g, small_cas = last
            absent = set(g.var_table.param_names()) - set(small_g.var_table.param_names())
            flag = all(
                any(projects_onto_reference(big, small, absent) for big in m.casimir_set.gradients())
                for small in small_cas.gradients()
            )
        expected.append(flag)
        if m.casimir_count:
            last = (g, m.casimir_set)
    assert [m.projection_consistent for m in rep.members] == expected
