"""Acceptance suite: one test per criterion, each ending in a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every tolerance is frozen here; nothing is calibrated at runtime.
"""

import math
import random
from fractions import Fraction

from glomkit.exactmath import poly_proportional, proportional
from glomkit.hamiltonian import build_J, casimirs, jacobi
from glomkit.hierarchy import (
    HierarchySpec,
    check_recurrence,
    hierarchy_report,
    incremental_condition,
    member,
)
from glomkit.invariants import (
    basis_contains,
    count_invariants,
    enumerate_subclasses,
    monotonicity_check,
    span_rank,
    sparse_feedback_free,
    verify_conserved,
)
from glomkit.models import (
    ParamSpec,
    builtin_model,
    find_sign_symmetries,
    instantiate,
    no_linear_feedback,
)
from glomkit.simulate import SimConfig, integrate

from helpers import (
    criterion_11_fixtures,
    map_signs,
    parse,
    parse_vector,
    sparse_normal_form_numeric,
    sparse_normal_form_scaled,
)

# Numerical conservation tolerance, frozen after a calibration run of the
# reference orbit (observed drift ~1e-11 at t_end=50, dt=1e-3).
DRIFT_TOLERANCE = 1e-8


def ok(n: int, text: str) -> None:
    print(f"criterion {n:2d} ({text}): PASS")


def exact_values(g, seed: int, lo: int = 2, hi: int = 50) -> dict[str, Fraction]:
    rng = random.Random(seed)
    return {name: Fraction(rng.randrange(lo, hi)) for name in g.free_symbols()}


def test_criterion_1_invariant_count_table():
    """Counts for the four reference models, general and feedback-free."""
    expected = {
        "single": (2, 2),
        "model1": (1, 3),
        "model2": (2, 3),
        "model3": (1, 2),
    }
    for name, (general, feedback_free) in expected.items():
        g = builtin_model("sparse", 1) if name == "single" else builtin_model(name)
        rep = count_invariants(g, seed=7)
        rep_ff = count_invariants(no_linear_feedback(g), seed=7)
        assert rep.independent_count == general, name
        assert rep_ff.independent_count == feedback_free, name
        # raw nullspace dimensions: identical except for the feedback-free
        # model1, where a linear invariant duplicates a quadratic one
        assert rep.raw_count == general, name
        expected_raw_ff = 4 if name == "model1" else feedback_free
        assert rep_ff.raw_count == expected_raw_ff, name
    ok(1, "invariant counts for the four reference models")


def test_criterion_2_model1_subclass_enumeration():
    table = enumerate_subclasses(builtin_model("model1"), ["b1", "c1", "a2", "b2"], seed=11)
    by_mask_ind = {mask: ind for mask, _, ind in table.rows}
    by_mask_raw = {mask: raw for mask, raw, _ in table.rows}
    assert by_mask_ind["0000"] == 3
    two = {"0001", "0010", "0100", "0101", "1000", "1010"}
    assert {mask for mask, ind in by_mask_ind.items() if ind == 2} == two
    one = set(by_mask_ind) - two - {"0000"}
    assert len(one) == 9 and all(by_mask_ind[m] == 1 for m in one)
    # raw counts agree everywhere except the fully degenerate subclass
    assert by_mask_raw["0000"] == 4
    assert all(by_mask_raw[m] == by_mask_ind[m] for m in set(by_mask_ind) - {"0000"})
    ok(2, "16-subclass enumeration of the four-mode model")


def test_criterion_3_model2_subclasses():
    table = enumerate_subclasses(builtin_model("model2"), ["c1", "a2"], seed=11)
    assert {mask: ind for mask, _, ind in table.rows} == {"00": 3, "01": 2, "10": 2, "11": 2}
    ok(3, "only c1 = a2 = 0 gives a third invariant in the chain model")


def test_criterion_4_sparse_family():
    # K+1 invariants for K = 1..6
    for K in range(1, 7):
        rep = count_invariants(sparse_feedback_free(K), seed=3)
        assert rep.raw_count == K + 1, K
        assert rep.independent_count == K + 1, K
    # closed forms lie in the computed span at 3 random parameter points
    for K in range(1, 5):
        g = sparse_feedback_free(K)
        for point_seed in (101, 202, 303):
            rng = random.Random(point_seed * K)
            p = [Fraction(rng.randrange(1, 30)) for _ in range(K)]
            q = [Fraction(rng.randrange(1, 30)) for _ in range(K)]
            exact = g.with_params(
                {f"p{k}": ParamSpec.exact(p[k - 1]) for k in range(1, K + 1)}
                | {f"q{k}": ParamSpec.exact(q[k - 1]) for k in range(1, K + 1)}
            )
            rep = count_invariants(exact, seed=9)
            for m in range(1, K + 2):
                form = sparse_normal_form_numeric(K, m, p, q, exact.var_table)
                assert verify_conserved(exact, form), (K, m)
                assert basis_contains(rep.basis, form), (K, m)
    # the unit-weight sum of the normal forms is the energy, symbolically
    for K in range(1, 5):
        g = sparse_feedback_free(K)
        table = g.var_table
        total = table.zero()
        for m in range(1, K + 2):
            total = total + sparse_normal_form_scaled(K, m, table)
        p_all = table.const(1)
        for k in range(1, K + 1):
            p_all = p_all * table.var(f"p{k}")
        energy = table.zero()
        for i in range(1, 2 * K + 2):
            energy = energy + table.x(i) ** 2
        assert total == p_all * energy, K
    ok(4, "sparse feedback-free family: K+1 invariants and closed forms")


def test_criterion_5_jacobi_branches():
    # chain model: Hamiltonian iff q2 = 0
    m2 = builtin_model("model2")
    assert not jacobi(build_J(m2)).is_hamiltonian
    constrained = jacobi(build_J(m2.zeroed(["q2"])))
    assert constrained.is_hamiltonian and constrained.strict_jacobi
    # four-mode model branches
    m1 = builtin_model("model1")
    assert not jacobi(build_J(m1)).is_hamiltonian
    for names in (["p1", "b1", "c1"], ["p2", "c1", "b2"]):
        rep = jacobi(build_J(m1.zeroed(names)))
        assert rep.is_hamiltonian and rep.strict_jacobi, names
    # three-gyrostat branch: p1 = p2 = q1, p3 = q3 = -q2
    m3 = builtin_model("model3").with_params(
        {
            "p2": ParamSpec.scaled("p1", 1),
            "q1": ParamSpec.scaled("p1", 1),
            "p3": ParamSpec.scaled("q2", -1),
            "q3": ParamSpec.scaled("q2", -1),
        }
    )
    rep3 = jacobi(build_J(m3))
    assert rep3.is_hamiltonian
    assert rep3.strict_divergence  # aggregate passes, one triple does not
    # seven-mode coupled model: generic case fails
    assert not jacobi(build_J(builtin_model("model4"))).is_hamiltonian
    ok(5, "Jacobi branch verification across the four models")


def test_criterion_6_casimir_reproduction():
    # single gyrostat
    g1 = builtin_model("sparse", 1)
    cs1 = casimirs(g1)
    assert proportional(
        cs1.gradients()[0], parse_vector(g1.var_table, ["a1 - q1*x1", "b1 + p1*x2", "c1"])
    )
    # partial-feedback branch of the four-mode model: exactly one Casimir
    gb = builtin_model("model1").zeroed(["p2", "c1", "b2"])
    csb = casimirs(gb)
    assert len(csb.casimirs) == 1
    assert proportional(
        csb.gradients()[0],
        parse_vector(gb.var_table, ["a1 + c2 - q1*x1", "b1 + p1*x2", "0", "0"]),
    )
    # constrained chain model: the printed five-component gradient
    g2 = builtin_model("model2").zeroed(["q2"])
    cs2 = casimirs(g2)
    assert len(cs2.casimirs) == 1
    assert proportional(
        cs2.gradients()[0],
        parse_vector(
            g2.var_table,
            ["a2*(a1 - q1*x1)", "a2*(b1 + p1*x2)", "a2*c1", "c1*(b2 + p2*x4)", "c1*c2"],
        ),
    )
    # sparse hierarchy: one Casimir per member with the tabulated gradients
    sparse_grads = {
        1: ["a1 - q1*x1", "b1 + p1*x2", "c1"],
        2: ["a2*(a1 - q1*x1)", "a2*(b1 + p1*x2)", "a2*c1", "c1*(b2 + p2*x4)", "c1*c2"],
        3: [
            "a2*a3*(a1 - q1*x1)", "a2*a3*(b1 + p1*x2)", "a2*a3*c1",
            "a3*c1*(b2 + p2*x4)", "a3*c1*c2", "c1*c2*(b3 + p3*x6)", "c1*c2*c3",
        ],
        4: [
            "a2*a3*a4*(a1 - q1*x1)", "a2*a3*a4*(b1 + p1*x2)", "a2*a3*a4*c1",
            "a3*a4*c1*(b2 + p2*x4)", "a3*a4*c1*c2", "a4*c1*c2*(b3 + p3*x6)",
            "a4*c1*c2*c3", "c1*c2*c3*(b4 + p4*x8)", "c1*c2*c3*c4",
        ],
    }
    sparse_rep = hierarchy_report(HierarchySpec("sparse", 4))
    assert sparse_rep.casimir_counts() == [1, 1, 1, 1]
    for m in sparse_rep.members:
        expected = parse_vector(member("sparse", m.K).var_table, sparse_grads[m.K])
        assert proportional(m.casimir_set.gradients()[0], expected), m.K
    # dense hierarchies: alternating 1, 0, 1, 0
    for family in ("dense1", "dense2"):
        assert hierarchy_report(HierarchySpec(family, 4)).casimir_counts() == [1, 0, 1, 0]
    # coupled hierarchy: counts 1, 1, 2, 0, 0 and gradients at K = 1, 2, 3
    coupled = hierarchy_report(HierarchySpec("model5", 5))
    assert coupled.casimir_counts() == [1, 1, 2, 0, 0]
    t1 = member("model5", 1).var_table
    assert proportional(
        coupled.members[0].casimir_set.gradients()[0],
        parse_vector(t1, ["a1", "a1 + p1*x2", "a1"]),
    )
    k2_grad = ["a1*a2", "a2*(a1 + p1*x2)", "a1*a2", "-a1*(a2 - p2*x4)", "-a1*a2"]
    t2 = member("model5", 2).var_table
    assert proportional(coupled.members[1].casimir_set.gradients()[0], parse_vector(t2, k2_grad))
    t3 = member("model5", 3).var_table
    k3 = coupled.members[2].casimir_set.gradients()
    assert any(proportional(g, parse_vector(t3, k2_grad + ["0", "0", "0"])) for g in k3)
    assert any(
        proportional(g, parse_vector(t3, ["0"] * 5 + ["a3 - q3*x6", "b3", "c3"])) for g in k3
    )
    ok(6, "Casimir gradients across models and hierarchies")


def test_criterion_7_incremental_recurrence():
    expected = {
        2: "q2*(q1*x1 + p1*x2 + b1 - a1)",
        3: "q3*(q2*x3 + p2*x4 + b2 - a2)",
        4: "q4*(q3*x5 + p3*x6 + b3 - a3)",
    }
    for K, text in expected.items():
        cond = incremental_condition("sparse", K)
        want = parse(member("sparse", K, constrained=False).var_table, text)
        assert poly_proportional(cond, want), K
    assert check_recurrence("sparse", 4)
    assert check_recurrence("dense1", 4)
    assert check_recurrence("dense2", 4)
    assert not check_recurrence("model5", 5)
    ok(7, "incremental conditions recur for nested families only")


def test_criterion_8_degeneracy_dedup():
    g = builtin_model("model1").zeroed(["p1", "b1", "c1"])
    rep = count_invariants(g, seed=3)
    assert rep.raw_count == 4
    assert rep.independent_count == 3
    ok(8, "frozen-mode model: raw 4, functionally independent 3")


def test_criterion_9_monotonicity_campaign():
    rng = random.Random(2024)
    models = [builtin_model(n) for n in ("model1", "model2", "model3")]
    for draw in range(200):
        g = rng.choice(models)
        base = rng.sample(g.generic_param_names(), rng.randrange(0, 4))
        shaped = g.zeroed(base)
        remaining = shaped.generic_param_names()
        extra = rng.sample(remaining, rng.randrange(0, min(5, len(remaining)) + 1))
        assert monotonicity_check(shaped, extra, seed=rng.randrange(1 << 30)), (draw, base, extra)
    ok(9, "200-draw zero-more-parameters monotonicity campaign")


def test_criterion_10_symmetry_suite():
    cases = []
    euler = builtin_model("euler")
    syms_euler = find_sign_symmetries(euler)
    assert len(syms_euler) == 3
    cases.append((euler, syms_euler))
    chain_ff = no_linear_feedback(builtin_model("model2"))
    syms_chain = find_sign_symmetries(chain_ff)
    assert len(syms_chain) == 7
    cases.append((chain_ff, syms_chain))
    for g, syms in cases:
        values = exact_values(g, seed=55)
        exact = instantiate(g, values)
        basis = list(count_invariants(exact, seed=1).basis)
        base_rank = span_rank(basis)
        for s in syms:
            mapped = [map_signs(form, s.signs) for form in basis]
            assert span_rank(basis + mapped) == base_rank, s.signs
    ok(10, "sign symmetries: counts 3 and 7, invariant span closed")


def test_criterion_11_numerical_conservation():
    fixtures = criterion_11_fixtures()
    assert len(fixtures) == 10
    for i, (tag, g, values, tracked) in enumerate(fixtures):
        assert tracked, tag
        cfg = SimConfig(t_end=50.0, dt=1e-3, param_assignment=values, seed=100 + i)
        rep = integrate(g, cfg, tracked)
        worst = rep.worst_relative_drift()
        assert worst <= DRIFT_TOLERANCE, (tag, worst)
    # convergence-order check on the reference orbit
    euler = builtin_model("euler")
    assign = {"p1": Fraction(1), "q1": Fraction(1)}
    x0 = (0.3, 0.4, 0.5)

    def final(dt):
        cfg = SimConfig(t_end=10.0, dt=dt, param_assignment=assign, initial_state=x0)
        return integrate(euler, cfg, []).final_state

    ref = final(0.0005)
    e_coarse = max(abs(a - b) for a, b in zip(final(0.04), ref))
    e_fine = max(abs(a - b) for a, b in zip(final(0.02), ref))
    ratio = math.log2(e_coarse / e_fine)
    assert 3.5 <= ratio <= 4.5, ratio
    ok(11, "drift <= 1e-8 over ten instantiations; RK4 order confirmed")


def test_criterion_12_cross_layer_consistency():
    hamiltonian_fixtures = [
        ("single", builtin_model("sparse", 1)),
        ("model1-frozen", builtin_model("model1").zeroed(["p1", "b1", "c1"])),
        ("model1-branch", builtin_model("model1").zeroed(["p2", "c1", "b2"])),
        ("model2-constrained", builtin_model("model2").zeroed(["q2"])),
        ("sparse-K2", member("sparse", 2)),
        ("sparse-K3", member("sparse", 3)),
        ("dense1-K3", member("dense1", 3)),
        ("model5-K2", member("model5", 2)),
        ("model5-K3", member("model5", 3)),
    ]
    for tag, g in hamiltonian_fixtures:
        assert jacobi(build_J(g)).is_hamiltonian, tag
        for point in (1, 2, 3):
            values = exact_values(g, seed=900 + point)
            exact = instantiate(g, values)
            basis = count_invariants(exact, seed=point).basis
            cs = casimirs(exact)
            assert cs.casimirs, tag
            for form in cs.casimirs:
                assert basis_contains(basis, form), (tag, point)
    ok(12, "every Casimir lies in the invariant-basis span")
