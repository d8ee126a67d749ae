import random
from fractions import Fraction

import pytest

from glomkit.errors import ContractViolation
from glomkit.exactmath import Poly, generic_rank, linalg
from glomkit.exactmath.linalg import GENERIC_TRIALS
from glomkit.invariants import (
    QuadraticForm,
    basis_contains,
    build_system,
    count_invariants,
    enumerate_subclasses,
    form_positions,
    monotonicity_check,
    span_rank,
    sparse_feedback_free,
    sparse_invariants,
    verify_conserved,
)
from glomkit.models import (
    Glom,
    Gyrostat,
    ParamSpec,
    assemble_field,
    builtin_model,
    find_sign_symmetries,
    no_linear_feedback,
)

from helpers import (
    map_signs,
    oracle_raw_count,
    parse_matrix,
    restricted,
    row_by_label,
    sparse_normal_form_numeric,
    unknown_labels,
)

D_F_COLUMNS_3 = ["d1", "d2", "d3", "f1", "f2", "f3"]

# the single-gyrostat system on (d, f), rows keyed by monomial; r1 = -(p1+q1)
SINGLE_SYSTEM_ROWS = {
    "x1*x2*x3": ["p1", "q1", "-(p1+q1)", "0", "0", "0"],
    "x1*x2": ["-c1", "c1", "0", "0", "0", "-(p1+q1)"],
    "x2*x3": ["0", "-a1", "a1", "p1", "0", "0"],
    "x1*x3": ["b1", "0", "-b1", "0", "q1", "0"],
    "x1": ["0", "0", "0", "0", "c1", "-b1"],
    "x2": ["0", "0", "0", "-c1", "0", "a1"],
    "x3": ["0", "0", "0", "b1", "-a1", "0"],
}

# the two-gyrostat chain model's system on (d, f); r_k = -(p_k+q_k)
MODEL2_SYSTEM_ROWS = {
    "x1*x2*x3": ["p1", "q1", "-(p1+q1)", "0", "0", "0", "0", "0", "0", "0"],
    "x1*x2": ["-c1", "c1", "0", "0", "0", "0", "0", "-(p1+q1)", "0", "0"],
    "x2*x3": ["0", "-a1", "a1", "0", "0", "p1", "0", "0", "0", "0"],
    "x1*x3": ["b1", "0", "-b1", "0", "0", "0", "q1", "0", "0", "0"],
    "x3*x4*x5": ["0", "0", "p2", "q2", "-(p2+q2)", "0", "0", "0", "0", "0"],
    "x3*x4": ["0", "0", "-c2", "c2", "0", "0", "0", "0", "0", "-(p2+q2)"],
    "x4*x5": ["0", "0", "0", "-a2", "a2", "0", "0", "p2", "0", "0"],
    "x3*x5": ["0", "0", "b2", "0", "-b2", "0", "0", "0", "q2", "0"],
    "x1": ["0", "0", "0", "0", "0", "0", "c1", "-b1", "0", "0"],
    "x2": ["0", "0", "0", "0", "0", "-c1", "0", "a1", "0", "0"],
    "x3": ["0", "0", "0", "0", "0", "b1", "-a1", "0", "c2", "-b2"],
    "x4": ["0", "0", "0", "0", "0", "0", "0", "-c2", "0", "a2"],
    "x5": ["0", "0", "0", "0", "0", "0", "0", "b2", "-a2", "0"],
}


def test_single_gyrostat_system_matches_printed_matrix():
    g = builtin_model("sparse", 1)
    sub = restricted(build_system(g), D_F_COLUMNS_3)
    assert sub.cols == 6 and sub.rows == 7
    table = g.var_table
    for label, exprs in SINGLE_SYSTEM_ROWS.items():
        assert list(row_by_label(sub, label)) == parse_matrix(table, [exprs])[0]


def test_model2_system_matches_printed_matrix():
    g = builtin_model("model2")
    cols = [f"d{i}" for i in range(1, 6)] + [f"f{i}" for i in range(1, 6)]
    sub = restricted(build_system(g), cols)
    assert sub.rows == 13 and sub.cols == 10
    table = g.var_table
    for label, exprs in MODEL2_SYSTEM_ROWS.items():
        assert list(row_by_label(sub, label)) == parse_matrix(table, [exprs])[0]


def test_zero_field_makes_every_candidate_invariant():
    zero = ParamSpec.zero()
    g = Glom(3, (Gyrostat((1, 2, 3), a=zero, b=zero, c=zero, p=zero, q=zero),))
    system = build_system(g)
    assert system.rows == 0
    report = count_invariants(g)
    assert report.raw_count == 3 * 6 // 2  # M(M+3)/2 candidates


def test_column_count_is_m_times_m_plus_3_over_2():
    for name, M in (("model1", 4), ("model2", 5)):
        assert build_system(builtin_model(name)).cols == M * (M + 3) // 2


def test_row_monomials_have_state_degree_at_most_three():
    for name in ("model1", "model2", "model3"):
        system = build_system(builtin_model(name))
        assert all(sum(mono) <= 3 for mono in system.row_monomials)


# ---------------------------------------------------------------------------
# counting


@pytest.mark.parametrize(
    "name,general,feedback_free",
    [("euler", 2, 2), ("model1", 1, 3), ("model2", 2, 3), ("model3", 1, 2)],
)
def test_invariant_counts_general_and_feedback_free(name, general, feedback_free):
    g = builtin_model("sparse", 1) if name == "euler" else builtin_model(name)
    assert count_invariants(g, seed=7).independent_count == general
    assert count_invariants(no_linear_feedback(g), seed=7).independent_count == feedback_free


def test_model1_feedback_free_raw_count_includes_degenerate_pair():
    # rows 1 and 4 of the feedback-free model are proportional, so a linear
    # invariant joins the three quadratic ones; its square is dependent
    report = count_invariants(no_linear_feedback(builtin_model("model1")), seed=7)
    assert (report.raw_count, report.independent_count) == (4, 3)


def test_frozen_mode_degeneracy_dedup():
    g = builtin_model("model1").zeroed(["p1", "b1", "c1"])
    report = count_invariants(g, seed=3)
    assert (report.raw_count, report.independent_count) == (4, 3)


def test_energy_always_in_basis_span():
    for name in ("model1", "model2", "model3"):
        report = count_invariants(builtin_model(name), seed=1)
        assert report.energy_included


def test_basis_members_conserved_at_exact_instantiation():
    rng = random.Random(5)
    for name in ("model1", "model2"):
        g = builtin_model(name)
        exact = g.with_params(
            {n: ParamSpec.exact(Fraction(rng.randrange(1, 20))) for n in g.generic_param_names()}
        )
        report = count_invariants(exact, seed=2)
        assert not report.generic
        for form in report.basis:
            assert verify_conserved(exact, form)


def test_raw_count_matches_point_evaluation_oracle():
    rng = random.Random(11)
    for name in ("model1", "euler"):
        g = builtin_model("sparse", 1) if name == "euler" else builtin_model(name)
        values = {n: ParamSpec.exact(Fraction(rng.randrange(1, 12))) for n in g.generic_param_names()}
        exact = g.with_params(values)
        report = count_invariants(exact, seed=6)
        assert report.raw_count == oracle_raw_count(exact, n_points=40, seed=rng.randrange(1000))


def test_count_survives_a_coefficient_divisible_by_the_modulus():
    # p1 = 2^61 - 1, a prime: a rank taken modulo it would see the p1 = 0
    # subclass, which has one invariant more
    g = builtin_model("euler").with_params({"p1": ParamSpec.exact(Fraction((1 << 61) - 1))})
    system = build_system(g)
    assert system.cols - generic_rank(system.matrix, seed=1) == 2
    for seed in range(4):
        report = count_invariants(g, seed=seed)
        exact = g.with_params({n: ParamSpec.exact(v) for n, v in report.param_point.items()})
        assert report.raw_count == oracle_raw_count(exact, n_points=40, seed=seed) == 2
        assert report.independent_count == 2
        for form in report.basis:
            assert verify_conserved(exact, form)


def test_one_elimination_of_the_system_per_trial(monkeypatch):
    # the basis comes from the best trial of generic_point, not from one more
    # elimination: model1's system is never of full column rank, so all
    # GENERIC_TRIALS points are tried; a numeric system is reduced once
    shapes = []
    real = linalg._pivot_rows

    def recording(rows):
        shapes.append((len(rows), len(rows[0])))
        return real(rows)

    monkeypatch.setattr(linalg, "_pivot_rows", recording)
    model1 = builtin_model("model1")
    numeric = model1.with_params(
        {n: ParamSpec.exact(Fraction(k + 2)) for k, n in enumerate(model1.generic_param_names())}
    )
    for g, eliminations in ((model1, GENERIC_TRIALS), (numeric, 1)):
        system = build_system(g)
        shapes.clear()
        count_invariants(g, seed=3)
        assert shapes.count((system.rows, system.cols)) == eliminations


def test_enumerate_rejects_a_repeated_name():
    with pytest.raises(ContractViolation, match="'b1'"):
        enumerate_subclasses(builtin_model("model1"), ["b1", "c1", "b1"], seed=0)


def test_system_columns_forms_and_labels_share_one_layout():
    for g in (builtin_model("model2"), builtin_model("sparse", 2)):
        table, M = g.var_table, g.modes
        system = build_system(g)
        field = assemble_field(g)
        labels = unknown_labels(M)
        n = len(form_positions(M))
        assert system.cols == len(labels) == n == M * (M + 3) // 2
        pad = (0,) * (len(table.names) - M)
        for s in range(n):
            unit = QuadraticForm.from_coeff_vector(table, [int(t == s) for t in range(n)])
            column = table.zero()
            for mono, row in zip(system.row_monomials, system.matrix.entries):
                column = column + row[s] * Poly(table, {mono + pad: 1})
            assert column == unit.time_derivative(field), labels[s]
            # the unit form is x_i^2/2, x_i*x_j or x_i, and its label names it
            ((mono, coeff),) = unit.value_poly().terms.items()
            modes = [i + 1 for i in range(M) for _ in range(mono[i])]
            assert not any(mono[M:])
            if len(modes) == 1:
                assert (labels[s], coeff) == (f"f{modes[0]}", 1)
            elif modes[0] == modes[1]:
                assert (labels[s], coeff) == (f"d{modes[0]}", Fraction(1, 2))
            else:
                assert (labels[s], coeff) == (f"e{modes[0]}_{modes[1]}", 1)
            assert QuadraticForm.from_gradient(unit.gradient()) == unit


# ---------------------------------------------------------------------------
# sparse family


def test_sparse_invariant_counts_grow_linearly():
    for K in range(1, 5):
        assert len(sparse_invariants(K, seed=4)) == K + 1


def test_sparse_basis_has_no_linear_or_mixed_terms():
    for K in range(1, 5):
        for form in sparse_invariants(K, seed=4):
            positions = form_positions(form.M)
            assert all(c.is_zero() for (i, j), c in zip(positions, form.coeffs) if j != i)


def test_sparse_normal_forms_lie_in_basis_span():
    rng = random.Random(21)
    for K in (1, 2, 3):
        g = sparse_feedback_free(K)
        p = [Fraction(rng.randrange(1, 9)) for _ in range(K)]
        q = [Fraction(rng.randrange(1, 9)) for _ in range(K)]
        exact = g.with_params(
            {f"p{k}": ParamSpec.exact(p[k - 1]) for k in range(1, K + 1)}
            | {f"q{k}": ParamSpec.exact(q[k - 1]) for k in range(1, K + 1)}
        )
        report = count_invariants(exact, seed=9)
        assert report.raw_count == K + 1
        for m in range(1, K + 2):
            candidate = sparse_normal_form_numeric(K, m, p, q, exact.var_table)
            assert basis_contains(report.basis, candidate)


# ---------------------------------------------------------------------------
# subclasses and monotonicity


def test_model1_subclass_table():
    table = enumerate_subclasses(builtin_model("model1"), ["b1", "c1", "a2", "b2"], seed=11)
    by_mask = {mask: ind for mask, _, ind in table.rows}
    assert by_mask["0000"] == 3
    for mask in ("0001", "0010", "0100", "0101", "1000", "1010"):
        assert by_mask[mask] == 2, mask
    rest = set(by_mask) - {"0000", "0001", "0010", "0100", "0101", "1000", "1010"}
    assert all(by_mask[mask] == 1 for mask in rest)


def test_model2_subclass_table():
    table = enumerate_subclasses(builtin_model("model2"), ["c1", "a2"], seed=11)
    by_mask = {mask: ind for mask, _, ind in table.rows}
    assert by_mask == {"00": 3, "01": 2, "10": 2, "11": 2}


def test_enumerate_with_empty_vary():
    g = builtin_model("model1")
    table = enumerate_subclasses(g, [], seed=11)
    assert len(table.rows) == 1
    report = count_invariants(g, seed=11)
    assert table.rows[0][1] == report.raw_count


def test_enumerate_rejects_oversized_vary():
    g = builtin_model("model5")
    with pytest.raises(ContractViolation):
        enumerate_subclasses(g, [f"a{k}" for k in range(1, 6)] * 5, seed=0)


def test_monotonicity_endpoints():
    g = builtin_model("model1")
    assert monotonicity_check(g, ["b1", "c1", "a2", "b2"], seed=2)
    assert monotonicity_check(g, [], seed=2)


def test_monotonicity_random_campaign_small():
    rng = random.Random(17)
    models = [builtin_model(n) for n in ("model1", "model2", "model3")]
    for _ in range(20):
        g = rng.choice(models)
        names = g.generic_param_names()
        base = rng.sample(names, rng.randrange(0, 3))
        shaped = g.zeroed(base)
        remaining = shaped.generic_param_names()
        extra = rng.sample(remaining, rng.randrange(0, min(4, len(remaining)) + 1))
        assert monotonicity_check(shaped, extra, seed=rng.randrange(10**6))


# ---------------------------------------------------------------------------
# symmetry closure


def test_invariant_span_closed_under_sign_symmetries():
    for g in (builtin_model("euler"), no_linear_feedback(builtin_model("model2"))):
        syms = find_sign_symmetries(g)
        rng = random.Random(23)
        exact = g.with_params(
            {n: ParamSpec.exact(Fraction(rng.randrange(1, 9))) for n in g.generic_param_names()}
        )
        basis = list(count_invariants(exact, seed=1).basis)
        base_rank = span_rank(basis)
        for s in syms:
            mapped = [map_signs(form, s.signs) for form in basis]
            assert span_rank(basis + mapped) == base_rank


def test_sparse_feedback_free_refuses_k_below_one():
    with pytest.raises(ContractViolation, match="^sparse models need K >= 1$"):
        sparse_feedback_free(0)
