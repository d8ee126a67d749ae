import gc
import itertools
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from glomkit import invariants
from glomkit.errors import ContractViolation
from glomkit.exactmath import Poly, VarTable, generic_rank, linalg
from glomkit.exactmath.linalg import GENERIC_TRIALS, back_substitute, generic_point
from glomkit.hamiltonian import casimirs
from glomkit.invariants import (
    QuadraticForm,
    basis_contains,
    build_system,
    count_invariants,
    enumerate_subclasses,
    form_positions,
    monotonicity_check,
    position_index,
    span_rank,
    sparse_feedback_free,
    sparse_invariants,
    verify_conserved,
)
from glomkit.models import (
    Glom,
    Gyrostat,
    ParamSpec,
    VectorField,
    assemble_field,
    builtin_model,
    find_sign_symmetries,
    no_linear_feedback,
)

from helpers import (
    EntriesForm,
    build_system_reference,
    dense_rows,
    generic_point_to_full_rank,
    ladder_models,
    map_signs,
    oracle_raw_count,
    parse,
    parse_matrix,
    random_glom,
    reference_models,
    restricted,
    row_by_label,
    row_labels,
    sparse_normal_form_numeric,
    unknown_labels,
    value_poly_reference,
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
    # model5 has 8 modes and 44 columns, a rank that 40 points cannot show
    rng = random.Random(11)
    for name in ("model1", "euler", "model5"):
        g = builtin_model("sparse", 1) if name == "euler" else builtin_model(name)
        values = {n: ParamSpec.exact(Fraction(rng.randrange(1, 12))) for n in g.generic_param_names()}
        exact = g.with_params(values)
        report = count_invariants(exact, seed=6)
        assert report.raw_count == oracle_raw_count(exact, seed=rng.randrange(1000))


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
    # elimination.  No system here is of full column rank: where the kernel
    # at the first point lifts to the symbolic system (dense K=4, model1),
    # that point ends the trials; where it does not (sparse K=3), all
    # GENERIC_TRIALS points are tried; a numeric system is reduced once
    ranks = []
    real = linalg._eliminate

    def recording(pivots, rows):
        # every reduction ends here, of a peeled core or of a whole matrix;
        # the system's are the ones that reach its rank, cols - raw count,
        # which the gradients' and the span check's stay far below
        pivots = real(pivots, rows)
        ranks.append(len(pivots))
        return pivots

    monkeypatch.setattr(linalg, "_eliminate", recording)
    model1 = builtin_model("model1")
    numeric = model1.with_params(
        {n: ParamSpec.exact(Fraction(k + 2)) for k, n in enumerate(model1.generic_param_names())}
    )
    for g, eliminations in (
        (builtin_model("dense", 4), 1),
        (model1, 1),
        (builtin_model("sparse", 3), GENERIC_TRIALS),
        (numeric, 1),
    ):
        system = build_system(g)
        ranks.clear()
        report = count_invariants(g, seed=3)
        assert ranks.count(system.cols - report.raw_count) == eliminations


def test_count_invariants_where_a_witness_of_the_system_vanishes(monkeypatch):
    # euler with q1 scaled by -1: its system peels a column on -p1 + q1, and
    # the first point is scripted to p1 = q1, where that entry vanishes and
    # the rank falls.  The report must be the one of the full-numeric
    # reference, whose trials reduce the whole system at every point
    g = builtin_model("euler").with_params({"q1": ParamSpec.scaled("q1", -1)})
    m = build_system(g).matrix
    peeled, _ = linalg._peel(m.entries)
    assert "-p1 + q1" in {str(m.entries[i][c]) for c, i in peeled.items()}

    class FirstPointScripted(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.script = [linalg.GENERIC_LOW] * 2  # p1, q1 of the first trial

        def randrange(self, *bounds):
            if bounds == (linalg.GENERIC_LOW, linalg.GENERIC_HIGH) and self.script:
                return self.script.pop(0)
            return super().randrange(*bounds)

    monkeypatch.setattr(invariants, "random", SimpleNamespace(Random=FirstPointScripted))
    for seed in (0, 1):
        report = count_invariants(g, seed=seed)
        with monkeypatch.context() as patched:
            patched.setattr(invariants, "generic_point", generic_point_to_full_rank)
            assert report == count_invariants(g, seed=seed)
        assert report.param_point["p1"] != report.param_point["q1"] and report.raw_count == 2


def test_a_numeric_form_is_one_polynomial():
    g = builtin_model("sparse", 6)
    forms = [*count_invariants(g, seed=0).basis, QuadraticForm.energy(g.var_table)]
    for form in forms:
        held = [o for o in gc.get_referents(form) if isinstance(o, Poly)]
        assert len(held) == 1 and form.value_poly() is held[0]
        assert form.is_numeric() and not any(isinstance(c, Poly) for c in held[0].terms.values())


def _invariant_vectors(g: Glom) -> list[list]:
    """The nullspace vectors that `count_invariants(g, seed=0)` packs into forms."""
    rng = random.Random(0)
    rng.randrange(1 << 30)
    system = build_system(g)
    return back_substitute(generic_point(system.matrix, rng)[1], system.cols)


def _assert_same_form(form: QuadraticForm, ref: EntriesForm) -> None:
    assert form.coeff_vector() == ref.coeff_vector()
    assert list(form.value_poly().terms.items()) == list(ref.value_poly().terms.items())
    assert form.is_numeric() == ref.is_numeric()
    if ref.is_numeric():
        assert form.numeric_coeffs() == ref.numeric_coeffs()
        assert list(map(type, form.numeric_coeffs())) == list(map(type, ref.numeric_coeffs()))
    assert form == QuadraticForm.from_coeff_vector(form.table, ref.coeff_vector())


def test_forms_match_the_entries_reference():
    # each reader of the value polynomial against the per-position
    # coefficients it replaced, on the invariant bases and Casimirs
    models = {**reference_models(), **{f"random{s}": random_glom(s) for s in range(16)}}
    checked = 0
    for name, g in models.items():
        table = g.var_table
        pairs = [
            (QuadraticForm.from_coeff_vector(table, vec), EntriesForm.from_coeff_vector(table, vec))
            for vec in _invariant_vectors(g)
        ]
        assert tuple(form for form, _ in pairs) == count_invariants(g, seed=0).basis, name
        cs = casimirs(g)
        gradients = [v for v, ok in zip(cs.nullspace_basis, cs.gradient_flags) if ok]
        read = [(QuadraticForm.from_gradient(v), EntriesForm.from_gradient(v)) for v in gradients]
        assert tuple(form.normalized() for form, _ in read) == cs.casimirs, name
        pairs += read
        point = {p: Fraction(k + 2, 3) for k, p in enumerate(table.param_names()[::2])}
        for form, ref in pairs:
            for f, r in ((form, ref), (form.normalized(), ref.normalized())):
                _assert_same_form(f, r)
                _assert_same_form(f.instantiate(point), r.instantiate(point))
            checked += 1
        for (a, ref_a), (b, ref_b) in itertools.combinations(pairs, 2):
            assert (a == b) == (ref_a == ref_b), name
    assert checked > 100
    # the sign follows the leading term of the first coefficient (-a1*q1),
    # neither its first term nor C's leading term (e1_2's)
    table = builtin_model("model1").var_table
    vec = [parse(table, "p1 - a1*q1"), 0, 0, 0, parse(table, "a1*b1*c1")]
    vec += [0] * (len(form_positions(table.state_count)) - len(vec))
    form, ref = QuadraticForm.from_coeff_vector(table, vec), EntriesForm.from_coeff_vector(table, vec)
    _assert_same_form(form.normalized(), ref.normalized())
    assert str(form.normalized()) == "-x1*x2*a1*b1*c1 + 1/2*x1^2*a1*q1 - 1/2*x1^2*p1"


def test_instantiate_keeps_position_order_through_a_partial_cancellation():
    # at a1 = b1 = 1 the constant of d1's coefficient cancels after two
    # terms and returns with the fourth, so Poly.subs moves it behind p1's
    # term; the instance must still list d1's terms before d2's and e1_2's,
    # since dimension_probe's RK4 sums follow value_poly's order
    table = builtin_model("model1").var_table
    M, n = table.state_count, len(form_positions(table.state_count))
    vec = [parse(table, "a1 - b1 + 2*p1 + 3*c1"), parse(table, "a1 + p1"), 0, 0, parse(table, "q1 - 5*c1")]
    vec += [0] * (n - len(vec))
    values = {"a1": 1, "b1": 1, "c1": Fraction(1, 3)}
    ref = EntriesForm.from_coeff_vector(table, vec)
    moved = list(ref.entries[0][1].subs(values).terms)
    assert moved == [next(iter(table.var("p1").terms)), table.pack([0] * len(table.names))]
    instance = QuadraticForm.from_coeff_vector(table, vec).instantiate(values)
    _assert_same_form(instance, ref.instantiate(values))
    states = [table.unpack(m)[:M] for m in instance.value_poly().terms]
    assert [position_index(state)[0] for state in states] == [0, 0, 1, 1, 4, 4]


def test_enumerate_rejects_a_repeated_name():
    with pytest.raises(ContractViolation, match="'b1'"):
        enumerate_subclasses(builtin_model("model1"), ["b1", "c1", "b1"], seed=0)


def test_direct_assembly_matches_the_product_reference():
    models = [
        *reference_models().values(),
        *ladder_models().values(),
        *map(random_glom, range(16)),
        builtin_model("sparse", 40),
    ]
    for g in models:
        system, reference = build_system(g), build_system_reference(g)
        assert system.row_monomials == reference.row_monomials
        assert system.matrix.entries == reference.matrix.entries


def test_direct_assembly_drops_a_cell_whose_halves_cancel(monkeypatch):
    # a GLOM's f_i never holds x_i, so the halves x2*f1 and x1*f2 of e1_2's
    # column never meet on one; in this field they meet at x1*x2 and cancel,
    # and no other cell lies in that row
    g = builtin_model("model1")
    table = g.var_table
    field = VectorField(table, tuple(parse(table, c) for c in ("a1*x1 + b1*x3", "-a1*x2", "0", "0")))
    monkeypatch.setattr(invariants, "assemble_field", lambda _: field)
    system, reference = build_system(g), build_system_reference(g, field)
    assert system.row_monomials == reference.row_monomials
    assert system.matrix.entries == reference.matrix.entries
    assert "x1*x2" not in row_labels(system) and "x2*x3" in row_labels(system)


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
            for mono, row in zip(system.row_monomials, dense_rows(system.matrix)):
                column = column + row[s] * Poly(table, {table.pack(mono + pad): 1})
            assert column == unit.time_derivative(field), labels[s]
            # the unit form is x_i^2/2, x_i*x_j or x_i, and its label names it
            ((mono, coeff),) = unit.value_poly().terms.items()
            mono = table.unpack(mono)
            modes = [i + 1 for i in range(M) for _ in range(mono[i])]
            assert not any(mono[M:])
            if len(modes) == 1:
                assert (labels[s], coeff) == (f"f{modes[0]}", 1)
            elif modes[0] == modes[1]:
                assert (labels[s], coeff) == (f"d{modes[0]}", Fraction(1, 2))
            else:
                assert (labels[s], coeff) == (f"e{modes[0]}_{modes[1]}", 1)
        # every form round-trips through its gradient, stores only its
        # nonzero coefficients, in `form_positions` order, and instantiate
        # drops the ones it zeroes
        param = table.param_names()[0]
        a = table.var(param)
        symbolic = [a.scale(s % 3) - table.const(s % 2) for s in range(n)]
        units = [[int(t == s) for t in range(n)] for s in range(n)]
        for vec in [[0] * n, symbolic, *units]:
            form = QuadraticForm.from_coeff_vector(table, vec)
            keys = [position_index(table.unpack(mono)[:M])[0] for mono in form.value_poly().terms]
            assert keys == sorted(keys) and len(set(keys)) == sum(map(bool, vec))
            assert form.coeff_vector() == [v if isinstance(v, Poly) else table.const(v) for v in vec]
            assert QuadraticForm.from_gradient(form.gradient()) == form
            instance = form.instantiate({param: 1})
            dense = [c.subs({param: 1}) for c in form.coeff_vector()]
            assert instance == QuadraticForm.from_coeff_vector(table, dense)
        zero = QuadraticForm.from_coeff_vector(table, [0] * n)
        assert (zero.value_poly(), str(zero)) == (table.zero(), "0")
        assert zero.gradient() == [table.zero()] * M
        form = QuadraticForm.from_coeff_vector(table, symbolic)
        instance = form.instantiate({param: 1})
        assert sum(map(bool, instance.coeff_vector())) < sum(map(bool, form.coeff_vector())) < n
    # the closed form agrees with the enumerated layout, up to the sparse
    # K=60 member's M = 121
    for M in (*range(1, 13), 121):
        for k, (i, j) in enumerate(form_positions(M)):
            state = tuple((m == i) + (m == j) for m in range(1, M + 1))
            assert position_index(state) == (k, 2 if j == i else 1)
            assert invariants.column(i - 1, None if j is None else j - 1, M) == k


def test_position_lookup_keeps_no_table_per_mode_count():
    # a form's readers find each term's position in closed form, so a round
    # trip at M = 200 touches a few terms, not a table of its 20,300 positions
    table = VarTable([f"x{i}" for i in range(1, 201)] + ["a"], 200)
    n = len(form_positions(200))
    vec = [0] * n
    vec[3], vec[n - 1] = table.var("a"), 5
    tracemalloc.start()
    try:
        form = QuadraticForm.from_coeff_vector(table, vec)
        assert QuadraticForm.from_gradient(form.gradient()) == form
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_value_poly_adds_its_terms_position_by_position():
    # simulate compiles value_poly's terms in dict order, so the RK4 drift
    # floats depend on this order
    symbolic = 0
    for name, g in reference_models().items():
        for form in count_invariants(g, seed=0).basis + casimirs(g).casimirs:
            assert list(form.value_poly().terms) == list(value_poly_reference(form).terms), name
            symbolic += not form.is_numeric()
    assert symbolic


# ---------------------------------------------------------------------------
# sparse family


def test_sparse_invariant_counts_grow_linearly():
    for K in range(1, 5):
        assert len(sparse_invariants(K, seed=4)) == K + 1


def test_sparse_basis_has_no_linear_or_mixed_terms():
    for K in range(1, 5):
        for form in sparse_invariants(K, seed=4):
            coeffs = zip(form_positions(form.M), form.coeff_vector())
            assert all(j == i for (i, j), c in coeffs if c)


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
