import functools
import random
from fractions import Fraction

import pytest

from glomkit.errors import ContractViolation
from glomkit.exactmath import (
    PolyMatrix,
    divide_exact,
    generic_rank,
    nullspace_symbolic,
    proportional,
)
from glomkit.exactmath.linalg import (
    GENERIC_HIGH,
    GENERIC_LOW,
    generic_point,
    nullspace_rational,
    poly_gcd,
    rank_rational,
)
from glomkit.exactmath import linalg
from glomkit.hamiltonian import build_J
from glomkit.hierarchy import member
from glomkit.invariants import build_system
from glomkit.models import Glom, builtin_model, generic_gyrostat, instantiate, no_linear_feedback

from helpers import (
    FAMILY_TOP_K,
    bareiss_nullspace,
    bareiss_rank,
    dense_matrix,
    dense_rows,
    determinant_by_permutations,
    generic_point_to_full_rank,
    ladder_models,
    model_table,
    monomial_gcd_reference,
    mul_vector,
    nullspace_exact,
    nullspace_symbolic_reference,
    parameter_names,
    parameter_only_generic_rank,
    parse,
    parse_vector,
    random_glom,
    rank_exact,
    reference_models,
    restricted,
)

# a prime: multiples of it are the inputs a rank taken modulo it gets wrong
P61 = (1 << 61) - 1


def constant_matrix(table, rows):
    return dense_matrix(table, [[table.const(v) for v in row] for row in rows])


def parsed_matrix(table, rows):
    return dense_matrix(table, [[parse(table, e) for e in row] for row in rows])


def test_nullspace_zero_matrix():
    table = model_table(3, 1)
    assert nullspace_exact(constant_matrix(table, [[0, 0], [0, 0]])) == [[1, 0], [0, 1]]


def test_matrix_without_rows_keeps_its_width():
    table = model_table(3, 1)
    assert PolyMatrix(table, 3, []).cols == 3
    assert nullspace_exact(PolyMatrix(table, 3, [])) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    system = build_system(builtin_model("euler").zeroed(["p1", "q1"]))  # no linear terms
    assert (system.rows, system.cols) == (0, 9)
    assert restricted(system, ["f1", "d1"]).cols == 2


def test_nullspace_single_gyrostat_system_at_euler_values():
    # the 7x6 system of the single gyrostat at (p,q,r)=(1,1,-2), a=b=c=1
    g = builtin_model("sparse", 1)
    system = restricted(build_system(g), [f"d{i}" for i in (1, 2, 3)] + [f"f{i}" for i in (1, 2, 3)])
    values = {name: Fraction(1) for name in ("p1", "q1", "a1", "b1", "c1")}
    table = g.var_table
    with pytest.raises(ContractViolation):
        nullspace_exact(system.matrix)  # entries still hold parameters
    rows = [[e.subs(values) for e in row] for row in dense_rows(system.matrix)]
    numeric = dense_matrix(table, rows)
    basis = nullspace_exact(numeric)
    assert len(basis) == 2


def test_random_invertible_matrix_has_trivial_nullspace():
    rng = random.Random(42)
    table = model_table(3, 1)
    while True:
        rows = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(5)] for _ in range(5)]
        if determinant_by_permutations(rows) != 0:
            break
    m = constant_matrix(table, rows)
    assert rank_exact(m) == 5
    assert nullspace_exact(m) == []


def test_rank_nullity_random_matrices():
    rng = random.Random(7)
    table = model_table(3, 1)
    for _ in range(25):
        n_rows, n_cols = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[Fraction(rng.randrange(-4, 5)) for _ in range(n_cols)] for _ in range(n_rows)]
        m = constant_matrix(table, rows)
        basis = nullspace_exact(m)
        assert rank_exact(m) + len(basis) == n_cols
        for vec in basis:
            for row in rows:
                assert sum(c * v for c, v in zip(row, vec)) == 0
        from math import gcd
        from functools import reduce
        for vec in basis:
            assert reduce(gcd, (abs(v) for v in vec)) == 1


def test_nullspace_symbolic_single_gyrostat_J():
    g = builtin_model("sparse", 1)
    basis = nullspace_symbolic(build_J(g))
    assert len(basis) == 1
    expected = parse_vector(g.var_table, ["a1 - q1*x1", "b1 + p1*x2", "c1"])
    assert proportional(basis[0], expected)


def test_nullspace_symbolic_frozen_mode_branch():
    # model1 with p1=b1=c1=0: the first mode is constant, two nullspace vectors
    g = builtin_model("model1").zeroed(["p1", "b1", "c1"])
    basis = nullspace_symbolic(build_J(g))
    assert len(basis) == 2
    table = g.var_table
    v1 = parse_vector(table, ["1", "0", "0", "0"])
    v2 = parse_vector(table, ["0", "a2 - q2*x2", "b2 + p2*x3", "a1 + c2 - q1*x1"])
    assert proportional(basis[0], v1)
    assert proportional(basis[1], v2)


def test_nullspace_symbolic_nonsingular_constant():
    table = model_table(3, 1)
    m = constant_matrix(table, [[0, Fraction(3, 2)], [Fraction(-3, 2), 0]])
    assert nullspace_symbolic(m) == []


def _fail(*args):
    raise AssertionError("symbolic elimination ran")


def test_full_rank_nullspace_skips_symbolic_elimination(monkeypatch):
    monkeypatch.setattr(linalg, "_echelon_poly", _fail)
    gloms = [builtin_model("model5")]
    gloms += [
        member(family, K, constrained)
        for family in ("dense1", "dense2")
        for K in (2, 4, 6)  # M = K + 2 modes
        for constrained in (True, False)
    ]
    for g in gloms:
        assert g.modes % 2 == 0
        assert nullspace_symbolic(build_J(g)) == []


def test_elimination_alone_finds_the_empty_nullspace(monkeypatch):
    # with the shortcut never firing, elimination still proves J nonsingular
    real = linalg.generic_rank
    monkeypatch.setattr(linalg, "generic_rank", lambda m, *a, **k: m.cols - 1)
    for g in (builtin_model("model1"), member("dense1", 2), member("dense2", 4)):
        J = build_J(g)
        assert real(J) == J.cols
        assert nullspace_symbolic(J) == []


def test_symbolic_nullity_matches_generic_rank():
    # the rank at integer points predicts the dimension of the symbolic nullspace
    gloms = [builtin_model(name) for name in ("model1", "model2", "model3", "model4", "model5", "euler")]
    gloms += [member(f, K) for f, k_top in FAMILY_TOP_K.items() for K in range(1, k_top + 1)]
    for g in gloms:
        J = build_J(g)
        basis = nullspace_symbolic(J)
        assert len(basis) == J.cols - generic_rank(J)
        for vec in basis:
            assert all(e.is_zero() for e in mul_vector(J, vec))


def test_nullspace_symbolic_matches_reference(monkeypatch):
    # the reference eliminates and back-substitutes, multiplying every
    # vector up; the sub-Pfaffians answer without it.  Where J has nullity 2
    # or more, one forward elimination per matrix serves both sides: the
    # pivot columns it picks are the reference's free columns and the
    # sub-Pfaffian index sets
    monkeypatch.setattr(linalg, "_echelon_poly", functools.cache(linalg._echelon_poly))
    models = reference_models()
    g = builtin_model("model5")
    models["model5_c1b3p3"] = g.zeroed(["c1", "b3", "p3"])
    models["model5_q1b3p3"] = g.zeroed(["q1", "b3", "p3"])
    for constrained in (True, False):
        models[f"model5_K3_{constrained}"] = member("model5", 3, constrained)
    # J with empty rows (mode 4; mode 5), so Bareiss drops a zero row and
    # breaks ties between rows that were not adjacent in J
    models["empty_row_M4"] = Glom(4, (generic_gyrostat((1, 2, 3), 1),))
    models["empty_row_M6"] = Glom(6, (generic_gyrostat((1, 2, 3), 1), generic_gyrostat((2, 4, 6), 2)))
    eliminated = set()
    for name, g in models.items():
        J = build_J(g)
        misses = linalg._echelon_poly.cache_info().misses
        basis = nullspace_symbolic(J)
        if linalg._echelon_poly.cache_info().misses > misses:
            eliminated.add(name)
        assert basis == nullspace_symbolic_reference(J), name
        for vec in basis:
            assert all(e.is_zero() for e in mul_vector(J, vec)), name
    assert {"empty_row_M4", "empty_row_M6"} <= eliminated


def _odd_corank_one_members():
    """Odd members of every family whose J has nullity 1, by name."""
    out = {}
    for family, k_top in FAMILY_TOP_K.items():
        for K in range(1, k_top + 1):
            for constrained in (True, False):
                g = member(family, K, constrained)
                J = build_J(g)
                if g.modes % 2 and generic_rank(J) == g.modes - 1:
                    out[f"{family}_K{K}{'' if constrained else '_free'}"] = J
    return out


def test_odd_corank_one_kernel_skips_elimination(monkeypatch):
    # the sub-Pfaffians give the kernel without Bareiss, also at M = 9
    monkeypatch.setattr(linalg, "_echelon_poly", _fail)
    members = _odd_corank_one_members()
    members["dense1_K7_free"] = build_J(member("dense1", 7, False))
    for name, J in members.items():
        (vec,) = nullspace_symbolic(J)
        assert all(e.is_zero() for e in mul_vector(J, vec)), name


def test_sub_pfaffian_kernel_equals_the_elimination_kernel_term_by_term():
    # on every odd corank-1 member the sub-Pfaffians give the primitive
    # kernel vector the reference elimination finds, as polynomials (term
    # order is not part of a result)
    members = _odd_corank_one_members()
    assert {"sparse_K5_free", "dense1_K3_free", "dense1_K5_free"} <= members.keys()
    for name, J in members.items():
        assert nullspace_symbolic(J) == nullspace_symbolic_reference(J), name


def test_nullspace_symbolic_refuses_a_non_skew_matrix():
    # 3 x 3 of rank 2 (row 3 = row 1 + row 2) but not skew, 2 x 3, an entry
    # whose transpose is not stored, and a skew matrix plus a diagonal entry
    table = model_table(3, 1)
    rows = [["a1", "b1", "0"], ["0", "c1", "a1*x1"], ["a1", "b1 + c1", "a1*x1"]]
    one_sided = [["0", "a1", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    diagonal = [["0", "a1", "b1"], ["-a1", "0", "c1"], ["-b1", "-c1", "p1*x1"]]
    for m in (
        parsed_matrix(table, rows),
        parsed_matrix(table, rows[:2]),
        parsed_matrix(table, one_sided),
        parsed_matrix(table, diagonal),
    ):
        with pytest.raises(ContractViolation) as info:
            nullspace_symbolic(m)
        assert "skew" in str(info.value) and "\n" not in str(info.value)


def test_poly_gcd_finds_a_common_factor():
    table = model_table(3, 2)
    common = parse(table, "a1*x1 + b2*p1 - 2")
    a = parse(table, "x2^2*c1 + q2") * common
    b = parse(table, "p1*x3 - a2*c1 + 1/3") * parse(table, "x1") * common
    assert poly_gcd(a, b) == common.normalized()
    assert poly_gcd(a * b, b) == b.normalized()
    assert poly_gcd(a, parse(table, "x2 + a1")) == table.const(1)
    assert poly_gcd(parse(table, "-3*x1*x2^2"), parse(table, "6*x1^2*c1")) == parse(table, "x1")


def test_poly_gcd_of_a_monomial_takes_the_least_exponents():
    # a signed rational monomial against a random p, a multiple of the
    # monomial and a constant, in both operand orders
    table = model_table(3, 2)
    names = ("x1", "x2", "x3", "a1", "b1", "c2", "p2")
    rng = random.Random(29)

    def random_term():
        term = table.const(Fraction(rng.choice([-1, 1]) * rng.randrange(1, 10), rng.randrange(1, 4)))
        for _ in range(rng.randrange(4)):
            term = term * table.var(rng.choice(names))
        return term

    for _ in range(200):
        mono = random_term()
        p = sum((random_term() for _ in range(rng.randrange(1, 6))), table.zero())
        for q in (p, p * mono, table.const(Fraction(rng.randrange(1, 9), 7))):
            if q:
                want = monomial_gcd_reference(mono, q)
                assert poly_gcd(mono, q) == want and poly_gcd(q, mono) == want, (str(mono), str(q))


def test_generic_rank_draws_as_when_it_substituted_parameters_only(monkeypatch):
    # invariant systems hold no state variables, so the sorted names and the
    # seeded draws are those of the parameter-only loop.  Its trials run to
    # the end, as none of these systems is of full column rank; generic_rank
    # reduces the first of them only where the kernel there lifts to the
    # symbolic system (model1, model3, model5), all three where it does not
    drawn = []
    real = linalg.evaluate_at

    def recording(m, values):
        drawn.append(dict(values))
        return real(m, values)

    monkeypatch.setattr(linalg, "evaluate_at", recording)
    for name, tried in (("model1", 1), ("model2", 3), ("model3", 1), ("model4", 3), ("model5", 1)):
        m = build_system(builtin_model(name)).matrix
        for seed in (0, 7, 20251):
            drawn.clear()
            rank, points = parameter_only_generic_rank(m, seed)
            assert generic_rank(m, seed=seed) == rank
            assert drawn == points[:tried]


def test_generic_rank_single_gyrostat_system():
    g = builtin_model("sparse", 1)
    system = restricted(build_system(g), [f"d{i}" for i in (1, 2, 3)] + [f"f{i}" for i in (1, 2, 3)])
    assert generic_rank(system.matrix, seed=5) == 4  # 6 unknowns, 2 invariants


def test_generic_rank_model2_system():
    system = restricted(
        build_system(builtin_model("model2")),
        [f"d{i}" for i in range(1, 6)] + [f"f{i}" for i in range(1, 6)],
    )
    assert generic_rank(system.matrix, seed=5) == 8  # nullspace dimension 2


def test_generic_rank_zero_matrix():
    table = model_table(3, 1)
    assert generic_rank(constant_matrix(table, [[0] * 3] * 3), seed=1) == 0


def test_generic_rank_matches_exact_on_numeric():
    rng = random.Random(3)
    table = model_table(3, 1)
    for _ in range(10):
        rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(4)] for _ in range(3)]
        m = constant_matrix(table, rows)
        assert generic_rank(m, seed=rng.randrange(100)) == rank_exact(m)


def test_generic_rank_matches_exact_rank_at_the_same_points():
    # generic_rank draws its points from random.Random(seed); the reference
    # ranks at the same points must agree
    for name in ("model1", "model2", "model3", "model4", "model5"):
        m = build_system(builtin_model(name)).matrix
        names = sorted(parameter_names(m))
        for seed in (0, 9):
            rng = random.Random(seed)
            exact = max(
                bareiss_rank(
                    dense_rows(
                        m, {m.table.index(n): rng.randrange(GENERIC_LOW, GENERIC_HIGH) for n in names}
                    )
                )
                for _ in range(3)
            )
            assert generic_rank(m, seed=seed) == exact


def test_generic_rank_is_exact_when_a_minor_vanishes_mod_p():
    # the determinant p * p1^2 (p = 2^61 - 1) is nonzero wherever p1 is, so
    # the generic rank is 2, though the rows scaled to coprime integers,
    # [1, 1] and [1, 1 + p], coincide mod p
    table = model_table(3, 1)
    m = parsed_matrix(table, [["p1", "p1"], ["p1", f"{P61 + 1}*p1"]])
    assert generic_rank(m, seed=0) == 2


class ScriptedRng:
    """Stands in for random.Random: randrange hands out the scripted values."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, lo, hi):
        assert (lo, hi) == (GENERIC_LOW, GENERIC_HIGH)
        return self.values.pop(0)


def test_generic_point_keeps_the_first_best_trial():
    # rank 2 of 3 where a1 != b1, with no singleton row to peel, so the
    # drop is inside the core: trial 1 draws a1 = b1, of rank 1 there.
    # Trials 2 and 3 reach rank 2, and the kernel (1, 1, -a1 - b1) at a
    # point never lifts, so both run and the earlier is returned
    table = model_table(3, 1)
    m = parsed_matrix(table, [["a1", "b1", "1"], ["b1", "a1", "1"], ["a1 + b1", "a1 + b1", "2"]])
    a1, b1 = table.index("a1"), table.index("b1")
    low = GENERIC_LOW
    rng = ScriptedRng([low, low, low + 1, low, low + 2, low])  # a1, b1 per trial
    assert linalg._peel(m.entries)[0] == {}
    assert rank_rational(dense_rows(m, {a1: low, b1: low})) == 1
    values, pivots = generic_point(m, rng)
    assert values == {a1: low + 1, b1: low}
    assert len(pivots) == 2 and rng.values == []


def test_generic_point_stops_at_full_rank():
    # rank 2 where a1 != b1, with no singleton row: trial 1's a1 = b1 drops
    # the core to rank 1, and trial 2 reaches full rank, which ends the trials
    table = model_table(3, 1)
    m = parsed_matrix(table, [["a1", "b1"], ["b1", "a1"]])
    a1, b1 = table.index("a1"), table.index("b1")
    low = GENERIC_LOW
    rng = ScriptedRng([low, low, low + 1, low, low + 2, low])
    assert linalg._peel(m.entries)[0] == {}
    values, pivots = generic_point(m, rng)
    assert values == {a1: low + 1, b1: low}
    assert len(pivots) == 2 and rng.values == [low + 2, low]
    # without variables: one exact elimination and no draw
    values, pivots = generic_point(constant_matrix(table, [[1, 2], [2, 4]]), ScriptedRng([]))
    assert values == {} and len(pivots) == 1


def test_generic_point_without_variables_is_one_trial_at_the_empty_point(monkeypatch):
    # a constant matrix draws nothing, and its first trial ends the trials,
    # by full rank or by its kernel lifting; its pivots are those of the
    # whole matrix reduced at once
    table = model_table(3, 1)
    values = {n: Fraction(k + 2, 3) for k, n in enumerate(builtin_model("model2").generic_param_names())}
    matrices = [
        constant_matrix(table, [[1, 2], [2, 4]]),
        constant_matrix(table, [[0, 0, 0]] * 2),
        constant_matrix(table, [[0, 1, -2], [-1, 0, 3], [2, -3, 0]]),
        constant_matrix(table, [[Fraction(1, 2), 3, 0], [0, 1, Fraction(-5, 7)], [1, 0, 1]]),
        build_system(instantiate(builtin_model("model2"), values)).matrix,
    ]
    calls = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda pivots, rows: calls.append(1) or real(pivots, rows))
    for m in matrices:
        assert not m.variables()
        rng = random.Random(5)
        state = rng.getstate()
        calls.clear()
        got = generic_point(m, rng)
        assert len(calls) == 1 and rng.getstate() == state
        assert got == ({}, linalg._pivot_rows(linalg.evaluate_at(m, {})))


def test_generic_point_does_not_stop_at_a_kernel_that_does_not_lift(monkeypatch):
    # rank 2 of 3 where a1 != b1, with no singleton row.  Trial 1 draws
    # a1 = b1: rank 1, and its kernel vector (-1, 1, 0) leaves b1 - a1 in
    # the first row, so the trials go on; trial 2's kernel vector e3
    # annihilates the zero third column, which ends them, with trial 3's
    # values still drawn.  Each trial evaluates and eliminates the core once
    calls = []

    def counted(name):
        real = getattr(linalg, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("evaluate_at", "_eliminate"):
        monkeypatch.setattr(linalg, name, counted(name))
    table = model_table(3, 1)
    m = parsed_matrix(table, [["a1", "b1", "0"], ["b1", "a1", "0"], ["0", "0", "0"]])
    a1, b1 = table.index("a1"), table.index("b1")
    low = GENERIC_LOW
    rng = ScriptedRng([low, low, low + 1, low, low + 2, low])
    values, pivots = generic_point(m, rng)
    assert values == {a1: low + 1, b1: low}
    assert len(pivots) == 2 and rng.values == []
    assert calls.count("evaluate_at") == calls.count("_eliminate") == 2


def test_generic_point_reaches_the_generic_rank_where_a_witness_vanishes():
    # columns 0 and 1 are peeled on a1 - b1, and the core is the last two
    # rows on columns 2 and 3, of generic rank 3 in all.  Trial 1's a1 = b1
    # zeroes both peeling entries, and the whole matrix is of rank 2 there;
    # the peel holds over the rational functions, so the trial still finds
    # rank 3, with the peeled unit rows and the core's rank 1 at the point.
    # Its kernel vector (0, 0, -1, 1) annihilates the matrix at the point
    # and lifts, which ends the trials
    table = model_table(3, 1)
    rows = [
        ["a1 - b1", "0", "0", "0"],
        ["0", "a1 - b1", "0", "0"],
        ["1", "1", "a1 - b1", "a1 - b1"],
        ["0", "0", "1", "1"],
    ]
    m = parsed_matrix(table, rows)
    a1, b1 = table.index("a1"), table.index("b1")
    low = GENERIC_LOW
    rng = ScriptedRng([low, low, low + 1, low, low + 2, low])
    assert sorted(linalg._peel(m.entries)[0]) == [0, 1]
    values, pivots = generic_point(m, rng)
    assert values == {a1: low, b1: low} and rng.values == []
    assert len(pivots) == len(linalg._echelon_poly(m)[1]) == 3
    point = dense_rows(m, values)
    assert rank_rational(point) == 2
    vectors = linalg.back_substitute(pivots, m.cols)
    assert vectors == [[0, 0, -1, 1]]
    assert all(sum(r[j] * v[j] for j in range(m.cols)) == 0 for r in point for v in vectors)


def test_lift_stop_changes_no_point_and_no_draw():
    # on the invariant systems of the reference, ladder and random models,
    # generic_point returns the point and pivots of the loop that stops
    # only at full rank, and leaves its rng in the same state
    models = [*reference_models().values(), *ladder_models().values(), *map(random_glom, range(16))]
    for g in models:
        m = build_system(g).matrix
        for seed in (0, 1):
            rng, reference_rng = random.Random(seed), random.Random(seed)
            assert generic_point(m, rng) == generic_point_to_full_rank(m, reference_rng)
            assert rng.getstate() == reference_rng.getstate()


def test_generic_point_stops_at_the_even_rank_of_a_skew_matrix(monkeypatch):
    # an odd J of corank 1 reaches M - 1, the largest rank of a skew matrix
    # of odd order, at the first point; an even J of rank 2 of 4 tries all
    points = []
    real = linalg.evaluate_at
    monkeypatch.setattr(linalg, "evaluate_at", lambda m, values: points.append(values) or real(m, values))
    for g, rank, tried in (
        (member("sparse", 3), 6, 1),
        (builtin_model("model4"), 6, 1),
        (builtin_model("model1").zeroed(["c1", "b2", "p2"]), 2, 3),
    ):
        points.clear()
        assert generic_rank(build_J(g)) == rank
        assert len(points) == tried


def test_even_rank_stop_changes_no_point_and_no_nullspace(monkeypatch):
    # on every reference J, generic_point returns the point and pivots of
    # the loop that stops only at full rank, and nullspace_symbolic the
    # basis it gives with that loop's rank
    Js = {name: build_J(g) for name, g in reference_models().items()}
    bases = {name: nullspace_symbolic(J) for name, J in Js.items()}
    for name, J in Js.items():
        for seed in (0, 1, 2):
            got = generic_point(J, random.Random(seed))
            assert got == generic_point_to_full_rank(J, random.Random(seed)), name
    monkeypatch.setattr(
        linalg, "generic_rank", lambda m, seed=0: len(generic_point_to_full_rank(m, random.Random(seed))[1])
    )
    for name, J in Js.items():
        assert nullspace_symbolic(J) == bases[name], name


def _matches_bareiss(rows, n_cols):
    assert rank_rational(rows) == bareiss_rank(rows)
    assert nullspace_rational(rows, n_cols) == bareiss_nullspace(rows, n_cols)


def test_elimination_matches_bareiss_on_empty_and_zero_matrices():
    for n_cols in range(1, 4):
        _matches_bareiss([], n_cols)
        for n_rows in range(1, 4):
            _matches_bareiss([[0] * n_cols for _ in range(n_rows)], n_cols)
            _matches_bareiss([[Fraction(0)] * n_cols for _ in range(n_rows)], n_cols)


def test_elimination_matches_bareiss_on_small_entries():
    rng = random.Random(2)
    for _ in range(300):
        n_cols, n_rows = rng.randrange(1, 5), rng.randrange(1, 7)
        # draws from a few values give many rank-deficient matrices
        bound = rng.choice([1, 2, 4095])
        rows = [[rng.randint(-bound, bound) for _ in range(n_cols)] for _ in range(n_rows)]
        _matches_bareiss(rows, n_cols)


def test_elimination_matches_bareiss_on_huge_entries():
    rng = random.Random(3)
    pool = [0, 1, -2, P61, -P61, 3 * P61, P61 - 1, P61 + 1, 1 << 70, Fraction(-5, 3), Fraction(1, 1 << 40)]
    for _ in range(300):
        n_cols, n_rows = rng.randrange(1, 5), rng.randrange(1, 6)
        _matches_bareiss([[rng.choice(pool) for _ in range(n_cols)] for _ in range(n_rows)], n_cols)
    _matches_bareiss([[P61]], 1)
    _matches_bareiss([[1, 1], [1, 1 + P61]], 2)


def test_elimination_matches_bareiss_on_random_rank_r_products():
    # rank-r products of random 64-bit factors (r >= 1), one entry replaced
    # by a multiple of a large prime
    rng = random.Random(61)
    for _ in range(120):
        n_rows, n_cols = rng.randrange(2, 9), rng.randrange(2, 9)
        r = rng.randrange(1, min(n_rows, n_cols) + 1)
        left = [[rng.randrange(-(1 << 64), 1 << 64) for _ in range(r)] for _ in range(n_rows)]
        right = [[rng.randrange(-(1 << 64), 1 << 64) for _ in range(n_cols)] for _ in range(r)]
        rows = [[sum(lrow[k] * right[k][j] for k in range(r)) for j in range(n_cols)] for lrow in left]
        rows[rng.randrange(n_rows)][rng.randrange(n_cols)] = rng.randrange(-3, 4) * P61
        _matches_bareiss(rows, n_cols)


def _cascading_rows(rng):
    """Sparse {column: value} rows whose singletons cascade: a chain of
    2-entry rows started by a singleton, repeated singletons on one column,
    zero rows and a few rows of 2-4 entries, in shuffled row and column
    order, with Fraction and int entries mixed."""
    n_cols = rng.randrange(1, 13)
    cols = rng.sample(range(n_cols), n_cols)

    def value():
        v = rng.choice([1, -1, 2, -3, 7, P61, Fraction(-5, 3), Fraction(1, 1 << 40)])
        return v * rng.choice([1, 2, -1])

    rows = []
    chain = cols[: rng.randrange(1, n_cols + 1)]
    if rng.random() < 0.8:
        rows.append({chain[0]: value()})
    rows += [{a: value(), b: value()} for a, b in zip(chain, chain[1:])]
    rows += [{cols[-1]: value()} for _ in range(rng.randrange(3))]
    rows += [{} for _ in range(rng.randrange(3))]
    for _ in range(rng.randrange(4)):
        picked = rng.sample(cols, min(n_cols, rng.randrange(2, 5)))
        rows.append({j: value() for j in picked})
    rng.shuffle(rows)
    return rows, n_cols


def test_elimination_matches_bareiss_on_cascading_singletons():
    rng = random.Random(17)
    for _ in range(400):
        rows, n_cols = _cascading_rows(rng)
        _matches_bareiss([[row.get(j, 0) for j in range(n_cols)] for row in rows], n_cols)
        for c, row in linalg._pivot_rows(rows).items():
            assert c == min(row) and all(type(v) is int for v in row.values())


def test_elimination_matches_bareiss_on_invariant_systems():
    rng = random.Random(5)
    models = [builtin_model(name) for name in ("model1", "model2", "model3", "model4", "model5")]
    for family, ks in (("sparse", range(3, 7)), ("dense", range(4, 9))):
        for K in ks:
            g = builtin_model(family, K)
            models += [g, no_linear_feedback(g)]
    for g in models:
        m = build_system(g).matrix
        names = sorted(parameter_names(m))
        point = {m.table.index(n): rng.randrange(GENERIC_LOW, GENERIC_HIGH) for n in names}
        _matches_bareiss(dense_rows(m, point), m.cols)


def test_generic_rank_deterministic():
    m = build_system(builtin_model("model3")).matrix
    assert generic_rank(m, seed=123) == generic_rank(m, seed=123)


def test_divide_exact_roundtrip():
    table = model_table(3, 1)
    a = parse(table, "p1*x2 + b1")
    b = parse(table, "q1*x1 - a1 + x2")
    prod = a * b
    assert divide_exact(prod, a) == b
    assert divide_exact(prod, b) == a
    with pytest.raises(ContractViolation):
        divide_exact(a, b)


def test_proportional_cases():
    table = model_table(3, 2)
    v = parse_vector
    assert proportional(
        v(table, ["a2*(a1 - q1*x1)", "a2*c1"]), v(table, ["a1 - q1*x1", "c1"])
    )
    assert not proportional(v(table, ["1", "0"]), v(table, ["0", "1"]))
    assert proportional(v(table, ["0", "0"]), v(table, ["0", "0"]))
    with pytest.raises(ContractViolation):
        proportional(v(table, ["1"]), v(table, ["1", "0"]))
