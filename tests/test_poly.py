import random
from fractions import Fraction

import pytest

from glomkit.errors import ContractViolation
from glomkit.exactmath import Poly, PolyMatrix, VarTable, divide_exact, grlex_key, poly_proportional
from glomkit.exactmath.poly import EXPONENT_MAX, normalized_vector
from glomkit.models import builtin_model

from helpers import model_table, parse, poly_eval, poly_proportional_reference, state_degree


@pytest.fixture
def table():
    return model_table(3, 1)


def test_monomial_product(table):
    x1 = table.x(1)
    prod = x1 * x1
    assert prod == parse(table, "x1^2")
    assert prod.terms[prod.leading_monomial()] == 1


def test_partial_derivative_of_affine_entry(table):
    entry = parse(table, "p1*x2 + b1")
    assert entry.diff("x2") == table.var("p1")
    assert entry.diff("x1").is_zero()


def test_derivative_free_of_the_variable_is_the_shared_zero(table):
    # as for +, - and subs, an empty result is the table's one zero
    assert parse(table, "p1*x2 + b1").diff("x1") is table.zero()
    assert table.zero().diff("p1") is table.zero()


def test_substitute_hand_evaluated(table):
    poly = parse(table, "q1*x3*x1 - a1*x3")
    result = poly.subs({"x1": 2, "x2": 3, "q1": 1, "a1": 1})
    assert result == table.x(3)


def test_zero_coefficients_never_stored(table):
    p = parse(table, "x1 + x2") - parse(table, "x1")
    assert set(p.terms) == {table.pack((0, 1, 0) + (0,) * (len(table) - 3))}


def test_matrix_stores_nonzero_entries_in_column_order(table):
    a1, x1 = table.var("a1"), table.x(1)
    m = PolyMatrix(table, 3, [{2: a1, 0: x1, 1: table.zero()}, {}, {1: a1 - a1}])
    assert m.entries == ({0: x1, 2: a1}, {}, {})
    assert list(m.entries[0]) == [0, 2]
    assert (m.rows, m.cols) == (3, 3)
    assert m[0, 2] == a1 and m[0, 1] is table.zero() and m[2, 1] is table.zero()
    assert m.variables() == {table.index("x1"), table.index("a1")}
    for bad in ({3: a1}, {-1: a1}):
        with pytest.raises(ContractViolation, match="outside columns 0..2"):
            PolyMatrix(table, 3, [{}, bad])


def test_canonical_commutativity(table):
    rng = random.Random(1)

    def random_poly():
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            mono = table.pack([rng.randrange(0, 3) for _ in range(len(table.names))])
            terms[mono] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        return Poly(table, terms)

    for _ in range(50):
        a, b = random_poly(), random_poly()
        assert (a + b).terms == (b + a).terms
        assert (a * b).terms == (b * a).terms


def test_mixed_tables_rejected():
    t1 = model_table(3, 1)
    t2 = model_table(4, 1)
    with pytest.raises(ContractViolation):
        t1.x(1) + t2.x(1)


def test_model_tables_are_shared():
    t = model_table(3, 1)
    assert model_table(3, 1) is t
    assert model_table(3, 1, ["s"]) is model_table(3, 1, ("s",))
    assert model_table(3, 1, ["s"]) is not t
    model1 = builtin_model("model1")  # two models of one layout share its table
    assert model1.zeroed(["a1"]).var_table is model1.var_table
    built = VarTable(t.names, t.state_count)  # equality and hash still go by value
    assert built is not t and built == t and hash(built) == hash(t)
    # equal monomials of a table's polynomials are one int
    p, q = parse(t, "p1*x2 + b1"), parse(t, "x2*p1")
    assert [m for m in p.terms if m in q.terms][0] is next(iter(q.terms))


def test_degrees_and_split(table):
    p = parse(table, "p1*x2*x3 + b1*x3 - c1*x2")
    assert p.total_degree() == 3
    assert state_degree(p) == 2
    groups = p.split_by_state()
    key_x3 = tuple(1 if n == "x3" else 0 for n in table.names[:3])
    assert groups[key_x3] == table.var("b1")


def test_primitive_and_content(table):
    p = parse(table, "x1*p1").scale(Fraction(4, 6)) + parse(table, "x2*p1").scale(Fraction(2, 3))
    assert p.content() == Fraction(2, 3)
    assert p.normalized() == parse(table, "x1*p1 + x2*p1")  # 2/3 removed, p1 kept
    assert (-p).normalized() == p.normalized()
    vec = [table.zero(), parse(table, "-2/3*x1"), parse(table, "4*p1")]
    assert normalized_vector(vec) == [table.zero(), parse(table, "x1"), parse(table, "-6*p1")]


def test_poly_proportional_matches_the_cross_scaling_reference(table):
    # proportional means equal after normalization; the reference scales
    # each polynomial by the other's leading coefficient instead
    rng = random.Random(17)

    def random_poly():
        return Poly(
            table,
            {
                table.pack([rng.randrange(3) for _ in table.names]): Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                for _ in range(rng.randrange(5))
            },
        )

    factors = [Fraction(0), Fraction(1), Fraction(-1), Fraction(6), Fraction(-5, 3), Fraction(2, 7)]
    outcomes = {}
    for _ in range(400):
        a = random_poly()
        pairs = {"scaled": a.scale(rng.choice(factors)), "unrelated": random_poly()}
        if len(a.terms) > 1:
            # one coefficient moved: same support, another ratio there
            m = rng.choice(list(a.terms))
            pairs["bent"] = Poly(table, {**a.terms, m: a.terms[m] * 2})
        for kind, b in pairs.items():
            got = poly_proportional(a, b)
            assert got == poly_proportional(b, a) == poly_proportional_reference(a, b), (a, b)
            outcomes.setdefault(kind, set()).add(got)
    assert outcomes == {"scaled": {True, False}, "unrelated": {True, False}, "bent": {False}}


def test_remap_between_tables():
    small = model_table(3, 1)
    big = model_table(5, 2)
    p = parse(small, "q1*x1 - a1")
    q = p.remapped(big)
    assert q == parse(big, "q1*x1 - a1")
    shifted = p.remapped(big, {"x1": "x3", "q1": "q2", "a1": "a2"})
    assert shifted == parse(big, "q2*x3 - a2")


def test_eval_exact(table):
    p = parse(table, "1/2*x1^2 - x2")
    vals = {table.index("x1"): Fraction(3), table.index("x2"): Fraction(1, 4)}
    assert poly_eval(p, vals) == Fraction(9, 2) - Fraction(1, 4)


def _layout_cases(rng, n):
    """Random exponent tuples over n variables: sparse ones, dense ones, and
    ones with the largest exponent, so fields, guard bits and ties in degree
    all occur."""
    cases = []
    for _ in range(12):
        exps = [0] * n
        for i in rng.sample(range(n), min(n, rng.randrange(1, 4))):
            exps[i] = rng.choice((1, 2, 3, 127, rng.randrange(128)))
        cases.append(exps)
        cases.append([rng.randrange(3) for _ in range(n)])
        cases.append([rng.choice((0, 127, rng.randrange(128))) for _ in range(n)])
    return [tuple(e) for e in cases]


def test_packed_layout_round_trips_orders_adds_and_divides():
    rng = random.Random(33)
    sizes = [1, 2, 3, 7, 43, 122, 421, *rng.sample(range(4, 421), 5)]
    for n in sizes:
        table = VarTable([f"v{i}" for i in range(n)], rng.randrange(1, n + 1))
        cases = _layout_cases(rng, n)
        for e in cases:
            assert table.unpack(table.pack(e)) == e
        assert sorted(cases, key=grlex_key) == sorted(cases, key=table.pack)
        for _ in range(20):
            a, b = rng.choice(cases), rng.choice(cases)
            total = tuple(x + y for x, y in zip(a, b))
            if max(total) <= EXPONENT_MAX:
                assert table.pack(a) + table.pack(b) == table.pack(total)
            q = table.quotient(table.pack(a), table.pack(b))
            if all(x >= y for x, y in zip(a, b)):
                assert q == table.pack(tuple(x - y for x, y in zip(a, b)))
            else:
                assert q is None
        # a monomial divides itself and is divided by 1
        assert all(table.quotient(table.pack(e), table.pack(e)) == 0 for e in cases)
        assert all(table.quotient(table.pack(e), 0) == table.pack(e) for e in cases)


def test_an_exponent_past_the_field_raises_instead_of_wrapping():
    table = VarTable([f"v{i}" for i in range(421)], 121)
    for name in ("v0", "v200", "v420"):  # next to the degree field, inside, lowest
        x = table.var(name)
        top = x**127
        assert table.unpack(next(iter(top.terms)))[table.index(name)] == 127
        for product in (lambda: top * x, lambda: x * top, lambda: x**128, lambda: (top + x) ** 2):
            with pytest.raises(ContractViolation, match="exceeds 127"):
                product()
        with pytest.raises(ContractViolation, match="0..127"):
            table.pack([128 if n == name else 0 for n in table.names])
    # dividing x^2*y^127 by x^2 + y gives the quotient term y^127, whose
    # cofactor y^127 * y leaves the field
    x, y = table.var("v0"), table.var("v420")
    with pytest.raises(ContractViolation, match="exceeds 127"):
        divide_exact(x**2 * y**127, x**2 + y)
    assert divide_exact(x**2 * y**126 * (x**2 + y), x**2 + y) == x**2 * y**126
