import random
import re
from fractions import Fraction

import pytest

from glomkit import models
from glomkit.cli import parse_model_config
from glomkit.errors import ConfigError, ContractViolation
from glomkit.hierarchy import FAMILY_MAX_K, member
from glomkit.models import (
    Glom,
    Gyrostat,
    ParamSpec,
    assemble_field,
    builtin_model,
    check_energy,
    find_sign_symmetries,
    generic_gyrostat,
    instantiate,
    no_linear_feedback,
)

from helpers import FAMILY_TOP_K, compose, divergence, is_sign_symmetry, parse_vector, state_degree
from identity_corpus import CONFIGS

MODEL1_COMPONENTS = [
    "p1*x2*x3 + b1*x3 - c1*x2",
    "q1*x3*x1 + c1*x1 - a1*x3 + p2*x3*x4 + b2*x4 - c2*x3",
    "-(p1+q1)*x1*x2 + a1*x2 - b1*x1 + q2*x4*x2 + c2*x2 - a2*x4",
    "-(p2+q2)*x2*x3 + a2*x3 - b2*x2",
]

SINGLE_COMPONENTS = [
    "p1*x2*x3 + b1*x3 - c1*x2",
    "q1*x3*x1 + c1*x1 - a1*x3",
    "-(p1+q1)*x1*x2 + a1*x2 - b1*x1",
]


def test_model1_field_components():
    g = builtin_model("model1")
    field = assemble_field(g)
    expected = parse_vector(g.var_table, MODEL1_COMPONENTS)
    assert list(field.components) == expected


def test_single_gyrostat_field():
    g = builtin_model("sparse", 1)
    field = assemble_field(g)
    assert list(field.components) == parse_vector(g.var_table, SINGLE_COMPONENTS)


def test_all_zero_params_gives_zero_field():
    zero = ParamSpec.zero()
    g = Glom(3, (Gyrostat((1, 2, 3), a=zero, b=zero, c=zero, p=zero, q=zero),))
    assert all(c.is_zero() for c in assemble_field(g).components)


def test_field_linear_in_gyrostats():
    g = builtin_model("model3")
    field = assemble_field(g)
    table = g.var_table
    parts = [
        assemble_field(Glom(g.modes, (gyro,), g.extra_symbols)) for gyro in g.gyrostats
    ]
    for i in range(g.modes):
        total = table.zero()
        for k, part in enumerate(parts):
            # single-gyrostat sub-models use gyrostat index 1; remap to k+1
            remap = {f"{letter}1": f"{letter}{k + 1}" for letter in "abcpqr"}
            total = total + part.components[i].remapped(table, remap)
        assert total == field.components[i]


def test_quadratic_part_is_divergence_free():
    for name in ("model1", "model2", "model3", "model4", "model5"):
        field = assemble_field(builtin_model(name))
        assert divergence(field).is_zero()


def test_components_are_at_most_quadratic_in_state():
    for name in ("model1", "model2", "model3", "model4", "model5"):
        field = assemble_field(builtin_model(name))
        assert all(state_degree(c) <= 2 for c in field.components)


def test_check_energy_model2():
    assert check_energy(builtin_model("model2")).ok


def test_check_energy_violating_exact_triple():
    one = ParamSpec.exact(1)
    g = Glom(3, (Gyrostat((1, 2, 3), a=one, b=one, c=one, p=one, q=one, r_explicit=one),))
    report = check_energy(g)
    assert not report.ok
    assert any("gyrostat 1" in msg for msg in report.diagnostics)


def test_energy_ok_agrees_with_the_polynomial_sum():
    # energy_ok reads the stored specs; the reference builds p + q + r
    fixtures = ("model1", "model2", "model3", "model4", "model5", "euler")
    gloms = [builtin_model(name) for name in fixtures]
    for family in ("sparse", "dense1", "dense2", "model4", "model5"):
        for K in range(1, FAMILY_MAX_K.get(family, 8) + 1):
            gloms += [member(family, K, constrained) for constrained in (True, False)]
    # explicit r, summing to zero and not
    half = Fraction(1, 2)
    for p, q, r in ((1, 2, -3), (half, 0, -half), (0, 0, 0), (1, 1, 1), (2, -1, 0)):
        p, q, r = map(ParamSpec.exact, (p, q, r))
        gyro = Gyrostat((1, 2, 3), *[ParamSpec.generic()] * 3, p=p, q=q, r_explicit=r)
        gloms.append(Glom(3, (gyro,)))
    seen = set()
    for g in gloms:
        table = g.var_table
        for gyro in g.gyrostats:
            total = gyro.p.to_poly(table) + gyro.q.to_poly(table) + gyro.r_poly(table)
            assert gyro.energy_ok() == total.is_zero()
            seen.add(gyro.energy_ok())
    assert seen == {True, False}


def test_energy_derivative_vanishes_for_builtins():
    for name in ("model1", "model2", "model3", "model4", "model5", "euler"):
        g = builtin_model(name)
        assert assemble_field(g).energy_derivative().is_zero()
    assert assemble_field(builtin_model("model5_numeric")).energy_derivative().is_zero()


def test_builtin_model3_structure():
    g = builtin_model("model3")
    assert g.modes == 5 and g.K == 3
    assert [gyro.modes for gyro in g.gyrostats] == [(1, 2, 3), (3, 4, 5), (1, 2, 4)]


def test_builtin_sparse_and_dense_triples():
    sparse = builtin_model("sparse", 3)
    assert sparse.modes == 7
    assert [gyro.modes for gyro in sparse.gyrostats] == [(1, 2, 3), (3, 4, 5), (5, 6, 7)]
    dense = builtin_model("dense", 3)
    assert dense.modes == 5
    assert [gyro.modes for gyro in dense.gyrostats] == [(1, 2, 3), (2, 3, 4), (3, 4, 5)]
    assert builtin_model("sparse", 1).modes == 3


def test_builtin_model4_model5_triples():
    assert [g.modes for g in builtin_model("model4").gyrostats] == [(1, 2, 3), (1, 4, 5), (1, 6, 7)]
    assert [g.modes for g in builtin_model("model5").gyrostats] == [
        (1, 2, 3), (1, 4, 5), (6, 7, 8), (3, 4, 7), (2, 5, 7),
    ]


def test_unknown_builtin_rejected():
    with pytest.raises(ContractViolation):
        builtin_model("model99")


MODEL5_NUMERIC_COMPONENTS = [
    "-x2*x3 - x4*x5",
    "x3*x1 - x3 - 1/2*x5*x7",
    "x2",
    "x5*x1 - x5 - 1/2*x3*x7",
    "x4",
    "-2*beta*x7*x8",
    "2*beta*x8*x6 - beta*x8 + 1/2*x3*x4 + 1/2*x5*x2",
    "beta*x7",
]


def test_model5_numeric_reproduces_convection_core():
    g = builtin_model("model5_numeric")
    field = assemble_field(g)
    expected = parse_vector(g.var_table, MODEL5_NUMERIC_COMPONENTS)
    assert list(field.components) == expected
    assert check_energy(g).ok


def test_unreferenced_mode_warns_not_errors():
    g = Glom(4, (Gyrostat((1, 2, 3), *(ParamSpec.generic() for _ in range(5))),))
    assert any("mode 4" in w for w in g.warnings)


# ---------------------------------------------------------------------------
# sign symmetries


def test_euler_has_exactly_three_symmetries():
    syms = find_sign_symmetries(builtin_model("euler"))
    assert sorted(s.signs for s in syms) == [(-1, -1, 1), (-1, 1, -1), (1, -1, -1)]


def test_feedback_free_model2_has_seven_symmetries():
    g = no_linear_feedback(builtin_model("model2"))
    syms = find_sign_symmetries(g)
    assert len(syms) == 7
    expected = {
        (-1, -1, 1, -1, -1),
        (-1, -1, 1, 1, 1),
        (-1, 1, -1, -1, 1),
        (-1, 1, -1, 1, -1),
        (1, -1, -1, -1, 1),
        (1, -1, -1, 1, -1),
        (1, 1, 1, -1, -1),
    }
    assert {s.signs for s in syms} == expected


def test_model1_generic_has_no_symmetries():
    assert find_sign_symmetries(builtin_model("model1")) == []


def symmetry_models():
    """Every fixture and every hierarchy member with at most 10 modes, each
    with and without linear feedback."""
    gloms = [builtin_model(name) for name in ("model1", "model2", "model3", "model4", "model5", "euler")]
    for family in ("sparse", "dense1", "dense2", "model4", "model5"):
        for K in range(1, FAMILY_MAX_K.get(family, 8) + 1):  # M >= K + 2
            if member(family, K).modes <= 10:
                gloms += [member(family, K, constrained) for constrained in (True, False)]
    return gloms + [no_linear_feedback(g) for g in gloms]


def test_symmetries_match_brute_force():
    for g in symmetry_models():
        field = assemble_field(g)
        brute = []
        for mask in range(1, 1 << g.modes):
            signs = tuple(-1 if mask >> i & 1 else 1 for i in range(g.modes))
            if is_sign_symmetry(field, signs):
                brute.append(signs)
        assert sorted(brute) == [s.signs for s in find_sign_symmetries(g)]


def test_feedback_free_sparse_K12_has_8191_symmetries():
    # 25 modes, 13 generators: the limit bounds the enumeration, not M
    g = no_linear_feedback(member("sparse", 12))
    syms = find_sign_symmetries(g)
    assert len(syms) == 2**13 - 1
    field = assemble_field(g)
    for s in random.Random(12).sample(syms, 40):
        assert is_sign_symmetry(field, s.signs)


def _refuse(*args):
    raise AssertionError("a candidate was enumerated")


def test_sign_symmetry_generator_limit(monkeypatch):
    # a zero field on M modes has M generators and 2^M - 1 symmetries
    zero = ParamSpec.zero()

    def zero_field(modes):
        return Glom(modes, (Gyrostat((1, 2, 3), zero, zero, zero, zero, zero),))

    assert len(find_sign_symmetries(zero_field(16))) == 2**16 - 1
    monkeypatch.setattr(models, "SignSymmetry", _refuse)
    with pytest.raises(ContractViolation, match="limited to 16 generators"):
        find_sign_symmetries(zero_field(17))


def test_symmetries_form_a_group():
    g = no_linear_feedback(builtin_model("model2"))
    syms = find_sign_symmetries(g)
    members = {s.signs for s in syms} | {(1,) * 5}
    for a in syms:
        for b in syms:
            assert compose(a, b).signs in members


def test_slots_name_every_stored_coefficient_gyrostat_by_gyrostat():
    g = builtin_model("model5_numeric")
    slots = g.slots()
    assert list(slots) == [f"{letter}{k}" for k in range(1, 6) for letter in "abcpq"]
    assert slots["p3"] == g.gyrostats[2].p == ParamSpec.scaled("beta", -2)
    assert g.with_params(slots) == g


def test_custom_symbol_with_own_index_is_an_extra():
    # z1 ends in gyrostat 1's index but is none of its standard names; b1 on
    # gyrostat 2 ties a standard name of gyrostat 1; a1 on gyrostat 1 is its own
    g = Glom(
        4,
        (
            generic_gyrostat((1, 2, 3), c=ParamSpec.scaled("z1", 1), q=ParamSpec.scaled("a1", 2)),
            generic_gyrostat((2, 3, 4), b=ParamSpec.scaled("b1", -1)),
        ),
    )
    assert g.extra_symbols == ("z1", "b1")
    assert "z1" in g.var_table.names
    assert g.free_symbols() == ["a1", "a2", "b1", "c2", "p1", "p2", "q2", "z1"]
    from glomkit.hamiltonian import build_J, jacobi
    from glomkit.invariants import count_invariants

    jacobi(build_J(g))
    assert count_invariants(g).raw_count >= 1
    assert g.zeroed(["c1"]).extra_symbols == ("b1",)
    assert "z1" not in g.zeroed(["c1"]).free_symbols()


def test_an_edited_model_names_only_the_extra_symbols_its_slots_use():
    # equality, and so a stepper cache hit, does not depend on the edit history
    model1 = builtin_model("model1")
    edited = model1.with_params({"a1": ParamSpec.scaled("s", 1)})
    assert edited.extra_symbols == ("s",)
    undone = edited.with_params({"a1": ParamSpec.generic()})
    assert undone == model1 and undone.var_table is model1.var_table
    # instantiate alone keeps the symbols, so the instance's forms take the
    # symbolic model's assignment
    exact = instantiate(builtin_model("model5_numeric"), {"beta": Fraction(2)})
    assert exact.extra_symbols == ("beta",) and not exact.free_symbols()


@pytest.mark.parametrize("symbol, coeff", [("x1", 1), ("generic", 2), ("a b", 1), ("x7", 1), ("1bad", 1)])
def test_model_refuses_a_symbol_its_config_echo_cannot_name(symbol, coeff):
    # x1 and x7 would merge into state variables, "generic" is the config keyword
    # and "a b" and "1bad" are no identifiers: the echo of such a model would
    # not parse back, whether a slot or extra_symbols names the symbol
    message = rf"^extra symbol {re.escape(repr(symbol))} is not a parameter symbol$"
    with pytest.raises(ContractViolation, match=message):
        Glom(3, (generic_gyrostat((1, 2, 3)),), extra_symbols=(symbol,))
    gyro = generic_gyrostat((2, 3, 4), b=ParamSpec.scaled(symbol, coeff))
    with pytest.raises(ContractViolation, match=r"^b2: .* is not a parameter symbol$"):
        Glom(4, (generic_gyrostat((1, 2, 3)), gyro))
    with pytest.raises(ContractViolation, match=r"^b2: "):
        builtin_model("model1").with_params({"b2": ParamSpec.scaled(symbol, coeff)})


def _layout_models():
    gloms = [builtin_model(name) for name in (*models.BUILTIN_TRIPLES, "euler", "model5_numeric")]
    gloms += [builtin_model(name, K) for name in ("sparse", "dense") for K in (1, 2, 6)]
    for family, k_top in FAMILY_TOP_K.items():
        gloms += [member(family, K, c) for K in range(1, k_top + 1) for c in (True, False)]
    for doc in CONFIGS.values():
        try:
            gloms.append(parse_model_config(doc))
        except ConfigError:
            pass  # the corpus's malformed configs build no model
    return gloms


def test_variable_table_is_states_then_slots_then_new_extras():
    for g in _layout_models():
        slots = g.slots()
        states = tuple(f"x{i}" for i in range(1, g.modes + 1))
        extras = tuple(s for s in g.extra_symbols if s not in slots)
        assert g.var_table.names == (*states, *slots, *extras)
        assert g.var_table.state_count == g.modes
    # r is derived, so a symbol named r1 or r2 is an extra after every slot
    g = parse_model_config(CONFIGS["r_symbol"])
    assert g.extra_symbols == ("r1", "r2")
    assert g.var_table.names[-3:] == ("q2", "r1", "r2") and len(g.var_table) == 16
