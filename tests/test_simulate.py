import math
import random
from fractions import Fraction

import pytest

from glomkit import simulate
from glomkit.errors import ConsistencyError, ContractViolation, IntegrationError
from glomkit.hamiltonian import casimirs
from glomkit.hierarchy import member
from glomkit.invariants import QuadraticForm, count_invariants
from glomkit.models import Glom, Gyrostat, ParamSpec, builtin_model, instantiate
from glomkit.simulate import SimConfig, dimension_probe, initial_state, integrate

from helpers import criterion_11_fixtures, reference_integrate

EULER_ASSIGN = {"p1": Fraction(1), "q1": Fraction(1)}  # r = -2
EULER_X0 = (0.3, 0.4, 0.5)


def euler_energy():
    g = builtin_model("euler")
    return g, QuadraticForm.energy(g.var_table)


def test_energy_drift_on_reference_orbit():
    g, energy = euler_energy()
    cfg = SimConfig(t_end=50.0, dt=1e-3, param_assignment=EULER_ASSIGN, initial_state=EULER_X0)
    rep = integrate(g, cfg, [energy], names=["energy"])
    assert rep.steps == 50000
    assert rep.quantities[0].max_relative_drift <= 1e-8


def test_zero_field_has_exactly_zero_drift():
    zero = ParamSpec.zero()
    g = Glom(3, (Gyrostat((1, 2, 3), a=zero, b=zero, c=zero, p=zero, q=zero),))
    cfg = SimConfig(t_end=1.0, dt=0.01, initial_state=(0.5, -0.25, 1.0))
    rep = integrate(g, cfg, [QuadraticForm.energy(g.var_table)])
    assert rep.quantities[0].max_abs_deviation == 0.0
    assert rep.final_state == cfg.initial_state


def test_state_error_converges_at_fourth_order():
    g, _ = euler_energy()

    def final(dt):
        cfg = SimConfig(t_end=10.0, dt=dt, param_assignment=EULER_ASSIGN, initial_state=EULER_X0)
        return integrate(g, cfg, []).final_state

    ref = final(0.0005)
    err = {}
    for dt in (0.04, 0.02):
        err[dt] = max(abs(a - b) for a, b in zip(final(dt), ref))
    ratio = math.log2(err[0.04] / err[0.02])
    assert 3.5 <= ratio <= 4.5


def test_time_reversal_returns_to_start():
    g, _ = euler_energy()
    fwd = integrate(
        g,
        SimConfig(t_end=50.0, dt=1e-3, param_assignment=EULER_ASSIGN, initial_state=EULER_X0),
        [],
    )
    back = integrate(
        g,
        SimConfig(t_end=50.0, dt=-1e-3, param_assignment=EULER_ASSIGN, initial_state=fwd.final_state),
        [],
    )
    assert max(abs(a - b) for a, b in zip(back.final_state, EULER_X0)) <= 1e-6


def test_casimir_drift_on_constrained_chain_model():
    from glomkit.hamiltonian import casimirs

    g = builtin_model("model2").zeroed(["q2"])
    assign = {n: Fraction(k + 1, 2) for k, n in enumerate(sorted(g.generic_param_names()))}
    exact = g.with_params({n: ParamSpec.exact(v) for n, v in assign.items()})
    cs = casimirs(exact)
    assert cs.casimirs
    cfg = SimConfig(t_end=50.0, dt=1e-3, param_assignment=assign, seed=5)
    rep = integrate(g, cfg, list(cs.casimirs), names=["casimir"])
    assert rep.quantities[0].max_relative_drift <= 1e-8


def test_seeded_initial_state_is_reproducible():
    g, _ = euler_energy()
    cfg = SimConfig(t_end=1.0, dt=0.1, param_assignment=EULER_ASSIGN, seed=99)
    assert initial_state(g, cfg) == initial_state(g, cfg)
    assert all(-1.0 <= v <= 1.0 for v in initial_state(g, cfg))


def raised_twice(exc_type, call) -> str:
    """The message `call` raises, raised again by a second identical call:
    a failure is never cached."""
    messages = []
    for _ in range(2):
        with pytest.raises(exc_type) as err:
            call()
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    return messages[0]


def test_unresolved_parameters_rejected():
    g, energy = euler_energy()
    cfg = SimConfig(t_end=1.0, dt=0.1, initial_state=EULER_X0)
    message = raised_twice(ContractViolation, lambda: integrate(g, cfg, [energy]))
    assert message == "unresolved parameters: ['p1']"


@pytest.mark.parametrize(
    "name, message",
    [("x1", "cannot assign the state variable 'x1'"), ("zz", "unknown variable 'zz'")],
)
def test_assignment_names_only_parameters(name, message):
    # x1 is a state variable: substituting x1 := 2 would hold it fixed in the field
    g, energy = euler_energy()
    values = {**EULER_ASSIGN, name: Fraction(2)}
    cfg = SimConfig(t_end=1.0, dt=0.01, param_assignment=values, initial_state=(0.1, 0.2, 0.3))
    assert raised_twice(ContractViolation, lambda: integrate(g, cfg, [energy])) == message
    assert raised_twice(ContractViolation, lambda: dimension_probe(g, cfg, [energy])) == message


def test_names_count_checked_on_a_cache_hit():
    g, energy = euler_energy()
    cfg = SimConfig(t_end=0.1, dt=0.01, param_assignment=EULER_ASSIGN, initial_state=EULER_X0)
    integrate(g, cfg, [energy])
    message = raised_twice(ContractViolation, lambda: integrate(g, cfg, [energy], names=["a", "b"]))
    assert message == "one name per tracked quantity"


def test_nonfinite_state_raises_integration_error():
    # quadratic growth without conservation: supplied exact r breaks p+q+r=0
    g = Glom(
        3,
        (
            Gyrostat(
                (1, 2, 3),
                a=ParamSpec.zero(),
                b=ParamSpec.zero(),
                c=ParamSpec.zero(),
                p=ParamSpec.exact(5),
                q=ParamSpec.exact(5),
                r_explicit=ParamSpec.exact(5),
            ),
        ),
    )
    cfg = SimConfig(t_end=100.0, dt=0.5, initial_state=(3.0, 3.0, 3.0))
    # the second call runs the cached stepper, which raises again
    got = raised_twice(IntegrationError, lambda: integrate(g, cfg, []))
    # the generated stepper stops at the reference's step
    with pytest.raises(IntegrationError) as want:
        reference_integrate(g, cfg, [])
    assert got == str(want.value)
    assert got.startswith("non-finite state at step ")


def test_bad_config_rejected():
    with pytest.raises(ContractViolation):
        SimConfig(t_end=0.0, dt=0.1)
    for t_end, dt in ((math.inf, 0.1), (1.0, math.nan), (math.nan, 0.1)):
        with pytest.raises(ContractViolation):
            SimConfig(t_end=t_end, dt=dt)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_initial_state_rejected_at_construction(bad):
    # bad input is refused as such, not blamed on the first integration step
    with pytest.raises(ContractViolation, match="^initial state must be finite$"):
        SimConfig(t_end=1.0, dt=0.1, initial_state=(0.5, bad, 1.0))


@pytest.mark.parametrize(
    "t_end, dt",
    [(1.0, 0.4), (1.0, 0.3), (1.0, -0.4), (1.0, 0.8), (1e300, 1e-300)],
)
def test_horizon_must_be_whole_steps(t_end, dt):
    with pytest.raises(ContractViolation):
        SimConfig(t_end=t_end, dt=dt)


@pytest.mark.parametrize(
    "t_end, dt, steps",
    [(50.0, 1e-3, 50000), (10.0, 0.04, 250), (10.0, 0.0005, 20000), (1.0, 5e-4, 2000),
     (0.1, 5e-4, 200), (1.0, 0.1, 10), (0.5, 0.01, 50), (50.0, -1e-3, 50000)],
)
def test_whole_horizons_accepted(t_end, dt, steps):
    assert SimConfig(t_end=t_end, dt=dt).steps == steps


# ---------------------------------------------------------------------------
# the generated stepper against the interpreted reference


def assert_same_floats(got, want):
    assert tuple(got) == tuple(want)
    # == does not see the sign of zero
    assert [v.hex() for v in got] == [v.hex() for v in want]


def assert_matches_reference(g, cfg, tracked):
    rep = integrate(g, cfg, tracked)
    final, initial, max_dev = reference_integrate(g, cfg, tracked)
    assert rep.steps == cfg.steps
    assert_same_floats(rep.final_state, final)
    assert_same_floats([q.initial for q in rep.quantities], initial)
    assert_same_floats([q.max_abs_deviation for q in rep.quantities], max_dev)
    assert_same_floats(
        [q.max_relative_drift for q in rep.quantities],
        [d / max(1.0, abs(v)) for d, v in zip(max_dev, initial)],
    )
    return rep


def test_generated_stepper_matches_reference_on_criterion_11_fixtures():
    for i, (tag, g, values, tracked) in enumerate(criterion_11_fixtures()):
        cfg = SimConfig(t_end=1.0, dt=1e-3, param_assignment=values, seed=100 + i)
        assert_matches_reference(g, cfg, tracked)


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_stepper_matches_reference_on_benchmark_models(seed):
    # the conservation workload's four models, instantiated at values in 1..5
    rng = random.Random(seed)
    for g in (builtin_model("euler"), builtin_model("model3"), member("sparse", 3), member("dense1", 4)):
        values = {s: Fraction(rng.randrange(1, 6)) for s in g.free_symbols()}
        exact = instantiate(g, values)
        tracked = list(count_invariants(exact, seed=rng.randrange(1 << 30)).basis)
        tracked += casimirs(exact).casimirs
        cfg = SimConfig(t_end=1.0, dt=5e-4, param_assignment=values, seed=rng.randrange(1 << 30))
        rep = assert_matches_reference(g, cfg, tracked)
        assert len(rep.quantities) == len(tracked) > 0


def test_generated_stepper_matches_reference_backwards_and_untracked():
    g, energy = euler_energy()
    for dt in (1e-3, -1e-3):
        cfg = SimConfig(t_end=1.0, dt=dt, param_assignment=EULER_ASSIGN, initial_state=EULER_X0)
        assert_matches_reference(g, cfg, [energy])
        assert_matches_reference(g, cfg, [])


def test_generated_stepper_matches_reference_on_zero_field():
    zero = ParamSpec.zero()
    g = Glom(3, (Gyrostat((1, 2, 3), a=zero, b=zero, c=zero, p=zero, q=zero),))
    cfg = SimConfig(t_end=0.1, dt=0.01, initial_state=(0.5, -0.0, 1.0))
    rep = assert_matches_reference(g, cfg, [QuadraticForm.energy(g.var_table)])
    assert rep.final_state[1].hex() == "0x0.0p+0"  # -0.0 + scale*0.0 is +0.0


# ---------------------------------------------------------------------------
# the stepper cache: one compilation per (model, assignment, tracked forms)


def model3_case(values=None, drop_form=False, zeroed=()):
    """model3 at values in 1..5 with its invariants and Casimirs, each
    object built afresh so that a cache hit rests on equality alone."""
    g = builtin_model("model3")
    rng = random.Random(3)
    base = {s: Fraction(rng.randrange(1, 6)) for s in g.free_symbols()}
    values = {**base, **(values or {})}
    exact = instantiate(g, values)
    tracked = list(count_invariants(exact, seed=0).basis) + list(casimirs(exact).casimirs)
    if drop_form:
        tracked.pop()
    return g.zeroed(list(zeroed)), values, tracked


@pytest.fixture
def compile_count(monkeypatch):
    """Clears the stepper cache and counts the `compile_field` calls."""
    calls = []
    compile_field = simulate.compile_field

    def counted(*args):
        calls.append(args)
        return compile_field(*args)

    simulate._stepper.cache_clear()
    monkeypatch.setattr(simulate, "compile_field", counted)
    yield calls
    simulate._stepper.cache_clear()


def test_equal_inputs_compile_the_stepper_once(compile_count):
    for seed in (1, 2, 3, 4):
        g, values, tracked = model3_case()
        cfg = SimConfig(t_end=0.5, dt=5e-4, param_assignment=values, seed=seed)
        assert_matches_reference(g, cfg, tracked)
    assert len(compile_count) == 1


@pytest.mark.parametrize(
    "change",
    [{"values": {"a1": Fraction(7)}}, {"drop_form": True}, {"zeroed": ("b2",)}],
    ids=["assigned-value", "tracked-form", "zeroed-slot"],
)
def test_changed_input_compiles_its_own_stepper(compile_count, change):
    # a key too coarse would run the first stepper on the second input
    runs = []
    for case in (model3_case(), model3_case(**change)):
        g, values, tracked = case
        cfg = SimConfig(t_end=0.5, dt=5e-4, param_assignment=values, seed=1)
        runs.append(assert_matches_reference(g, cfg, tracked))
    assert len(compile_count) == 2
    assert runs[0] != runs[1]


def test_int_and_fraction_assignments_give_identical_reports(compile_count):
    g, energy = euler_energy()
    as_int = {name: int(v) for name, v in EULER_ASSIGN.items()}
    reports = []
    for order in ((as_int, EULER_ASSIGN), (EULER_ASSIGN, as_int)):
        simulate._stepper.cache_clear()
        for values in order:  # the second, an equal key, runs the first's stepper
            cfg = SimConfig(t_end=0.5, dt=1e-3, param_assignment=values, initial_state=EULER_X0)
            reports.append(assert_matches_reference(g, cfg, [energy]))
    assert len(compile_count) == 2
    assert all(rep == reports[0] for rep in reports)


# ---------------------------------------------------------------------------
# dimension probe


def exact_model(name, zeroed=(), value_map=None):
    g = builtin_model(name).zeroed(list(zeroed))
    values = value_map or {}
    assignment = {}
    for i, n in enumerate(sorted(g.generic_param_names())):
        assignment[n] = values.get(n, Fraction(i % 3 + 1, 2))
    exact = g.with_params({n: ParamSpec.exact(v) for n, v in assignment.items()})
    return g, exact, assignment


def test_dimension_probe_single_gyrostat():
    g, exact, assignment = exact_model("euler")
    basis = list(count_invariants(exact, seed=0).basis)
    cfg = SimConfig(t_end=20.0, dt=1e-3, param_assignment=assignment, initial_state=EULER_X0)
    assert dimension_probe(g, cfg, basis) == 1


def test_dimension_probe_fully_degenerate_subclass():
    # all four linear feedbacks zero: three independent invariants, 1D motion
    g, exact, assignment = exact_model("model1", zeroed=("b1", "c1", "a2", "b2"))
    report = count_invariants(exact, seed=1)
    assert report.independent_count == 3  # the raw basis holds a dependent pair
    cfg = SimConfig(t_end=20.0, dt=1e-3, param_assignment=assignment, seed=3)
    assert dimension_probe(g, cfg, list(report.basis)) == 1


def test_dimension_probe_energy_only_subclass():
    # one linear feedback arrangement leaving only the energy
    g, exact, assignment = exact_model("model1", zeroed=("b1", "b2"))
    report = count_invariants(exact, seed=1)
    assert report.independent_count == 1
    cfg = SimConfig(t_end=20.0, dt=1e-3, param_assignment=assignment, seed=3)
    assert dimension_probe(g, cfg, list(report.basis)) == 3


def test_dimension_probe_detects_non_invariants():
    g, exact, assignment = exact_model("euler")
    bogus = QuadraticForm.from_numeric(g.var_table, [Fraction(1), Fraction(0), Fraction(0)])
    cfg = SimConfig(t_end=5.0, dt=1e-3, param_assignment=assignment, initial_state=EULER_X0)
    with pytest.raises(ConsistencyError):
        dimension_probe(g, cfg, [bogus])
