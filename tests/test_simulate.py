import math
from fractions import Fraction

import pytest

from glomkit.errors import ConsistencyError, ContractViolation, IntegrationError
from glomkit.invariants import QuadraticForm, count_invariants
from glomkit.models import Glom, Gyrostat, ParamSpec, builtin_model
from glomkit.simulate import SimConfig, dimension_probe, initial_state, integrate

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


def test_unresolved_parameters_rejected():
    g, energy = euler_energy()
    cfg = SimConfig(t_end=1.0, dt=0.1, initial_state=EULER_X0)
    with pytest.raises(ContractViolation):
        integrate(g, cfg, [energy])


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
    with pytest.raises(IntegrationError):
        integrate(g, cfg, [])


def test_bad_config_rejected():
    with pytest.raises(ContractViolation):
        SimConfig(t_end=0.0, dt=0.1)
    for t_end, dt in ((math.inf, 0.1), (1.0, math.nan), (math.nan, 0.1)):
        with pytest.raises(ContractViolation):
            SimConfig(t_end=t_end, dt=dt)


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
