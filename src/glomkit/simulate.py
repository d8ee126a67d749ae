"""Fixed-step RK4 integration and conservation-drift measurement.

The numeric layer is a falsification harness for the symbolic one: the
exact claims live in the algebra, and this module only checks that the
quantities reported as conserved actually stay flat along trajectories.
A model's field and tracked quadratic forms become flat term lists (float
coefficient, state-index tuple), then one straight-line Python function
that runs every step with the float operations of the textbook stepper
kept in the tests, in its order, so reports are bit-identical to it.  The
function is compiled once per model, parameter assignment and tracked
forms; the `STEPPER_CACHE_SIZE` most recently used are kept, and a failure
is never cached.
"""

from __future__ import annotations

import contextlib
import functools
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ConsistencyError, ContractViolation, IntegrationError
from .invariants import QuadraticForm, independent_count
from .models import Glom, assemble_field

PROBE_DRIFT_TOLERANCE = 1e-6
STEPPER_CACHE_SIZE = 32


@dataclass(frozen=True)
class SimConfig:
    t_end: float
    dt: float
    param_assignment: Mapping[str, Fraction] = field(default_factory=dict)
    initial_state: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.t_end)):
            raise ContractViolation("dt and t_end must be finite")
        if self.initial_state is not None and not all(map(math.isfinite, self.initial_state)):
            raise ContractViolation("initial state must be finite")
        if self.dt == 0:
            raise ContractViolation("dt must be nonzero")
        if abs(self.t_end) < abs(self.dt):
            raise ContractViolation("t_end must cover at least one step")
        ratio = abs(self.t_end / self.dt)
        if not math.isfinite(ratio):
            raise ContractViolation(f"t_end/dt = {ratio} is not a finite step count")
        if abs(ratio - self.steps) > 1e-9 * self.steps:
            raise ContractViolation(
                f"t_end {self.t_end} is not a whole number of steps of {self.dt} ({ratio:.6g})"
            )

    @property
    def steps(self) -> int:
        return round(abs(self.t_end / self.dt))


@dataclass(frozen=True)
class QuantityDrift:
    name: str
    initial: float
    max_abs_deviation: float
    max_relative_drift: float


@dataclass(frozen=True)
class DriftReport:
    steps: int
    dt: float
    t_end: float
    initial_state: tuple[float, ...]
    quantities: tuple[QuantityDrift, ...]
    final_state: tuple[float, ...]

    def worst_relative_drift(self) -> float:
        return max((q.max_relative_drift for q in self.quantities), default=0.0)


Term = tuple[float, tuple[int, ...]]


def _compile_poly(poly, assignment: Mapping[str, Fraction]) -> list[Term]:
    """Flatten a polynomial to (float coefficient, state index tuple) terms."""
    table = poly.table
    resolved = poly.subs(dict(assignment)) if assignment else poly
    leftover = resolved.parameter_names()
    if leftover:
        raise ContractViolation(f"unresolved parameters: {sorted(leftover)}")
    # no parameter is left, so distinct terms have distinct state monomials
    terms = []
    for mono, coeff in resolved.terms.items():
        idx = tuple(i for i, e in table.factors(mono) for _ in range(e))
        terms.append((_to_float(coeff, idx), idx))
    return terms


def _to_float(c: Fraction, idx: tuple[int, ...]) -> float:
    """The nonzero c as a float; ContractViolation if it overflows or
    underflows to zero."""
    with contextlib.suppress(OverflowError):
        if value := float(c):
            return value
    name = "*".join(f"x{i + 1}" for i in idx) or "1"
    approx = Decimal(c.numerator) / c.denominator
    raise ContractViolation(f"coefficient {approx:.3g} of {name} does not fit a float")


def compile_field(g: Glom, assignment: Mapping[str, Fraction]) -> list[list[Term]]:
    return [_compile_poly(comp, assignment) for comp in assemble_field(g).components]


def compile_form(form: QuadraticForm, assignment: Mapping[str, Fraction]) -> list[Term]:
    return _compile_poly(form.value_poly(), assignment)


def initial_state(g: Glom, cfg: SimConfig) -> tuple[float, ...]:
    if cfg.initial_state is not None:
        if len(cfg.initial_state) != g.modes:
            raise ContractViolation("initial state has wrong dimension")
        return tuple(float(v) for v in cfg.initial_state)
    rng = random.Random(cfg.seed)
    return tuple(rng.uniform(-1.0, 1.0) for _ in range(g.modes))


def _sum_src(terms: Sequence[Term], var: str) -> str:
    """Source of the term sum at the point named `var`: 0.0 + c*x_i*x_j + ..."""
    parts = ["0.0"]
    for c, idx in terms:
        parts.append("*".join([repr(c)] + [f"{var}{i}" for i in idx]))
    return " + ".join(parts)


def _tuple_src(names: Sequence[str]) -> str:
    return "(" + "".join(f"{v}, " for v in names) + ")"


def _stepper_src(field: Sequence[Sequence[Term]], forms: Sequence[Sequence[Term]]) -> str:
    """Source of `run(state, steps, dt) -> (final state, initial values, max deviations)`.

    Component i of the state is the local `x{i}`, of stage s `k{s}_{i}`, of
    the current stage point `y{i}`.  The float operations are those of the
    textbook stepper, in its order: sums accumulated from 0.0 in term order,
    midpoints x + (0.5*dt)*k, end point x + dt*k3, update
    x + (dt/6)*(k1 + 2.0*(k2 + k3) + k4); repr round-trips each coefficient.
    """
    n = len(field)
    xs = [f"x{i}" for i in range(n)]
    init = [f"i{q}" for q in range(len(forms))]
    dev = [f"m{q}" for q in range(len(forms))]
    lines = [
        "def run(state, steps, dt):",
        f"    {_tuple_src(xs)} = state",
        "    h2 = 0.5 * dt",
        "    scale = dt / 6.0",
    ]
    lines += [f"    i{q} = {_sum_src(t, 'x')}" for q, t in enumerate(forms)]
    lines += [f"    m{q} = 0.0" for q in range(len(forms))]
    lines.append("    for step in range(1, steps + 1):")
    for stage, point, factor in ((1, "x", "h2"), (2, "y", "h2"), (3, "y", "dt"), (4, "y", None)):
        lines += [f"        k{stage}_{i} = {_sum_src(t, point)}" for i, t in enumerate(field)]
        if factor:
            lines += [f"        y{i} = x{i} + {factor}*k{stage}_{i}" for i in range(n)]
    lines += [
        f"        x{i} = x{i} + scale*(k1_{i} + 2.0*(k2_{i} + k3_{i}) + k4_{i})" for i in range(n)
    ]
    lines += [
        "        if not (" + " and ".join(f"isfinite({v})" for v in xs) + "):",
        "            raise IntegrationError(f'non-finite state at step {step}')",
    ]
    for q, t in enumerate(forms):
        lines += [
            f"        d = abs({_sum_src(t, 'x')} - i{q})",
            f"        if d > m{q}:",
            f"            m{q} = d",
        ]
    lines.append(f"    return {_tuple_src(xs)}, {_tuple_src(init)}, {_tuple_src(dev)}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=STEPPER_CACHE_SIZE)
def _stepper(g: Glom, assignment: frozenset, tracked: tuple[QuadraticForm, ...]):
    """`run` of `_stepper_src` for these (name, value) pairs.  Model and
    form equality fix the source, and `Poly.subs` is exact, so pair order
    is free; sorting fixes which unknown name an error quotes."""
    values = dict(sorted(assignment))
    for name in values:
        if name in g.var_table.names[: g.modes]:
            raise ContractViolation(f"cannot assign the state variable {name!r}")
    field_terms = compile_field(g, values)
    form_terms = [compile_form(f, values) for f in tracked]
    namespace = {"isfinite": math.isfinite, "IntegrationError": IntegrationError}
    exec(compile(_stepper_src(field_terms, form_terms), "<rk4>", "exec"), namespace)
    return namespace["run"]


def integrate(
    g: Glom,
    cfg: SimConfig,
    tracked: Sequence[QuadraticForm],
    names: Sequence[str] | None = None,
) -> DriftReport:
    """Classical RK4; evaluates every tracked form at every step."""
    tracked = tuple(tracked)
    run = _stepper(g, frozenset(cfg.param_assignment.items()), tracked)
    names = list(names) if names is not None else [f"C{i+1}" for i in range(len(tracked))]
    if len(names) != len(tracked):
        raise ContractViolation("one name per tracked quantity")
    x0 = initial_state(g, cfg)
    final, initial, max_dev = run(x0, cfg.steps, cfg.dt)
    quantities = tuple(
        QuantityDrift(
            name=names[qi],
            initial=initial[qi],
            max_abs_deviation=max_dev[qi],
            max_relative_drift=max_dev[qi] / max(1.0, abs(initial[qi])),
        )
        for qi in range(len(tracked))
    )
    return DriftReport(cfg.steps, cfg.dt, cfg.t_end, x0, quantities, final)


def dimension_probe(g: Glom, cfg: SimConfig, basis: Sequence[QuadraticForm]) -> int:
    """Expected dimension of the invariant manifold holding the trajectory.

    Returns M minus the number of functionally independent members of
    `basis`, after confirming that each member's numeric drift stays within
    tolerance (the sanity coupling between the symbolic and numeric layers).
    """
    numeric = [f.instantiate(dict(cfg.param_assignment)) for f in basis]
    report = integrate(g, cfg, numeric)
    for q in report.quantities:
        if q.max_relative_drift > PROBE_DRIFT_TOLERANCE:
            raise ConsistencyError(
                f"{q.name} drifts {q.max_relative_drift:.3e}, beyond {PROBE_DRIFT_TOLERANCE:.0e}"
            )
    return g.modes - independent_count(numeric, random.Random(cfg.seed))
