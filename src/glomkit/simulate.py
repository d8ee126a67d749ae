"""Fixed-step RK4 integration and conservation-drift measurement.

The numeric layer is a falsification harness for the symbolic one: the
exact claims live in the algebra, and this module only checks that the
quantities reported as conserved actually stay flat along trajectories.
Fields and tracked quadratic forms are compiled once to flat term lists
(coefficient, state-index tuple) and evaluated in plain Python floats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ConsistencyError, ContractViolation, IntegrationError
from .invariants import QuadraticForm, independent_count
from .models import Glom, assemble_field

PROBE_DRIFT_TOLERANCE = 1e-6


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
        if self.dt == 0:
            raise ContractViolation("dt must be nonzero")
        if abs(self.t_end) < abs(self.dt):
            raise ContractViolation("t_end must cover at least one step")


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
    M = table.state_count
    resolved = poly.subs(dict(assignment)) if assignment else poly
    leftover = resolved.parameter_names()
    if leftover:
        raise ContractViolation(f"unresolved parameters: {sorted(leftover)}")
    merged: dict[tuple[int, ...], Fraction] = {}
    for mono, coeff in resolved.terms.items():
        idx = []
        for i in range(M):
            idx.extend([i] * mono[i])
        key = tuple(idx)
        merged[key] = merged.get(key, Fraction(0)) + coeff
    return [(float(c), idx) for idx, c in merged.items() if c]


def compile_field(g: Glom, assignment: Mapping[str, Fraction]) -> list[list[Term]]:
    return [_compile_poly(comp, assignment) for comp in assemble_field(g).components]


def compile_form(form: QuadraticForm, assignment: Mapping[str, Fraction]) -> list[Term]:
    return _compile_poly(form.value_poly(), assignment)


def _eval_terms(terms: Sequence[Term], x: Sequence[float]) -> float:
    total = 0.0
    for c, idx in terms:
        v = c
        for i in idx:
            v *= x[i]
        total += v
    return total


def _rk4_step(field: Sequence[Sequence[Term]], x: list[float], dt: float) -> list[float]:
    n = len(x)
    k1 = [_eval_terms(field[i], x) for i in range(n)]
    mid1 = [x[i] + 0.5 * dt * k1[i] for i in range(n)]
    k2 = [_eval_terms(field[i], mid1) for i in range(n)]
    mid2 = [x[i] + 0.5 * dt * k2[i] for i in range(n)]
    k3 = [_eval_terms(field[i], mid2) for i in range(n)]
    end = [x[i] + dt * k3[i] for i in range(n)]
    k4 = [_eval_terms(field[i], end) for i in range(n)]
    scale = dt / 6.0
    return [x[i] + scale * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in range(n)]


def initial_state(g: Glom, cfg: SimConfig) -> tuple[float, ...]:
    if cfg.initial_state is not None:
        if len(cfg.initial_state) != g.modes:
            raise ContractViolation("initial state has wrong dimension")
        return tuple(float(v) for v in cfg.initial_state)
    rng = random.Random(cfg.seed)
    return tuple(rng.uniform(-1.0, 1.0) for _ in range(g.modes))


def integrate(
    g: Glom,
    cfg: SimConfig,
    tracked: Sequence[QuadraticForm],
    names: Sequence[str] | None = None,
) -> DriftReport:
    """Classical RK4; evaluates every tracked form at every step."""
    field_terms = compile_field(g, cfg.param_assignment)
    form_terms = [compile_form(f, cfg.param_assignment) for f in tracked]
    names = list(names) if names is not None else [f"C{i+1}" for i in range(len(tracked))]
    if len(names) != len(tracked):
        raise ContractViolation("one name per tracked quantity")
    x = list(initial_state(g, cfg))
    x0 = tuple(x)
    steps = round(abs(cfg.t_end / cfg.dt))
    initial = [_eval_terms(t, x) for t in form_terms]
    max_dev = [0.0] * len(tracked)
    for step in range(1, steps + 1):
        x = _rk4_step(field_terms, x, cfg.dt)
        if not all(math.isfinite(v) for v in x):
            raise IntegrationError(f"non-finite state at step {step}")
        for qi, terms in enumerate(form_terms):
            dev = abs(_eval_terms(terms, x) - initial[qi])
            if dev > max_dev[qi]:
                max_dev[qi] = dev
    quantities = tuple(
        QuantityDrift(
            name=names[qi],
            initial=initial[qi],
            max_abs_deviation=max_dev[qi],
            max_relative_drift=max_dev[qi] / max(1.0, abs(initial[qi])),
        )
        for qi in range(len(tracked))
    )
    return DriftReport(steps, cfg.dt, cfg.t_end, x0, quantities, tuple(x))


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
