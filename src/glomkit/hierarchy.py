"""Hamiltonian model hierarchies: nested (sparse/dense) and coupled families.

Nested families grow by one gyrostat per step, adding two modes (sparse,
triples (2k-1, 2k, 2k+1)) or one mode (dense, triples (k, k+1, k+2)).
Coupled families reuse existing modes (the two convection-core models).

Each family carries the parameter constraints under which every member
satisfies the Jacobi condition.  They are fixed gyrostat by gyrostat:
each gyrostat carries its family's constraints from the first member
that holds it, so member K's gyrostats are the first K of member K+1's.

  sparse   q_k = 0 for k >= 2
  dense1   q_k = 0 for k >= 2; p and b zero on even-numbered gyrostats
  dense2   q_k = 0 for k >= 2; p and b zero on odd-numbered gyrostats
  model4   p_k = q_k = 0 and c_k = b_k for k >= 2
  model5   q1 = 0, b1 = c1 = a1; q2 = 0, b2 = c2 = -a2; p3 = 0;
           q4 = 0, b4 = a4, c4 = -a4; p5 = 0, b5 = c5 = a5

For model5 this is the parameterization whose Casimir gradients project
consistently down the hierarchy.

The aggregate Jacobi condition is bilinear in J = sum_k J_k and a lone
gyrostat has none, so each step adds the cross terms of the new gyrostat
with the earlier ones sharing a mode (`hamiltonian.gyrostat_increment`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import ContractViolation
from .exactmath import Poly, poly_proportional, proportional
from .hamiltonian import (
    CasimirSet,
    JacobiReport,
    build_J,
    casimir_set,
    gyrostat_increment,
    jacobi,
    refuse_energy_violation,
)
from .models import (
    MODEL4_TRIPLES,
    MODEL5_TRIPLES,
    Glom,
    ParamSpec,
    dense_triples,
    generic_gyrostat,
    sparse_triples,
)

Family = Literal["sparse", "dense1", "dense2", "model4", "model5"]

FAMILY_MAX_K = {"model4": len(MODEL4_TRIPLES), "model5": len(MODEL5_TRIPLES)}
FAMILY_STRIDE = {"sparse": 2, "dense1": 1, "dense2": 1, "model4": 2, "model5": 0}


@dataclass(frozen=True)
class HierarchySpec:
    family: Family
    k_max: int
    constrained: bool = True

    def __post_init__(self):
        family_triples(self.family, self.k_max)  # refuses an unknown family or K outside 1..cap


def family_triples(family: Family, K: int) -> tuple[tuple[int, int, int], ...]:
    if K < 1:
        raise ContractViolation("K must be at least 1")
    cap = FAMILY_MAX_K.get(family)
    if cap is not None and K > cap:
        raise ContractViolation(f"family {family} has at most {cap} gyrostats")
    if family == "sparse":
        return sparse_triples(K)
    if family in ("dense1", "dense2"):
        return dense_triples(K)
    if family == "model4":
        return MODEL4_TRIPLES[:K]
    if family == "model5":
        return MODEL5_TRIPLES[:K]
    raise ContractViolation(f"unknown family {family!r}")


# model5's overrides on gyrostat k: each slot is this multiple of a_k
_MODEL5_A_MULTIPLES = (
    {"q": 0, "b": 1, "c": 1},
    {"q": 0, "b": -1, "c": -1},
    {"p": 0},
    {"q": 0, "b": 1, "c": -1},
    {"p": 0, "b": 1, "c": 1},
)


def _gyrostat_constraints(family: Family, k: int) -> dict[str, ParamSpec]:
    """The slots the family fixes on its k-th gyrostat, the same in every
    member that holds it."""
    if family == "model5":
        return {slot: ParamSpec.scaled(f"a{k}", m) for slot, m in _MODEL5_A_MULTIPLES[k - 1].items()}
    zero = ParamSpec.zero()
    out = {"q": zero} if k >= 2 else {}
    if family == "model4" and k >= 2:
        out.update(p=zero, c=ParamSpec.scaled(f"b{k}", 1))
    elif family in ("dense1", "dense2") and k % 2 == (0 if family == "dense1" else 1):
        out.update(p=zero, b=zero)
    return out


def member(family: Family, K: int, constrained: bool = True) -> Glom:
    """The K-gyrostat member of a family."""
    triples = family_triples(family, K)
    gyrostats = tuple(
        generic_gyrostat(t, k, **(_gyrostat_constraints(family, k) if constrained else {}))
        for k, t in enumerate(triples, start=1)
    )
    return Glom(max(m for t in triples for m in t), gyrostats)


def generate(spec: HierarchySpec) -> list[Glom]:
    """Members K = 1..k_max of the family."""
    return [member(spec.family, K, spec.constrained) for K in range(1, spec.k_max + 1)]


# ---------------------------------------------------------------------------
# incremental Jacobi conditions


@dataclass(frozen=True, slots=True)
class IncrementalJacobi:
    """What the newest gyrostat adds to the aggregate Jacobi condition.

    `condition` is the signed total of its cross terms against the earlier
    gyrostats, the quantity whose vanishing is the printed incremental
    requirement at each hierarchy step.
    """

    condition: Poly


def _is_extension(g_big: Glom, g_small: Glom) -> bool:
    if g_big.K != g_small.K + 1 or g_big.modes < g_small.modes:
        return False
    if any(a.modes != b.modes for a, b in zip(g_big.gyrostats, g_small.gyrostats)):
        return False
    big = g_big.slots()
    return all(big[name] == spec for name, spec in g_small.slots().items())


def incremental_jacobi(g_K: Glom, g_K_minus_1: Glom) -> IncrementalJacobi:
    """The Jacobi condition the newest gyrostat of g_K adds to g_K_minus_1's
    (both must pass build_J's energy check)."""
    if not _is_extension(g_K, g_K_minus_1):
        raise ContractViolation("second model must be the first minus its last gyrostat")
    for g in (g_K, g_K_minus_1):
        refuse_energy_violation(g)
    return IncrementalJacobi(gyrostat_increment(g_K, g_K.K))


def incremental_condition(family: Family, K: int) -> Poly:
    """The aggregate incremental condition at step K of the unconstrained
    family (K >= 2)."""
    if K < 2:
        raise ContractViolation("incremental conditions start at K = 2")
    return gyrostat_increment(member(family, K, constrained=False), K)


def check_recurrence(family: Family, k_max: int) -> bool:
    """Do successive incremental conditions repeat under the family's shift?

    The shift renames gyrostat k to k+1 and moves modes up by the family's
    stride.  Consecutive steps are compared from K = 3 on (the step from
    one to two gyrostats has no earlier coupling and its condition has a
    different shape even in the nested families).  Conditions are computed
    on the unconstrained k_max member, where they are nontrivial: its
    first K gyrostats are member K, with the same slot names.
    """
    if k_max < 3:
        raise ContractViolation("recurrence checking needs k_max >= 3")
    g = member(family, k_max, constrained=False)
    stride = FAMILY_STRIDE[family]
    conditions = [gyrostat_increment(g, K) for K in range(3, k_max + 1)]
    for cur, nxt in zip(conditions, conditions[1:]):
        if not poly_proportional(cur.remapped(g.var_table, _shift_name_map(cur, stride)), nxt):
            return False
    return True


def _shift_name_map(poly: Poly, stride: int) -> dict[str, str]:
    """x_m to x_(m + stride), and a parameter of gyrostat k to gyrostat k+1's."""
    out = {}
    for name in (poly.table.names[i] for i in poly.variables()):
        kind, index = name[0], int(name[1:])
        out[name] = f"x{index + stride}" if kind == "x" else f"{kind}{index + 1}"
    return out


# ---------------------------------------------------------------------------
# projection consistency and the full report


def projection_consistency(
    casimir_big: list[Poly],
    casimir_small: list[Poly],
    absent_params: set[str] | frozenset[str] = frozenset(),
) -> bool:
    """Is the big gradient, restricted to the small model's modes with the
    absent parameters zeroed, collinear with the small gradient?"""
    m_small = len(casimir_small)
    if not m_small:
        raise ContractViolation("gradients must not be empty")
    if m_small > len(casimir_big):
        raise ContractViolation("first vector must belong to the larger model")
    zeros = {name: 0 for name in absent_params}
    big_table = casimir_big[0].table
    restricted = [v.subs(zeros) if zeros else v for v in casimir_big[:m_small]]
    for v in restricted:  # x_j is variable j - 1, so x1..x_m_small are 0..m_small - 1
        if any(m_small <= i < big_table.state_count for i in v.variables()):
            return False
    lifted = [v.remapped(big_table) for v in casimir_small]
    return proportional(restricted, lifted)


@dataclass(frozen=True, slots=True)
class MemberReport:
    K: int
    modes: int
    jacobi: JacobiReport
    casimir_set: CasimirSet
    incremental: IncrementalJacobi | None
    projection_consistent: bool | None

    @property
    def casimir_count(self) -> int:
        return self.casimir_set.count


@dataclass(frozen=True, slots=True)
class HierarchyReport:
    spec: HierarchySpec
    members: tuple[MemberReport, ...]

    def casimir_counts(self) -> list[int]:
        return [m.casimir_count for m in self.members]

    def all_hamiltonian(self) -> bool:
        return all(m.jacobi.is_hamiltonian for m in self.members)


def _projection_zero_set(slice_polys: list[Poly], absent: set[str]) -> set[str]:
    """The absent parameters worth zeroing before the collinearity test.

    An absent parameter that occurs in every nonzero component is a scalar
    prefactor (collinearity over the fraction field absorbs it); one that
    occurs in only some components genuinely obstructs collinearity and is
    the kind the projection rule sets to zero.
    """
    per_comp = [{v.table.names[i] for i in v.variables()} & absent for v in slice_polys if v]
    if not per_comp:
        return set()
    return set.union(*per_comp) - set.intersection(*per_comp)


def hierarchy_report(spec: HierarchySpec) -> HierarchyReport:
    """Jacobi status, Casimirs, incremental conditions and projection
    consistency for every member of the family.

    Projection consistency compares each member with the latest earlier
    member owning Casimirs: every earlier gradient must be collinear with
    the restriction of some current gradient, with the absent parameters
    that occur in some but not all of its components zeroed.

    One zeroed test per pair decides what the plain restriction would too.
    The earlier gradient s is primitive (`nullspace_symbolic` divides by the
    gcd), so a plain restriction collinear with s is lambda*s for some
    polynomial lambda.  An absent parameter in lambda occurs in every nonzero
    component, so the zero set never holds it; s holds no absent parameter;
    so zeroing keeps lambda*s.  With an empty zero set the tests coincide.
    """
    reports: list[MemberReport] = []
    # the latest earlier member owning Casimirs: its parameter names and Casimir set
    last: tuple[tuple[str, ...], CasimirSet] | None = None
    for K, g in enumerate(generate(spec), start=1):
        J = build_J(g)
        report = jacobi(J)
        cas = casimir_set(J, report)
        inc = None
        if reports:  # generate builds each member as an extension of the one before
            inc = IncrementalJacobi(report.aggregate - reports[-1].jacobi.aggregate.remapped(g.var_table))
        consistent: bool | None = None
        if cas.count and last is not None:
            small_params, small_cas = last
            absent = set(g.var_table.param_names()) - set(small_params)
            consistent = all(
                any(
                    projection_consistency(big, small, _projection_zero_set(big[: len(small)], absent))
                    for big in cas.gradients()
                )
                for small in small_cas.gradients()
            )
        reports.append(MemberReport(K, g.modes, report, cas, inc, consistent))
        if cas.count:
            last = (g.var_table.param_names(), cas)
    return HierarchyReport(spec, tuple(reports))
