"""Hamiltonian model hierarchies: nested (sparse/dense) and coupled families.

Nested families grow by one gyrostat per step, adding two modes (sparse,
triples (2k-1, 2k, 2k+1)) or one mode (dense, triples (k, k+1, k+2)).
Coupled families reuse existing modes (the two convection-core models).

Each family carries the parameter constraints under which every member
satisfies the Jacobi condition:

  sparse   q_k = 0 for k >= 2
  dense1   q_k = 0 for k >= 2; p and b zero on even-numbered gyrostats
  dense2   q_k = 0 for k >= 2; p and b zero on odd-numbered gyrostats
  model4   p_k = q_k = 0 and c_k = b_k for k >= 2
  model5   q1 = q2 = 0; p3 = 0; q4 = 0, b4 = a4, c4 = -a4, c2 = -a2,
           b1 = a1; p5 = 0, b5 = c5 = a5, b2 = -a2, c1 = a1

The model5 schedule constrains earlier gyrostats when later ones arrive,
so members are materialized with the whole schedule (restricted to the
gyrostats present); that is the parameterization whose Casimir gradients
project consistently down the hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import ContractViolation
from .exactmath import Poly, poly_proportional, proportional
from .hamiltonian import CasimirSet, JacobiReport, build_J, casimir_set, jacobi
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

FAMILY_MAX_K = {"model4": 3, "model5": 5}
FAMILY_STRIDE = {"sparse": 2, "dense1": 1, "dense2": 1, "model4": 2, "model5": 0}


@dataclass(frozen=True)
class HierarchySpec:
    family: Family
    k_max: int
    constrained: bool = True

    def __post_init__(self):
        if self.k_max < 1:
            raise ContractViolation("k_max must be at least 1")
        family_triples(self.family, self.k_max)  # refuses an unknown family or a K past its cap


def family_triples(family: Family, K: int) -> tuple[tuple[int, int, int], ...]:
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


def family_constraints(family: Family, K: int) -> dict[str, ParamSpec]:
    """The parameter substitutions applied to the K-gyrostat member."""
    zero = ParamSpec.zero()
    out: dict[str, ParamSpec] = {}
    if family == "sparse":
        for k in range(2, K + 1):
            out[f"q{k}"] = zero
    elif family in ("dense1", "dense2"):
        for k in range(2, K + 1):
            out[f"q{k}"] = zero
        parity = 0 if family == "dense1" else 1
        for k in range(1, K + 1):
            if k % 2 == parity:
                out[f"p{k}"] = zero
                out[f"b{k}"] = zero
    elif family == "model4":
        for k in range(2, K + 1):
            out[f"p{k}"] = zero
            out[f"q{k}"] = zero
            out[f"c{k}"] = ParamSpec.scaled(f"b{k}", 1)
    elif family == "model5":
        schedule = {
            "q1": zero,
            "q2": zero,
            "p3": zero,
            "q4": zero,
            "b4": ParamSpec.scaled("a4", 1),
            "c4": ParamSpec.scaled("a4", -1),
            "c2": ParamSpec.scaled("a2", -1),
            "b1": ParamSpec.scaled("a1", 1),
            "p5": zero,
            "b5": ParamSpec.scaled("a5", 1),
            "c5": ParamSpec.scaled("a5", 1),
            "b2": ParamSpec.scaled("a2", -1),
            "c1": ParamSpec.scaled("a1", 1),
        }
        out = {name: spec for name, spec in schedule.items() if int(name[1:]) <= K}
    else:
        raise ContractViolation(f"unknown family {family!r}")
    return out


def member(family: Family, K: int, constrained: bool = True) -> Glom:
    """The K-gyrostat member of a family."""
    triples = family_triples(family, K)
    modes = max(m for t in triples for m in t)
    base = Glom(modes, tuple(generic_gyrostat(t) for t in triples))
    if not constrained:
        return base
    return base.with_params(family_constraints(family, K))


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


def _increment(aggregate: Poly, previous: Poly) -> Poly:
    """Member K's aggregate condition minus member K-1's.

    The residual is bilinear in J and a lone gyrostat's block has none, so
    the difference is exactly the cross terms of the newest gyrostat
    against the earlier ones.
    """
    return aggregate - previous.remapped(aggregate.table)


def _aggregate(g: Glom) -> Poly:
    return jacobi(build_J(g)).aggregate


def _is_extension(g_big: Glom, g_small: Glom) -> bool:
    if g_big.K != g_small.K + 1 or g_big.modes < g_small.modes:
        return False
    if any(a.modes != b.modes for a, b in zip(g_big.gyrostats, g_small.gyrostats)):
        return False
    big = g_big.slots()
    return all(big[name] == spec for name, spec in g_small.slots().items())


def incremental_jacobi(g_K: Glom, g_K_minus_1: Glom) -> IncrementalJacobi:
    """The Jacobi condition the newest gyrostat of g_K adds to g_K_minus_1's
    (both must pass build_J)."""
    if not _is_extension(g_K, g_K_minus_1):
        raise ContractViolation("second model must be the first minus its last gyrostat")
    return IncrementalJacobi(_increment(_aggregate(g_K), _aggregate(g_K_minus_1)))


def incremental_condition(family: Family, K: int) -> Poly:
    """The aggregate incremental condition at step K of the unconstrained
    family (K >= 2)."""
    if K < 2:
        raise ContractViolation("incremental conditions start at K = 2")
    big = member(family, K, constrained=False)
    return incremental_jacobi(big, member(family, K - 1, constrained=False)).condition


def check_recurrence(family: Family, k_max: int) -> bool:
    """Do successive incremental conditions repeat under the family's shift?

    The shift renames gyrostat k to k+1 and moves modes up by the family's
    stride.  Consecutive steps are compared from K = 3 on (the step from
    one to two gyrostats has no earlier coupling and its condition has a
    different shape even in the nested families).  Conditions are computed
    on the unconstrained family, where they are nontrivial.
    """
    if k_max < 3:
        raise ContractViolation("recurrence checking needs k_max >= 3")
    aggregates = [_aggregate(member(family, K, constrained=False)) for K in range(1, k_max + 1)]
    stride = FAMILY_STRIDE[family]
    # conditions[i] is the step to K = i + 2 gyrostats
    conditions = [_increment(big, small) for small, big in zip(aggregates, aggregates[1:])]
    for cur, nxt in zip(conditions[1:], conditions[2:]):
        name_map = _shift_name_map(cur, stride)
        try:
            shifted = cur.remapped(nxt.table, name_map)
        except ContractViolation:
            return False
        if not poly_proportional(shifted, nxt):
            return False
    return True


def _shift_name_map(poly: Poly, stride: int) -> dict[str, str]:
    table = poly.table
    out = {}
    for i in sorted(poly.variables()):
        name = table.names[i]
        kind, index = name[0], int(name[1:])
        if kind == "x":
            out[name] = f"x{index + stride}"
        else:
            out[name] = f"{kind}{index + 1}"
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
    per_comp = [
        {v.table.names[i] for i in v.variables()} & absent for v in slice_polys if v
    ]
    if not per_comp:
        return set()
    everywhere = set.intersection(*per_comp)
    somewhere = set.union(*per_comp)
    return somewhere - everywhere


def _projects_onto(big: list[Poly], small: list[Poly], absent: set[str]) -> bool:
    if projection_consistency(big, small, frozenset()):
        return True
    zeros = _projection_zero_set(big[: len(small)], absent)
    return bool(zeros) and projection_consistency(big, small, zeros)


def hierarchy_report(spec: HierarchySpec) -> HierarchyReport:
    """Jacobi status, Casimirs, incremental conditions and projection
    consistency for every member of the family.

    Projection consistency compares each member with the latest earlier
    member owning Casimirs: every earlier gradient must be collinear with
    the restriction of some current gradient (zeroing the absent non-factor
    parameters where the plain restriction is not already collinear).
    """
    reports: list[MemberReport] = []
    # the latest earlier member owning Casimirs, with its Casimir set
    last: tuple[Glom, CasimirSet] | None = None
    for K, g in enumerate(generate(spec), start=1):
        J = build_J(g)
        report = jacobi(J)
        cas = casimir_set(J, report)
        inc = None
        if reports:  # generate builds each member as an extension of the one before
            inc = IncrementalJacobi(_increment(report.aggregate, reports[-1].jacobi.aggregate))
        consistent: bool | None = None
        if cas.count and last is not None:
            small_glom, small_cas = last
            absent = set(g.var_table.param_names()) - set(small_glom.var_table.param_names())
            consistent = all(
                any(_projects_onto(list(big), list(small), absent) for big in cas.gradients())
                for small in small_cas.gradients()
            )
        reports.append(MemberReport(K, g.modes, report, cas, inc, consistent))
        if cas.count:
            last = (g, cas)
    return HierarchyReport(spec, tuple(reports))
