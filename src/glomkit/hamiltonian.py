"""Non-canonical Hamiltonian analysis: the skew matrix J, the Jacobi
condition, and Casimirs from the nullspace of J.

With H = (1/2) sum x_i^2 the vector field is recovered as dx/dt = J x,
where J superposes one skew block per gyrostat.  Each block embeds

    [[0, -c, p*x_{m2} + b], [c, 0, q*x_{m1} - a], [skew]]

at the gyrostat's mode triple; the energy constraint eliminates r.  J is
a plain PolyMatrix: skew and affine in the state by construction, with
J x equal to the field.  The tests prove these identities; they are not
re-checked at run time.

Two Jacobi residual notions are computed.  The per-triple cyclic sums

    R_ijk = sum_m [J_im dJ_jk/dx_m + J_jm dJ_ki/dx_m + J_km dJ_ij/dx_m]

are the exact Poisson-bracket condition.  They are summed over the
stored entries only: each state variable x_m of a stored J_st adds
J_fm dJ_st/dx_m, for every stored J_fm in column m, to the triple
{f, s, t} in which (f, s, t) is in cyclic order, so the cost follows the
nonzero structure of J, not the M^3 triples.  Their signed total over all
triples (the contraction with the alternating symbol, halved) is the
aggregate criterion used throughout the gyrostat-superposition analysis
and by the hierarchy machinery; it is weaker for M > 3.  Reports carry
both, and flag the models where the aggregate vanishes while some triple
residual does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import EnergyViolation
from .exactmath import Poly, PolyMatrix, VarTable, nullspace_symbolic
from .invariants import QuadraticForm
from .models import Glom, Gyrostat, check_energy


def _superpose(table: VarTable, modes: int, gyrostats: Sequence[Gyrostat]) -> PolyMatrix:
    """Add the six J entries of each gyrostat, in order, into M sparse rows."""
    zero = table.zero()
    rows: list[dict[int, Poly]] = [{} for _ in range(modes)]
    for gyro in gyrostats:
        m1, m2, m3 = (m - 1 for m in gyro.modes)
        c = gyro.c.to_poly(table)
        upper = gyro.p.to_poly(table) * table.x(m2 + 1) + gyro.b.to_poly(table)
        lower = gyro.q.to_poly(table) * table.x(m1 + 1) - gyro.a.to_poly(table)
        for r, s, entry in ((m1, m2, -c), (m1, m3, upper), (m2, m3, lower)):
            rows[r][s] = rows[r].get(s, zero) + entry
            rows[s][r] = rows[s].get(r, zero) - entry
    return PolyMatrix(table, modes, rows)


def gyrostat_increment(g: Glom, K: int) -> Poly:
    """What gyrostat K of g adds to the aggregate Jacobi condition of
    gyrostats 1..K-1, over g's table.  The residual is bilinear in
    J = sum_k J_k and a lone gyrostat's block has none, so the aggregate of
    J_old + J_new is the cross terms of the pair, and these vanish unless
    the two share a mode: the increment sums the pairs that do."""
    table, new = g.var_table, g.gyrostats[K - 1]
    shared = (old for old in g.gyrostats[: K - 1] if set(old.modes) & set(new.modes))
    return sum((jacobi(_superpose(table, g.modes, (old, new))).aggregate for old in shared), table.zero())


def refuse_energy_violation(g: Glom) -> None:
    """Raise EnergyViolation unless every gyrostat has p + q + r = 0.

    A gyrostat adds (p + q + r) x_m1 x_m2 x_m3 to x . f, so the field then
    conserves energy as well; the full check_energy runs only to word the
    refusal.
    """
    if not all(gyro.energy_ok() for gyro in g.gyrostats):
        raise EnergyViolation("; ".join(check_energy(g).diagnostics))


def build_J(g: Glom) -> PolyMatrix:
    """Superpose the per-gyrostat blocks; refuses energy-violating models.

    Returns J as built: J x equals the assembled field once every gyrostat
    has p + q + r = 0, which the tests prove, with skewness, on every
    fixture and hierarchy member.
    """
    refuse_energy_violation(g)
    return _superpose(g.var_table, g.modes, g.gyrostats)


@dataclass(frozen=True, slots=True)
class JacobiReport:
    """Per-triple residuals plus the aggregate criterion.

    is_hamiltonian reflects the aggregate (signed-sum) condition; a model
    can pass it while failing some individual triple, in which case
    strict_jacobi is False and strict_divergence is True.
    """

    residuals: dict[tuple[int, int, int], Poly]
    aggregate: Poly

    @property
    def is_hamiltonian(self) -> bool:
        return self.aggregate.is_zero()

    @property
    def strict_jacobi(self) -> bool:
        return not self.residuals

    @property
    def strict_divergence(self) -> bool:
        return self.is_hamiltonian and not self.strict_jacobi

    @property
    def constraint_polys(self) -> tuple[Poly, ...]:
        """The aggregate's state-monomial coefficients, deduplicated up to
        rational scaling."""
        seen = {}
        for coeff in self.aggregate.split_by_state().values():
            if coeff:
                norm = coeff.normalized()
                seen[norm.key()] = norm
        return tuple(seen[k] for k in sorted(seen))


def jacobi(J: PolyMatrix) -> JacobiReport:
    M = J.rows
    column: list[list[tuple[int, Poly]]] = [[] for _ in range(J.cols)]  # (f, J_fm) per m
    for f, row in enumerate(J.entries):
        for m, e in row.items():
            column[m].append((f, e))
    sums: dict[tuple[int, int, int], Poly] = {}
    zero = J.table.zero()
    for s, row in enumerate(J.entries):
        for t, e in row.items():
            for m in e.variables():
                if m >= M:
                    continue
                d = e.diff(m)
                for f, a in column[m]:
                    if f < s < t or s < t < f or t < f < s:
                        key = tuple(sorted((f + 1, s + 1, t + 1)))
                        sums[key] = sums.get(key, zero) + a * d
    residuals = {k: sums[k] for k in sorted(sums) if sums[k]}
    return JacobiReport(residuals, sum(residuals.values(), zero))


# ---------------------------------------------------------------------------
# Casimirs


@dataclass(frozen=True, slots=True)
class CasimirSet:
    """Nullspace vectors of J, their gradient status, and the potentials.

    Vectors annihilated by J are conserved by skew-symmetry alone, so when
    the Jacobi condition fails the results are still valid conserved
    quantities; `advisory` records that the Hamiltonian interpretation is
    not available.
    """

    nullspace_basis: tuple[tuple[Poly, ...], ...]
    gradient_flags: tuple[bool, ...]
    casimirs: tuple[QuadraticForm, ...]
    advisory: bool

    @property
    def count(self) -> int:
        return len(self.casimirs)

    def gradients(self) -> list[list[Poly]]:
        """Gradients of the reported potentials (the gradient nullspace vectors)."""
        return [list(v) for v, ok in zip(self.nullspace_basis, self.gradient_flags) if ok]


def is_gradient(vector: list[Poly]) -> bool:
    """Jacobian-symmetry test dv_i/dx_j == dv_j/dx_i over the state variables,
    term by term: a term c*x^m of v_i with m_j > 0 needs v_j to hold the term
    at m - e_j + e_i with coefficient c*m_j/(m_i + 1)."""
    for i, v in enumerate(vector):
        for m, c in v.terms.items():
            for j, e in enumerate(m[: len(vector)]):
                if e and j != i:
                    mate = list(m)
                    mate[j], mate[i] = e - 1, m[i] + 1
                    if vector[j].terms.get(tuple(mate), 0) * (m[i] + 1) != c * e:
                        return False
    return True


def casimirs(g: Glom) -> CasimirSet:
    """Extract Casimirs from NULL(J) of the model (see casimir_set)."""
    J = build_J(g)
    return casimir_set(J, jacobi(J))


def casimir_set(J: PolyMatrix, report: JacobiReport) -> CasimirSet:
    """Casimirs from NULL(J), `report` being jacobi(J): gradient vectors give
    potentials, scaled to content 1 with a positive leading coefficient."""
    basis = nullspace_symbolic(J)
    flags = tuple(is_gradient(v) for v in basis)
    potentials = tuple(QuadraticForm.from_gradient(v).normalized() for v, ok in zip(basis, flags) if ok)
    return CasimirSet(
        nullspace_basis=tuple(tuple(v) for v in basis),
        gradient_flags=flags,
        casimirs=potentials,
        advisory=not report.is_hamiltonian,
    )
