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

are the exact Poisson-bracket condition; J is affine in the state, so
each entry is differentiated once per J.  Their signed total over all
triples (the contraction with the alternating symbol, halved) is the
aggregate criterion used throughout the gyrostat-superposition analysis
and by the hierarchy machinery; it is weaker for M > 3.  Reports carry
both, and flag the models where the aggregate vanishes while some triple
residual does not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import EnergyViolation
from .exactmath import Poly, PolyMatrix, VarTable, nullspace_symbolic
from .exactmath.poly import normalized_vector
from .invariants import QuadraticForm
from .models import Glom, Gyrostat, check_energy


def _superpose(table: VarTable, modes: int, gyrostats: Sequence[Gyrostat]) -> PolyMatrix:
    """Add the six J entries of each gyrostat, in order, into one M x M grid."""
    zero = table.zero()
    grid = [[zero] * modes for _ in range(modes)]
    for gyro in gyrostats:
        m1, m2, m3 = (m - 1 for m in gyro.modes)
        c = gyro.c.to_poly(table)
        upper = gyro.p.to_poly(table) * table.x(m2 + 1) + gyro.b.to_poly(table)
        lower = gyro.q.to_poly(table) * table.x(m1 + 1) - gyro.a.to_poly(table)
        for r, s, entry in ((m1, m2, -c), (m1, m3, upper), (m2, m3, lower)):
            grid[r][s] = grid[r][s] + entry
            grid[s][r] = grid[s][r] - entry
    return PolyMatrix(table, grid)


def build_J(g: Glom) -> PolyMatrix:
    """Superpose the per-gyrostat blocks; refuses energy-violating models.

    Returns J as built: J x equals the assembled field once every gyrostat
    has p + q + r = 0, which the tests prove, with skewness, on every
    fixture and hierarchy member.  A gyrostat adds (p + q + r) x_m1 x_m2 x_m3
    to x . f, so the field then conserves energy as well; the full
    check_energy runs only to word the refusal.
    """
    if not all(gyro.energy_ok() for gyro in g.gyrostats):
        raise EnergyViolation("; ".join(check_energy(g).diagnostics))
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
    is_hamiltonian: bool
    strict_jacobi: bool

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
    # grads[j][k]: (m, dJ_jk/dx_m) for each state variable x_m in J_jk
    grads = [
        [[(m, e.diff(m)) for m in sorted(e.variables()) if m < M] for e in row]
        for row in J.entries
    ]
    residuals: dict[tuple[int, int, int], Poly] = {}
    aggregate = J.table.zero()
    for i, j, k in itertools.combinations(range(M), 3):
        r = J.table.zero()
        for first, second, third in ((i, j, k), (j, k, i), (k, i, j)):
            for m, d in grads[second][third]:
                if J[first, m]:
                    r = r + J[first, m] * d
        if r:
            residuals[i + 1, j + 1, k + 1] = r
            aggregate = aggregate + r
    return JacobiReport(
        residuals=residuals,
        aggregate=aggregate,
        is_hamiltonian=aggregate.is_zero(),
        strict_jacobi=not residuals,
    )


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
    """Jacobian-symmetry test dv_i/dx_j == dv_j/dx_i over the state variables."""
    n = len(vector)
    for i in range(n):
        for j in range(i + 1, n):
            if vector[i].diff(j) != vector[j].diff(i):
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
    potentials = tuple(
        QuadraticForm.from_coeff_vector(
            J.table, normalized_vector(QuadraticForm.from_gradient(v).coeff_vector())
        )
        for v, ok in zip(basis, flags)
        if ok
    )
    return CasimirSet(
        nullspace_basis=tuple(tuple(v) for v in basis),
        gradient_flags=flags,
        casimirs=potentials,
        advisory=not report.is_hamiltonian,
    )
