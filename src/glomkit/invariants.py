"""Quadratic invariants by the linear-system approach.

A candidate invariant C = (1/2) sum d_i x_i^2 + sum_{i<j} e_ij x_i x_j
+ sum f_i x_i is conserved iff dC/dt vanishes identically along the
vector field.  dC/dt is linear in the unknown coefficients, so collecting
the coefficient of each state monomial yields a homogeneous linear system
whose nullspace dimension is the number of (raw) quadratic invariants.

All e_ij unknowns are always retained; the vanishing of mixed terms for
particular model structures emerges from the algebra instead of being
imposed per configuration.  Constant terms are excluded from candidates
because constants are invariants of any flow.

`form_positions` owns the candidate layout: the system's columns and
every QuadraticForm coefficient read or write follow it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ContractViolation
from .exactmath import Poly, PolyMatrix, VarTable, grlex_key
from .exactmath.linalg import back_substitute, generic_point, rank_rational
from .models import Glom, VectorField, assemble_field, builtin_model, no_linear_feedback

SUBCLASS_VARY_LIMIT = 20


@lru_cache(maxsize=None)
def form_positions(M: int) -> tuple[tuple[int, int | None], ...]:
    """Coefficient positions of a candidate, modes counted from 1: (i, i)
    for d_i, then (i, j) with i < j for e_ij, then (i, None) for f_i."""
    modes = range(1, M + 1)
    return (
        tuple((i, i) for i in modes)
        + tuple((i, j) for i in modes for j in range(i + 1, M + 1))
        + tuple((i, None) for i in modes)
    )


@dataclass(frozen=True, slots=True)
class QuadraticForm:
    """C = (1/2) sum d_i x_i^2 + sum_{i<j} e_ij x_i x_j + sum f_i x_i.

    Stored as one coefficient per entry of `form_positions`.  Coefficients
    are polynomials in the parameters (constants for numeric forms).  There
    is no constant term.
    """

    table: VarTable
    coeffs: tuple[Poly, ...]

    @classmethod
    def from_numeric(cls, table: VarTable, d: Sequence[Fraction]) -> "QuadraticForm":
        """The diagonal form d_i = d[i-1]; every e_ij and f_i is 0."""
        vec = [d[i - 1] if j == i else 0 for i, j in form_positions(table.state_count)]
        return cls.from_coeff_vector(table, vec)

    @classmethod
    def from_coeff_vector(cls, table: VarTable, vec: Sequence) -> "QuadraticForm":
        """Pack a vector ordered as `form_positions`."""
        if len(vec) != len(form_positions(table.state_count)):
            raise ContractViolation("coefficient vector has wrong length")
        shared: dict = {}  # equal values share one Poly, which keeps stored bases small
        return cls(
            table,
            tuple(v if isinstance(v, Poly) else shared.setdefault(v, table.const(v)) for v in vec),
        )

    @classmethod
    def from_gradient(cls, vector: Sequence[Poly]) -> "QuadraticForm":
        """The form whose gradient is `vector`, read off its coefficients.

        d_i, e_ij (i < j) and f_i are the x_i, x_j and state-free entries
        of v_i's `split_by_state`; v_j's x_i entry equals e_ij for a
        gradient and is not read.  A state degree above 1 raises.
        """
        table = vector[0].table
        coeffs = dict.fromkeys(form_positions(table.state_count), table.zero())
        for i, v in enumerate(vector, 1):
            for state, c in v.split_by_state().items():
                if sum(state) > 1:
                    raise ContractViolation("potential is not quadratic")
                j = state.index(1) + 1 if any(state) else None
                if j is None or j >= i:
                    coeffs[i, j] = c
        return cls.from_coeff_vector(table, list(coeffs.values()))

    @classmethod
    def energy(cls, table: VarTable) -> "QuadraticForm":
        return cls.from_numeric(table, [Fraction(1)] * table.state_count)

    @property
    def M(self) -> int:
        return self.table.state_count

    def coeff_vector(self) -> list[Poly]:
        return list(self.coeffs)

    def value_poly(self) -> Poly:
        x = self.table.x
        half = Fraction(1, 2)
        acc = self.table.zero()
        for (i, j), c in zip(form_positions(self.M), self.coeffs):
            if c:
                if j is None:
                    acc = acc + c * x(i)
                elif j == i:
                    acc = acc + (c * x(i) * x(i)).scale(half)
                else:
                    acc = acc + c * x(i) * x(j)
        return acc

    def gradient(self) -> list[Poly]:
        x = self.table.x
        out = [self.table.zero()] * self.M
        for (i, j), c in zip(form_positions(self.M), self.coeffs):
            if c:
                if j is None:
                    out[i - 1] = out[i - 1] + c
                else:
                    out[i - 1] = out[i - 1] + c * x(j)
                    if j != i:
                        out[j - 1] = out[j - 1] + c * x(i)
        return out

    def time_derivative(self, field: VectorField) -> Poly:
        acc = self.table.zero()
        for gi, comp in zip(self.gradient(), field.components):
            if gi and comp:
                acc = acc + gi * comp
        return acc

    def is_numeric(self) -> bool:
        return all(c.total_degree() == 0 for c in self.coeffs)

    def numeric_coeffs(self) -> list[Fraction]:
        zero_mono = (0,) * len(self.table.names)
        if not self.is_numeric():
            raise ContractViolation("form has symbolic coefficients")
        return [c.coefficient(zero_mono) for c in self.coeffs]

    def instantiate(self, values: Mapping[str, Fraction]) -> "QuadraticForm":
        vec = [c.subs(values) for c in self.coeffs]
        return QuadraticForm.from_coeff_vector(self.table, vec)

    def __str__(self) -> str:
        return str(self.value_poly())


# ---------------------------------------------------------------------------
# linear system assembly


@dataclass(frozen=True)
class InvariantSystem:
    """The homogeneous system forcing dC/dt = 0.

    Rows are indexed by the state monomials that occur, given as exponent
    tuples over x1..xM in `row_monomials`; columns by the unknowns in
    `form_positions` order.  Entries are linear polynomials in the
    parameters.
    """

    matrix: PolyMatrix
    row_monomials: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> int:
        return self.matrix.rows

    @property
    def cols(self) -> int:
        return self.matrix.cols


def build_system(g: Glom) -> InvariantSystem:
    """Collect the coefficient of every state monomial in dC/dt."""
    table = g.var_table
    M = g.modes
    field = assemble_field(g)
    x = table.x
    columns: list[Poly] = []  # contribution of each unknown to dC/dt
    for i, j in form_positions(M):
        if j is None:
            columns.append(field[i - 1])
        elif j == i:
            columns.append(x(i) * field[i - 1])
        else:
            columns.append(x(j) * field[i - 1] + x(i) * field[j - 1])
    rows: dict[tuple[int, ...], list[Poly]] = {}
    zero = table.zero()
    n_cols = len(columns)
    for ci, contribution in enumerate(columns):
        for state_mono, coeff in contribution.split_by_state().items():
            row = rows.get(state_mono)
            if row is None:
                row = [zero] * n_cols
                rows[state_mono] = row
            row[ci] = row[ci] + coeff
    ordered = sorted(
        (mono for mono, row in rows.items() if any(row)), key=grlex_key, reverse=True
    )
    entries = [rows[mono] for mono in ordered]
    return InvariantSystem(
        PolyMatrix(table, entries) if entries else PolyMatrix.zero(table, 0, n_cols),
        tuple(ordered),
    )


# ---------------------------------------------------------------------------
# counting and reconstruction


@dataclass(frozen=True)
class InvariantReport:
    raw_count: int
    independent_count: int
    basis: tuple[QuadraticForm, ...]
    energy_included: bool
    generic: bool
    param_point: dict[str, Fraction] | None
    seed: int


def count_invariants(g: Glom, seed: int = 0) -> InvariantReport:
    """Count quadratic invariants and reconstruct a basis.

    The raw count is cols - generic rank of the system.  The basis is the
    exact nullspace at `generic_point`'s best random integer parameter
    point, which is also reported (coefficients are instance-specific,
    counts are generic); the count is too high only if all its trials fall
    short, chance at most (D / (2^31 - 2^20))^3 with D the degree of a
    maximal nonzero minor.  A fully numeric model is solved exactly.  The
    functionally independent count is `independent_count` of the basis.
    """
    rng = random.Random(seed)
    system = build_system(g)
    table = g.var_table
    # this word used to seed a separate rank estimate; it is still drawn so
    # that the first trial lands on the point every seeded report was taken
    # at, which keeps those reports byte-identical
    rng.randrange(1 << 30)
    values, pivots = generic_point(system.matrix, rng)
    vectors = back_substitute(pivots, system.cols)
    param_point = {table.names[i]: Fraction(v) for i, v in values.items()} or None

    basis = tuple(
        QuadraticForm.from_coeff_vector(table, [Fraction(v) for v in vec]) for vec in vectors
    )
    independent = independent_count(basis, rng)
    energy_included = basis_contains(basis, QuadraticForm.energy(table))
    return InvariantReport(
        len(vectors), independent, basis, energy_included, param_point is not None, param_point, seed
    )


def independent_count(basis: Sequence[QuadraticForm], rng: random.Random) -> int:
    """Rank of the basis gradients at `generic_point` (random state values,
    best of GENERIC_TRIALS)."""
    if not basis:
        return 0
    gradients = PolyMatrix(basis[0].table, [form.gradient() for form in basis])
    return len(generic_point(gradients, rng)[1])


def basis_contains(basis: Sequence[QuadraticForm], candidate: QuadraticForm) -> bool:
    """Exact span membership via coefficient-vector rank comparison."""
    rows = [form.numeric_coeffs() for form in basis]
    return rank_rational([*rows, candidate.numeric_coeffs()]) == rank_rational(rows)


def span_rank(forms: Sequence[QuadraticForm]) -> int:
    return rank_rational([form.numeric_coeffs() for form in forms])


# ---------------------------------------------------------------------------
# derived analyses


def sparse_feedback_free(K: int) -> Glom:
    """The sparse model with K gyrostats and no linear feedback terms."""
    return no_linear_feedback(builtin_model("sparse", K))


def sparse_invariants(K: int, seed: int = 0) -> tuple[QuadraticForm, ...]:
    """Invariant basis of the sparse no-linear-feedback model (K+1 members)."""
    return count_invariants(sparse_feedback_free(K), seed=seed).basis


@dataclass(frozen=True)
class SubclassTable:
    vary: tuple[str, ...]
    rows: tuple[tuple[str, int, int], ...]  # (mask, raw_count, independent_count)


def enumerate_subclasses(g: Glom, vary: Sequence[str], seed: int = 0) -> SubclassTable:
    """Counts for every on/off pattern of the varied parameters.

    Mask bit 1 keeps the parameter as specified, bit 0 sets it to zero;
    the first name in `vary` is the most significant bit.  Rows are ordered
    by mask value.
    """
    vary = tuple(vary)
    if len(vary) > SUBCLASS_VARY_LIMIT:
        raise ContractViolation(f"at most {SUBCLASS_VARY_LIMIT} parameters can vary")
    slots = g.slots()
    for i, name in enumerate(vary):
        if name not in slots:
            raise ContractViolation(f"unknown parameter {name!r}")
        if name in vary[:i]:
            raise ContractViolation(f"parameter {name!r} is varied more than once")
    rows = []
    n = len(vary)
    for mask in range(1 << n):
        bits = format(mask, f"0{n}b") if n else ""
        zeroed = [vary[i] for i in range(n) if bits[i] == "0"]
        report = count_invariants(g.zeroed(zeroed), seed=seed)
        rows.append((bits, report.raw_count, report.independent_count))
    return SubclassTable(vary, tuple(rows))


def monotonicity_check(g: Glom, extra_zeros: Sequence[str], seed: int = 0) -> bool:
    """Setting more parameters to zero can only keep or grow the raw count."""
    generic_names = set(g.generic_param_names())
    stray = set(extra_zeros) - generic_names
    if stray:
        raise ContractViolation(f"parameters not currently generic: {sorted(stray)}")
    base = count_invariants(g, seed=seed).raw_count
    specialized = count_invariants(g.zeroed(extra_zeros), seed=seed).raw_count
    return specialized >= base


def verify_conserved(g: Glom, form: QuadraticForm) -> bool:
    """Symbolic check that dC/dt vanishes identically along the field."""
    return form.time_derivative(assemble_field(g)).is_zero()
