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

`column` gives the candidate layout in closed form, `form_positions` lists
it: the system's columns and every QuadraticForm coefficient follow it.  A
form is stored as its value polynomial C, whose terms hold its nonzero coefficients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import takewhile
from math import gcd, lcm
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


def column(i: int, j: int | None, M: int) -> int:
    """The index in `form_positions(M)` of d_i, e_ij or f_i (j = i, i < j, None), modes from 0."""
    if j is None:
        return M * (M + 1) // 2 + i
    return i if j == i else M + i * (2 * M - i - 1) // 2 + j - i - 1


def position_index(state: tuple[int, ...]) -> tuple[int, int]:
    """The `column` of the state x_i^2, x_i*x_j or x_i, and the factor 2 from C to d_i (else 1)."""
    if 2 in state:
        return column(state.index(2), state.index(2), len(state)), 2
    i = state.index(1)
    return column(i, state.index(1, i + 1) if 1 in state[i + 1:] else None, len(state)), 1


@dataclass(frozen=True, slots=True)
class QuadraticForm:
    """C = (1/2) sum d_i x_i^2 + sum_{i<j} e_ij x_i x_j + sum f_i x_i, stored
    as `value`, C itself, its terms in `form_positions` order.  A coefficient
    (a polynomial in the parameters, constant for numeric forms) is read off
    the terms at its position's state monomial through `position_index`."""

    value: Poly

    @classmethod
    def from_numeric(cls, table: VarTable, d: Sequence[Fraction]) -> "QuadraticForm":
        """The diagonal form d_i = d[i-1]; every e_ij and f_i is 0."""
        vec = [d[i - 1] if j == i else 0 for i, j in form_positions(table.state_count)]
        return cls.from_coeff_vector(table, vec)

    @classmethod
    def from_coeff_vector(cls, table: VarTable, vec: Sequence) -> "QuadraticForm":
        """The form of a vector ordered as `form_positions`, whose entries are
        numbers or polynomials in the parameters."""
        positions = form_positions(table.state_count)
        if len(vec) != len(positions):
            raise ContractViolation("coefficient vector has wrong length")
        terms = {}
        for (i, j), v in zip(positions, vec):
            if v:
                state = table.unit(i - 1) + (table.unit(j - 1) if j else 0)
                for mono, c in v.terms.items() if isinstance(v, Poly) else ((0, v),):
                    terms[state + mono] = Fraction(c, 2) if j == i else c
        return cls(Poly(table, terms))

    @classmethod
    def from_gradient(cls, vector: Sequence[Poly]) -> "QuadraticForm":
        """The form whose gradient is `vector`: a term of v_i at state s is C's
        term at s + e_i, halved when s = e_i, and one at x_j with j < i repeats
        v_j's x_i term and is not read.  A state degree above 1 raises."""
        table = vector[0].table
        found: dict[int, dict] = {}  # position index -> C's terms there
        for i, v in enumerate(vector):
            unit = table.unit(i)
            for mono, c in v.terms.items():
                state = table.split(mono)[0]
                degree = sum(state)
                if degree > 1:
                    raise ContractViolation("potential is not quadratic")
                if degree and state.index(1) < i:
                    continue
                state = state[:i] + (state[i] + 1,) + state[i + 1:]
                k, factor = position_index(state)
                found.setdefault(k, {})[mono + unit] = Fraction(c, factor) if factor == 2 else c
        return cls(Poly(table, {m: c for k in sorted(found) for m, c in found[k].items()}))

    @classmethod
    def energy(cls, table: VarTable) -> "QuadraticForm":
        return cls.from_numeric(table, [Fraction(1)] * table.state_count)

    @property
    def table(self) -> VarTable:
        return self.value.table

    @property
    def M(self) -> int:
        return self.table.state_count

    def _coefficient_terms(self):
        """(position index, parameter monomial, coefficient) of each term of C."""
        split = self.table.split
        for mono, c in self.value.terms.items():
            state, rest = split(mono)
            k, factor = position_index(state)
            yield k, rest, c * factor

    def coeff_vector(self) -> list[Poly]:
        """The dense coefficient vector, ordered as `form_positions`."""
        zero, found = self.table.zero(), [{} for _ in form_positions(self.M)]
        for k, mono, c in self._coefficient_terms():
            found[k][mono] = c
        return [Poly(self.table, terms) if terms else zero for terms in found]

    def value_poly(self) -> Poly:
        """C as one polynomial, its terms in `form_positions` order."""
        return self.value

    def gradient(self) -> list[Poly]:
        return [self.value.diff(i) for i in range(self.M)]

    def time_derivative(self, field: VectorField) -> Poly:
        acc = self.table.zero()
        for gi, comp in zip(self.gradient(), field.components):
            if gi and comp:
                acc = acc + gi * comp
        return acc

    def is_numeric(self) -> bool:
        param_mask = self.table.param_mask
        return not any(mono & param_mask for mono in self.value.terms)

    def numeric_coeffs(self) -> list[Fraction]:
        if not self.is_numeric():
            raise ContractViolation("form has symbolic coefficients")
        vec = [0] * len(form_positions(self.M))
        for k, _, c in self._coefficient_terms():
            vec[k] = c if c.denominator != 1 else c.numerator
        return vec

    def instantiate(self, values: Mapping[str, Fraction]) -> "QuadraticForm":
        """The named parameters replaced.  A key whose sum cancels and returns
        moves only within its position's terms, the positions' states being disjoint."""
        return QuadraticForm(self.value.subs(values))

    def normalized(self) -> "QuadraticForm":
        """Divided by the rational content of its coefficients, signed so the
        first has a positive leading coefficient (as `normalized_vector`)."""
        terms = self.value.terms
        if not terms:
            return self
        coeffs = [c for _, _, c in self._coefficient_terms()]
        content = Fraction(gcd(*(c.numerator for c in coeffs)), lcm(*(c.denominator for c in coeffs)))
        state_mask = self.table.state_mask
        first = next(iter(terms)) & state_mask
        lead = max(takewhile(lambda mono: mono & state_mask == first, terms))
        return QuadraticForm(self.value.scale((-1 if terms[lead] < 0 else 1) / content))

    def __str__(self) -> str:
        return str(self.value)


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
    """Collect the coefficient of every state monomial in dC/dt.

    f_i, d_i and e_ij contribute f_i, x_i*f_i and x_j*f_i + x_i*f_j, so a
    term of f_i at state m lands in f_i's column at row m and, for each j,
    in d_i's or e_ij's at row m + e_j; a cell's two halves are added, and
    dropped if they cancel."""
    M = g.modes
    rows: dict[tuple[int, ...], dict[int, Poly]] = {}
    for i, component in enumerate(assemble_field(g)):
        parts = component.split_by_state().items()
        ci = column(i, None, M)
        for state, coeff in parts:
            rows.setdefault(state, {})[ci] = coeff
        for j in range(M):
            ci = column(min(i, j), max(i, j), M)
            for state, coeff in parts:
                row = rows.setdefault(state[:j] + (state[j] + 1,) + state[j + 1:], {})
                total = coeff if (held := row.get(ci)) is None else held + coeff
                if total:
                    row[ci] = total
                else:
                    del row[ci]
    ordered = sorted((m for m, row in rows.items() if row), key=grlex_key, reverse=True)
    return InvariantSystem(PolyMatrix(g.var_table, M * (M + 3) // 2, [rows[m] for m in ordered]), tuple(ordered))


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

    basis = tuple(QuadraticForm.from_coeff_vector(table, vec) for vec in vectors)
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
    gradients = PolyMatrix(basis[0].table, basis[0].M, [dict(enumerate(f.gradient())) for f in basis])
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
