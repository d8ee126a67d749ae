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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ContractViolation
from .exactmath import Poly, PolyMatrix, VarTable, grlex_key, monomial_str
from .exactmath.linalg import back_substitute, generic_point, rank_rational
from .models import Glom, VectorField, assemble_field

SUBCLASS_VARY_LIMIT = 20


@dataclass(frozen=True, slots=True)
class QuadraticForm:
    """C = (1/2) sum d_i x_i^2 + sum_{i<j} e_ij x_i x_j + sum f_i x_i.

    Stored as the coefficient vector d_1..d_M, e_12..e_{M-1,M}, f_1..f_M,
    the column order of the invariant system.  Coefficients are polynomials
    in the parameters (constants for numeric forms).  There is no constant
    term.
    """

    table: VarTable
    coeffs: tuple[Poly, ...]

    @classmethod
    def from_numeric(
        cls,
        table: VarTable,
        d: Sequence[Fraction],
        e: Mapping[tuple[int, int], Fraction] | None = None,
        f: Sequence[Fraction] | None = None,
    ) -> "QuadraticForm":
        M = table.state_count
        e = e or {}
        vec = list(d)
        vec += [e.get((i, j), 0) for i in range(1, M + 1) for j in range(i + 1, M + 1)]
        vec += f if f is not None else [0] * M
        return cls.from_coeff_vector(table, vec)

    @classmethod
    def from_coeff_vector(cls, table: VarTable, vec: Sequence) -> "QuadraticForm":
        """Pack a vector ordered d_1..d_M, e_12..e_{M-1,M}, f_1..f_M."""
        M = table.state_count
        if len(vec) != M * (M + 3) // 2:
            raise ContractViolation("coefficient vector has wrong length")
        shared: dict = {}  # equal values share one Poly, which keeps stored bases small
        return cls(
            table,
            tuple(v if isinstance(v, Poly) else shared.setdefault(v, table.const(v)) for v in vec),
        )

    @classmethod
    def from_gradient(cls, vector: Sequence[Poly]) -> "QuadraticForm":
        """The form whose gradient is `vector`, read off its coefficients.

        d_i, e_ij (i < j) and f_i are the x_i, x_j and state-free
        coefficients of v_i, each keeping v_i's term order; v_j's x_i
        coefficient equals e_ij for a gradient and is not read.  A state
        degree above 1 raises.
        """
        table = vector[0].table
        M = table.state_count
        pad = (0,) * M
        f_start = M * (M + 1) // 2
        slots: list[dict] = [{} for _ in range(f_start + M)]
        for i, v in enumerate(vector):
            e_row = M + i * (2 * M - i - 1) // 2 - i - 1  # e_ij is slot e_row + j
            for mono, c in v.terms.items():
                state = mono[:M]
                degree = sum(state)
                if degree > 1:
                    raise ContractViolation("potential is not quadratic")
                if not degree:
                    slot = f_start + i
                else:
                    j = state.index(1)
                    if j < i:
                        continue
                    slot = i if j == i else e_row + j
                slots[slot][pad + mono[M:]] = c
        coeffs = [Poly(table, t) if t else 0 for t in slots]
        for i, v in enumerate(vector):
            if v and len(slots[f_start + i]) == len(v.terms):  # v_i is state-free: f_i is v_i
                coeffs[f_start + i] = v
        return cls.from_coeff_vector(table, coeffs)

    @classmethod
    def energy(cls, table: VarTable) -> "QuadraticForm":
        M = table.state_count
        return cls.from_numeric(table, [Fraction(1)] * M)

    @property
    def M(self) -> int:
        return self.table.state_count

    @property
    def d(self) -> tuple[Poly, ...]:
        return self.coeffs[: self.M]

    @property
    def e(self) -> tuple[Poly, ...]:
        """e_12, e_13, ..., e_{M-1,M}."""
        return self.coeffs[self.M : -self.M]

    @property
    def f(self) -> tuple[Poly, ...]:
        return self.coeffs[-self.M :]

    def coeff_vector(self) -> list[Poly]:
        return list(self.coeffs)

    def value_poly(self) -> Poly:
        table = self.table
        M = self.M
        half = Fraction(1, 2)
        acc = table.zero()
        e = iter(self.e)
        for i, (di, fi) in enumerate(zip(self.d, self.f)):
            xi = table.x(i + 1)
            if di:
                acc = acc + (di * xi * xi).scale(half)
            for j in range(i + 1, M):
                eij = next(e)
                if eij:
                    acc = acc + eij * xi * table.x(j + 1)
            if fi:
                acc = acc + fi * xi
        return acc

    def gradient(self) -> list[Poly]:
        table = self.table
        M = self.M
        x = [table.x(i + 1) for i in range(M)]
        out = [di * xi for di, xi in zip(self.d, x)]
        e = iter(self.e)
        for i in range(M):
            for j in range(i + 1, M):
                eij = next(e)
                if eij:
                    out[i] = out[i] + eij * x[j]
                    out[j] = out[j] + eij * x[i]
        return [gi + fi for gi, fi in zip(out, self.f)]

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

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __str__(self) -> str:
        return str(self.value_poly())


# ---------------------------------------------------------------------------
# linear system assembly


@dataclass(frozen=True)
class InvariantSystem:
    """The homogeneous system forcing dC/dt = 0.

    Rows are indexed by the state monomials that occur; columns by the
    unknowns d_1..d_M, e_12..e_{M-1,M}, f_1..f_M.  Entries are linear
    polynomials in the parameters.
    """

    matrix: PolyMatrix
    row_labels: tuple[str, ...]
    row_monomials: tuple[tuple[int, ...], ...]
    col_labels: tuple[str, ...]

    @property
    def rows(self) -> int:
        return self.matrix.rows

    @property
    def cols(self) -> int:
        return len(self.col_labels)

    def restricted(self, keep: Iterable[str]) -> "InvariantSystem":
        """Sub-system on the named columns, with all-zero rows dropped."""
        keep_set = set(keep)
        col_idx = [i for i, lbl in enumerate(self.col_labels) if lbl in keep_set]
        entries = []
        labels = []
        monos = []
        for label, mono, row in zip(self.row_labels, self.row_monomials, self.matrix.entries):
            sub = [row[i] for i in col_idx]
            if any(sub):
                entries.append(sub)
                labels.append(label)
                monos.append(mono)
        return InvariantSystem(
            PolyMatrix(self.matrix.table, entries),
            tuple(labels),
            tuple(monos),
            tuple(self.col_labels[i] for i in col_idx),
        )


def unknown_labels(M: int) -> list[str]:
    labels = [f"d{i}" for i in range(1, M + 1)]
    labels += [f"e{i}_{j}" for i in range(1, M + 1) for j in range(i + 1, M + 1)]
    labels += [f"f{i}" for i in range(1, M + 1)]
    return labels


def build_system(g: Glom) -> InvariantSystem:
    """Collect the coefficient of every state monomial in dC/dt."""
    table = g.var_table
    M = g.modes
    field = assemble_field(g)
    columns: list[Poly] = []
    # contribution of each unknown to dC/dt
    for i in range(1, M + 1):
        columns.append(table.x(i) * field[i - 1])
    for i in range(1, M + 1):
        for j in range(i + 1, M + 1):
            columns.append(table.x(j) * field[i - 1] + table.x(i) * field[j - 1])
    for i in range(1, M + 1):
        columns.append(field[i - 1])
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
    pad = (0,) * (len(table.names) - M)
    labels = tuple(monomial_str(table, mono + pad) for mono in ordered)
    return InvariantSystem(
        PolyMatrix(table, entries) if entries else PolyMatrix.zero(table, 0, n_cols),
        labels,
        tuple(ordered),
        tuple(unknown_labels(M)),
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
    if candidate.is_zero():
        return True
    rows = [form.numeric_coeffs() for form in basis]
    base_rank = rank_rational(rows) if rows else 0
    rows.append(candidate.numeric_coeffs())
    return rank_rational(rows) == base_rank


def span_rank(forms: Sequence[QuadraticForm]) -> int:
    rows = [form.numeric_coeffs() for form in forms]
    return rank_rational(rows) if rows else 0


# ---------------------------------------------------------------------------
# derived analyses


def sparse_feedback_free(K: int) -> Glom:
    """The sparse model with K gyrostats and no linear feedback terms."""
    if K < 1:
        raise ContractViolation("K must be at least 1")
    from .models import builtin_model, no_linear_feedback

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
    name_map = g.param_name_map()
    for i, name in enumerate(vary):
        if name not in name_map:
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
