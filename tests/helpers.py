"""Shared test utilities: a small polynomial expression parser, the
closed-form invariants of the sparse feedback-free family, the
criterion-11 conservation fixtures, the Hamiltonian test models, and
independent brute-force oracles (among them the matrix-vector product
behind J x = f and J v = 0, the all-pairs proportionality test, the
bilinear Jacobi residual, the O(M^2) gradient test, the hierarchy
increments and recurrence flags from two whole-member Jacobi passes per
step, the two-attempt Casimir projection rule, the interpreted RK4
stepper that generated code must match, the symbolic nullspace by
denominator clearing, the gcd of a monomial and
generic_point without its even-rank and lift stops, a form's value polynomial
summed position by position, the form stored as per-position coefficients,
the invariant system assembled from Poly products, and the sign-symmetry
identity checked by substitution), the printed row and column labels of an
invariant system, the dense view of a sparse PolyMatrix (`dense_matrix`,
`dense_rows`), and the model sets the tests sweep (`reference_models`, `ladder_models`,
`random_glom`)."""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from glomkit.errors import ContractViolation, IntegrationError
from glomkit.exactmath import Poly, PolyMatrix, VarTable, grlex_key, linalg, monomial_str, poly_proportional
from glomkit.exactmath.linalg import (
    GENERIC_HIGH,
    GENERIC_LOW,
    GENERIC_TRIALS,
    divide_exact,
    evaluate_at,
    generic_rank,
    nullspace_rational,
    rank_rational,
)
from glomkit.exactmath.poly import normalized_vector
from glomkit.hamiltonian import build_J, casimirs, jacobi
from glomkit.hierarchy import FAMILY_STRIDE, member, projection_consistency
from glomkit.invariants import (
    InvariantSystem,
    QuadraticForm,
    count_invariants,
    form_positions,
    verify_conserved,
)
from glomkit.models import (
    Glom,
    ParamSpec,
    SignSymmetry,
    VectorField,
    assemble_field,
    builtin_model,
    generic_gyrostat,
    instantiate,
    no_linear_feedback,
)
from glomkit.simulate import SimConfig, compile_field, compile_form, initial_state

# the largest member of each hierarchy family in the benchmark and the
# golden reports
FAMILY_TOP_K = {"sparse": 6, "dense1": 6, "dense2": 6, "model4": 3, "model5": 5}


def model_table(modes: int, gyrostats: int, extra: Sequence[str] = ()) -> VarTable:
    """The variable table of a model of `gyrostats` generic gyrostats over
    `modes` modes with the given extra symbols: x1..xM, a1..q1, a2..q2, ..."""
    gyros = tuple(generic_gyrostat((1, 2, 3), k) for k in range(1, gyrostats + 1))
    return Glom(modes, gyros, tuple(extra)).var_table


_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z0-9_]*|\*\*|[-+*^()])")


def tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad token at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse(table: VarTable, text: str) -> Poly:
    """Parse expressions like 'p1*x2*x3 + b1*x3 - 1/2*c1*x2^2'."""
    tokens = tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_expr() -> Poly:
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> Poly:
        node = parse_factor()
        while peek() == "*":
            take()
            node = node * parse_factor()
        return node

    def parse_factor() -> Poly:
        if peek() == "-":
            take()
            return -parse_factor()
        atom = parse_atom()
        if peek() in ("^", "**"):
            take()
            exp = take()
            return atom ** int(exp)
        return atom

    def parse_atom() -> Poly:
        tok = take()
        if tok == "(":
            inner = parse_expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses")
            return inner
        if re.fullmatch(r"\d+/\d+|\d+", tok):
            return table.const(Fraction(tok))
        return table.var(tok)

    result = parse_expr()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens: {tokens[pos:]}")
    return result


def poly_eval(poly: Poly, values: dict[int, Fraction]) -> Fraction:
    """Exact value of poly with variable i set to values[i]; every variable
    that occurs must be assigned."""
    total = Fraction(0)
    for m, c in poly.terms.items():
        v = c
        for i, e in enumerate(poly.table.unpack(m)):
            if e:
                v *= values[i] ** e
        total += v
    return total


def state_degree(poly: Poly) -> int:
    M = poly.table.state_count
    return max((sum(poly.table.unpack(m)[:M]) for m in poly.terms), default=0)


def dense_matrix(table: VarTable, rows: Sequence[Sequence[Poly]], cols: int | None = None) -> PolyMatrix:
    """The PolyMatrix of dense rows of polynomials; the width is that of the
    rows, or `cols` when there are none.  Ragged rows raise."""
    width = len(rows[0]) if rows else cols
    if any(len(row) != width for row in rows):
        raise ContractViolation("ragged matrix")
    return PolyMatrix(table, width, [dict(enumerate(row)) for row in rows])


def dense_rows(m: PolyMatrix, values: Mapping[int, int] | None = None) -> list[list]:
    """m's entries as dense lists of polynomials, or with `values` their
    exact values there (through evaluate_at), zeros written out."""
    if values is None:
        return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]
    return [[row.get(j, 0) for j in range(m.cols)] for row in evaluate_at(m, values)]


def rank_exact(m: PolyMatrix) -> int:
    """Rank of an all-rational matrix."""
    return rank_rational(dense_rows(m, {}))


def nullspace_exact(m: PolyMatrix) -> list[list[int]]:
    """Nullspace basis of an all-rational matrix, integer entries, content 1."""
    return nullspace_rational(dense_rows(m, {}), m.cols)


def parameter_names(m: PolyMatrix) -> set[str]:
    """Names of the parameters that occur in some entry."""
    return {m.table.names[i] for i in m.variables() if i >= m.table.state_count}


def divergence(field: VectorField) -> Poly:
    acc = field.table.zero()
    for i, comp in enumerate(field.components):
        acc = acc + comp.diff(i)
    return acc


def compose(a: SignSymmetry, b: SignSymmetry) -> SignSymmetry:
    return SignSymmetry(tuple(x * y for x, y in zip(a.signs, b.signs)))


def mul_vector(m: PolyMatrix, vec: Sequence[Poly]) -> list[Poly]:
    """The product m * vec; the oracle for J x = f and J v = 0."""
    if len(vec) != m.cols:
        raise ContractViolation("vector length does not match column count")
    out = []
    for row in dense_rows(m):
        acc = m.table.zero()
        for e, x in zip(row, vec):
            if e and x:
                acc = acc + e * x
        out.append(acc)
    return out


def proportional_reference(v1: Sequence[Poly], v2: Sequence[Poly]) -> bool:
    """Parallel polynomial vectors by all pairwise cross products
    v1_i * v2_j == v1_j * v2_i, i < j, plus agreement of the zero patterns;
    the oracle for linalg.proportional."""
    if len(v1) != len(v2):
        raise ContractViolation("vectors must have equal length")
    if any(a.is_zero() != b.is_zero() for a, b in zip(v1, v2)):
        return False
    return all(
        v1[i] * v2[j] == v1[j] * v2[i] for i, j in itertools.combinations(range(len(v1)), 2)
    )


def triple_residual(a: PolyMatrix, b: PolyMatrix, triple: tuple[int, int, int]) -> Poly:
    """sum_m of A against the state-gradient of B, cyclically over the triple.

    For A = B = J this is the per-triple Jacobi residual; the bilinear form
    is the reference for the telescoping of incremental conditions.
    """
    table = a.table
    M = a.rows
    i, j, k = triple
    acc = table.zero()
    for first, second, third in ((i, j, k), (j, k, i), (k, i, j)):
        entry = b[second, third]
        if entry.is_zero():
            continue
        for m in range(M):
            d = entry.diff(m)
            if d and a[first, m]:
                acc = acc + a[first, m] * d
    return acc


def is_gradient_reference(vector: Sequence[Poly]) -> bool:
    """dv_i/dx_j == dv_j/dx_i for every pair of state indices i < j: the
    O(M^2) oracle for hamiltonian.is_gradient."""
    n = len(vector)
    return all(vector[i].diff(j) == vector[j].diff(i) for i, j in itertools.combinations(range(n), 2))


def _aggregate_reference(g: Glom) -> Poly:
    return jacobi(build_J(g)).aggregate


def incremental_jacobi_reference(g_K: Glom, g_K_minus_1: Glom) -> Poly:
    """g_K's aggregate Jacobi condition minus g_K_minus_1's, each from a
    whole-model Jacobi pass, over g_K's table: the oracle for
    hierarchy.incremental_jacobi."""
    return _aggregate_reference(g_K) - _aggregate_reference(g_K_minus_1).remapped(g_K.var_table)


def incremental_condition_reference(family: str, K: int) -> Poly:
    """The two-aggregate difference at step K of the unconstrained family:
    the oracle for hierarchy.incremental_condition."""
    return incremental_jacobi_reference(*(member(family, k, constrained=False) for k in (K, K - 1)))


def _shift_name_map_reference(poly: Poly, stride: int) -> dict[str, str]:
    out = {}
    for i in sorted(poly.variables()):
        name = poly.table.names[i]
        kind, index = name[0], int(name[1:])
        out[name] = f"x{index + stride}" if kind == "x" else f"{kind}{index + 1}"
    return out


def check_recurrence_reference(family: str, k_max: int) -> bool:
    """hierarchy.check_recurrence from one Jacobi pass per unconstrained
    member K = 1..k_max, each step the difference of two aggregates in
    member K's table, each shift a remap into the next member's table."""
    aggregates = [_aggregate_reference(member(family, K, constrained=False)) for K in range(1, k_max + 1)]
    stride = FAMILY_STRIDE[family]
    # conditions[i] is the step to K = i + 2 gyrostats
    conditions = [big - small.remapped(big.table) for small, big in zip(aggregates, aggregates[1:])]
    for cur, nxt in zip(conditions[1:], conditions[2:]):
        try:
            shifted = cur.remapped(nxt.table, _shift_name_map_reference(cur, stride))
        except ContractViolation:
            return False
        if not poly_proportional(shifted, nxt):
            return False
    return True


def projects_onto_reference(big: list[Poly], small: list[Poly], absent: set[str]) -> bool:
    """The two-attempt projection rule: the plain restriction of `big` to
    `small`'s modes first; where that is not collinear with `small`, the
    restriction with the absent parameters zeroed that occur in some but
    not all of its nonzero components."""
    if projection_consistency(big, small):
        return True
    per_comp = [{v.table.names[i] for i in v.variables()} & absent for v in big[: len(small)] if v]
    zeros = set().union(*per_comp) - set.intersection(*per_comp) if per_comp else set()
    return bool(zeros) and projection_consistency(big, small, zeros)


def family_constraints_reference(family: str, K: int) -> dict[str, ParamSpec]:
    """The slot substitutions of the constrained K-gyrostat member, spelled
    member by member (model5's as a schedule filtered to gyrostats 1..K):
    the oracle for hierarchy.member's per-gyrostat constraints."""
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
    else:
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
    return out


def parse_vector(table: VarTable, exprs: list[str]) -> list[Poly]:
    return [parse(table, e) for e in exprs]


def parse_matrix(table: VarTable, rows: list[list[str]]) -> list[list[Poly]]:
    return [[parse(table, e) for e in row] for row in rows]


# ---------------------------------------------------------------------------
# closed-form invariants of the sparse feedback-free family
#
# With triples (2k-1, 2k, 2k+1), no linear feedback and r_k = -p_k - q_k,
# the family has K+1 invariants whose normal forms are
#
#   C_m     = x_{2m}^2  + sum_{j<=m} (-1)^{m-j+1} q_m r_j..r_{m-1} / (p_j..p_m) x_{2j-1}^2
#   C_{K+1} = x_{2K+1}^2 + sum_{j<=K} (-1)^{K-j+1} r_j..r_K / (p_j..p_K)     x_{2j-1}^2
#
# and the unit-weight sum telescopes to sum_i x_i^2.


def sparse_normal_form_numeric(
    K: int, m: int, p: list[Fraction], q: list[Fraction], table: VarTable
) -> QuadraticForm:
    """C_{K,m} at exact parameter values (1-based m up to K+1)."""
    r = [-(pi + qi) for pi, qi in zip(p, q)]
    M = 2 * K + 1
    d = [Fraction(0)] * M
    if m <= K:
        d[2 * m - 1] = Fraction(2)  # x_{2m}^2
        for j in range(1, m + 1):
            num = q[m - 1]
            for t in range(j, m):
                num *= r[t - 1]
            den = Fraction(1)
            for t in range(j, m + 1):
                den *= p[t - 1]
            d[2 * j - 2] = 2 * Fraction(-1) ** (m - j + 1) * num / den
    else:
        d[2 * K] = Fraction(2)  # x_{2K+1}^2
        for j in range(1, K + 1):
            num = Fraction(1)
            for t in range(j, K + 1):
                num *= r[t - 1]
            den = Fraction(1)
            for t in range(j, K + 1):
                den *= p[t - 1]
            d[2 * j - 2] = 2 * Fraction(-1) ** (K - j + 1) * num / den
    return QuadraticForm.from_numeric(table, d)


def sparse_normal_form_scaled(K: int, m: int, table: VarTable) -> Poly:
    """(p_1 ... p_K) * C_{K,m} as a polynomial (denominators cleared)."""
    p = [table.var(f"p{k}") for k in range(1, K + 1)]
    q = [table.var(f"q{k}") for k in range(1, K + 1)]
    r = [-(pk + qk) for pk, qk in zip(p, q)]

    def prod(factors):
        acc = table.const(1)
        for f in factors:
            acc = acc * f
        return acc

    acc = table.zero()
    if m <= K:
        acc = acc + prod(p) * table.x(2 * m) ** 2
        for j in range(1, m + 1):
            coeff = q[m - 1]
            coeff = coeff * prod(r[j - 1 : m - 1])
            coeff = coeff * prod(p[: j - 1]) * prod(p[m:])
            acc = acc + coeff.scale(Fraction(-1) ** (m - j + 1)) * table.x(2 * j - 1) ** 2
    else:
        acc = acc + prod(p) * table.x(2 * K + 1) ** 2
        for j in range(1, K + 1):
            coeff = prod(r[j - 1 : K]) * prod(p[: j - 1])
            acc = acc + coeff.scale(Fraction(-1) ** (K - j + 1)) * table.x(2 * j - 1) ** 2
    return acc


# ---------------------------------------------------------------------------
# brute-force oracles


def oracle_raw_count(g: Glom, n_points: int | None = None, seed: int = 0) -> int:
    """Invariant count for a fully numeric model, independent of the
    monomial-collection path: evaluate the dC/dt contribution of every
    candidate coefficient at random state points and take the nullspace
    dimension of the resulting exact linear system.  The points default to
    8 more than the columns: fewer points than columns cap the rank."""
    table = g.var_table
    M = g.modes
    field = assemble_field(g)
    columns = []
    for i in range(1, M + 1):
        columns.append(table.x(i) * field[i - 1])
    for i in range(1, M + 1):
        for j in range(i + 1, M + 1):
            columns.append(table.x(j) * field[i - 1] + table.x(i) * field[j - 1])
    for i in range(1, M + 1):
        columns.append(field[i - 1])
    rng = random.Random(seed)
    rows = []
    for _ in range(len(columns) + 8 if n_points is None else n_points):
        point = {
            table.index(f"x{i}"): Fraction(rng.randrange(1, 10**6))
            for i in range(1, M + 1)
        }
        rows.append([poly_eval(col, point) if col else Fraction(0) for col in columns])
    return len(columns) - bareiss_rank(rows)


# Dense integer Bareiss elimination (one-step, divide by the previous pivot)
# and Fraction back-substitution: the reference for the sparse reduction in
# exactmath.linalg.


def _int_rows(rows: list[list[Fraction | int]]) -> list[list[int]]:
    """Scale each row to coprime integers (row scaling preserves nullspace)."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(v).denominator for v in row))
        ints = [int(v * den) for v in row]
        g = gcd(*ints)
        out.append([v // g for v in ints] if g > 1 else ints)
    return out


def bareiss_echelon(rows: list[list[Fraction | int]]) -> tuple[list[list[int]], list[int]]:
    """Forward Bareiss elimination; returns (rows, pivot columns).

    Row i (for i < len(pivots)) has its first nonzero entry in column
    pivots[i], and all rows below it are zero in that column.
    """
    rows = _int_rows(rows)
    if not rows:
        return rows, []
    n_rows = len(rows)
    n_cols = len(rows[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        for i in range(r, n_rows):
            if rows[i][c]:
                break
        else:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, n_rows):
            fac = rows[i][c]
            row_i = rows[i]
            row_r = rows[r]
            rows[i] = [(piv * row_i[j] - fac * row_r[j]) // prev for j in range(n_cols)]
        prev = piv
        pivots.append(c)
        r += 1
    return rows, pivots


def bareiss_rank(rows: list[list[Fraction | int]]) -> int:
    return len(bareiss_echelon(rows)[1])


def bareiss_nullspace(rows: list[list[Fraction | int]], n_cols: int) -> list[list[int]]:
    """One coprime integer vector per free column, free entry positive."""
    ech, pivots = bareiss_echelon(rows)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            row = ech[i]
            s = sum((Fraction(row[j]) * v[j] for j in range(c + 1, n_cols)), Fraction(0))
            v[c] = -s / row[c]
        den = lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = gcd(*ints)
        basis.append([x // g for x in ints])
    return basis


def parameter_only_generic_rank(m: PolyMatrix, seed: int) -> tuple[int, list[dict[int, int]]]:
    """generic_rank as it was when it substituted parameters only: the rank
    and the points it drew, for checking that the draws did not move."""
    names = sorted(parameter_names(m))
    rng = random.Random(seed)
    full = min(m.rows, m.cols)
    best = 0
    points = []
    for _ in range(GENERIC_TRIALS):
        values = {m.table.index(n): rng.randrange(GENERIC_LOW, GENERIC_HIGH) for n in names}
        points.append(values)
        best = max(best, rank_rational(dense_rows(m, values)))
        if best == full:
            break
    return best, points


def generic_point_to_full_rank(m: PolyMatrix, rng: random.Random):
    """generic_point without the even-rank stop for skew matrices and the
    stop at a kernel that lifts: the first best of GENERIC_TRIALS points,
    stopping early only at min(rows, cols), for checking that those stops
    change no result."""
    indices = sorted(m.variables(), key=m.table.names.__getitem__)
    best = None
    for _ in range(GENERIC_TRIALS):
        values = {i: rng.randrange(GENERIC_LOW, GENERIC_HIGH) for i in indices}
        pivots = linalg._pivot_rows(evaluate_at(m, values))
        if best is None or len(pivots) > len(best[1]):
            best = values, pivots
            if len(pivots) == min(m.rows, m.cols):
                break
    return best


def monomial_gcd_reference(m: Poly, p: Poly) -> Poly:
    """gcd of the one-term m and a nonzero p, built variable by variable:
    each to the least power it has in m and in the terms of p."""
    (mono,) = map(m.table.unpack, m.terms)
    exponents = [p.table.unpack(t) for t in p.terms]
    gcd_poly = m.table.const(1)
    for i, name in enumerate(m.table.names):
        gcd_poly = gcd_poly * m.table.var(name) ** min(mono[i], *(t[i] for t in exponents))
    return gcd_poly


# The symbolic nullspace by denominator clearing: the back-substitution
# multiplies the whole vector by every pivot, then each multi-term pivot or
# entry (rational and monomial content stripped) is divided out until none
# divides, with the vector's content stripped in between.  The reference
# for the sub-Pfaffian kernel and exact gcd in exactmath.linalg.


def _strip_content_reference(vec: list[Poly]) -> list[Poly]:
    table = vec[0].table
    vec = normalized_vector(vec)
    monos = [table.unpack(m) for v in vec for m in v.terms]
    mins = tuple(map(min, zip(*monos))) if monos else None
    if mins and any(mins):
        vec = [
            Poly(table, {table.pack([e - s for e, s in zip(table.unpack(m), mins)]): c for m, c in v.terms.items()})
            if v
            else v
            for v in vec
        ]
    return vec


def _normalize_vector_reference(vec: list[Poly], pivot_polys: list[Poly]) -> list[Poly]:
    if all(v.is_zero() for v in vec):
        return vec
    candidates = {}
    queue = list(pivot_polys)
    while queue:
        # a pivot may be c1*(a1*c2 + c1*c4), or (x1 + 1)*(a1 - p1) next to
        # the entry x1 + 1: candidates lose their monomial content, and a
        # candidate over another that divides it is a candidate too
        (norm,) = _strip_content_reference([queue.pop()])
        if norm.total_degree() == 0 or len(norm.terms) == 1 or norm.key() in candidates:
            continue
        for other in candidates.values():
            for a, b in ((norm, other), (other, norm)):
                with contextlib.suppress(ContractViolation):
                    queue.append(divide_exact(a, b))
        candidates[norm.key()] = norm
    while True:
        vec = _strip_content_reference(vec)
        for cand in candidates.values():
            try:
                vec = [divide_exact(v, cand) if v else v for v in vec]
            except ContractViolation:
                continue
            break
        else:
            return vec


def nullspace_symbolic_reference(m: PolyMatrix) -> list[list[Poly]]:
    if generic_rank(m) == m.cols:
        return []
    table = m.table
    rows, pivots = linalg._echelon_poly(m)  # looked up per call, so tests can share it
    pivot_cols = {c for c, _ in pivots}
    free = [c for c in range(m.cols) if c not in pivot_cols]
    one = table.const(1)
    factor_pool = [p for _, p in pivots]
    factor_pool.extend(e for row in m.entries for e in row.values())
    basis: list[list[Poly]] = []
    for fc in free:
        w = [table.zero()] * m.cols
        w[fc] = one
        for i in range(len(pivots) - 1, -1, -1):
            c, piv = pivots[i]
            row = rows[i]
            s = table.zero()
            for j in range(m.cols):
                if j != c and (e := row.get(j)) and w[j]:
                    s = s + e * w[j]
            w = [piv * w[j] if j != c else w[j] for j in range(m.cols)]
            w[c] = -s
        basis.append(_normalize_vector_reference(w, factor_pool))
    return basis


def determinant_by_permutations(rows: list[list[Fraction]]) -> Fraction:
    """Leibniz-formula determinant; an elimination-free oracle."""
    import itertools

    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def hamiltonian_models():
    """model1-5, euler and the subclasses of acceptance criteria 5 and 6."""
    models = {
        name: builtin_model(name)
        for name in ("model1", "model2", "model3", "model4", "model5", "euler")
    }
    models["model2_q2"] = builtin_model("model2").zeroed(["q2"])
    for names in (["p1", "b1", "c1"], ["p2", "c1", "b2"]):
        models["model1_" + "".join(names)] = builtin_model("model1").zeroed(names)
    models["model3_branch"] = builtin_model("model3").with_params(
        {
            "p2": ParamSpec.scaled("p1", 1),
            "q1": ParamSpec.scaled("p1", 1),
            "p3": ParamSpec.scaled("q2", -1),
            "q3": ParamSpec.scaled("q2", -1),
        }
    )
    for K in range(1, 5):
        models[f"sparse{K}"] = member("sparse", K)
    return models


def random_glom(seed: int) -> Glom:
    """The random model of a seed: M in 3..7 modes, 1..4 random triples of
    distinct modes in random order, and each slot zeroed with probability 0.3."""
    rng = random.Random(seed)
    M = rng.randint(3, 7)
    triples = [tuple(rng.sample(range(1, M + 1), 3)) for _ in range(rng.randint(1, 4))]
    g = Glom(M, tuple(generic_gyrostat(t, k) for k, t in enumerate(triples, 1)))
    return g.zeroed([name for name in g.slots() if rng.random() < 0.3])


def ladder_models() -> dict[str, Glom]:
    """The benchmark's invariant ladder: sparse K=3..6 and dense K=4..8,
    each general and without linear feedback."""
    models = {}
    for name, ks in (("sparse", range(3, 7)), ("dense", range(4, 9))):
        for K in ks:
            g = builtin_model(name, K)
            models[f"{name}{K}"] = g
            models[f"{name}{K}_nlf"] = no_linear_feedback(g)
    return models


def reference_models():
    """model1-5, euler, the criterion-5/6 subclasses, sparse K=1..4 and
    every 1- and 2-slot subclass of model3."""
    models = hamiltonian_models()
    g = builtin_model("model3")
    for k in (1, 2):
        for zeros in itertools.combinations(g.generic_param_names(), k):
            models["model3_" + "".join(zeros)] = g.zeroed(zeros)
    return models


def apply_signs(poly: Poly, signs: Sequence[int]) -> Poly:
    """Substitute x_i -> s_i * x_i for the state variables."""
    M = poly.table.state_count
    out = {}
    for m, c in poly.terms.items():
        flip = 1
        exponents = poly.table.unpack(m)
        for i in range(M):
            if exponents[i] % 2 and signs[i] < 0:
                flip = -flip
        out[m] = c if flip > 0 else -c
    return Poly(poly.table, out)


def is_sign_symmetry(field: VectorField, signs: Sequence[int]) -> bool:
    """f(Sx) == S f(x), compared as polynomials: the brute-force oracle for
    find_sign_symmetries."""
    return all(
        apply_signs(comp, signs) == (comp if signs[i] > 0 else -comp)
        for i, comp in enumerate(field.components)
    )


def map_signs(form: QuadraticForm, signs: Sequence[int]) -> QuadraticForm:
    """The form x -> C(Sx) for a diagonal sign transformation S."""
    return QuadraticForm(apply_signs(form.value_poly(), signs))


def value_poly_reference(form: QuadraticForm) -> Poly:
    """C summed one position at a time with `Poly` addition: the term order
    `QuadraticForm.value_poly` keeps, on which the compiled RK4 sums of
    `simulate` depend."""
    x = form.table.x
    acc = form.table.zero()
    for (i, j), c in zip(form_positions(form.M), form.coeff_vector()):
        if c:
            if j is None:
                acc = acc + c * x(i)
            elif j == i:
                acc = acc + (c * x(i) * x(i)).scale(Fraction(1, 2))
            else:
                acc = acc + c * x(i) * x(j)
    return acc


@dataclass(frozen=True, slots=True)
class EntriesForm:
    """The reference for `QuadraticForm`: the form stored as (position,
    coefficient) pairs of its nonzero coefficients in `form_positions`
    order, each coefficient its own `Poly`, with the same readers."""

    table: VarTable
    entries: tuple[tuple[tuple[int, int | None], Poly], ...]

    @classmethod
    def from_coeff_vector(cls, table: VarTable, vec: Sequence) -> "EntriesForm":
        positions = form_positions(table.state_count)
        assert len(vec) == len(positions)
        entries = ((p, v if isinstance(v, Poly) else table.const(v)) for p, v in zip(positions, vec) if v)
        return cls(table, tuple(entries))

    @classmethod
    def from_gradient(cls, vector: Sequence[Poly]) -> "EntriesForm":
        """d_i, e_ij (i < j) and f_i are the x_i, x_j and state-free entries
        of v_i's `split_by_state`."""
        M = len(vector)
        index = {p: k for k, p in enumerate(form_positions(M))}
        found = []
        for i, v in enumerate(vector, 1):
            for state, c in v.split_by_state().items():
                if sum(state) > 1:
                    raise ContractViolation("potential is not quadratic")
                j = state.index(1) + 1 if any(state) else None
                if j is None or j >= i:
                    found.append(((i, j), c))
        found.sort(key=lambda entry: index[entry[0]])
        return cls(vector[0].table, tuple(found))

    @property
    def M(self) -> int:
        return self.table.state_count

    def coeff_vector(self) -> list[Poly]:
        stored, zero = dict(self.entries), self.table.zero()
        return [stored.get(p, zero) for p in form_positions(self.M)]

    def value_poly(self) -> Poly:
        terms: dict = {}
        for (i, j), c in self.entries:
            for mono, a in c.terms.items():
                exps = list(self.table.unpack(mono))
                exps[i - 1] += 1
                if j is not None:
                    exps[j - 1] += 1
                mono = self.table.pack(exps)
                terms[mono] = terms.get(mono, 0) + (a * Fraction(1, 2) if j == i else a)
        return Poly(self.table, terms)

    def is_numeric(self) -> bool:
        return all(c.total_degree() == 0 for _, c in self.entries)

    def numeric_coeffs(self) -> list[Fraction]:
        zero_mono = self.table.pack([0] * len(self.table.names))
        assert self.is_numeric()
        return [c.terms.get(zero_mono, 0) for c in self.coeff_vector()]

    def instantiate(self, values: Mapping[str, Fraction]) -> "EntriesForm":
        instances = ((p, c.subs(values)) for p, c in self.entries)
        return EntriesForm(self.table, tuple((p, c) for p, c in instances if c))

    def normalized(self) -> "EntriesForm":
        coeffs = normalized_vector([c for _, c in self.entries])
        return EntriesForm(self.table, tuple(zip([p for p, _ in self.entries], coeffs)))


def build_system_reference(g: Glom, field: VectorField | None = None) -> InvariantSystem:
    """The invariant system from one `Poly` product per unknown (x_i*f_i for
    d_i, x_j*f_i + x_i*f_j for e_ij, f_i for f_i), each split by state;
    `field` stands in for g's own when given."""
    table = g.var_table
    field = field or assemble_field(g)
    x = table.x
    columns: list[Poly] = []
    for i, j in form_positions(g.modes):
        if j is None:
            columns.append(field[i - 1])
        elif j == i:
            columns.append(x(i) * field[i - 1])
        else:
            columns.append(x(j) * field[i - 1] + x(i) * field[j - 1])
    rows: dict[tuple[int, ...], dict[int, Poly]] = {}
    for ci, contribution in enumerate(columns):
        for state_mono, coeff in contribution.split_by_state().items():
            rows.setdefault(state_mono, {})[ci] = coeff
    ordered = sorted(rows, key=grlex_key, reverse=True)
    return InvariantSystem(PolyMatrix(table, len(columns), [rows[m] for m in ordered]), tuple(ordered))


def unknown_labels(M: int) -> list[str]:
    """The unknowns d1, e1_2, f1, ... in `form_positions` order."""
    return [f"f{i}" if j is None else f"d{i}" if j == i else f"e{i}_{j}" for i, j in form_positions(M)]


def row_labels(system: InvariantSystem) -> list[str]:
    """The state monomial of each row of an invariant system, printed."""
    table = system.matrix.table
    pad = (0,) * (len(table.names) - table.state_count)
    return [monomial_str(table, table.pack(mono + pad)) for mono in system.row_monomials]


def row_by_label(system: InvariantSystem, label: str) -> list[Poly]:
    """The row of an invariant system at the state monomial printed as label."""
    return dense_rows(system.matrix)[row_labels(system).index(label)]


def restricted(system: InvariantSystem, keep: Sequence[str]) -> InvariantSystem:
    """Sub-system on the unknowns named in `keep`, with all-zero rows dropped."""
    table = system.matrix.table
    cols = [c for c, label in enumerate(unknown_labels(table.state_count)) if label in keep]
    entries = []
    monos = []
    for mono, row in zip(system.row_monomials, dense_rows(system.matrix)):
        sub = [row[c] for c in cols]
        if any(sub):
            entries.append(sub)
            monos.append(mono)
    return InvariantSystem(dense_matrix(table, entries, len(cols)), tuple(monos))


def _conservation_fixture(tag, g, seed):
    """Exact instantiation plus everything symbolically verified for it."""
    rng = random.Random(seed)
    values = {name: Fraction(rng.randrange(1, 6)) for name in g.free_symbols()}
    exact = instantiate(g, values)
    tracked = list(count_invariants(exact, seed=seed).basis)
    if jacobi(build_J(exact)).is_hamiltonian:
        tracked.extend(casimirs(exact).casimirs)
    for form in tracked:
        assert verify_conserved(exact, form), tag
    return tag, g, values, tracked


def criterion_11_fixtures():
    """(tag, model, parameter values, verified forms) for the ten instantiations."""
    return [
        _conservation_fixture("single", builtin_model("sparse", 1), 1),
        _conservation_fixture("euler", builtin_model("euler"), 2),
        _conservation_fixture("model1", builtin_model("model1"), 3),
        _conservation_fixture(
            "model1-degenerate", builtin_model("model1").zeroed(["b1", "c1", "a2", "b2"]), 4
        ),
        _conservation_fixture(
            "model1-branch", builtin_model("model1").zeroed(["p2", "c1", "b2"]), 5
        ),
        _conservation_fixture("model2", builtin_model("model2"), 6),
        _conservation_fixture("model2-constrained", builtin_model("model2").zeroed(["q2"]), 7),
        _conservation_fixture("model3", builtin_model("model3"), 8),
        _conservation_fixture("sparse-K2", member("sparse", 2), 9),
        _conservation_fixture("dense1-K3", member("dense1", 3), 10),
    ]


def _eval_terms(terms, x) -> float:
    total = 0.0
    for c, idx in terms:
        v = c
        for i in idx:
            v *= x[i]
        total += v
    return total


def _rk4_step(field, x: list[float], dt: float) -> list[float]:
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


def reference_integrate(g: Glom, cfg: SimConfig, tracked):
    """Textbook RK4 interpreting the compiled term lists: (final state,
    initial form values, max abs deviations).  `simulate.integrate` runs
    generated straight-line code that must match this bit for bit, and
    raises IntegrationError at the same step with the same message."""
    field_terms = compile_field(g, cfg.param_assignment)
    form_terms = [compile_form(f, cfg.param_assignment) for f in tracked]
    x = list(initial_state(g, cfg))
    initial = [_eval_terms(t, x) for t in form_terms]
    max_dev = [0.0] * len(tracked)
    for step in range(1, round(abs(cfg.t_end / cfg.dt)) + 1):
        x = _rk4_step(field_terms, x, cfg.dt)
        if not all(math.isfinite(v) for v in x):
            raise IntegrationError(f"non-finite state at step {step}")
        for qi, terms in enumerate(form_terms):
            dev = abs(_eval_terms(terms, x) - initial[qi])
            if dev > max_dev[qi]:
                max_dev[qi] = dev
    return tuple(x), tuple(initial), tuple(max_dev)
