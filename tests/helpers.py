"""Shared test utilities: a small polynomial expression parser, the
closed-form invariants of the sparse feedback-free family, the
criterion-11 conservation fixtures, the Hamiltonian test models, and
independent brute-force oracles (among them the matrix-vector product
behind J x = f and J v = 0, the all-pairs proportionality test, the
bilinear Jacobi residual, the interpreted RK4 stepper that generated code
must match, the symbolic nullspace by denominator
clearing and the sign-symmetry identity checked by substitution), and the
printed row and column labels of an invariant system."""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from glomkit.errors import ContractViolation, IntegrationError
from glomkit.exactmath import Poly, PolyMatrix, VarTable, linalg, monomial_str
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
from glomkit.hierarchy import member
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
)
from glomkit.simulate import SimConfig, compile_field, compile_form, initial_state

# the largest member of each hierarchy family in the benchmark and the
# golden reports
FAMILY_TOP_K = {"sparse": 6, "dense1": 6, "dense2": 6, "model4": 3, "model5": 5}


def model_table(modes: int, gyrostats: int, extra: Sequence[str] = ()) -> VarTable:
    """The variable table of a model of `gyrostats` generic gyrostats over
    `modes` modes with the given extra symbols: x1..xM, a1..q1, a2..q2, ..."""
    return Glom(modes, (generic_gyrostat((1, 2, 3)),) * gyrostats, tuple(extra)).var_table


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
        for i, e in enumerate(m):
            if e:
                v *= values[i] ** e
        total += v
    return total


def state_degree(poly: Poly) -> int:
    M = poly.table.state_count
    return max((sum(m[:M]) for m in poly.terms), default=0)


def rank_exact(m: PolyMatrix) -> int:
    """Rank of an all-rational matrix."""
    return rank_rational(evaluate_at(m, {}))


def nullspace_exact(m: PolyMatrix) -> list[list[int]]:
    """Nullspace basis of an all-rational matrix, integer entries, content 1."""
    return nullspace_rational(evaluate_at(m, {}), m.cols)


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
    for row in m.entries:
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


def oracle_raw_count(g: Glom, n_points: int = 40, seed: int = 0) -> int:
    """Invariant count for a fully numeric model, independent of the
    monomial-collection path: evaluate the dC/dt contribution of every
    candidate coefficient at random state points and take the nullspace
    dimension of the resulting exact linear system."""
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
    for _ in range(n_points):
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
        best = max(best, rank_rational(evaluate_at(m, values)))
        if best == full:
            break
    return best, points


# The symbolic nullspace by denominator clearing: the back-substitution
# multiplies the whole vector by every pivot, then each multi-term pivot or
# entry (rational and monomial content stripped) is divided out until none
# divides, with the vector's content stripped in between.  The reference
# for the sub-Pfaffian kernel and exact gcd in exactmath.linalg.


def _strip_content_reference(vec: list[Poly]) -> list[Poly]:
    table = vec[0].table
    vec = normalized_vector(vec)
    monos = [m for v in vec for m in v.terms]
    mins = tuple(map(min, zip(*monos))) if monos else None
    if mins and any(mins):
        vec = [
            Poly(table, {tuple(e - s for e, s in zip(m, mins)): c for m, c in v.terms.items()})
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
    factor_pool.extend(e for row in m.entries for e in row if e)
    basis: list[list[Poly]] = []
    for fc in free:
        w = [table.zero()] * m.cols
        w[fc] = one
        for i in range(len(pivots) - 1, -1, -1):
            c, piv = pivots[i]
            row = rows[i]
            s = table.zero()
            for j in range(m.cols):
                if j != c and row[j] and w[j]:
                    s = s + row[j] * w[j]
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
        for i in range(M):
            if m[i] % 2 and signs[i] < 0:
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
    factors = [signs[i - 1] * (1 if j is None else signs[j - 1]) for i, j in form_positions(form.M)]
    return QuadraticForm(form.table, tuple(c.scale(s) for c, s in zip(form.coeffs, factors)))


def unknown_labels(M: int) -> list[str]:
    """The unknowns d1, e1_2, f1, ... in `form_positions` order."""
    return [f"f{i}" if j is None else f"d{i}" if j == i else f"e{i}_{j}" for i, j in form_positions(M)]


def row_labels(system: InvariantSystem) -> list[str]:
    """The state monomial of each row of an invariant system, printed."""
    table = system.matrix.table
    pad = (0,) * (len(table.names) - table.state_count)
    return [monomial_str(table, mono + pad) for mono in system.row_monomials]


def row_by_label(system: InvariantSystem, label: str) -> tuple[Poly, ...]:
    """The row of an invariant system at the state monomial printed as label."""
    return system.matrix.entries[row_labels(system).index(label)]


def restricted(system: InvariantSystem, keep: Sequence[str]) -> InvariantSystem:
    """Sub-system on the unknowns named in `keep`, with all-zero rows dropped."""
    table = system.matrix.table
    cols = [c for c, label in enumerate(unknown_labels(table.state_count)) if label in keep]
    entries = []
    monos = []
    for mono, row in zip(system.row_monomials, system.matrix.entries):
        sub = [row[c] for c in cols]
        if any(sub):
            entries.append(sub)
            monos.append(mono)
    return InvariantSystem(
        PolyMatrix(table, entries) if entries else PolyMatrix.zero(table, 0, len(cols)),
        tuple(monos),
    )


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
