"""Fraction-free linear algebra over the rationals and over polynomial entries.

Numeric matrices go through one sparse, fraction-free row reduction
(`_pivot_rows`) of {column: value} rows, which `evaluate_at` makes of a
PolyMatrix's sparse rows.  It first peels singleton rows: a row with one
nonzero entry forces that unknown to zero, so its column becomes the
unit pivot row {c: 1} and is struck from the other rows, which may
cascade.  Peeled columns are pivot columns of the reduced row echelon
form, so the rank, the pivot columns and the nullspace are those of the
input.  The remaining rows, on the unpeeled columns, are taken one at a
time, scaled to coprime integers and reduced against the pivot row at
their leading column by row <- a*row - b*pivot (a, b the two leading
entries divided by their gcd) and divided by the content, until they
vanish or open a new pivot column.  The rank is the pivot count;
nullspaces back-substitute over the sparse pivot rows.  Generic ranks of
polynomial matrices are exact ranks at the best of a few random integer
points (`generic_point`), stopping at the first to reach min(rows, cols),
rounded down to even for a skew matrix (of even rank at any point), or
whose kernel lifts: each of its nullspace vectors annihilates the
polynomial matrix identically, which makes the rank there the generic
rank.  Either stop is exact; the Schwartz-Zippel bound covers only trials
that run to the end.

Polynomial nullspaces are taken of square skew matrices only.  They are
empty at once when the rank at integer points is full.  Otherwise every
kernel vector is the signed sub-Pfaffian vector of one index set S,
computed by expansion along the first row and memoized on the index
bitmask (at most 2^(|S|-1) masks for a fully dense matrix, far fewer for
the sparse J of the gyrostat models).  A skew matrix of odd order M has
rank at most M - 1, so rank M - 1 at an integer point makes its nullity
exactly 1, and S is every column.  At any other nullity the Bareiss
forward elimination with exact multivariate division (pivot rule: lowest
total degree, ties broken by column then row order, which keeps degree
growth down) picks the pivot columns P, and S = P + {j} for each free
column j.  Each vector is divided by the gcd of its entries, one
deterministic `poly_gcd` fold from the smallest entry: the primitive
kernel vector, content 1, its first nonzero entry with a positive
leading coefficient; a step with a monomial costs a few exponent minima.
The order of an entry's terms is not part of the result: polynomials
compare as term dicts, and printing and the JSON reports sort the terms.
"""

from __future__ import annotations

import contextlib
import heapq
import random
from fractions import Fraction
from math import gcd, lcm, prod
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from ..errors import ContractViolation
from .poly import FIELD_MASK, Monomial, Poly, PolyMatrix, normalized_vector

# Range for the random integer values that generic_point gives every
# variable of a matrix (count_invariants, independent_count, the
# empty-nullspace shortcut of nullspace_symbolic).  Large
# enough that hitting a point of non-maximal rank is vanishingly unlikely
# (Schwartz-Zippel), small enough to keep the integer arithmetic cheap.
GENERIC_LOW = 1 << 20
GENERIC_HIGH = 1 << 31

# Random points tried by generic_point; the largest rank found is kept.
GENERIC_TRIALS = 3


# ---------------------------------------------------------------------------
# sparse integer row reduction


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _pivot_rows(rows: Sequence[Mapping[int, Fraction | int]]) -> dict[int, dict[int, int]]:
    """Echelon form of the row space of {column: nonzero value} rows:
    primitive integer rows keyed by their leading column.

    Singleton rows are peeled first, in O(nnz): a row with one live entry,
    at column c, puts e_c in the row space, so c is stored as the unit row
    {c: 1} and struck from every other row, which may leave new singletons.
    Rows left empty are dropped.  The rest, restricted to the unpeeled
    columns, are taken one at a time: each is scaled to coprime integers and
    reduced against the pivot row at its leading column until it vanishes or
    opens a new pivot column.

    The leading columns are those of the reduced row echelon form, whatever
    the row order.  The peel keeps them: e_c in the row space means column c
    lies outside the span of the other columns, so c is a pivot column, and
    the unit rows together with the struck rows span the input's row space.
    So the nullspace `back_substitute` reads off is unchanged too.  Growth
    is bounded: each stored row, and each row met while reducing one, is the
    primitive integer multiple of the row exact Gaussian elimination would
    hold on the unpeeled submatrix (the row minus the combination of pivot
    rows that clears its columns left of the leading one), whose entries are
    ratios of its minors, which are minors of the input scaled to integer
    rows; so no entry exceeds the largest such minor in absolute value
    (Edmonds 1967).
    """
    holders: dict[int, list[int]] = {}  # column -> indices of the rows holding it
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, []).append(i)
    live = [len(row) for row in rows]
    stack = [i for i, n in enumerate(live) if n == 1]
    pivots: dict[int, dict[int, int]] = {}
    while stack:
        i = stack.pop()
        if live[i] != 1:  # emptied by a singleton on the same column
            continue
        c = next(j for j in rows[i] if j not in pivots)
        pivots[c] = {c: 1}
        for k in holders[c]:
            live[k] -= 1
            if live[k] == 1:
                stack.append(k)
    peeled = set(pivots)  # not `pivots`, which gains the elimination's own columns
    for values, n in zip(rows, live):
        if not n:  # every entry peeled
            continue
        values = {j: v for j, v in values.items() if j not in peeled}
        den = lcm(*map(attrgetter("denominator"), values.values()))
        row = _primitive({j: int(v * den) for j, v in values.items()})
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                break
            g = gcd(prow[c], row[c])
            a, b = prow[c] // g, row[c] // g
            if a != 1:
                row = {j: a * v for j, v in row.items()}
            for j, v in prow.items():
                nv = row.get(j, 0) - b * v
                if nv:
                    row[j] = nv
                else:
                    del row[j]
            row = _primitive(row)
    return pivots


def _sparse(rows: Sequence[Sequence[Fraction | int]]) -> list[dict[int, Fraction | int]]:
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def rank_rational(rows: Sequence[Sequence[Fraction | int]]) -> int:
    return len(_pivot_rows(_sparse(rows)))


def nullspace_rational(rows: Sequence[Sequence[Fraction | int]], n_cols: int) -> list[list[int]]:
    """Right nullspace basis with coprime integer entries (see back_substitute)."""
    return back_substitute(_pivot_rows(_sparse(rows)), n_cols)


def back_substitute(pivots: Mapping[int, Mapping[int, int]], n_cols: int) -> list[list[int]]:
    """Nullspace basis of the rows that `_pivot_rows` reduced to `pivots`.

    One coprime integer vector per free column, in column order; the
    free-column entry of each vector is positive and the other free entries
    are zero, which makes each vector unique.
    """
    basis = []
    for fc in range(n_cols):
        if fc in pivots:
            continue
        # an integer multiple of the solution, rescaled whenever a pivot
        # entry does not divide; rows led right of fc never touch it
        v = {fc: 1}
        for c in sorted((c for c in pivots if c < fc), reverse=True):
            prow = pivots[c]
            s = sum(w * v[j] for j, w in prow.items() if j in v)
            if not s:
                continue
            g = gcd(prow[c], s)
            scale = prow[c] // g
            if scale != 1:
                v = {j: w * scale for j, w in v.items()}
            v[c] = -s // g
        sign = 1 if v[fc] > 0 else -1
        g = gcd(*v.values()) * sign
        vec = [0] * n_cols
        for j, w in v.items():
            vec[j] = w // g
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# public numeric operations


def evaluate_at(m: PolyMatrix, values: Mapping[int, int]) -> list[dict[int, Fraction | int]]:
    """Exact value of every stored entry with variable i set to the integer
    values[i]: one {column: value} row per matrix row, zero values dropped.

    Entries whose coefficients are all integers come back as ints, the rest
    as Fractions; both are accepted by `_pivot_rows`.  A variable that
    occurs without a value raises ContractViolation.
    """
    out = []
    factors = m.table.factors
    powers: dict[Monomial, int] = {}  # value of each monomial met so far
    for row in m.entries:
        vals: dict[int, Fraction | int] = {}
        for c, e in row.items():
            total = 0
            for mono, coef in e.terms.items():
                pv = powers.get(mono)
                if pv is None:
                    try:
                        pv = prod(values[i] ** k for i, k in factors(mono))
                    except KeyError as exc:
                        name = m.table.names[exc.args[0]]
                        raise ContractViolation(f"no value for variable {name!r}") from None
                    powers[mono] = pv
                total += (coef.numerator if coef.denominator == 1 else coef) * pv
            if total:
                vals[c] = total
        out.append(vals)
    return out


def generic_point(
    m: PolyMatrix, rng: random.Random
) -> tuple[dict[int, int], dict[int, dict[int, int]]]:
    """The best of GENERIC_TRIALS random integer points of a polynomial matrix.

    Each trial gives every variable that occurs in the matrix, state
    variables and parameters alike, an independent integer from
    S = [2^20, 2^31), drawn from `rng` in the sorted order of the names, and
    reduces the matrix there exactly.  Returns the values (variable index ->
    integer) and the `_pivot_rows` of the trial of largest rank, the first
    one on a tie.  A matrix without variables is reduced once, at the empty
    point.  Two rules stop the trials early, each once a trial has become
    the best:

    - its rank is the largest possible: min(rows, cols), rounded down to
      even for a skew matrix, whose value at any point is a skew matrix, of
      even rank;
    - its kernel lifts (`_kernel_lifts`): every nullspace vector at the
      point annihilates the polynomial matrix identically.  Those vectors
      are independent over Q, so over the field of rational functions too,
      and the rank there is at most the rank at the point, which never
      exceeds it: the two are equal, no later trial can be better, and the
      skipped trials' values are still drawn, leaving `rng` where the
      trials that were not needed would have left it.

    The rank found never exceeds the rank r over the field of rational
    functions, and equals r whenever either rule stopped the trials: both
    are exact.  Otherwise let Delta be a nonzero r x r minor of the matrix
    and D its total degree (at most r times the largest entry degree).  A
    trial falls short only where Delta vanishes, which by Schwartz-Zippel
    happens with probability at most D / |S| = D / (2^31 - 2^20); all three
    trials fall short with probability at most (D / (2^31 - 2^20))^3.
    """
    indices = sorted(m.variables(), key=m.table.names.__getitem__)
    if not indices:
        return {}, _pivot_rows(evaluate_at(m, {}))
    full = min(m.rows, m.cols)
    if m.is_skew():  # skew at every point, so of even rank there
        full -= full % 2
    best: tuple[dict[int, int], dict[int, dict[int, int]]] | None = None
    for trial in range(1, GENERIC_TRIALS + 1):
        values = {i: rng.randrange(GENERIC_LOW, GENERIC_HIGH) for i in indices}
        pivots = _pivot_rows(evaluate_at(m, values))
        if best is None or len(pivots) > len(best[1]):
            best = values, pivots
            if len(pivots) == full:
                break
            if trial < GENERIC_TRIALS and _kernel_lifts(m, pivots):
                for _ in range((GENERIC_TRIALS - trial) * len(indices)):
                    rng.randrange(GENERIC_LOW, GENERIC_HIGH)
                break
    return best


def _kernel_lifts(m: PolyMatrix, pivots: Mapping[int, Mapping[int, int]]) -> bool:
    """True iff every vector of `back_substitute(pivots, m.cols)` annihilates
    m identically: each row's stored entries, weighted by the vector, sum to
    the zero polynomial term by term.  Rows go in the outer loop, so a
    kernel that fails shows it at the first row where any vector fails,
    even when some vector (the energy's, for an invariant system) always
    lifts; the cost is O(stored terms) per vector."""
    vectors = back_substitute(pivots, m.cols)
    for row in m.entries:
        for vec in vectors:
            residual: dict[Monomial, Fraction | int] = {}
            for c, e in row.items():
                if w := vec[c]:
                    for mono, coef in e.terms.items():
                        residual[mono] = residual.get(mono, 0) + w * coef
            if any(residual.values()):
                return False
    return True


def generic_rank(m: PolyMatrix, seed: int = 0) -> int:
    """Generic rank of a polynomial matrix: the rank at the point that
    `generic_point` picks with random.Random(seed), exact when the matrix
    has no variables or a stop rule ended the trials, with the failure
    bound stated there otherwise."""
    return len(generic_point(m, random.Random(seed))[1])


# ---------------------------------------------------------------------------
# polynomial elimination


def divide_exact(a: Poly, b: Poly) -> Poly:
    """Exact polynomial division a / b; raises if b does not divide a."""
    if b.is_zero():
        raise ContractViolation("division by the zero polynomial")
    if a.is_zero():
        return a
    table = a.table
    b_lead = b.leading_monomial()
    b_coeff = b.terms[b_lead]
    quotient: dict[Monomial, Fraction] = {}
    rest = dict(a.terms)
    heap = [-m for m in rest]  # largest monomial first
    heapq.heapify(heap)
    while rest:
        lead = -heapq.heappop(heap)
        if lead not in rest:  # cancelled after it was pushed
            continue
        q_mono = table.quotient(lead, b_lead)
        if q_mono is None:
            raise ContractViolation("polynomial division is not exact")
        q_coeff, r = divmod(rest[lead], b_coeff)  # an int whenever it is integral
        if r:
            q_coeff = Fraction(rest[lead], b_coeff)
        quotient[q_mono] = q_coeff
        fold = 0
        for m, c in b.terms.items():
            t = q_mono + m
            fold |= t
            if t not in rest:
                heapq.heappush(heap, -t)
            s = rest.get(t, 0) - q_coeff * c
            if s:
                rest[t] = s
            else:
                rest.pop(t, None)
        table.check_exponents(fold)
    return Poly(table, quotient)


def _echelon_poly(m: PolyMatrix) -> tuple[list[dict[int, Poly]], list[tuple[int, Poly]]]:
    """Forward Bareiss elimination over the stored entries of a polynomial
    matrix.

    Returns the pivot rows, {column: Poly} dicts of their nonzero entries
    in elimination order, and the (pivot column, pivot value) pairs.  Pivot
    choice: among the stored entries of the remaining rows, lowest total
    degree, ties by column then row order.  Each step zeroes the pivot
    column in every remaining row, and a row that vanishes is dropped.
    """
    zero = m.table.zero()
    remaining = [row for row in m.entries if row]
    done_rows: list[dict[int, Poly]] = []
    pivots: list[tuple[int, Poly]] = []
    prev = m.table.const(1)
    while remaining:
        _, ci, ri = min(
            (e.total_degree(), c, r) for r, row in enumerate(remaining) for c, e in row.items()
        )
        pivot_row = remaining.pop(ri)
        piv = pivot_row[ci]
        reduced = []
        for row in remaining:
            t = {j: piv * e for j, e in row.items()}
            if fac := row.get(ci):
                for j, e in pivot_row.items():
                    t[j] = t.get(j, zero) - fac * e
            if new_row := {j: divide_exact(e, prev) for j, e in t.items() if e}:
                reduced.append(new_row)
        remaining = reduced
        done_rows.append(pivot_row)
        pivots.append((ci, piv))
        prev = piv
    return done_rows, pivots


def nullspace_symbolic(m: PolyMatrix) -> list[list[Poly]]:
    """Nullspace basis of a square skew matrix over the fraction field:
    for each free column j, in column order, the primitive kernel vector
    that is zero in the other free columns.  Primitive: the gcd of its
    entries is 1, their rational content is 1 and the first nonzero entry
    has a positive leading coefficient.

    Every vector is the signed sub-Pfaffian vector of one index set S
    (`_sub_pfaffians`): S is every column when the order M is odd and the
    rank at an integer point is M - 1, with no elimination; otherwise S is
    P + {j}, P the pivot columns of the Bareiss forward pass.  m[P, P] is
    nonsingular (P indexes a column basis of a skew matrix), so the vector
    is +-Pf(m[P, P]) at j, zero at the other free columns, and in the
    kernel because rank m = |P|: Cramer's solution up to a factor, which
    the gcd and the normalization remove.  The cost of a vector is the
    number of index sets the first-row expansion meets, 2^(|S|-1) at worst
    for a fully dense matrix.  A non-square or non-skew matrix raises
    ContractViolation.
    """
    if not m.is_skew():
        raise ContractViolation(f"not a square skew matrix ({m.rows}x{m.cols})")
    # full column rank at one point means some maximal minor is a nonzero
    # polynomial, so the nullspace is {0}: a certificate, not a guess
    rank = generic_rank(m)
    if rank == m.cols:
        return []
    # an odd skew matrix has rank at most cols - 1, so rank cols - 1 at one
    # point makes the nullity exactly 1, and one set of every column serves
    if rank == m.cols - 1 and m.cols % 2:
        sets = [(1 << m.cols) - 1]
    else:
        pivots = sum(1 << c for c, _ in _echelon_poly(m)[1])
        sets = [pivots | 1 << j for j in range(m.cols) if not pivots >> j & 1]
    return [normalized_vector(_divide_by_gcd(_sub_pfaffians(m, s))) for s in sets]


def _sub_pfaffians(m: PolyMatrix, s: int) -> list[Poly]:
    """Signed sub-Pfaffians of the index set S, given as the bitmask s:
    (-1)^k Pf(S - {i}) at the k-th member i of S, counted from 0, and zero
    off S.  With m skew and |S| odd this is a kernel vector of m[S, S].

    Pf of an index set expands along its first index f:
    Pf(T) = sum over t in T of (-1)^(k+1) m[f, t] Pf(T - {f, t}), t the k-th
    member of T counted from 0; only f's stored entries are walked, in
    increasing t, and each index set (a bitmask) is expanded once.
    """
    n = m.cols
    memo = {0: m.table.const(1)}

    def pf(mask: int) -> Poly:
        p = memo.get(mask)
        if p is None:
            first = (mask & -mask).bit_length() - 1
            p = m.table.zero()
            for j, e in m.entries[first].items():
                if mask >> j & 1 and (sub := pf(mask ^ (1 << first | 1 << j))):
                    k = (mask & ((1 << j) - 1)).bit_count()  # j is the k-th member of T
                    p = p + e * sub if k % 2 else p - e * sub
            memo[mask] = p
        return p

    vec = [m.table.zero()] * n
    for k, i in enumerate(i for i in range(n) if s >> i & 1):
        vec[i] = -pf(s ^ 1 << i) if k % 2 else pf(s ^ 1 << i)
    return vec


def _divide_by_gcd(vec: list[Poly]) -> list[Poly]:
    """vec over the gcd of its nonzero entries, folded from the smallest and
    stopped at a constant; defined up to the rational factor that
    `normalized_vector` then fixes."""
    g = _gcd_all(v for v in vec if v)
    if not g.total_degree():
        return vec
    return [divide_exact(v, g) for v in vec]


def _gcd_all(polys: Iterable[Poly]) -> Poly:
    """gcd of nonzero polynomials, folded from the smallest."""
    first, *rest = sorted(polys, key=lambda p: len(p.terms))
    g = first.normalized()
    for p in rest:
        if not g.total_degree():
            break
        g = poly_gcd(g, p)
    return g


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """gcd of two nonzero polynomials, content 1, positive leading coefficient.

    If the one with fewer terms is a monomial, the gcd is the monomial of
    the least exponents over it and every term of the other, coefficient 1:
    a divisor of a monomial is a monomial.  Else the smaller one is the gcd
    if it divides the other.  A variable in only one of them is dropped: the
    gcd divides each coefficient in it.  Else, in the variable of lowest
    degree: the gcd of the contents times the last member of the primitive
    pseudo-remainder sequence of the primitive parts.
    """
    if len(a.terms) > len(b.terms):
        a, b = b, a
    if not a.total_degree():
        return a.table.const(1)
    table = a.table
    if len(a.terms) == 1:
        (mono,) = a.terms
        least = 0
        for i, e in table.factors(mono):
            shift = table.shift(i)
            least += min(e, *(m >> shift & FIELD_MASK for m in b.terms)) * table.unit(i)
        return Poly(table, {least: 1})
    with contextlib.suppress(ContractViolation):
        divide_exact(b, a)
        return a.normalized()
    da, db = _degrees(a), _degrees(b)
    if lone := da.keys() ^ db.keys():
        i = min(lone)
        p, q = (a, b) if i in da else (b, a)
        return _gcd_all([q, *_in_var(p, i).values()])
    i = min(da, key=lambda i: (max(da[i], db[i]), i))
    pa, pb = _in_var(a, i), _in_var(b, i)
    g = poly_gcd(_gcd_all(pa.values()), _gcd_all(pb.values()))
    pa, pb = sorted((_primitive_in_var(pa), _primitive_in_var(pb)), key=max, reverse=True)
    while max(pb) and (r := _prem(pa, pb)):
        pa, pb = pb, _primitive_in_var(r)
    xi = table.var(table.names[i])
    return (g * sum((c * xi**k for k, c in pb.items()), table.zero())).normalized()


def _degrees(p: Poly) -> dict[int, int]:
    """The degree of p in each variable that occurs in it."""
    shift = p.table.shift
    return {i: max(m >> s & FIELD_MASK for m in p.terms) for i in p.variables() for s in (shift(i),)}


def _in_var(p: Poly, i: int) -> dict[int, Poly]:
    """p as a polynomial in variable i: degree -> coefficient free of it."""
    shift, unit = p.table.shift(i), p.table.unit(i)
    parts: dict[int, dict[Monomial, Fraction]] = {}
    for mono, c in p.terms.items():
        e = mono >> shift & FIELD_MASK
        parts.setdefault(e, {})[mono - e * unit] = c
    return {k: Poly(p.table, t) for k, t in parts.items()}


def _primitive_in_var(parts: dict[int, Poly]) -> dict[int, Poly]:
    """A polynomial in one variable over its content, rational content 1."""
    g = _gcd_all(parts.values())
    coeffs = [divide_exact(c, g) if g.total_degree() else c for c in parts.values()]
    return dict(zip(parts, normalized_vector(coeffs)))


def _prem(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder of a by b, both polynomials in one variable."""
    db = max(b)
    while a and (da := max(a)) >= db:
        la = a[da]
        a = {k: b[db] * c for k, c in a.items() if k != da}
        for k, c in b.items():
            if k != db:
                a[k + da - db] = a.get(k + da - db, c.table.zero()) - la * c
        a = {k: c for k, c in a.items() if c}
    return a


def proportional(v1: Sequence[Poly], v2: Sequence[Poly]) -> bool:
    """True iff two polynomial vectors are parallel.

    The zero patterns must agree.  Then take one index k where both are
    nonzero, the one whose two entries have the fewest terms together.  If
    v2_k divides v1_k exactly, with quotient q, v1 is parallel to v2 iff
    v1_i == q * v2_i for every i: the ratio of parallel vectors is v1_k / v2_k.
    Likewise with the roles swapped.  Else, v1 is parallel to v2 iff
    v1_i * v2_k == v2_i * v1_k for every i.  Two all-zero vectors count as
    proportional by convention.
    """
    if len(v1) != len(v2):
        raise ContractViolation("vectors must have equal length")
    if any(a.is_zero() != b.is_zero() for a, b in zip(v1, v2)):
        return False
    nonzero = [i for i, a in enumerate(v1) if a]
    k = min(nonzero, key=lambda i: len(v1[i].terms) + len(v2[i].terms), default=None)
    if k is None:
        return True
    for a, b in ((v1, v2), (v2, v1)):
        try:
            q = divide_exact(a[k], b[k])
        except ContractViolation:
            continue
        return all(a[i] == q * b[i] for i in nonzero if i != k)
    return all(v1[i] * v2[k] == v2[i] * v1[k] for i in nonzero if i != k)


def poly_proportional(a: Poly, b: Poly) -> bool:
    """True iff a = c*b for some nonzero rational c (or both are zero)."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    return a.scale(b.leading_coefficient()) == b.scale(a.leading_coefficient())
