"""Fraction-free linear algebra over the rationals and over polynomial entries.

Numeric matrices go through one sparse, fraction-free row reduction
(`_pivot_rows`).  Rows are taken one at a time, scaled to coprime
integers and stored as {column: value} dicts.  An incoming row is reduced
against the pivot row at its leading column by row <- a*row - b*pivot
(a, b the two leading entries divided by their gcd) and divided by its
content, until it vanishes or opens a new pivot column.  The rank is the
pivot count; nullspaces back-substitute over the sparse pivot rows.
Generic ranks of polynomial matrices are exact ranks at the best of a few
random integer points (`generic_point`).

Polynomial nullspaces are empty at once when the rank at integer points
is full; otherwise they come from Bareiss elimination with exact
multivariate division.  There the pivot rule is lowest total degree, ties
broken by column then row order, which keeps degree growth down and
reproduces the textbook nullspace bases for the matrices this package
builds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm, prod
from operator import attrgetter
from typing import Mapping, Sequence

from ..errors import ContractViolation
from .poly import Poly, PolyMatrix, grlex_key, normalized_vector

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


def _pivot_rows(rows: Sequence[Sequence[Fraction | int]]) -> dict[int, dict[int, int]]:
    """Echelon form of the row space: primitive integer rows keyed by their
    leading column.

    The leading columns are those of the reduced row echelon form, whatever
    the row order.  Growth is bounded: each stored row, and each row met
    while reducing one, is the primitive integer multiple of the row exact
    Gaussian elimination would hold (the input row minus the combination of
    pivot rows that clears its columns left of the leading one), whose
    entries are ratios of minors of the input scaled to integer rows; so no
    entry exceeds the largest such minor in absolute value (Edmonds 1967).
    """
    pivots: dict[int, dict[int, int]] = {}
    for values in rows:
        den = lcm(*map(attrgetter("denominator"), values))
        row = _primitive({j: int(v * den) for j, v in enumerate(values) if v})
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


def rank_rational(rows: Sequence[Sequence[Fraction | int]]) -> int:
    return len(_pivot_rows(rows))


def nullspace_rational(rows: Sequence[Sequence[Fraction | int]], n_cols: int) -> list[list[int]]:
    """Right nullspace basis with coprime integer entries (see back_substitute)."""
    return back_substitute(_pivot_rows(rows), n_cols)


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


def nullspace_exact(m: PolyMatrix) -> list[list[int]]:
    """Nullspace basis of an all-rational matrix, integer entries, content 1."""
    return nullspace_rational(evaluate_at(m, {}), m.cols)


def rank_exact(m: PolyMatrix) -> int:
    return rank_rational(evaluate_at(m, {}))


def evaluate_at(m: PolyMatrix, values: Mapping[int, int]) -> list[list[Fraction | int]]:
    """Exact value of every entry with variable i set to the integer values[i].

    Entries whose coefficients are all integers come back as ints, the rest
    as Fractions; both are accepted by the rational routines above.  A
    variable that occurs without a value raises ContractViolation.
    """
    out = []
    powers: dict[tuple[int, ...], int] = {}  # value of each monomial met so far
    for row in m.entries:
        vals: list[Fraction | int] = [0] * m.cols
        for c, e in enumerate(row):
            if not e.terms:
                continue
            total = 0
            for mono, coef in e.terms.items():
                pv = powers.get(mono)
                if pv is None:
                    try:
                        pv = prod(values[i] ** k for i, k in enumerate(mono) if k)
                    except KeyError as exc:
                        name = m.table.names[exc.args[0]]
                        raise ContractViolation(f"no value for variable {name!r}") from None
                    powers[mono] = pv
                total += (coef.numerator if coef.denominator == 1 else coef) * pv
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
    one on a tie, stopping early at full rank.  A matrix without variables
    is reduced once, at the empty point.

    The rank found never exceeds the rank r over the field of rational
    functions, and equals r whenever it is min(rows, cols).  Let Delta be a
    nonzero r x r minor of the matrix and D its total degree (at most r
    times the largest entry degree).  A trial falls short only where Delta
    vanishes, which by Schwartz-Zippel happens with probability at most
    D / |S| = D / (2^31 - 2^20); all three trials fall short with
    probability at most (D / (2^31 - 2^20))^3.
    """
    indices = sorted(m.variables(), key=m.table.names.__getitem__)
    if not indices:
        return {}, _pivot_rows(evaluate_at(m, {}))
    full = min(m.rows, m.cols)
    best: tuple[dict[int, int], dict[int, dict[int, int]]] | None = None
    for _ in range(GENERIC_TRIALS):
        values = {i: rng.randrange(GENERIC_LOW, GENERIC_HIGH) for i in indices}
        pivots = _pivot_rows(evaluate_at(m, values))
        if best is None or len(pivots) > len(best[1]):
            best = values, pivots
            if len(pivots) == full:
                break
    return best


def generic_rank(m: PolyMatrix, seed: int = 0) -> int:
    """Generic rank of a polynomial matrix: the rank at the point that
    `generic_point` picks with random.Random(seed), exact when the matrix
    has no variables, with the failure bound stated there."""
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
    quotient: dict[tuple[int, ...], Fraction] = {}
    rest = dict(a.terms)
    while rest:
        lead = max(rest, key=grlex_key)
        q_mono = tuple(e - f for e, f in zip(lead, b_lead))
        if any(e < 0 for e in q_mono):
            raise ContractViolation("polynomial division is not exact")
        q_coeff = rest[lead] / b_coeff
        quotient[q_mono] = q_coeff
        for m, c in b.terms.items():
            t = tuple(x + y for x, y in zip(q_mono, m))
            s = rest.get(t, Fraction(0)) - q_coeff * c
            if s:
                rest[t] = s
            else:
                rest.pop(t, None)
    return Poly(table, quotient)


def _echelon_poly(m: PolyMatrix) -> tuple[list[list[Poly]], list[tuple[int, Poly]]]:
    """Forward Bareiss elimination over polynomial entries.

    Returns the processed pivot rows (in elimination order) and the list of
    (pivot column, pivot value) pairs.  Pivot choice: among all remaining
    nonzero entries, lowest total degree, ties by column then row.
    """
    table = m.table
    remaining = [list(row) for row in m.entries]
    done_rows: list[list[Poly]] = []
    pivots: list[tuple[int, Poly]] = []
    used_cols: set[int] = set()
    prev = table.const(1)
    while remaining:
        best = None
        for ri, row in enumerate(remaining):
            for ci in range(m.cols):
                if ci in used_cols:
                    continue
                e = row[ci]
                if e:
                    k = (e.total_degree(), ci, ri)
                    if best is None or k < best[0]:
                        best = (k, ri, ci)
        if best is None:
            break
        _, ri, ci = best
        pivot_row = remaining.pop(ri)
        piv = pivot_row[ci]
        new_remaining = []
        for row in remaining:
            fac = row[ci]
            new_row = []
            for j in range(m.cols):
                t = piv * row[j]
                if fac and pivot_row[j]:
                    t = t - fac * pivot_row[j]
                new_row.append(divide_exact(t, prev) if t else t)
            new_remaining.append(new_row)
        remaining = new_remaining
        done_rows.append(pivot_row)
        pivots.append((ci, piv))
        used_cols.add(ci)
        prev = piv
    return done_rows, pivots


def nullspace_symbolic(m: PolyMatrix) -> list[list[Poly]]:
    """Nullspace basis over the fraction field, returned as polynomial vectors.

    Denominators are cleared during back substitution; each vector is then
    stripped of rational content, common monomial factors, and any leftover
    pivot-polynomial factors introduced by the clearing, and is sign-fixed
    so its first nonzero component has positive leading coefficient.
    """
    # full column rank at one point means some maximal minor is a nonzero
    # polynomial, so the nullspace is {0}: a certificate, not a guess
    if generic_rank(m) == m.cols:
        return []
    table = m.table
    rows, pivots = _echelon_poly(m)
    pivot_cols = {c for c, _ in pivots}
    free = [c for c in range(m.cols) if c not in pivot_cols]
    one = table.const(1)
    # factors that denominator clearing can smuggle into a vector: pivot
    # values and the matrix entries themselves
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
        basis.append(_normalize_vector(w, factor_pool))
    for v in basis:
        check = m.mul_vector(v)
        if any(not e.is_zero() for e in check):
            raise ContractViolation("internal error: nullspace vector fails m*v = 0")
    return basis


def _strip_content(vec: list[Poly]) -> list[Poly]:
    """Remove rational content, sign and the common monomial factor of a vector."""
    table = vec[0].table
    vec = normalized_vector(vec)
    mins = None
    for v in vec:
        if v:
            mc = v.monomial_content()
            mins = mc if mins is None else tuple(min(a, b) for a, b in zip(mins, mc))
    if mins and any(mins):
        vec = [
            Poly(table, {tuple(e - s for e, s in zip(m, mins)): c for m, c in v.terms.items()})
            if v
            else v
            for v in vec
        ]
    return vec


def _normalize_vector(vec: list[Poly], pivot_polys: list[Poly]) -> list[Poly]:
    if all(v.is_zero() for v in vec):
        return vec
    # Denominator clearing can leave a pivot polynomial as a common factor;
    # try dividing the whole vector by each multi-term pivot until nothing
    # divides (pure-monomial pivots are covered by the content stripping).
    candidates = {}
    for p in pivot_polys:
        norm = p.normalized()
        if norm.total_degree() > 0 and len(norm.terms) > 1:
            candidates[norm.key()] = norm
    while True:
        vec = _strip_content(vec)
        for cand in candidates.values():
            try:
                vec = [divide_exact(v, cand) if v else v for v in vec]
            except ContractViolation:
                continue
            break
        else:
            return vec


def proportional(v1: Sequence[Poly], v2: Sequence[Poly]) -> bool:
    """True iff two polynomial vectors are parallel.

    Checked by cross-product vanishing (v1_i * v2_j == v1_j * v2_i for all
    i < j) plus agreement of the zero patterns.  Two all-zero vectors count
    as proportional by convention.
    """
    if len(v1) != len(v2):
        raise ContractViolation("vectors must have equal length")
    for a, b in zip(v1, v2):
        if a.is_zero() != b.is_zero():
            return False
    n = len(v1)
    for i in range(n):
        for j in range(i + 1, n):
            if not (v1[i] * v2[j] - v1[j] * v2[i]).is_zero():
                return False
    return True


def poly_proportional(a: Poly, b: Poly) -> bool:
    """True iff a = c*b for some nonzero rational c (or both are zero)."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    return a.scale(b.leading_coefficient()) == b.scale(a.leading_coefficient())
