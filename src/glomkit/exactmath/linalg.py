"""Fraction-free linear algebra over the rationals and over polynomial entries.

Numeric matrices are reduced by integer Bareiss elimination (one-step,
divide by the previous pivot), which keeps every intermediate entry equal
to a minor of the input and therefore bounded.  The pivot rule is fixed
for reproducibility: scan columns left to right, take the first row with
a nonzero entry.  Generic ranks of parameter-dependent matrices are taken
modulo a prime at random integer points instead (`generic_rank`); that
is a lower bound, which callers check against an exact elimination.

Polynomial matrices use the same Bareiss scheme with exact multivariate
division; there the pivot rule is lowest total degree, ties broken by
column then row order, which keeps degree growth down and reproduces the
textbook nullspace bases for the matrices this package builds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm, prod
from operator import attrgetter
from typing import Mapping, Sequence

from ..errors import ContractViolation
from .poly import Poly, PolyMatrix, grlex_key, normalized_vector

# Range for random integer substitutions used by generic-rank probing.
# Large enough that hitting a parameter choice of non-maximal rank is
# vanishingly unlikely (Schwartz-Zippel), small enough to keep the
# integer arithmetic cheap.
GENERIC_LOW = 1 << 20
GENERIC_HIGH = 1 << 31

# Mersenne prime for modular rank.  It exceeds GENERIC_HIGH, so every
# sampled value is a distinct nonzero residue.
MODULUS = (1 << 61) - 1

# Random points tried by each probabilistic rank (generic_rank and
# invariants.independent_count); the largest rank found is kept.
GENERIC_TRIALS = 3


# ---------------------------------------------------------------------------
# integer core


def _int_rows(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """Scale each row to coprime integers (row scaling preserves nullspace)."""
    out = []
    for row in rows:
        den = lcm(*map(attrgetter("denominator"), row))
        ints = list(map(int, row)) if den == 1 else [int(c * den) for c in row]
        g = gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def echelon_int(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Forward Bareiss elimination in place; returns (rows, pivot columns).

    After the call, row i (for i < len(pivots)) has its first nonzero entry
    in column pivots[i], and all rows below the pivot rows are zero in the
    pivot columns.
    """
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


def rank_rational(rows: Sequence[Sequence[Fraction]]) -> int:
    ints = _int_rows(rows)
    _, pivots = echelon_int(ints)
    return len(pivots)


def rank_mod(rows: Sequence[Sequence[int]]) -> int:
    """Rank over GF(MODULUS) of an integer matrix.

    Never exceeds the rational rank; it is smaller exactly when MODULUS
    divides every nonzero minor of maximal size (e.g. [[MODULUS]] has rank 0).
    Each row is reduced against the monic pivot rows found so far (keyed
    by leading column) until it vanishes or opens a new pivot column.
    """
    p = MODULUS
    pivots: dict[int, dict[int, int]] = {}
    for ints in rows:
        row = {j: r for j, v in enumerate(ints) if v and (r := v % p)}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {j: v * inv % p for j, v in row.items()}
                break
            f = row[c]
            for j, v in prow.items():
                nv = (row.get(j, 0) - f * v) % p
                if nv:
                    row[j] = nv
                else:
                    del row[j]
    return len(pivots)


def nullspace_rational(rows: Sequence[Sequence[Fraction]], n_cols: int) -> list[list[int]]:
    """Right nullspace basis with coprime integer entries.

    One basis vector per free column, in column order; the free-column
    entry of each vector is positive.
    """
    ints = _int_rows(rows)
    ech, pivots = echelon_int(ints)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v: list[Fraction] = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            row = ech[i]
            s = Fraction(0)
            for j in range(c + 1, n_cols):
                if row[j] and v[j]:
                    s += Fraction(row[j]) * v[j]
            v[c] = -s / row[c]
        den = lcm(*(x.denominator for x in v))
        ints_v = [int(x * den) for x in v]
        g = gcd(*ints_v)
        basis.append([x // g for x in ints_v])
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


def generic_rank(m: PolyMatrix, seed: int = 0) -> int:
    """Rank of a parameter-dependent matrix at random integer parameter values.

    Substitutes independent integers from S = [2^20, 2^31) for each
    parameter, scales each evaluated row to coprime integers, ranks the
    result over GF(p) with p = MODULUS = 2^61 - 1, and returns the maximum
    over trials = GENERIC_TRIALS repetitions (stopping early at full rank).

    The result never exceeds the generic rank r.  Let Delta be a nonzero
    r x r minor of the matrix over Q(params) and D its total degree (at
    most r times the largest entry degree).  If Delta mod p is not the zero
    polynomial, Schwartz-Zippel over GF(p) bounds the chance that one trial
    misses it by D / |S| < D / 2^31, so all trials miss with probability
    below (D / 2^31)^trials.  If p divides every such minor of the scaled
    rows at every point (an exact coefficient that is a multiple of p can
    cause this: rows p1*[1, 1] and p1*[1, 1 + p]), the result falls short
    whatever the draws, so callers that need the exact rank must check it
    by an exact elimination.  A matrix without parameters is ranked exactly.
    """
    names = sorted(m.parameter_names())
    if not names:
        return rank_exact(m)
    rng = random.Random(seed)
    table = m.table
    full = min(m.rows, m.cols)
    best = 0
    for _ in range(GENERIC_TRIALS):
        values = {table.index(n): rng.randrange(GENERIC_LOW, GENERIC_HIGH) for n in names}
        best = max(best, rank_mod(_int_rows(evaluate_at(m, values))))
        if best == full:
            break
    return best


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
