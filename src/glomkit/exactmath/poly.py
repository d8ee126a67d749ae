"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from monomials to rational coefficients, each
stored as an int when it is integral and as a Fraction otherwise.
Monomials run over the variables of a VarTable: an ordered list of names
whose first `state_count` entries are the state variables and whose rest
are parameter symbols.  The caller fixes the names and their order.

A monomial is one packed int (after Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors",
CASC 2007): a FIELD_BITS-wide field per variable, variable 0 in the most
significant one, and the total degree in an unbounded field above them
all.  Each field holds an exponent of at most EXPONENT_MAX and a guard
bit on top, which is clear in every stored monomial.  So int order is
graded lexicographic order (`grlex_key` of the exponent tuples), a
product of monomials is one int addition, whose guard bits show an
exponent that outgrew its field, and b divides a iff (a with its guard
bits set) - b keeps every guard bit.
The table packs, unpacks and splits monomials (`pack`, `unpack`,
`factors`, `split`); every product that raises an exponent passes
`VarTable.check_exponents`, which refuses an exponent above EXPONENT_MAX.

Zero coefficients are never stored, so equal polynomials always hold
identical maps.  The monomial order used for display, pivot selection
and exact division is graded lexicographic with state variables ranked
before parameters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Iterable, Mapping, Sequence

from ..errors import ContractViolation

Monomial = int

# Width of a variable's field in a packed monomial: the exponent bits and
# the guard bit.  One byte, so `pack`, `unpack` and `split` convert through
# `bytes`; wider fields also make every monomial operation slower.
FIELD_BITS = 8
FIELD_MASK = (1 << FIELD_BITS) - 1
EXPONENT_MAX = FIELD_MASK >> 1


def grlex_key(mono: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key of an exponent tuple for graded lexicographic order (larger
    key = larger monomial): the order of the packed ints."""
    return (sum(mono), mono)


class VarTable:
    """Ordered registry of state variables and parameter symbols: the
    first `state_count` names are the state variables, the rest parameters.
    A table is never changed, so polynomials over equal layouts may share one.

    It owns the monomial layout: variable i's field starts at bit
    `shift(i)`, the degree field at `degree_shift`; `unit(i)` is x_i
    packed, `guard` has every guard bit set, `fields` every exponent field,
    `state_mask` and `param_mask` those of the state variables and of the
    parameters.
    """

    __slots__ = (
        "names", "state_count", "_index", "_hash", "_monos", "_zero",
        "degree_shift", "guard", "fields", "state_mask", "param_mask",
    )

    def __init__(self, names: Iterable[str], state_count: int):
        self.names = tuple(names)
        self.state_count = state_count
        if len(set(self.names)) != len(self.names):
            raise ContractViolation("variable names must be unique")
        self._index = {name: i for i, name in enumerate(self.names)}
        self._hash = hash((self.names, self.state_count))
        self._monos: dict[Monomial, Monomial] = {}  # equal monomials share one int: kept results stay small
        n = len(self.names)
        self.degree_shift = FIELD_BITS * n
        self.guard = int.from_bytes(bytes([1 << FIELD_BITS - 1]) * n, "big")
        self.fields = (1 << self.degree_shift) - 1
        self.param_mask = (1 << FIELD_BITS * (n - state_count)) - 1
        self.state_mask = self.fields ^ self.param_mask
        self._zero = Poly(self, {})  # Poly is immutable, so one zero serves all

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VarTable)
            and self.names == other.names
            and self.state_count == other.state_count
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"VarTable({self.state_count} state vars, {len(self.names)} total)"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ContractViolation(f"unknown variable {name!r}") from None

    def param_names(self) -> tuple[str, ...]:
        return self.names[self.state_count:]

    # -- monomial layout -----------------------------------------------------

    def shift(self, i: int) -> int:
        """The lowest bit of variable i's field."""
        return FIELD_BITS * (len(self.names) - 1 - i)

    def unit(self, i: int) -> Monomial:
        """The monomial x_i: a 1 in its field and in the degree field."""
        return 1 << self.degree_shift | 1 << self.shift(i)

    def exponent(self, mono: Monomial, i: int) -> int:
        """The exponent of variable i in the monomial."""
        return mono >> self.shift(i) & FIELD_MASK

    def pack(self, exponents: Sequence[int]) -> Monomial:
        """The monomial of one exponent per variable, in table order."""
        if len(exponents) != len(self.names):
            raise ContractViolation(f"{len(exponents)} exponents for {len(self.names)} variables")
        if not all(0 <= e <= EXPONENT_MAX for e in exponents):
            raise ContractViolation(f"exponents must lie in 0..{EXPONENT_MAX}")
        return int.from_bytes(bytes(exponents), "big") | sum(exponents) << self.degree_shift

    def unpack(self, mono: Monomial) -> tuple[int, ...]:
        """The exponent of every variable, in table order."""
        return tuple((mono & self.fields).to_bytes(len(self.names), "big"))

    def factors(self, mono: Monomial) -> list[tuple[int, int]]:
        """(index, exponent) of each variable of the monomial, in table
        order; the cost grows with the variables present, not the table."""
        out = []
        m = mono & self.fields
        last = len(self.names) - 1
        while m:
            field = (m.bit_length() - 1) // FIELD_BITS
            e = m >> field * FIELD_BITS
            out.append((last - field, e))
            m -= e << field * FIELD_BITS
        return out

    def split(self, mono: Monomial) -> tuple[tuple[int, ...], Monomial]:
        """The state exponents of a monomial, a length-M tuple, and its
        parameter part, packed."""
        low = FIELD_BITS * (len(self.names) - self.state_count)
        state = tuple(((mono & self.state_mask) >> low).to_bytes(self.state_count, "big"))
        return state, (mono & self.param_mask) | ((mono >> self.degree_shift) - sum(state)) << self.degree_shift

    def quotient(self, num: Monomial, den: Monomial) -> Monomial | None:
        """num / den, or None when den does not divide num: with num's guard
        bits set, no field of the difference borrows from the next, and a
        field keeps its guard bit iff num's exponent there is at least den's."""
        t = (num | self.guard) - den
        return t ^ self.guard if t & self.guard == self.guard else None

    def check_exponents(self, fold: Monomial) -> None:
        """Refuse a product, or an OR of products, of monomials with an
        exponent above EXPONENT_MAX: fields of at most EXPONENT_MAX add up
        without a carry, so such an exponent shows as a set guard bit."""
        if fold & self.guard:
            raise ContractViolation(f"an exponent exceeds {EXPONENT_MAX}")

    # -- polynomial constructors -------------------------------------------

    def zero(self) -> "Poly":
        return self._zero

    def const(self, value) -> "Poly":
        c = Fraction(value)
        if c == 0:
            return self._zero
        return Poly(self, {0: c})

    def var(self, name: str) -> "Poly":
        return Poly(self, {self.unit(self.index(name)): 1})

    def x(self, i: int) -> "Poly":
        """State variable x_i (1-based)."""
        if not 1 <= i <= self.state_count:
            raise ContractViolation(f"state index {i} out of range 1..{self.state_count}")
        return self.var(f"x{i}")


class Poly:
    """Immutable sparse polynomial with exact rational coefficients: an
    integral coefficient is stored as an int, any other as a Fraction.
    `terms` maps packed monomials (see VarTable) to the coefficients."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[Monomial, Fraction | int]):
        self.table = table
        monos = table._monos
        self.terms = {
            monos.setdefault(m, m): c if c.denominator != 1 else c.numerator
            for m, c in terms.items()
            if c
        }

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, frozenset(self.terms.items())))

    def key(self) -> tuple:
        """Canonical hashable form (used for deduplication), ordered as the
        exponent tuples are: the monomials without their degree field."""
        fields = self.table.fields
        return tuple(sorted((m & fields, c) for m, c in self.terms.items()))

    def _check(self, other: "Poly") -> None:
        if self.table is not other.table and self.table != other.table:
            raise ContractViolation("operands use different variable tables")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly(self.table, out) if out else self.table._zero

    def __neg__(self) -> "Poly":
        if not self.terms:
            return self
        return Poly(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = -c
            else:
                s = s - c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly(self.table, out) if out else self.table._zero

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if not self.terms or not other.terms:
            return self.table._zero
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = ma + mb
                s = out.get(m)
                out[m] = ca * cb if s is None else s + ca * cb
        self.table.check_exponents(reduce(or_, out))
        return Poly(self.table, out)  # nonzero: Q[x] has no zero divisors

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ContractViolation("negative powers are not defined for polynomials")
        result = self.table.const(1)
        for _ in range(n):
            result = result * self
        return result

    def scale(self, value) -> "Poly":
        c = Fraction(value)
        if c == 0 or not self.terms:
            return self.table._zero
        if c == 1:
            return self  # Poly is immutable
        if c.denominator == 1:
            c = c.numerator
        return Poly(self.table, {m: c * v for m, v in self.terms.items()})

    # -- calculus ------------------------------------------------------------

    def diff(self, var: int | str) -> "Poly":
        """Formal partial derivative with respect to one variable."""
        i = self.table.index(var) if isinstance(var, str) else var
        shift, unit = self.table.shift(i), self.table.unit(i)
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m >> shift & FIELD_MASK
            if e:
                nm = m - unit
                s = out.get(nm)
                v = c * e
                out[nm] = v if s is None else s + v
        return Poly(self.table, out) if out else self.table._zero

    def subs(self, values: Mapping[str, Fraction | int]) -> "Poly":
        """Replace the named variables by rational values."""
        table = self.table
        idx_vals = [
            (table.shift(i), table.unit(i), Fraction(v))
            for i, v in ((table.index(name), v) for name, v in values.items())
        ]
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            mono = m
            for shift, unit, v in idx_vals:
                e = m >> shift & FIELD_MASK
                if e:
                    mono -= e * unit
                    c *= v ** e
            if not c:
                continue
            s = out.get(mono, 0) + c  # c != 0, so only a stored key can cancel
            if s:
                out[mono] = s
            else:
                del out[mono]
        return Poly(self.table, out) if out else self.table._zero

    # -- structure queries ----------------------------------------------------

    def variables(self) -> set[int]:
        return {i for i, _ in self.table.factors(reduce(or_, self.terms, 0))}

    def parameter_names(self) -> set[str]:
        M = self.table.state_count
        return {self.table.names[i] for i in self.variables() if i >= M}

    def total_degree(self) -> int:
        return max(self.terms, default=0) >> self.table.degree_shift

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ContractViolation("zero polynomial has no leading monomial")
        return max(self.terms)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def split_by_state(self) -> dict[tuple[int, ...], "Poly"]:
        """Group terms by their state-variable part.

        Keys are length-M exponent tuples; values are polynomials in the
        parameters only (state exponents zeroed).
        """
        table = self.table
        state_mask = table.state_mask
        groups: dict[Monomial, dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            groups.setdefault(m & state_mask, {})[m] = c
        if groups.keys() == {0}:  # state-free: self is its one group, shared, not copied
            return {(0,) * table.state_count: self}
        out = {}
        for state, terms in groups.items():
            key = table.split(state)[0]
            strip = state | sum(key) << table.degree_shift  # the state part, packed
            out[key] = Poly(table, {m - strip: c for m, c in terms.items()})
        return out

    # -- normalization ---------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational g such that self/g has coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        num = gcd(*(c.numerator for c in self.terms.values()))
        den = lcm(*(c.denominator for c in self.terms.values()))
        return Fraction(num, den)

    def normalized(self) -> "Poly":
        """self divided by its content, with a positive leading coefficient."""
        return normalized_vector([self])[0]

    def remapped(self, table: VarTable, name_map: Mapping[str, str] | None = None) -> "Poly":
        """Re-express this polynomial over another table, optionally renaming
        variables.  Raises if a needed variable is missing in the target."""
        name_map = name_map or {}
        units: dict[int, Monomial] = {}
        for i in self.variables():
            name = self.table.names[i]
            units[i] = table.unit(table.index(name_map.get(name, name)))
        factors = self.table.factors
        return Poly(table, {sum(e * units[i] for i, e in factors(m)): c for m, c in self.terms.items()})

    # -- display ----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            mono = monomial_str(self.table, m)
            if mono == "1":
                piece = str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = f"-{mono}"
            else:
                piece = f"{c}*{mono}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out


def normalized_vector(vec: list[Poly]) -> list[Poly]:
    """vec divided by its rational content (the gcd of the numerators over
    the lcm of the denominators of the entries' contents), signed so its
    first nonzero entry has a positive leading coefficient."""
    nonzero = [v for v in vec if v]
    if not nonzero:
        return vec
    contents = [v.content() for v in nonzero]
    g = Fraction(gcd(*(c.numerator for c in contents)), lcm(*(c.denominator for c in contents)))
    factor = (-1 if nonzero[0].leading_coefficient() < 0 else 1) / g
    return [v.scale(factor) for v in vec]


def monomial_str(table: VarTable, mono: Monomial) -> str:
    names = table.names
    return "*".join(names[i] if e == 1 else f"{names[i]}^{e}" for i, e in table.factors(mono)) or "1"


class PolyMatrix:
    """Sparse matrix of polynomials sharing one variable table: row i is a
    {column: Poly} dict of its nonzero entries in column order, and the
    column count is given, so a matrix without rows keeps its width."""

    __slots__ = ("table", "cols", "entries", "_skew")

    def __init__(self, table: VarTable, cols: int, rows: Iterable[Mapping[int, Poly]]):
        self.table = table
        self.cols = cols
        self.entries = tuple({j: row[j] for j in sorted(row) if row[j]} for row in rows)
        if any(row and not 0 <= min(row) <= max(row) < cols for row in self.entries):
            raise ContractViolation(f"a matrix entry lies outside columns 0..{cols - 1}")
        self._skew: bool | None = None

    @property
    def rows(self) -> int:
        return len(self.entries)

    def __getitem__(self, rc: tuple[int, int]) -> Poly:
        return self.entries[rc[0]].get(rc[1], self.table._zero)

    def is_skew(self) -> bool:
        """Square, with every stored (i, j) entry the negation of the stored
        (j, i) one, so a stored diagonal entry fails; checked once per matrix."""
        if self._skew is None:
            e = self.entries
            self._skew = self.rows == self.cols and all(
                (t := e[j].get(i)) is not None and p.terms == {k: -c for k, c in t.terms.items()}
                for i, row in enumerate(e)
                for j, p in row.items()
            )
        return self._skew

    def variables(self) -> set[int]:
        """Indices of the variables that occur in some stored entry."""
        terms = (e.terms for row in self.entries for e in row.values())
        return {i for i, _ in self.table.factors(reduce(or_, (reduce(or_, t) for t in terms), 0))}
