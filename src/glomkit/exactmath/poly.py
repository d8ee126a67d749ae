"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to rational coefficients, each
stored as an int when it is integral and as a Fraction otherwise.
Exponent tuples run over the variables of a VarTable: an ordered list
of names whose first `state_count` entries are the state variables and
whose rest are parameter symbols.  The caller fixes the names and their
order.

Zero coefficients are never stored, so equal polynomials always hold
identical maps.  The monomial order used for display, pivot selection
and exact division is graded lexicographic with state variables ranked
before parameters.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping

from ..errors import ContractViolation

Monomial = tuple[int, ...]


def grlex_key(mono: Monomial) -> tuple[int, Monomial]:
    """Sort key for graded lexicographic order (larger key = larger monomial)."""
    return (sum(mono), mono)


class VarTable:
    """Ordered registry of state variables and parameter symbols: the
    first `state_count` names are the state variables, the rest parameters.
    A table is never changed, so polynomials over equal layouts may share one.
    """

    __slots__ = ("names", "state_count", "_index", "_hash", "_monos", "_zero_mono", "_zero")

    def __init__(self, names: Iterable[str], state_count: int):
        self.names = tuple(names)
        self.state_count = state_count
        if len(set(self.names)) != len(self.names):
            raise ContractViolation("variable names must be unique")
        self._index = {name: i for i, name in enumerate(self.names)}
        self._hash = hash((self.names, self.state_count))
        self._monos: dict[Monomial, Monomial] = {}  # equal monomials share one tuple: kept results stay small
        self._zero_mono = (0,) * len(self.names)  # shared by every constant
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

    # -- polynomial constructors -------------------------------------------

    def zero(self) -> "Poly":
        return self._zero

    def const(self, value) -> "Poly":
        c = Fraction(value)
        if c == 0:
            return self._zero
        return Poly(self, {self._zero_mono: c})

    def var(self, name: str) -> "Poly":
        i = self.index(name)
        exp = [0] * len(self.names)
        exp[i] = 1
        return Poly(self, {tuple(exp): 1})

    def x(self, i: int) -> "Poly":
        """State variable x_i (1-based)."""
        if not 1 <= i <= self.state_count:
            raise ContractViolation(f"state index {i} out of range 1..{self.state_count}")
        return self.var(f"x{i}")


class Poly:
    """Immutable sparse polynomial with exact rational coefficients: an
    integral coefficient is stored as an int, any other as a Fraction."""

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
        """Canonical hashable form (used for deduplication)."""
        return tuple(sorted(self.terms.items()))

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
                m = tuple(map(add, ma, mb))
                s = out.get(m)
                out[m] = ca * cb if s is None else s + ca * cb
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
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                nm = m[:i] + (e - 1,) + m[i + 1:]
                s = out.get(nm)
                v = c * e
                out[nm] = v if s is None else s + v
        return Poly(self.table, out) if out else self.table._zero

    def subs(self, values: Mapping[str, Fraction | int]) -> "Poly":
        """Replace the named variables by rational values."""
        idx_vals = {self.table.index(name): Fraction(v) for name, v in values.items()}
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            rest = list(m)
            for i, v in idx_vals.items():
                e = m[i]
                if e:
                    rest[i] = 0
                    c *= v ** e
            if not c:
                continue
            mono = tuple(rest)
            s = out.get(mono, 0) + c  # c != 0, so only a stored key can cancel
            if s:
                out[mono] = s
            else:
                del out[mono]
        return Poly(self.table, out) if out else self.table._zero

    # -- structure queries ----------------------------------------------------

    def variables(self) -> set[int]:
        out: set[int] = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    out.add(i)
        return out

    def parameter_names(self) -> set[str]:
        M = self.table.state_count
        return {self.table.names[i] for i in self.variables() if i >= M}

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ContractViolation("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def split_by_state(self) -> dict[Monomial, "Poly"]:
        """Group terms by their state-variable part.

        Keys are length-M exponent tuples; values are polynomials in the
        parameters only (state exponents zeroed).
        """
        M = self.table.state_count
        pad = (0,) * M
        groups: dict[Monomial, dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            state = m[:M]
            rest = pad + m[M:]
            groups.setdefault(state, {})[rest] = c
        if groups.keys() == {pad}:  # state-free: self is its one group, shared, not copied
            return {pad: self}
        return {s: Poly(self.table, t) for s, t in groups.items()}

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
        index_map: dict[int, int] = {}
        for i in self.variables():
            name = self.table.names[i]
            index_map[i] = table.index(name_map.get(name, name))
        width = len(table.names)
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            exp = [0] * width
            for i, e in enumerate(m):
                if e:
                    exp[index_map[i]] = e
            out[tuple(exp)] = c
        return Poly(table, out)

    # -- display ----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=grlex_key, reverse=True):
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
    factors = []
    for i, e in enumerate(mono):
        if e == 1:
            factors.append(table.names[i])
        elif e > 1:
            factors.append(f"{table.names[i]}^{e}")
    return "*".join(factors) if factors else "1"


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
        monos = {mono for row in self.entries for e in row.values() for mono in e.terms}
        return {i for mono in monos for i, k in enumerate(mono) if k}
