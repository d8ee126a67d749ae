"""Coupled Volterra-gyrostat models and their vector fields.

A single gyrostat on modes (m1, m2, m3) contributes the three rows

    dy1/dt = p*y2*y3 + b*y3 - c*y2
    dy2/dt = q*y3*y1 + c*y1 - a*y3
    dy3/dt = r*y1*y2 + a*y2 - b*y1

with the energy constraint p + q + r = 0.  A model couples K gyrostats
over M shared modes; each mode's equation is the sum of the gyrostat rows
mapped onto it.  The r coefficient is stored structurally as -p-q whenever
it is symbolic; explicitly supplied exact triples are validated instead of
silently repaired (see check_energy).

`Glom.slots` owns the parameter layout: it names each stored coefficient
by its SLOT_LETTERS letter and gyrostat index ("b2"), and every reader or
rewriter of a model's coefficients goes through it.  A model's variable
table is x1..xM, then the slot names in `Glom.slots` order, then the
extra symbols not already named; r has no column, since it is derived.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ContractViolation
from .exactmath import Poly, VarTable

SIGN_SYMMETRY_GENERATOR_LIMIT = 16

# the stored coefficients of a gyrostat, in Gyrostat field order; r is derived
SLOT_LETTERS = ("a", "b", "c", "p", "q")

# the one variable table of each layout, keyed on (names, state count): equal
# layouts share one object, so Poly._check's identity test passes and monomials intern once
_TABLES: dict[tuple[tuple[str, ...], int], VarTable] = {}

# a parameter symbol: neither a state variable x1, x2, ... nor the config keyword "generic"
SYMBOL = re.compile(r"(?!x\d+$|generic$)[A-Za-z_][A-Za-z0-9_]*")

_ONE = Fraction(1)  # Fractions are immutable: every generic slot shares this one


@dataclass(frozen=True)
class ParamSpec:
    """One gyrostat coefficient: zero, an exact rational, or a (scaled) symbol."""

    coeff: Fraction
    symbol: str | None = None

    @classmethod
    def zero(cls) -> "ParamSpec":
        return cls(Fraction(0))

    @classmethod
    def exact(cls, value) -> "ParamSpec":
        return cls(Fraction(value))

    @classmethod
    def generic(cls) -> "ParamSpec":
        return cls(_ONE, "?")

    @classmethod
    def scaled(cls, symbol: str, coeff) -> "ParamSpec":
        c = Fraction(coeff)
        return cls(c, symbol if c else None)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    @property
    def is_symbolic(self) -> bool:
        return self.symbol is not None and self.coeff != 0

    def named(self, symbol: str) -> "ParamSpec":
        """Fill in the placeholder symbol name (used at model assembly)."""
        if self.symbol == "?":
            return ParamSpec(self.coeff, symbol)
        return self

    def to_poly(self, table: VarTable) -> Poly:
        if self.is_symbolic:
            return table.var(self.symbol).scale(self.coeff)
        return table.const(self.coeff)

    def __str__(self) -> str:
        if self.is_symbolic:
            if self.coeff == 1:
                return self.symbol
            return f"{self.coeff}*{self.symbol}"
        return str(self.coeff)


@dataclass(frozen=True)
class Gyrostat:
    """Mode triple plus the five stored coefficients (r is derived)."""

    modes: tuple[int, int, int]
    a: ParamSpec
    b: ParamSpec
    c: ParamSpec
    p: ParamSpec
    q: ParamSpec
    # Explicit r is kept only when supplied as an exact value; it may violate
    # p+q+r=0, which check_energy reports and build_J refuses.
    r_explicit: ParamSpec | None = None

    def __post_init__(self):
        m1, m2, m3 = self.modes
        if len({m1, m2, m3}) != 3:
            raise ContractViolation(f"gyrostat modes must be distinct, got {self.modes}")
        if any(m < 1 for m in self.modes):
            raise ContractViolation(f"gyrostat modes must be positive, got {self.modes}")
        if self.r_explicit is not None:
            if self.r_explicit.is_symbolic or self.p.is_symbolic or self.q.is_symbolic:
                raise ContractViolation(
                    "an explicit r is only allowed when p, q and r are all exact"
                )

    def param(self, letter: str) -> ParamSpec:
        return getattr(self, letter)

    def r_poly(self, table: VarTable) -> Poly:
        if self.r_explicit is not None:
            return self.r_explicit.to_poly(table)
        return -(self.p.to_poly(table) + self.q.to_poly(table))

    def energy_ok(self) -> bool:
        """p + q + r == 0: r is stored as -p-q unless given exactly, and an
        exact r comes with exact p and q."""
        return self.r_explicit is None or self.p.coeff + self.q.coeff + self.r_explicit.coeff == 0


@dataclass(frozen=True)
class Glom:
    """A coupled-gyrostat model over M modes."""

    modes: int
    gyrostats: tuple[Gyrostat, ...]
    extra_symbols: tuple[str, ...] = ()
    var_table: VarTable = field(init=False, compare=False, repr=False)
    warnings: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.modes < 3:
            raise ContractViolation("a model needs at least 3 modes")
        for k, g in enumerate(self.gyrostats, start=1):
            if any(m > self.modes for m in g.modes):
                raise ContractViolation(
                    f"gyrostat {k} references mode outside 1..{self.modes}: {g.modes}"
                )
        for symbol in self.extra_symbols:
            if not SYMBOL.fullmatch(symbol):
                raise ContractViolation(f"extra symbol {symbol!r} is not a parameter symbol")
        slots: list[str] = []
        gyrostats = []
        extras = list(dict.fromkeys(self.extra_symbols))
        for k, g in enumerate(self.gyrostats, start=1):
            own = [f"{letter}{k}" for letter in SLOT_LETTERS]
            specs = [g.param(letter) for letter in SLOT_LETTERS]
            if any(spec.symbol == "?" for spec in specs):  # name the placeholders
                specs = [spec.named(name) for spec, name in zip(specs, own)]
                g = Gyrostat(g.modes, *specs, r_explicit=g.r_explicit)
            # an extra is a symbol that is none of this gyrostat's own slot names
            for name, spec in zip(own, specs):
                if spec.is_symbolic and spec.symbol not in own:
                    if not SYMBOL.fullmatch(spec.symbol):
                        raise ContractViolation(f"{name}: {spec.symbol!r} is not a parameter symbol")
                    if spec.symbol not in extras:
                        extras.append(spec.symbol)
            slots += own
            gyrostats.append(g)
        object.__setattr__(self, "gyrostats", tuple(gyrostats))
        object.__setattr__(self, "extra_symbols", tuple(extras))
        names = [f"x{i}" for i in range(1, self.modes + 1)]
        names += slots
        names += (s for s in extras if s not in slots)
        key = (tuple(names), self.modes)
        if key not in _TABLES:
            _TABLES[key] = VarTable(*key)
        object.__setattr__(self, "var_table", _TABLES[key])
        covered = {m for g in self.gyrostats for m in g.modes}
        missing = [m for m in range(1, self.modes + 1) if m not in covered]
        warnings = tuple(f"mode {m} is not referenced by any gyrostat" for m in missing)
        object.__setattr__(self, "warnings", warnings)

    @property
    def K(self) -> int:
        return len(self.gyrostats)

    def slots(self) -> dict[str, ParamSpec]:
        """Standard slot name such as 'b2' -> its ParamSpec, gyrostat by gyrostat."""
        return {
            f"{letter}{k}": g.param(letter)
            for k, g in enumerate(self.gyrostats, start=1)
            for letter in SLOT_LETTERS
        }

    def with_params(self, assignments: Mapping[str, ParamSpec]) -> "Glom":
        """Return a copy with the named parameters replaced.

        Keys are standard names like 'q2'; values are ParamSpec replacements
        (Zero for subclass masking, scaled symbols for equality constraints).
        The copy's extra symbols are those its slots use.
        """
        slots = self.slots()
        for name in assignments:
            if name not in slots:
                raise ContractViolation(f"unknown parameter {name!r}")
        slots.update(assignments)
        return Glom(self.modes, _refilled(self.gyrostats, slots.values()))

    def zeroed(self, names: Iterable[str]) -> "Glom":
        """Set the named slots to zero.

        Tied slots are zeroed together or not at all: a slot whose symbol
        another slot still uses raises ContractViolation, since zeroing it
        alone would silently break the tie.
        """
        names = list(names)
        symbols = self._slot_symbols()
        for name in names:
            sym = symbols.get(name)
            tied = [n for n, s in symbols.items() if s == sym]
            if not set(tied) <= set(names):
                raise ContractViolation(
                    f"{name} shares the symbol {sym!r} with other slots;"
                    f" zero all of {', '.join(tied)} or none"
                )
        return self.with_params({n: ParamSpec.zero() for n in names})

    def _slot_symbols(self) -> dict[str, str]:
        """Standard slot name -> symbol, for every (scaled) symbolic slot."""
        return {name: spec.symbol for name, spec in self.slots().items() if spec.is_symbolic}

    def generic_param_names(self) -> list[str]:
        """Standard names of parameters that are (scaled) symbols."""
        return list(self._slot_symbols())

    def free_symbols(self) -> list[str]:
        """Distinct symbols the coefficients refer to (tied slots share one)."""
        return sorted(set(self._slot_symbols().values()))


def _refilled(gyrostats: Iterable[Gyrostat], specs: Iterable[ParamSpec]) -> tuple[Gyrostat, ...]:
    """The gyrostats with their slots taken in turn from `specs` (Glom.slots order)."""
    spec = iter(specs)
    return tuple(
        Gyrostat(g.modes, r_explicit=g.r_explicit, **{letter: next(spec) for letter in SLOT_LETTERS})
        for g in gyrostats
    )


@dataclass(frozen=True)
class VectorField:
    """The M polynomial components of dx/dt."""

    table: VarTable
    components: tuple[Poly, ...]

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i: int) -> Poly:
        return self.components[i]

    def energy_derivative(self) -> Poly:
        """d/dt of (1/2) sum x_i^2 along the field."""
        acc = self.table.zero()
        for i, comp in enumerate(self.components, start=1):
            acc = acc + self.table.x(i) * comp
        return acc


@dataclass(frozen=True)
class SignSymmetry:
    """A diagonal +/-1 state transformation preserving the vector field."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise ContractViolation("signs must be +1 or -1")


def assemble_field(g: Glom) -> VectorField:
    """Superpose the gyrostat rows into the M mode equations."""
    table = g.var_table
    comps = [table.zero() for _ in range(g.modes)]
    for gyro in g.gyrostats:
        m1, m2, m3 = gyro.modes
        x1, x2, x3 = table.x(m1), table.x(m2), table.x(m3)
        a = gyro.a.to_poly(table)
        b = gyro.b.to_poly(table)
        c = gyro.c.to_poly(table)
        p = gyro.p.to_poly(table)
        q = gyro.q.to_poly(table)
        r = gyro.r_poly(table)
        comps[m1 - 1] = comps[m1 - 1] + p * x2 * x3 + b * x3 - c * x2
        comps[m2 - 1] = comps[m2 - 1] + q * x3 * x1 + c * x1 - a * x3
        comps[m3 - 1] = comps[m3 - 1] + r * x1 * x2 + a * x2 - b * x1
    return VectorField(table, tuple(comps))


@dataclass(frozen=True)
class EnergyReport:
    ok: bool
    diagnostics: tuple[str, ...]


def check_energy(g: Glom) -> EnergyReport:
    """Verify p+q+r = 0 per gyrostat and that the field conserves (1/2) sum x_i^2."""
    diagnostics = []
    for k, gyro in enumerate(g.gyrostats, start=1):
        if not gyro.energy_ok():
            diagnostics.append(f"gyrostat {k}: p + q + r != 0")
    deriv = assemble_field(g).energy_derivative()
    if not deriv.is_zero():
        diagnostics.append("d/dt of the energy is not identically zero")
    return EnergyReport(not diagnostics, tuple(diagnostics))


def find_sign_symmetries(g: Glom) -> list[SignSymmetry]:
    """All nontrivial sign vectors s with f(Sx) = S f(x) as polynomial identities.

    Monomial by monomial, the condition is one linear equation over GF(2)
    in the sign bits, so the symmetries are exactly the nonzero vectors of
    that system's nullspace: 2^k - 1 of them for k basis vectors, which is
    refused past SIGN_SYMMETRY_GENERATOR_LIMIT.
    """
    M = g.modes
    # Each monomial in component i yields the GF(2) equation
    # sum_j exp_j * sigma_j + sigma_i = 0 over sign bits sigma.
    equations: set[int] = set()
    for i, comp in enumerate(assemble_field(g).components):
        for mono in comp.terms:
            bits = 1 << i
            for j in range(M):
                if mono[j] % 2:
                    bits ^= 1 << j
            if bits:
                equations.add(bits)
    basis = _gf2_nullspace(sorted(equations), M)
    if len(basis) > SIGN_SYMMETRY_GENERATOR_LIMIT:
        raise ContractViolation(
            f"{2 ** len(basis) - 1} sign symmetries from {len(basis)} generators: "
            f"enumeration is limited to {SIGN_SYMMETRY_GENERATOR_LIMIT} generators"
        )
    symmetries = []
    vec = 0
    for combo in range(1, 1 << len(basis)):
        # Gray-code order: each step flips the generator at combo's lowest set bit
        vec ^= basis[(combo & -combo).bit_length() - 1]
        symmetries.append(SignSymmetry(tuple(-1 if vec >> j & 1 else 1 for j in range(M))))
    symmetries.sort(key=lambda s: s.signs)
    return symmetries


def _gf2_nullspace(equations: list[int], n_bits: int) -> list[int]:
    """Nullspace basis of a GF(2) system given as row bitmasks."""
    rows = list(equations)
    pivots: dict[int, int] = {}
    for row in rows:
        cur = row
        for col in range(n_bits):
            if not cur >> col & 1:
                continue
            if col in pivots:
                cur ^= pivots[col]
            else:
                pivots[col] = cur
                break
    basis = []
    free = [c for c in range(n_bits) if c not in pivots]
    for fc in free:
        vec = 1 << fc
        for col in sorted(pivots, reverse=True):
            row = pivots[col]
            parity = (row & vec).bit_count() & 1
            if parity:
                vec ^= 1 << col
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# built-in models


def generic_gyrostat(modes: tuple[int, int, int], index: int, **overrides: ParamSpec) -> Gyrostat:
    """Gyrostat `index` of a model, its generic slots already named ("b2")."""
    params = {letter: ParamSpec(_ONE, f"{letter}{index}") for letter in SLOT_LETTERS}
    params.update(overrides)
    return Gyrostat(modes, **params)


MODEL4_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 6, 7))
MODEL5_TRIPLES = ((1, 2, 3), (1, 4, 5), (6, 7, 8), (3, 4, 7), (2, 5, 7))


def sparse_triples(K: int) -> tuple[tuple[int, int, int], ...]:
    return tuple((2 * k - 1, 2 * k, 2 * k + 1) for k in range(1, K + 1))


def dense_triples(K: int) -> tuple[tuple[int, int, int], ...]:
    return tuple((k, k + 1, k + 2) for k in range(1, K + 1))


def generic_model(triples: tuple[tuple[int, int, int], ...]) -> Glom:
    """A generic gyrostat on each triple, over modes 1 .. the largest index."""
    gyrostats = tuple(generic_gyrostat(t, k) for k, t in enumerate(triples, 1))
    return Glom(max(m for t in triples for m in t), gyrostats)


BUILTIN_TRIPLES = {
    "model1": ((1, 2, 3), (2, 3, 4)),
    "model2": ((1, 2, 3), (3, 4, 5)),
    "model3": ((1, 2, 3), (3, 4, 5), (1, 2, 4)),
    "model4": MODEL4_TRIPLES,
    "model5": MODEL5_TRIPLES,
}


def builtin_model(name: str, K: int | None = None) -> Glom:
    """Construct one of the built-in parametric models.

    Names: model1, model2, model3, model4, model5, euler, sparse, dense,
    model5_numeric.  sparse/dense require K >= 1.  All parameters are
    generic symbols except where the variant fixes them.
    """
    if name in BUILTIN_TRIPLES:
        return generic_model(BUILTIN_TRIPLES[name])
    if name == "model5_numeric":
        return model5_numeric()
    if name == "euler":
        zero = ParamSpec.zero()
        return Glom(3, (generic_gyrostat((1, 2, 3), 1, a=zero, b=zero, c=zero),))
    if name in ("sparse", "dense"):
        if K is None or K < 1:
            raise ContractViolation(f"{name} models need K >= 1")
        return generic_model(sparse_triples(K) if name == "sparse" else dense_triples(K))
    raise ContractViolation(f"unknown built-in model {name!r}")


def model5_numeric() -> Glom:
    """The 8-mode convection instance of model5: rational coefficients with
    one free symbol beta scaling the third gyrostat."""
    zero = ParamSpec.zero()
    one = ParamSpec.exact(1)
    g1 = Gyrostat((1, 2, 3), a=one, b=zero, c=zero, p=ParamSpec.exact(-1), q=one)
    g2 = Gyrostat((1, 4, 5), a=one, b=zero, c=zero, p=ParamSpec.exact(-1), q=one)
    g3 = Gyrostat(
        (6, 7, 8),
        a=ParamSpec.scaled("beta", 1),
        b=zero,
        c=zero,
        p=ParamSpec.scaled("beta", -2),
        q=ParamSpec.scaled("beta", 2),
    )
    g4 = Gyrostat((3, 4, 7), a=zero, b=zero, c=zero, p=zero, q=ParamSpec.exact(Fraction(-1, 2)))
    g5 = Gyrostat((2, 5, 7), a=zero, b=zero, c=zero, p=ParamSpec.exact(Fraction(-1, 2)), q=zero)
    return Glom(8, (g1, g2, g3, g4, g5))


def no_linear_feedback(g: Glom) -> Glom:
    """Zero every linear coefficient (a, b, c) of every gyrostat."""
    zero = ParamSpec.zero()
    return g.with_params({name: zero for name in g.slots() if name[0] in SLOT_LETTERS[:3]})


def instantiate(g: Glom, values: Mapping[str, Fraction]) -> Glom:
    """Replace every symbolic coefficient by the exact value of its symbol.

    Tied slots (e.g. two coefficients sharing one symbol) stay consistent
    because substitution happens per symbol, not per slot.
    """
    assignments = {}
    for name, spec in g.slots().items():
        if spec.is_symbolic:
            if spec.symbol not in values:
                raise ContractViolation(f"no value for symbol {spec.symbol!r}")
            assignments[name] = ParamSpec.exact(spec.coeff * values[spec.symbol])
    # the symbols stay in the table: `simulate --track casimirs` evaluates
    # the instance's Casimirs with the symbolic model's assignment
    return Glom(g.modes, g.with_params(assignments).gyrostats, g.extra_symbols)
