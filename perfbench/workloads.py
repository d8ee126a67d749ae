"""The benchmark workloads.

An op is one timed call into glomkit: a public API function or one
in-process CLI request.  Every workload builds its inputs from the seed in
`setup`, which imports glomkit first, so set-up time includes the import.
`cycle(i)` returns the i-th batch of ops.  An untraced run's round is
cycles 0..ROUND_CYCLES-1, and the run repeats that round, so every op runs
several times with the same input.  Ops call glomkit through module
attributes at call time, so the tracer's wrappers see them.

`check` validates a result against the workload's oracle outside the
timed region and returns its canonical text, which feeds the run's digest.
The oracle uses known answers from the acceptance tables where an op has
one, answers pinned at the commit that introduced the benchmark where it
does not (marked "pinned"), and glomkit's exact `verify_conserved` on every
reported invariant and Casimir.  A label names an op's input completely:
an op whose label was already verified must reproduce the same text.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    """A result disagrees with the oracle."""


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]


def form_text(form) -> str:
    return str(form.value_poly())


def form_from_json(table, doc: dict, invariants):
    """Parse a report's {monomial: coefficient} dict into a QuadraticForm."""
    value = table.zero()
    for mono, coeff in doc.items():
        term = table.const(Fraction(coeff))
        if mono != "1":
            for factor in mono.split("*"):
                name, _, exp = factor.partition("^")
                term = term * table.var(name) ** int(exp or 1)
        value = value + term
    M = table.state_count

    def state(*indices):
        exps = [0] * M
        for i in indices:
            exps[i] += 1
        return tuple(exps)

    # coefficient-vector slot (d_i, e_ij, f_i order) and the factor between
    # the slot and the monomial's coefficient in the value polynomial
    slots = {state(i, i): (i, 2) for i in range(M)}
    k = M
    for i in range(M):
        for j in range(i + 1, M):
            slots[state(i, j)] = (k, 1)
            k += 1
    for i in range(M):
        slots[state(i)] = (k + i, 1)
    vec = [table.zero()] * (k + M)
    for mono, coeff in value.split_by_state().items():
        if mono not in slots:
            raise CheckFailed("reported form is not quadratic without a constant term")
        idx, scale = slots[mono]
        vec[idx] = coeff.scale(scale)
    return invariants.QuadraticForm.from_coeff_vector(table, vec)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    name = ""
    # cycles per side of a traced run at full size: about ten seconds a side,
    # or one cycle where a cycle takes longer than that
    TRACE_CYCLES = 1
    # cycles in one round of an untraced run at full size
    ROUND_CYCLES = 1

    def __init__(self, size: str, root: Path):
        self.size = size
        self.trace_cycles = self.TRACE_CYCLES if size == "full" else 1
        self.round_cycles = self.ROUND_CYCLES if size == "full" else 1
        self.root = root
        self.seed = 0
        self._verified: dict[str, str] = {}

    def setup(self, seed: int) -> None:
        self.seed = seed
        self._verified = {}
        self.glomkit = importlib.import_module("glomkit")
        self.setup_errors: list[str] = []
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def render(self, label: str, result) -> str:
        raise NotImplementedError

    def verify(self, label: str, result, text: str) -> None:
        raise NotImplementedError

    def check(self, label: str, result) -> str:
        text = self.render(label, result)
        seen = self._verified.get(label)
        if seen is None:
            self.verify(label, result, text)
            self._verified[label] = text
        elif seen != text:
            raise CheckFailed(f"{label}: differs from an earlier result for the same input")
        return text

    def verify_forms(self, g, forms) -> None:
        for form in forms:
            require(self.inv.verify_conserved(g, form), f"form not conserved: {form_text(form)}")

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(p) for p in (self.name, self.seed) + parts))

    def close(self) -> None:
        pass

    @property
    def inv(self):
        return self.glomkit.invariants


# ---------------------------------------------------------------------------
# campaign: in-process CLI requests on the bundled fixtures

CAMPAIGN_FIXTURES = ("model1", "model2", "model3", "model4")
CAMPAIGN_COMMANDS = ("invariants", "jacobi", "casimirs")
# One request per zero-set size per (fixture, command) in every cycle, so
# each cycle has the same mix of sizes and only the chosen names vary.
CAMPAIGN_ZERO_SIZES = {"full": (0, 1, 2, 3, 4), "tiny": (1,)}

# criterion 2: model1 subclasses over (b1, c1, a2, b2); mask bit 1 keeps the
# parameter, 0 zeroes it.  Independent count 3 for 0000, 2 for these masks,
# 1 otherwise; raw count 4 for 0000 and equal to the independent count elsewhere.
MODEL1_VARY = ("b1", "c1", "a2", "b2")
MODEL1_TWO = {"0001", "0010", "0100", "0101", "1000", "1010"}
# criterion 3: model2 subclasses over (c1, a2)
MODEL2_VARY = ("c1", "a2")
MODEL2_COUNTS = {"00": 3, "01": 2, "10": 2, "11": 2}
# criterion 5: (fixture, sorted zero set) -> (is_hamiltonian, strict_jacobi)
JACOBI_BRANCHES = {
    ("model1", ()): (False, False),
    ("model1", ("b1", "c1", "p1")): (True, True),
    ("model1", ("b2", "c1", "p2")): (True, True),
    ("model2", ()): (False, False),
    ("model2", ("q2",)): (True, True),
    ("model4", ()): (False, False),
}
# criterion 6: (fixture, sorted zero set) -> Casimir count
CASIMIR_BRANCHES = {("model1", ("b2", "c1", "p2")): 1, ("model2", ("q2",)): 1}


@dataclass(frozen=True)
class Request:
    fixture: str
    command: str
    zeros: tuple[str, ...]
    seed: int | None

    @property
    def label(self) -> str:
        seed = "" if self.seed is None else f" --seed {self.seed}"
        return f"{self.command} {self.fixture} zero[{','.join(self.zeros)}]{seed}"

    def known_answer(self):
        """The acceptance tables' answer for this request, or None."""
        zeros = set(self.zeros)
        if self.command == "invariants":
            if self.fixture == "model1" and zeros <= set(MODEL1_VARY):
                bits = "".join("0" if n in zeros else "1" for n in MODEL1_VARY)
                ind = 3 if bits == "0000" else 2 if bits in MODEL1_TWO else 1
                return (4 if bits == "0000" else ind, ind)
            if self.fixture == "model2" and zeros <= set(MODEL2_VARY):
                n = MODEL2_COUNTS["".join("0" if v in zeros else "1" for v in MODEL2_VARY)]
                return (n, n)
            if self.fixture == "model3" and not zeros:
                return (1, 1)  # criterion 1
            return None
        branches = JACOBI_BRANCHES if self.command == "jacobi" else CASIMIR_BRANCHES
        return branches.get((self.fixture, self.zeros))


class Campaign(Workload):
    name = "campaign"
    TRACE_CYCLES = 4
    ROUND_CYCLES = 6

    def prepare(self) -> None:
        self.cli = importlib.import_module("glomkit.cli")
        self.models = {name: self.glomkit.builtin_model(name) for name in CAMPAIGN_FIXTURES}
        self.params = {name: g.generic_param_names() for name, g in self.models.items()}
        self.requests: dict[str, Request] = {}
        self.workdir = self.root / "perfbench" / "_work" / f"campaign-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            self.workdir.parent.rmdir()

    def _requests(self, rng: random.Random) -> list[Request]:
        out = []
        for fixture in CAMPAIGN_FIXTURES:
            for command in CAMPAIGN_COMMANDS:
                for size in CAMPAIGN_ZERO_SIZES[self.size]:
                    zeros = tuple(sorted(rng.sample(self.params[fixture], size)))
                    seed = rng.randrange(1 << 30) if command == "invariants" else None
                    out.append(Request(fixture, command, zeros, seed))
        # one request per cycle from each family with a tabulated answer
        bits = format(rng.randrange(16), "04b")
        zeros = tuple(sorted(n for n, bit in zip(MODEL1_VARY, bits) if bit == "0"))
        out.append(Request("model1", "invariants", zeros, rng.randrange(1 << 30)))
        zeros = tuple(sorted(rng.sample(MODEL2_VARY, rng.randrange(3))))
        out.append(Request("model2", "invariants", zeros, rng.randrange(1 << 30)))
        fixture, zeros = rng.choice(sorted(JACOBI_BRANCHES))
        out.append(Request(fixture, "jacobi", zeros, None))
        fixture, zeros = rng.choice(sorted(CASIMIR_BRANCHES))
        out.append(Request(fixture, "casimirs", zeros, None))
        rng.shuffle(out)
        return out

    def cycle(self, index: int) -> list[Op]:
        ops = []
        for pos, req in enumerate(self._requests(self.rng(index))):
            self.requests.setdefault(req.label, req)
            argv = [req.command, req.fixture]
            if req.zeros:
                argv += ["--subclass", ",".join(req.zeros)]
            if req.seed is not None:
                argv += ["--seed", str(req.seed)]
            ops.append(Op(req.label, self._request(argv, f"c{index}-r{pos}")))
        return ops

    def _request(self, argv, stem):
        calls = itertools.count()

        def call():
            # every call writes its own report, so each repeat is checked
            path = self.workdir / f"{stem}-{next(calls)}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv + ["--out", str(path)]), path

        return call

    def render(self, label, result) -> str:
        code, path = result
        require(code == 0, f"{label}: exit code {code}")
        return path.read_text(encoding="utf-8")

    def verify(self, label, result, text) -> None:
        req = self.requests[label]
        doc = json.loads(text)
        g = self.models[req.fixture].zeroed(req.zeros)
        table = g.var_table
        expect = req.known_answer()
        if req.command == "invariants":
            basis = [form_from_json(table, p, self.inv) for p in doc["basis"]]
            raw, ind = doc["raw_count"], doc["independent_count"]
            require(raw == len(basis) and 0 < ind <= raw, f"{label}: inconsistent counts")
            require(doc["energy_included"] is True, f"{label}: energy not in the basis")
            if expect is not None:
                require((raw, ind) == expect, f"{label}: counts {(raw, ind)} != {expect}")
            point = doc.get("param_point") or {}
            ParamSpec = self.glomkit.ParamSpec
            exact = g.with_params({n: ParamSpec.exact(Fraction(v)) for n, v in point.items()})
            self.verify_forms(exact, basis)
        elif req.command == "jacobi":
            ham, strict = doc["is_hamiltonian"], doc["strict_jacobi"]
            require(ham == (not doc["aggregate_condition"]), f"{label}: aggregate verdict")
            require(strict == (not doc["nonzero_triples"]), f"{label}: strict verdict")
            require(doc["strict_divergence"] == (ham and not strict), f"{label}: divergence flag")
            if expect is not None:
                require((ham, strict) == expect, f"{label}: {(ham, strict)} != {expect}")
        else:
            forms = [form_from_json(table, p, self.inv) for p in doc["casimirs"]]
            require(len(forms) == sum(doc["gradient_flags"]), f"{label}: Casimir count vs flags")
            require(doc["nullspace_dimension"] == len(doc["nullspace_basis"]), f"{label}: dimension")
            if expect is not None:
                require(len(forms) == expect, f"{label}: {len(forms)} Casimirs != {expect}")
            self.verify_forms(g, forms)


# ---------------------------------------------------------------------------
# invariant_ladder: count_invariants over growing sparse and dense models

LADDER = {
    "full": [("sparse", K) for K in range(3, 7)] + [("dense", K) for K in range(4, 9)],
    "tiny": [("sparse", 2), ("sparse", 3), ("dense", 4), ("dense", 5)],
}


def ladder_expected(family: str, variant: str, K: int) -> tuple[int, int]:
    """(raw, independent) counts.  Sparse feedback-free: K+1 (criterion 4);
    the rest are pinned (dense feedback-free holds 2 for K >= 4)."""
    if family == "sparse":
        n = K + 1 if variant == "nlf" else 2
    else:
        n = 2 if variant == "nlf" else 1
    return n, n


class InvariantLadder(Workload):
    name = "invariant_ladder"

    def prepare(self) -> None:
        gk = self.glomkit
        self.models = {}
        for family, K in LADDER[self.size]:
            g = gk.builtin_model(family, K)
            self.models[family, "general", K] = g
            self.models[family, "nlf", K] = gk.no_linear_feedback(g)
        self.keys: dict[str, tuple] = {}

    def cycle(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = []
        for key, g in self.models.items():
            seed = rng.randrange(1 << 30)
            label = f"count_invariants {key[0]} K={key[2]} {key[1]} seed={seed}"
            self.keys[label] = key
            ops.append(Op(label, self._count(g, seed)))
        return ops

    def _count(self, g, seed):
        return lambda: self.inv.count_invariants(g, seed=seed)

    def render(self, label, rep) -> str:
        return json.dumps(
            {
                "raw": rep.raw_count,
                "independent": rep.independent_count,
                "energy": rep.energy_included,
                "generic": rep.generic,
                "point": {k: str(v) for k, v in sorted((rep.param_point or {}).items())},
                "basis": [[str(c) for c in f.coeff_vector()] for f in rep.basis],
            },
            sort_keys=True,
        )

    def verify(self, label, rep, text) -> None:
        family, variant, K = key = self.keys[label]
        counts = (rep.raw_count, rep.independent_count)
        require(counts == ladder_expected(family, variant, K), f"{label}: counts {counts}")
        require(rep.raw_count == len(rep.basis), f"{label}: basis size")
        require(rep.energy_included, f"{label}: energy not in the basis")
        ParamSpec = self.glomkit.ParamSpec
        exact = self.models[key].with_params(
            {n: ParamSpec.exact(v) for n, v in (rep.param_point or {}).items()}
        )
        self.verify_forms(exact, rep.basis)


# ---------------------------------------------------------------------------
# casimir_hierarchy: symbolic nullspaces of J and hierarchy reports

CASIMIR_FIXTURES = {"full": ("model1", "model2", "model3", "model4", "model5"),
                    "tiny": ("model1", "model2", "model3", "model4")}
# pinned: NULL(J) dimension of each generic fixture; none of them has a Casimir
FIXTURE_NULLITY = {"model1": 0, "model2": 1, "model3": 1, "model4": 1, "model5": 0}
HIERARCHIES = {
    "full": (("sparse", 6), ("dense1", 6), ("dense2", 6), ("model4", 3), ("model5", 5)),
    "tiny": (("sparse", 4), ("dense1", 4), ("dense2", 4), ("model4", 3), ("model5", 5)),
}


def hierarchy_expected(family: str, K: int) -> tuple[list[int], bool]:
    """Casimir counts per member and the recurrence flag.  Criteria 6 and 7;
    sparse and dense beyond K=4 and all of model4 are pinned."""
    if family == "sparse":
        counts = [1] * K
    elif family in ("dense1", "dense2"):
        counts = [k % 2 for k in range(1, K + 1)]
    elif family == "model4":
        counts = [1, 0, 0][:K]
    else:
        counts = [1, 1, 2, 0, 0][:K]
    return counts, family != "model5"


class CasimirHierarchy(Workload):
    name = "casimir_hierarchy"

    def prepare(self) -> None:
        gk = self.glomkit
        self.fixtures = {name: gk.builtin_model(name) for name in CASIMIR_FIXTURES[self.size]}
        self.families = {}
        for family, K in HIERARCHIES[self.size]:
            spec = gk.HierarchySpec(family, K)
            self.families[family, K] = (spec, gk.generate(spec))

    def cycle(self, index: int) -> list[Op]:
        ops = [Op(f"casimirs {name}", self._casimirs(g)) for name, g in self.fixtures.items()]
        for (family, K), (spec, _) in self.families.items():
            ops.append(Op(f"hierarchy_report {family} K={K}", self._report(spec)))
            ops.append(Op(f"check_recurrence {family} K={K}", self._recurrence(family, K)))
        self.rng(index).shuffle(ops)
        return ops

    def _casimirs(self, g):
        return lambda: self.glomkit.hamiltonian.casimirs(g)

    def _report(self, spec):
        return lambda: self.glomkit.hierarchy.hierarchy_report(spec)

    def _recurrence(self, family, K):
        return lambda: self.glomkit.hierarchy.check_recurrence(family, K)

    @staticmethod
    def _casimir_doc(cs) -> dict:
        return {
            "nullspace": [[str(p) for p in v] for v in cs.nullspace_basis],
            "flags": list(cs.gradient_flags),
            "casimirs": [form_text(c) for c in cs.casimirs],
            "advisory": cs.advisory,
        }

    def render(self, label, result) -> str:
        kind = label.split()[0]
        if kind == "casimirs":
            doc = self._casimir_doc(result)
        elif kind == "hierarchy_report":
            doc = [
                {
                    "K": m.K,
                    "modes": m.modes,
                    "hamiltonian": m.jacobi.is_hamiltonian,
                    "strict": m.jacobi.strict_jacobi,
                    "casimirs": self._casimir_doc(m.casimir_set),
                    "incremental": None if m.incremental is None else str(m.incremental.condition),
                    "projects": m.projection_consistent,
                }
                for m in result.members
            ]
        else:
            doc = result
        return json.dumps(doc, sort_keys=True)

    def verify(self, label, result, text) -> None:
        kind, name = label.split()[:2]
        if kind == "casimirs":
            require(len(result.nullspace_basis) == FIXTURE_NULLITY[name], f"{label}: nullity")
            require(result.count == 0, f"{label}: unexpected Casimirs")
            return
        K = int(label.split("K=")[1])
        counts, recurrent = hierarchy_expected(name, K)
        if kind == "check_recurrence":
            require(result is recurrent, f"{label}: {result} != {recurrent}")
            return
        require(result.casimir_counts() == counts, f"{label}: counts {result.casimir_counts()}")
        require(result.all_hamiltonian(), f"{label}: a member fails the Jacobi condition")
        for m, g in zip(result.members, self.families[name, K][1]):
            self.verify_forms(g, m.casimir_set.casimirs)


# ---------------------------------------------------------------------------
# conservation: RK4 drift of every symbolically verified form

# dt = 5e-4 keeps the RK4 truncation error of every seeded instance far below
# the tolerance; at dt = 1e-3 and t = 2 about one op in 4000 reached 1.06e-8.
CONSERVATION_DT = 5e-4
CONSERVATION_HORIZON = {"full": 1.0, "tiny": 0.1}
CONSERVATION_STATES = {"full": 4, "tiny": 1}
DRIFT_TOLERANCE = 1e-8  # criterion 11


class Conservation(Workload):
    name = "conservation"
    TRACE_CYCLES = 10
    ROUND_CYCLES = 4

    def prepare(self) -> None:
        gk = self.glomkit
        member = gk.hierarchy.member
        instantiate = gk.models.instantiate
        rng = self.rng("values")
        self.cases = {}
        for tag, g in (
            ("euler", gk.builtin_model("euler")),
            ("model3", gk.builtin_model("model3")),
            ("sparse-K3", member("sparse", 3)),
            ("dense1-K4", member("dense1", 4)),
        ):
            values = {s: Fraction(rng.randrange(1, 6)) for s in g.free_symbols()}
            exact = instantiate(g, values)
            tracked = list(gk.count_invariants(exact, seed=rng.randrange(1 << 30)).basis)
            tracked += gk.casimirs(exact).casimirs
            try:
                self.verify_forms(exact, tracked)
            except CheckFailed as exc:
                self.setup_errors.append(f"{tag}: {exc}")
            self.cases[tag] = (g, values, tracked)
        self.steps = round(CONSERVATION_HORIZON[self.size] / CONSERVATION_DT)

    def cycle(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = []
        for tag, case in self.cases.items():
            for _ in range(CONSERVATION_STATES[self.size]):
                seed = rng.randrange(1 << 30)
                ops.append(Op(f"integrate {tag} x0-seed={seed}", self._integrate(case, seed)))
        return ops

    def _integrate(self, case, seed):
        g, values, tracked = case
        sim = self.glomkit.simulate
        cfg = sim.SimConfig(
            t_end=CONSERVATION_HORIZON[self.size], dt=CONSERVATION_DT, param_assignment=values, seed=seed
        )
        return lambda: sim.integrate(g, cfg, tracked)

    def render(self, label, rep) -> str:
        return json.dumps(
            {
                "steps": rep.steps,
                "x0": [repr(v) for v in rep.initial_state],
                "final": [repr(v) for v in rep.final_state],
                "drift": [[q.name, repr(q.initial), repr(q.max_abs_deviation)] for q in rep.quantities],
            }
        )

    def verify(self, label, rep, text) -> None:
        require(rep.steps == self.steps, f"{label}: {rep.steps} steps")
        worst = rep.worst_relative_drift()
        require(worst <= DRIFT_TOLERANCE, f"{label}: relative drift {worst:.3e}")


WORKLOADS = {w.name: w for w in (Campaign, InvariantLadder, CasimirHierarchy, Conservation)}
