"""Command-line interface: JSON model configs in, JSON reports out.

Commands: check, invariants, jacobi, casimirs, enumerate, hierarchy,
simulate.  Model files use the schema

    {"modes": M, "gyrostats": [{"modes": [i, j, k],
                                "params": {"a": spec, ..., "q": spec}}]}

where each spec is "0", "generic" (the slot's own symbol, such as "b2"),
an exact rational like "3" or "-1/2", a symbol name like "b2" or "beta",
or a rational multiple of one like "-1*a2"; slots naming one symbol are
tied.  "r" may be omitted (derived as -p-q) or supplied as an exact
value, in which case the energy constraint is validated rather than
repaired.  Parsing is strict: unknown and duplicate keys are rejected.

Reports are emitted as JSON with sorted keys and normalized rationals,
so a fixed command line and seed always produce identical bytes.  Exit
codes: 0 success, 1 validation failure or out of memory, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .errors import ConfigError, ContractViolation, EnergyViolation, IntegrationError
from .exactmath import Poly, monomial_str
from .hamiltonian import build_J, casimirs, jacobi
from .hierarchy import FAMILY_STRIDE, HierarchySpec, check_recurrence, hierarchy_report
from .invariants import QuadraticForm, count_invariants, enumerate_subclasses
from .models import SLOT_LETTERS, SYMBOL, Glom, Gyrostat, ParamSpec, builtin_model, check_energy, instantiate
from .simulate import SimConfig, integrate

FIXTURE_NAMES = ("model1", "model2", "model3", "model4", "model5", "euler")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """A malformed command-line argument (exit code 2)."""


# ---------------------------------------------------------------------------
# config parsing


def parse_param_spec(text: Any, where: str) -> ParamSpec:
    if not isinstance(text, str):
        raise ConfigError(f"{where}: parameter spec must be a string, got {text!r}")
    if text == "generic":
        return ParamSpec.generic()
    coeff, star, symbol = text.rpartition("*")
    try:
        if SYMBOL.fullmatch(symbol):
            return ParamSpec.scaled(symbol, Fraction(coeff) if star else 1)
        if not star:
            return ParamSpec.exact(Fraction(text))
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError(
        f"{where}: expected '0', 'generic', a rational, a symbol or '<rational>*<symbol>', "
        f"got {text!r}"
    )


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is no index


def parse_model_config(doc: Any) -> Glom:
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")
    unknown = set(doc) - {"modes", "gyrostats"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    modes = doc.get("modes")
    if not _is_int(modes) or modes < 3:
        raise ConfigError("'modes' must be an integer >= 3")
    raw_gyros = doc.get("gyrostats")
    if not isinstance(raw_gyros, list) or not raw_gyros:
        raise ConfigError("'gyrostats' must be a non-empty list")
    gyros = []
    for k, item in enumerate(raw_gyros, start=1):
        where = f"gyrostat {k}"
        if not isinstance(item, dict):
            raise ConfigError(f"{where}: must be an object")
        unknown = set(item) - {"modes", "params"}
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        triple = item.get("modes")
        if (
            not isinstance(triple, list)
            or len(triple) != 3
            or not all(map(_is_int, triple))
        ):
            raise ConfigError(f"{where}: 'modes' must be three integers")
        params = item.get("params")
        if not isinstance(params, dict):
            raise ConfigError(f"{where}: 'params' must be an object")
        unknown = set(params) - set(SLOT_LETTERS + ("r",))
        if unknown:
            raise ConfigError(f"{where}: unknown parameters {sorted(unknown)}")
        missing = set(SLOT_LETTERS) - set(params)
        if missing:
            raise ConfigError(f"{where}: missing parameters {sorted(missing)}")
        specs = {
            letter: parse_param_spec(params[letter], f"{where}, parameter {letter!r}")
            for letter in SLOT_LETTERS
        }
        r_spec = parse_param_spec(params["r"], f"{where}, parameter 'r'") if "r" in params else None
        try:
            gyros.append(Gyrostat(tuple(triple), r_explicit=r_spec, **specs))
        except ContractViolation as exc:
            raise ConfigError(f"{where}: {exc}") from None
    try:
        return Glom(modes, tuple(gyros))
    except ContractViolation as exc:
        raise ConfigError(str(exc)) from None


def model_to_config(g: Glom) -> dict:
    """Echo a model in the config schema (round-trips through the parser)."""
    gyros = [{"modes": list(gyro.modes), "params": {}} for gyro in g.gyrostats]
    for name, spec in g.slots().items():
        text = "generic" if spec.coeff == 1 and spec.symbol == name else str(spec)
        gyros[int(name[1:]) - 1]["params"][name[0]] = text
    for gyro, item in zip(g.gyrostats, gyros):
        if gyro.r_explicit is not None:
            item["params"]["r"] = str(gyro.r_explicit.coeff)
    return {"modes": g.modes, "gyrostats": gyros}


def load_model(path_or_name: str) -> Glom:
    """Parse a model file; a name in FIXTURE_NAMES with no such file is that built-in model."""
    path = Path(path_or_name)
    if not path.exists():
        if path_or_name in FIXTURE_NAMES:
            return builtin_model(path_or_name)
        raise FileNotFoundError(f"no such model file: {path_or_name}")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read model file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        doc: dict[str, Any] = {}
        for key, value in pairs:
            if key in doc:  # json.loads alone would keep the last value
                raise ConfigError(f"{path}: duplicate key {key!r}")
            doc[key] = value
        return doc

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None
    return parse_model_config(doc)


# ---------------------------------------------------------------------------
# report serialization


def poly_to_json(poly: Poly, names: dict) -> dict[str, str]:
    """{monomial: coefficient} strings.  `names`, one dict per report, keeps
    each state and parameter part's string by table: parts repeat, monomials
    do not."""
    table, out = poly.table, {}
    parts = names.setdefault(table, {})
    for mono, coeff in poly.terms.items():
        pieces = (mono & table.state_mask, mono & table.param_mask)
        text = [parts.get(p) or parts.setdefault(p, monomial_str(table, p)) for p in pieces if p]
        out["*".join(text) or "1"] = str(coeff)
    return out


def form_to_json(form: QuadraticForm, names: dict) -> dict:
    return poly_to_json(form.value_poly(), names)


def vector_to_json(vec: Sequence[Poly], names: dict) -> list[dict[str, str]]:
    return [poly_to_json(p, names) for p in vec]


def dump_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write report to {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def print_table(header: Sequence[str], rows: list[Sequence[str]]) -> None:
    rows = [header, *rows]
    widths = [max(map(len, column)) for column in zip(*rows)]
    rows.insert(1, ["-" * w for w in widths])
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


# ---------------------------------------------------------------------------
# commands: each gets the loaded model and the report main started, adds its
# own fields and summary lines, and returns its exit code


def _split_names(pieces: list[str] | None) -> list[str]:
    """The comma-separated items of a repeatable option, all pieces joined."""
    return [tok.strip() for piece in pieces or () for tok in piece.split(",") if tok.strip()]


def _apply_subclass(g: Glom, subclass: list[str] | None) -> Glom:
    names = _split_names(subclass)
    if not names:
        return g
    for name in names:
        if "=" in name:
            raise UsageError(f"--subclass takes names of parameters to set to zero, got {name!r}")
    return g.zeroed(names)


def cmd_check(args, g: Glom, report: dict) -> int:
    energy = check_energy(g)
    report["energy_ok"] = energy.ok
    report["diagnostics"] = list(energy.diagnostics)
    status = "ok" if energy.ok else "FAILED"
    print(f"energy constraint: {status}")
    for msg in energy.diagnostics:
        print(f"  {msg}")
    for msg in g.warnings:
        print(f"  warning: {msg}")
    return EXIT_OK if energy.ok else EXIT_VALIDATION


def cmd_invariants(args, g: Glom, report: dict) -> int:
    rep = count_invariants(g, seed=args.seed)
    report["raw_count"] = rep.raw_count
    report["independent_count"] = rep.independent_count
    report["energy_included"] = rep.energy_included
    report["generic_parameters"] = rep.generic
    if rep.param_point is not None:
        report["param_point"] = {k: str(v) for k, v in sorted(rep.param_point.items())}
    names: dict = {}
    report["basis"] = [form_to_json(f, names) for f in rep.basis]
    print(f"raw invariants: {rep.raw_count}   functionally independent: {rep.independent_count}")
    return EXIT_OK


def cmd_jacobi(args, g: Glom, report: dict) -> int:
    rep = jacobi(build_J(g))
    report["is_hamiltonian"] = rep.is_hamiltonian
    report["strict_jacobi"] = rep.strict_jacobi
    report["strict_divergence"] = rep.strict_divergence
    names: dict = {}
    report["aggregate_condition"] = poly_to_json(rep.aggregate, names)
    report["constraint_polys"] = [poly_to_json(p, names) for p in rep.constraint_polys]
    report["nonzero_triples"] = [list(t) for t in sorted(rep.residuals)]
    print(f"hamiltonian (aggregate): {rep.is_hamiltonian}   strict per-triple: {rep.strict_jacobi}")
    if rep.strict_divergence:
        print("  note: aggregate condition vanishes but some triple residual does not")
    return EXIT_OK


def cmd_casimirs(args, g: Glom, report: dict) -> int:
    cs = casimirs(g)
    report["advisory"] = cs.advisory
    report["nullspace_dimension"] = len(cs.nullspace_basis)
    names: dict = {}
    report["nullspace_basis"] = [vector_to_json(v, names) for v in cs.nullspace_basis]
    report["gradient_flags"] = list(cs.gradient_flags)
    report["casimirs"] = [form_to_json(c, names) for c in cs.casimirs]
    print(f"nullspace dimension: {len(cs.nullspace_basis)}   casimirs: {len(cs.casimirs)}")
    if cs.advisory:
        print("  advisory: Jacobi condition fails; conservation still holds by skewness")
    for c in cs.casimirs:
        print(f"  C = {c}")
    return EXIT_OK


def cmd_enumerate(args, g: Glom, report: dict) -> int:
    vary = _split_names(args.vary)
    if not vary:
        raise ConfigError("--vary needs at least one parameter name")
    table = enumerate_subclasses(g, vary, seed=args.seed)
    report["vary"] = list(table.vary)
    report["subclasses"] = [
        {"mask": mask, "raw_count": raw, "independent_count": ind}
        for mask, raw, ind in table.rows
    ]
    print_table(
        ("mask " + ",".join(vary), "raw", "independent"),
        [(mask, str(raw), str(ind)) for mask, raw, ind in table.rows],
    )
    return EXIT_OK


def cmd_hierarchy(args, g: None, report: dict) -> int:
    report["family"] = args.family
    report["k_max"] = args.k
    report["members"] = []
    rows = []
    names: dict = {}
    for m in hierarchy_report(HierarchySpec(args.family, args.k)).members:
        report["members"].append(
            {
                "K": m.K,
                "modes": m.modes,
                "is_hamiltonian": m.jacobi.is_hamiltonian,
                "strict_jacobi": m.jacobi.strict_jacobi,
                "casimir_count": m.casimir_count,
                "casimirs": [form_to_json(c, names) for c in m.casimir_set.casimirs],
                "casimir_gradients": [vector_to_json(v, names) for v in m.casimir_set.gradients()],
                "incremental_condition": poly_to_json(m.incremental.condition, names)
                if m.incremental
                else None,
                "projection_consistent": m.projection_consistent,
            }
        )
        rows.append(
            (
                str(m.K),
                str(m.modes),
                str(m.jacobi.is_hamiltonian),
                str(m.casimir_count),
                "-" if m.projection_consistent is None else str(m.projection_consistent),
            )
        )
    if args.k >= 3:
        report["recurrent"] = check_recurrence(args.family, args.k)
    print_table(("K", "modes", "hamiltonian", "casimirs", "projects"), rows)
    if "recurrent" in report:
        print(f"incremental conditions recurrent: {report['recurrent']}")
    return EXIT_OK


def _parse_assignments(tokens: list[str] | None) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for piece in _split_names(tokens):
        if "=" not in piece:
            raise ConfigError(f"--assign expects name=value, got {piece!r}")
        name, _, value = piece.partition("=")
        name = name.strip()
        if name in out:
            raise ConfigError(f"--assign gives {name!r} more than once")
        try:
            out[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"--assign {piece!r}: not a rational value") from None
    return out


def _parse_state(text: str, modes: int) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        values = ()
    if len(values) != modes or not all(math.isfinite(v) for v in values):
        raise ConfigError(f"--x0 expects {modes} comma-separated finite numbers, got {text!r}")
    return values


def cmd_simulate(args, g: Glom, report: dict) -> int:
    assignment = _parse_assignments(args.assign)
    # values go to symbols, so tied slots take one value
    symbols = set(g.free_symbols())
    missing = symbols - set(assignment)
    if missing:
        raise ConfigError(f"unassigned generic parameters: {sorted(missing)}")
    stray = set(assignment) - symbols
    if stray:
        raise ConfigError(f"--assign names no free symbol of the model: {sorted(stray)}")
    for flag, value in (("--t", args.t), ("--dt", args.dt)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{flag} must be positive and finite, got {value}")
    initial = None
    if args.x0:
        initial = _parse_state(args.x0, g.modes)
    cfg = SimConfig(
        t_end=args.t, dt=args.dt, param_assignment=assignment, initial_state=initial, seed=args.seed
    )
    tracked: list[QuadraticForm] = []
    names: list[str] = []
    if args.track in ("energy", "all"):
        tracked.append(QuadraticForm.energy(g.var_table))
        names.append("energy")
    if args.track in ("casimirs", "all"):
        # instantiating keeps the model's VarTable, so the forms track as they are
        forms = casimirs(instantiate(g, assignment)).casimirs
        tracked.extend(forms)
        names.extend(f"casimir{i}" for i in range(1, len(forms) + 1))
    rep = integrate(g, cfg, tracked, names=names)
    report["t_end"] = args.t
    report["dt"] = args.dt
    report["steps"] = rep.steps
    report["initial_state"] = list(rep.initial_state)
    report["assignment"] = {k: str(v) for k, v in sorted(assignment.items())}
    report["drift"] = [
        {
            "name": q.name,
            "initial": q.initial,
            "max_abs_deviation": q.max_abs_deviation,
            "max_relative_drift": q.max_relative_drift,
        }
        for q in rep.quantities
    ]
    print_table(
        ("quantity", "initial", "max relative drift"),
        [(q.name, f"{q.initial:.6g}", f"{q.max_relative_drift:.3e}") for q in rep.quantities],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; the --seed default comes from GLOM_SEED in main."""
    parser = argparse.ArgumentParser(
        prog="glomkit",
        description="Exact analysis of coupled Volterra-gyrostat models",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, run, help, seed=False, subclass=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("model", help="model config file or built-in model name")
        p.add_argument("--out", help="write the JSON report to this path")
        if seed:
            p.add_argument("--seed", type=int)
        if subclass:
            p.add_argument(
                "--subclass", action="append", help="comma-separated parameter names to set to zero"
            )
        return p

    command("check", cmd_check, "validate the energy constraint")
    command("invariants", cmd_invariants, "count and reconstruct invariants", seed=True, subclass=True)
    command("jacobi", cmd_jacobi, "evaluate the Jacobi condition", subclass=True)
    command("casimirs", cmd_casimirs, "extract Casimirs from NULL(J)", subclass=True)
    p = command("enumerate", cmd_enumerate, "invariant counts over parameter subclasses", seed=True)
    p.add_argument("--vary", action="append", required=True, help="comma-separated parameter names")
    p = sub.add_parser("hierarchy", help="analyze a model hierarchy")
    p.set_defaults(run=cmd_hierarchy)
    p.add_argument("--family", required=True, choices=list(FAMILY_STRIDE))
    p.add_argument("--k", type=int, required=True, help="largest member size")
    p.add_argument("--out", help="write the JSON report to this path")
    p = command("simulate", cmd_simulate, "integrate and measure conservation drift", seed=True)
    p.add_argument("--t", type=float, default=50.0, help="integration horizon")
    p.add_argument("--dt", type=float, default=1e-3, help="step size")
    p.add_argument("--assign", action="append", help="parameter assignment name=value[,name=value]")
    p.add_argument("--track", choices=["energy", "casimirs", "all"], default="energy")
    p.add_argument("--x0", help="comma-separated initial state (default: seeded random)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    command = "glomkit"
    try:
        seed_text = os.environ.get("GLOM_SEED", "0")
        try:
            default_seed = int(seed_text)
        except ValueError:
            raise UsageError(f"GLOM_SEED must be an integer, got {seed_text!r}") from None
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        command = args.cmd
        report: dict[str, Any] = {"command": command}
        if hasattr(args, "seed"):  # a command with --seed
            if args.seed is None:
                args.seed = default_seed
            report["seed"] = args.seed
        g = None
        if hasattr(args, "model"):  # every command but hierarchy
            g = _apply_subclass(load_model(args.model), getattr(args, "subclass", None))
            report["model"] = model_to_config(g)
            if g.warnings:
                report["warnings"] = list(g.warnings)
        code = args.run(args, g, report)
        dump_report(report, args.out)
        return code
    except (FileNotFoundError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, EnergyViolation, ContractViolation, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:
        print(f"error: out of memory in {command}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
