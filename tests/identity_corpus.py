"""Byte-identity corpus for the command-line reports.

    python tests/identity_corpus.py SRC_DIR

imports glomkit from SRC_DIR, runs `glomkit.cli.main` in-process on every
entry below and prints one `<label> <sha256>` line per entry.  The hash
covers the exit code, stdout, stderr and the bytes of the `--out` report,
so two source trees give equal reports exactly when `diff` of their
outputs is empty.  Model files are written to a temporary directory under
fixed relative names, so error messages that quote a path hash the same.

The entries: `invariants` (seeds 0 and 1) and `casimirs` on the six
built-in models with every zero set of at most 2 slots, `jacobi` with at
most 1, `hierarchy` on every family up to `FAMILY_TOP_K` (and K = 0),
`enumerate model1 --vary b1,c1,a2,b2`, `check`/`invariants`/`casimirs`/
`jacobi` on tied, custom-symbol (one with a Casimir), cross-gyrostat,
explicit-`r`, `r<k>`-symbol and unreferenced-mode configs, malformed specs,
`invariants` on a custom-symbol config with the symbol's slot zeroed,
short `simulate` runs (one on the custom-symbol config with a Casimir; some
repeat a model, assignment and tracked forms with another seed or initial
state, and so reuse a compiled stepper), and usage errors and help text,
which show that one parser serves every call in a process.  argparse
wraps usage and help text to the terminal width, so `main` sets
`COLUMNS=80` and the hashes do not depend on the shell.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

GENERIC = {letter: "generic" for letter in "abcpq"}


def _gyro(modes, **params):
    return {"modes": list(modes), "params": {**GENERIC, **params}}


CONFIGS = {
    "tied": {"modes": 5, "gyrostats": [_gyro((1, 2, 3), q="-1*p1"), _gyro((3, 4, 5), c="b2")]},
    "custom_symbol": {
        "modes": 5,
        "gyrostats": [_gyro((1, 2, 3), a="beta", b="2*beta", c="z1"), _gyro((3, 4, 5), q="-1/2*gamma")],
    },
    # model2's triples with a custom symbol and a Casimir
    "custom_casimir": {"modes": 5, "gyrostats": [_gyro((1, 2, 3), a="s"), _gyro((3, 4, 5), q="0")]},
    "cross_gyrostat": {"modes": 4, "gyrostats": [_gyro((1, 2, 3)), _gyro((2, 3, 4), b="a1", c="-3*c1")]},
    "explicit_r": {
        "modes": 4,
        "gyrostats": [
            _gyro((1, 2, 3), p="1/2", q="-3", r="5/2"),
            _gyro((2, 3, 4), a="0", b="7/3", p="2", q="-2", r="0"),
        ],
    },
    "explicit_r_violating": {"modes": 3, "gyrostats": [_gyro((1, 2, 3), p="1", q="1", r="1")]},
    # r has no slot, so a symbol named r1 or r2 is an ordinary extra symbol
    "r_symbol": {"modes": 4, "gyrostats": [_gyro((1, 2, 3), a="r1"), _gyro((2, 3, 4), c="-1/2*r2")]},
    "scaled_generic": {"modes": 3, "gyrostats": [_gyro((1, 2, 3), a="2*generic")]},
    "state_symbol": {"modes": 3, "gyrostats": [_gyro((1, 2, 3), b="x1")]},
    "mode_out_of_range": {"modes": 3, "gyrostats": [_gyro((1, 2, 4))]},
    "unreferenced_mode": {"modes": 4, "gyrostats": [_gyro((1, 2, 3))]},
}


def entries() -> list[tuple[str, list[str]]]:
    """(label, argv) pairs; labels have no spaces."""
    from glomkit.cli import FIXTURE_NAMES, load_model
    from helpers import FAMILY_TOP_K

    out: list[tuple[str, list[str]]] = []
    for name in FIXTURE_NAMES:
        slots = list(load_model(name).slots())
        zero_sets = [z for n in range(3) for z in itertools.combinations(slots, n)]
        for zeros in zero_sets:
            tag = ",".join(zeros) or "-"
            sub = ["--subclass", ",".join(zeros)] if zeros else []
            for seed in (0, 1):
                out.append((f"invariants:{name}:{seed}:{tag}", ["invariants", name, "--seed", str(seed), *sub]))
            out.append((f"casimirs:{name}:{tag}", ["casimirs", name, *sub]))
            if len(zeros) <= 1:
                out.append((f"jacobi:{name}:{tag}", ["jacobi", name, *sub]))
    for family, top in FAMILY_TOP_K.items():
        for k in range(top + 1):
            out.append((f"hierarchy:{family}:{k}", ["hierarchy", "--family", family, "--k", str(k)]))
    out.append(("enumerate:model1", ["enumerate", "model1", "--vary", "b1,c1,a2,b2", "--seed", "3"]))
    # zeroing c1 drops the custom symbol z1 from the model
    out.append(("invariants:custom_symbol:c1", ["invariants", "custom_symbol.json", "--subclass", "c1"]))
    for name in CONFIGS:
        path = f"{name}.json"
        for cmd in ("check", "invariants", "casimirs", "jacobi"):
            out.append((f"{cmd}:{name}", [cmd, path]))
    model1 = ["simulate", "model1", "--t", "0.05", "--dt", "0.01", "--track", "all",
              "--assign", "a1=1/2,b1=-1,c1=2,p1=1,q1=-3,a2=1,b2=1/3,c2=0,p2=2,q2=1"]
    tied = ["simulate", "tied.json", "--t", "0.05", "--dt", "0.01",
            "--assign", "a1=1,b1=2,c1=-1/2,p1=3,a2=1,b2=1,p2=-1,q2=5/7"]
    custom = ["simulate", "custom_casimir.json", "--t", "0.05", "--dt", "0.01", "--track", "all",
              "--assign", "s=1/2,b1=-1,c1=2,p1=1,q1=-3,a2=1,b2=1/3,c2=1,p2=2"]
    out.append(("simulate:model1", model1))
    out.append(("simulate:tied", tied))
    out.append(("simulate:custom_casimir", custom))
    # equal model, assignment and forms: these reuse the steppers compiled above
    out.append(("simulate:model1:seed7", [*model1, "--seed", "7"]))
    out.append(("simulate:model1:x0", [*model1, "--x0", "0.1,-0.2,0.3,-0.4"]))
    out.append(("simulate:tied:seed3", [*tied, "--seed", "3"]))
    out += [
        ("usage:unknown_command", ["frobnicate", "model1"]),
        ("usage:hierarchy_without_k", ["hierarchy", "--family", "sparse"]),
        ("usage:unknown_family", ["hierarchy", "--family", "foo", "--k", "3"]),
        ("usage:seed_not_int", ["invariants", "model1", "--seed", "abc"]),
        ("usage:subclass_assignment", ["invariants", "model1", "--subclass", "q2=3"]),
        ("usage:missing_model_file", ["check", "no_such_model.json"]),
        ("help:invariants", ["invariants", "--help"]),
    ]
    return out


def run(argv: list[str], workdir: Path) -> str:
    from glomkit.cli import main

    report = workdir / "report.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", report.name])
    data = report.read_bytes() if report.exists() else b""
    report.unlink(missing_ok=True)
    digest = hashlib.sha256()
    for part in (str(code).encode(), stdout.getvalue().encode(), stderr.getvalue().encode(), data):
        digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python tests/identity_corpus.py SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(sys.argv[1]).resolve()))
    os.environ.pop("GLOM_SEED", None)
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, doc in CONFIGS.items():
            (workdir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        os.chdir(workdir)
        for label, argv in entries():
            print(label, run(argv, workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
