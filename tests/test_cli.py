import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

import pytest

from glomkit import cli
from glomkit.cli import (
    FIXTURE_NAMES,
    load_model,
    main,
    model_to_config,
    parse_model_config,
)
from glomkit.errors import ConfigError
from glomkit.hierarchy import member
from glomkit.invariants import count_invariants, verify_conserved
from glomkit.models import ParamSpec, builtin_model

from helpers import FAMILY_TOP_K
from identity_corpus import CONFIGS


def write(tmp_path: Path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc, encoding="utf-8")
    return str(path)


def src_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_bundled_fixtures_parse_and_match_builtins():
    for name in FIXTURE_NAMES:
        assert load_model(name) == builtin_model(name)


def test_a_file_named_like_a_builtin_is_read_as_a_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "model1", model_to_config(builtin_model("euler")))
    assert load_model("model1") == builtin_model("euler")
    write(tmp_path, "model2", "{")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_model("model2")


def test_model_config_roundtrip():
    models = [load_model(name) for name in ("model1", "euler")]
    models.append(builtin_model("model5_numeric"))  # "-2*beta": a symbol outside the slots
    for family, k_top in FAMILY_TOP_K.items():
        for K in range(1, k_top + 1):
            models += [member(family, K, constrained) for constrained in (True, False)]
    for g in models:
        echoed = parse_model_config(model_to_config(g))
        assert echoed == g


def test_api_built_model_echo_parses_back():
    # every symbol a Glom accepts is one the config schema accepts
    g = builtin_model("model1").with_params(
        {
            "c1": ParamSpec.scaled("z1", 1),
            "b2": ParamSpec.scaled("b1", -1),
            "a2": ParamSpec.scaled("r1", 3),
            "q2": ParamSpec.scaled("_beta2", Fraction(1, 2)),
        }
    )
    assert parse_model_config(model_to_config(g)) == g


def test_subclass_echo_parses_back_to_the_model_analysed(tmp_path):
    # zeroing c1 drops z1, the custom symbol only c1 used, from the model
    path = write(tmp_path, "custom_symbol.json", CONFIGS["custom_symbol"])
    out = tmp_path / "report.json"
    assert main(["invariants", path, "--subclass", "c1", "--out", str(out)]) == 0
    echoed = parse_model_config(json.loads(out.read_text(encoding="utf-8"))["model"])
    zeroed = parse_model_config(CONFIGS["custom_symbol"]).zeroed(["c1"])
    assert echoed == zeroed
    assert echoed.extra_symbols == ("beta", "gamma")


def test_r_symbol_config_echoes_and_its_basis_is_conserved():
    # symbols named like the derived r coefficients are ordinary extras
    g = parse_model_config(CONFIGS["r_symbol"])
    assert parse_model_config(model_to_config(g)) == g
    basis = count_invariants(g).basis
    assert basis and all(verify_conserved(g, form) for form in basis)


@pytest.mark.parametrize("spec", ["x1", "2*x3", "*a1", "1/0*a1", "a1*b1", "-a2", "1.5.2", ""])
def test_malformed_param_spec_is_one_line_error(tmp_path, capsys, spec):
    doc = model_to_config(builtin_model("model1"))
    doc["gyrostats"][0]["params"]["b"] = spec
    assert main(["check", write(tmp_path, "bad.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: gyrostat 1, parameter 'b'") and err.count("\n") == 1


def test_unknown_keys_rejected(tmp_path):
    doc = model_to_config(builtin_model("model1"))
    doc["comment"] = "nope"
    with pytest.raises(ConfigError):
        parse_model_config(doc)
    doc2 = model_to_config(builtin_model("model1"))
    doc2["gyrostats"][0]["params"]["z"] = "1"
    with pytest.raises(ConfigError):
        parse_model_config(doc2)


def test_mode_indices_validated(tmp_path):
    doc = model_to_config(builtin_model("model1"))
    doc["gyrostats"][0]["modes"] = [1, 2, 9]
    with pytest.raises(ConfigError):
        parse_model_config(doc)


@pytest.mark.parametrize("key", ["top", "triple"])
def test_boolean_mode_index_is_one_line_error(tmp_path, capsys, key):
    doc = model_to_config(builtin_model("model1"))
    if key == "top":
        doc["modes"] = True
    else:
        doc["gyrostats"][0]["modes"] = [True, 2, 3]
    assert main(["check", write(tmp_path, "bad.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'modes' must be" in err


def test_duplicate_triples_allowed():
    doc = {
        "modes": 3,
        "gyrostats": [
            {"modes": [1, 2, 3], "params": {l: "generic" for l in "abcpq"}},
            {"modes": [1, 2, 3], "params": {l: "generic" for l in "abcpq"}},
        ],
    }
    assert parse_model_config(doc).K == 2


def test_explicit_r_validated(tmp_path):
    doc = {
        "modes": 3,
        "gyrostats": [
            {
                "modes": [1, 2, 3],
                "params": {"a": "0", "b": "0", "c": "0", "p": "1", "q": "1", "r": "-2"},
            }
        ],
    }
    g = parse_model_config(doc)
    from glomkit.models import check_energy

    assert check_energy(g).ok
    doc["gyrostats"][0]["params"]["r"] = "1"
    assert not check_energy(parse_model_config(doc)).ok


# ---------------------------------------------------------------------------
# command dispatch


def test_check_exit_codes(tmp_path, capsys):
    assert main(["check", "model2"]) == 0
    bad = write(
        tmp_path,
        "bad.json",
        {
            "modes": 3,
            "gyrostats": [
                {
                    "modes": [1, 2, 3],
                    "params": {"a": "1", "b": "1", "c": "1", "p": "1", "q": "1", "r": "1"},
                }
            ],
        },
    )
    capsys.readouterr()
    assert main(["check", bad]) == 1
    out = capsys.readouterr().out
    assert "gyrostat 1" in out


def test_malformed_json_reports_position(tmp_path, capsys):
    path = write(tmp_path, "broken.json", '{"modes": 3,\n  broken')
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


@pytest.mark.parametrize(
    "text, key",
    [
        (
            '{"modes": 3, "gyrostats": [{"modes": [1, 2, 3], "params":'
            ' {"a": "0", "b": "0", "c": "0", "p": "1", "q": "1", "p": "generic"}}]}',
            "p",
        ),
        (
            '{"modes": 3, "gyrostats": [{"modes": [1, 2, 3], "params":'
            ' {"a": "0", "b": "0", "c": "0", "p": "1", "q": "1"}}], "modes": 4}',
            "modes",
        ),
    ],
    ids=["params", "top"],
)
def test_duplicate_json_key_is_one_line_error(tmp_path, capsys, text, key):
    # json.loads alone keeps the last value, which would run p1 generic
    path = write(tmp_path, "dup.json", text)
    assert main(["check", path]) == 1
    assert f"duplicate key {key!r}" in one_line_error(capsys)


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "/nonexistent/nowhere.json"]) == 2


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_directory_as_model_is_usage_error(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 2
    assert "cannot read model file" in one_line_error(capsys)


def test_model_file_not_utf8_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"modes": 3, "note": "é"}'.encode("latin-1"))
    assert main(["check", str(path)]) == 1
    assert "not UTF-8" in one_line_error(capsys)


def test_deeply_nested_json_is_one_line_error(tmp_path, capsys):
    path = write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    assert main(["check", path]) == 1
    assert "nested too deeply" in one_line_error(capsys)


def test_out_naming_a_directory_is_usage_error(tmp_path, capsys):
    assert main(["check", "model2", "--out", str(tmp_path)]) == 2
    assert "cannot write report" in one_line_error(capsys)


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_invariants_command_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["invariants", "model1", "--seed", "7", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["raw_count"] == 1
    assert report["independent_count"] == 1
    assert report["model"]["modes"] == 4
    echoed = parse_model_config(report["model"])
    assert echoed == load_model("model1")


def test_jacobi_command_with_subclass(tmp_path):
    out = tmp_path / "report.json"
    assert main(["jacobi", "model2", "--subclass", "q2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["is_hamiltonian"] is True
    out2 = tmp_path / "report2.json"
    assert main(["jacobi", "model2", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["is_hamiltonian"] is False


def test_casimirs_command(tmp_path):
    out = tmp_path / "report.json"
    assert main(["casimirs", "model2", "--subclass", "q2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["nullspace_dimension"] == 1
    assert report["gradient_flags"] == [True]
    assert len(report["casimirs"]) == 1
    assert report["advisory"] is False


def test_enumerate_command(tmp_path):
    out = tmp_path / "report.json"
    assert main(["enumerate", "model1", "--vary", "b1,c1,a2,b2", "--seed", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    rows = {row["mask"]: row["independent_count"] for row in report["subclasses"]}
    assert rows["0000"] == 3 and rows["1111"] == 1
    assert len(rows) == 16


def test_repeated_vary_name_is_one_line_error(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["enumerate", "model1", "--vary", "b1,b1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'b1'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "joined, repeated",
    [
        (["invariants", "model1", "--subclass", "a1,b1"], ["--subclass", "a1", "--subclass", "b1"]),
        (["casimirs", "model2", "--subclass", "q2,c1"], ["--subclass", "q2", "--subclass", " c1,"]),
        (["enumerate", "model1", "--vary", "a1,b1"], ["--vary", "a1", "--vary", "b1"]),
    ],
)
def test_repeated_flag_joins_its_pieces(tmp_path, joined, repeated):
    a, b = tmp_path / "joined.json", tmp_path / "repeated.json"
    assert main(joined + ["--out", str(a)]) == 0
    assert main(joined[:2] + repeated + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_vary_name_repeated_across_flags_is_one_line_error(capsys):
    assert main(["enumerate", "model1", "--vary", "b1,c1", "--vary", "b1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'b1'" in err


def test_hierarchy_below_k1_is_one_line_error(capsys):
    assert main(["hierarchy", "--family", "sparse", "--k", "0"]) == 1
    assert capsys.readouterr().err == "error: K must be at least 1\n"


def test_hierarchy_command(tmp_path):
    out = tmp_path / "report.json"
    assert main(["hierarchy", "--family", "sparse", "--k", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [m["casimir_count"] for m in report["members"]] == [1, 1, 1]
    assert report["recurrent"] is True


def test_out_of_memory_is_one_line_error(monkeypatch, capsys):
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "hierarchy_report", exhausted)
    assert main(["hierarchy", "--family", "dense1", "--k", "3"]) == 1
    assert capsys.readouterr() == ("", "error: out of memory in hierarchy\n")


def test_out_of_memory_under_an_address_space_limit_is_one_line_error():
    # the child caps its address space 16 MB above what it holds after the
    # import, which dense1 K=30 outgrows within a second
    pytest.importorskip("resource")
    if not Path("/proc/self/statm").exists():
        pytest.skip("no /proc/self/statm to read the address space size from")
    script = (
        "import resource, sys\n"
        "from glomkit import cli\n"
        "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size + (16 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "sys.exit(cli.main(['hierarchy', '--family', 'dense1', '--k', '30']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory in hierarchy\n")


def test_simulate_command(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "simulate",
            "euler",
            "--t", "5", "--dt", "0.001",
            "--assign", "p1=1,q1=1",
            "--x0", "0.3,0.4,0.5",
            "--track", "all",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    names = {q["name"] for q in report["drift"]}
    assert "energy" in names and "casimir1" in names
    assert all(q["max_relative_drift"] <= 1e-8 for q in report["drift"])


# every command that reads a model, with the options it needs to run
MODEL_COMMANDS = {
    "check": [],
    "invariants": [],
    "jacobi": [],
    "casimirs": [],
    "enumerate": ["--vary", "q1"],
    "simulate": ["--t", "0.01", "--dt", "0.01", "--assign", "a1=1,b1=2,c1=3,p1=1,q1=-1"],
}


def test_every_report_carries_the_base_fields(tmp_path, capsys):
    out = tmp_path / "report.json"
    gyro = {"modes": [1, 2, 3], "params": dict.fromkeys("abcpq", "generic")}
    for modes in (3, 4):  # mode 4 is referenced by no gyrostat
        doc = {"modes": modes, "gyrostats": [gyro]}
        path = write(tmp_path, f"modes{modes}.json", doc)
        for cmd, options in MODEL_COMMANDS.items():
            capsys.readouterr()
            assert main([cmd, path, *options, "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["command"] == cmd
            assert report["model"] == doc
            assert ("seed" in report) == (cmd in ("invariants", "enumerate", "simulate"))
            assert report.get("warnings", []) == ["mode 4 is not referenced by any gyrostat"][: modes - 3]
            if cmd == "check":
                warned = "  warning: mode 4 is not referenced by any gyrostat\n" in capsys.readouterr().out
                assert warned == (modes == 4)
    assert main(["hierarchy", "--family", "sparse", "--k", "1", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())) == {"command", "family", "k_max", "members"}


def test_simulate_requires_assignments(capsys):
    assert main(["simulate", "model1", "--t", "1", "--dt", "0.01"]) == 1


def test_simulate_assigns_tied_symbols_once(tmp_path, capsys):
    doc = model_to_config(builtin_model("model2"))
    doc["gyrostats"][1]["params"].update(c="b2", q="0")  # c2 = b2: one symbol
    path = write(tmp_path, "tied.json", doc)
    out = tmp_path / "report.json"
    argv = ["simulate", path, "--t", "1", "--dt", "0.01", "--x0", "0.1,0.2,0.3,0.4,0.5"]
    argv += ["--track", "all", "--out", str(out)]
    values = "a1=1,b1=2,c1=3,p1=1,q1=1,a2=1,b2=1,p2=2"
    assert main(argv + ["--assign", values]) == 0
    drift = json.loads(out.read_text())["drift"]
    assert [q["name"] for q in drift] == ["energy", "casimir1"]
    assert all(q["max_relative_drift"] <= 1e-8 for q in drift)
    capsys.readouterr()
    out.unlink()
    assert main(argv + ["--assign", values + ",c2=7"]) == 1  # c2 is not a symbol
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "c2" in err
    assert not out.exists()


def test_env_var_provides_default_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("GLOM_SEED", "424242")
    out = tmp_path / "report.json"
    assert main(["invariants", "model1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 424242


def test_env_seed_is_read_on_every_call(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    for seed in (11, 12):
        monkeypatch.setenv("GLOM_SEED", str(seed))
        assert main(["invariants", "model1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == seed
    assert main(["invariants", "model1", "--seed", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 5


def test_parser_is_built_once_and_env_seed_read_per_call(tmp_path, monkeypatch):
    cli.build_parser.cache_clear()
    out = tmp_path / "report.json"
    for seed in range(200):
        monkeypatch.setenv("GLOM_SEED", str(seed))
        assert main(["invariants", "euler", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == seed
    assert cli.build_parser.cache_info().misses == 1


def test_bad_env_seed_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("GLOM_SEED", "xyz")
    for argv in (
        ["invariants", "model1"],
        ["check", "model1"],
        ["hierarchy", "--family", "sparse", "--k", "2"],
        ["invariants", "--help"],
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "GLOM_SEED" in err


@pytest.mark.parametrize("assign", [["p1=1,q1=1,p1=2"], ["p1=1,q1=1", "p1=1"]])
def test_repeated_assignment_names_the_symbol(capsys, assign):
    argv = ["simulate", "euler", "--t", "1", "--dt", "0.1"]
    for values in assign:
        argv += ["--assign", values]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'p1'" in err


def test_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "glomkit", "--help"], env=src_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: glomkit")


def test_reports_are_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["invariants", "model2", "--seed", "11", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    for path in (c, d):
        assert main(["enumerate", "model2", "--vary", "c1,a2", "--seed", "5", "--out", str(path)]) == 0
    assert c.read_bytes() == d.read_bytes()


@pytest.mark.parametrize("seed", [0, 20251])
@pytest.mark.parametrize("model", ["model1", "model2", "model3", "model4", "model5"])
def test_invariants_reports_match_golden_bytes(tmp_path, model, seed):
    out = tmp_path / "report.json"
    assert main(["invariants", model, "--seed", str(seed), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"invariants_{model}_seed{seed}.json").read_bytes()


# Reports of the other commands, byte-compared like the invariants reports.
# The casimirs subclasses have a singular J; those of nullity 2 or more take
# their free columns from the symbolic elimination.
FIXTURES = ("model1", "model2", "model3", "model4", "model5", "euler")
GOLDEN_REPORTS = {
    **{f"jacobi_{m}": ["jacobi", m] for m in FIXTURES},
    **{f"casimirs_{m}": ["casimirs", m] for m in FIXTURES},
    **{
        f"{cmd}_{m}_{sub.replace(',', '')}": [cmd, m, "--subclass", sub]
        for cmd in ("jacobi", "casimirs")
        for m, sub in (("model2", "q2"), ("model1", "p1,b1,c1"), ("model1", "p2,c1,b2"))
    },
    **{
        f"casimirs_{m}_{sub.replace(',', '')}": ["casimirs", m, "--subclass", sub]
        for m, sub in (
            ("model4", "c1,c2,c3"),
            ("model3", "p3,q3"),
            ("model5", "b3,p3"),  # nullity 2: the free columns decide the Casimir count
            ("model5", "b3,c3,p3"),  # nullity 2, free columns 5 and 6 (b3,p3: 5 and 8)
            ("model2", "c1,a2,q2"),  # nullity 3
            ("euler", "p1,q1"),  # J = 0: no pivot columns, the unit vectors
        )
    },
    **{
        f"hierarchy_{f}_k{k}": ["hierarchy", "--family", f, "--k", str(k)]
        for f, k in FAMILY_TOP_K.items()
    },
    "check_model2": ["check", "model2"],
    "enumerate_model1_seed3": ["enumerate", "model1", "--vary", "b1,c1,a2,b2", "--seed", "3"],
    "simulate_euler_all": [
        "simulate", "euler", "--t", "0.5", "--dt", "0.01", "--assign", "p1=1,q1=2",
        "--x0", "0.3,0.4,0.5", "--track", "all",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_reports_match_golden_bytes(tmp_path, name):
    out = tmp_path / "report.json"
    assert main(GOLDEN_REPORTS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_subclass_assignment_is_usage_error(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["invariants", "model2", "--subclass", "q2=3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "q2=3" in err
    assert not out.exists()


def _tied_model2(tmp_path: Path) -> str:
    doc = model_to_config(builtin_model("model2"))
    doc["gyrostats"][1]["params"]["c"] = "b2"  # c2 = b2
    return write(tmp_path, "tied.json", doc)


@pytest.mark.parametrize(
    "model, argv",
    [
        ("tied", ["jacobi", "--subclass", "b2"]),
        ("tied", ["invariants", "--subclass", "a1,c2"]),
        ("tied", ["enumerate", "--vary", "b2,a1"]),
        ("model5_numeric", ["casimirs", "--subclass", "a3"]),  # a3, p3, q3 share beta
        ("model5_numeric", ["enumerate", "--vary", "p3,q3"]),
    ],
)
def test_zeroing_part_of_a_tie_is_one_line_error(tmp_path, capsys, model, argv):
    if model == "tied":
        path = _tied_model2(tmp_path)
    else:
        path = write(tmp_path, "m5.json", model_to_config(builtin_model("model5_numeric")))
    out = tmp_path / "report.json"
    assert main([argv[0], path, *argv[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "zero all of" in err
    assert not out.exists()


def test_zeroing_a_whole_tie_is_accepted(tmp_path):
    out = tmp_path / "report.json"
    assert main(["jacobi", _tied_model2(tmp_path), "--subclass", "c2,b2", "--out", str(out)]) == 0
    params = json.loads(out.read_text())["model"]["gyrostats"][1]["params"]
    assert (params["b"], params["c"]) == ("0", "0")


@pytest.mark.parametrize(
    "flags",
    [
        ["--x0", "a,b,c"],
        ["--x0", "0.3,0.4"],
        ["--x0", "0.3,nan,0.5"],
        ["--dt", "nan"],
        ["--dt", "-0.1"],
        ["--dt", "0"],
        ["--t", "inf"],
        ["--t", "-1"],
        ["--dt", "0.4"],  # 2.5 steps
        ["--t", "1e300", "--dt", "1e-300"],  # step count overflows
    ],
)
def test_simulate_rejects_bad_numbers(tmp_path, capsys, flags):
    out = tmp_path / "report.json"
    argv = ["simulate", "euler", "--assign", "p1=1,q1=1", "--t", "1", "--dt", "0.1"]
    assert main(argv + flags + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "assign, message",
    [
        ("p1=1,q1=1e400", "coefficient 1.00e+400 of x1*x3"),
        ("p1=1,q1=-1e400", "coefficient -1.00e+400 of x1*x3"),
        ("p1=1e-400,q1=1", "coefficient 1e-400 of x2*x3"),
    ],
)
def test_simulate_refuses_coefficients_outside_float_range(tmp_path, capsys, assign, message):
    # an exact coefficient that overflows a float, or underflows to zero,
    # is refused instead of ending in a traceback or running as 0.0, and a
    # second identical request is refused again: failures are not cached
    out = tmp_path / "report.json"
    argv = ["simulate", "euler", "--assign", assign, "--t", "0.1", "--dt", "0.01"]
    for _ in range(2):
        assert main(argv + ["--out", str(out)]) == 1
        assert one_line_error(capsys) == f"error: {message} does not fit a float\n"
        assert not out.exists()


def test_simulate_refuses_a_spec_outside_float_range(tmp_path, capsys):
    params = {"a": "0", "b": "0", "c": "0", "p": "1e400", "q": "-1"}
    doc = {"modes": 3, "gyrostats": [{"modes": [1, 2, 3], "params": params}]}
    path = write(tmp_path, "big.json", doc)
    assert main(["simulate", path, "--t", "0.1", "--dt", "0.01"]) == 1
    assert "coefficient 1.00e+400 of x2*x3" in one_line_error(capsys)


def _two_gyrostat_doc(**overrides) -> dict:
    """model1's config with gyrostat 2's params updated by `overrides`."""
    doc = model_to_config(builtin_model("model1"))
    doc["gyrostats"][1]["params"].update(overrides)
    return doc


def test_scaled_generic_is_one_line_error(tmp_path, capsys):
    # "generic" is the keyword for the slot's own symbol, never a symbol name
    doc = _two_gyrostat_doc(a="3*generic")
    doc["gyrostats"][0]["params"]["a"] = "2*generic"
    path = write(tmp_path, "scaled.json", doc)
    assert main(["invariants", path, "--subclass", "a1"]) == 1
    err = one_line_error(capsys)
    assert err.startswith("error: gyrostat 1, parameter 'a': expected") and "'2*generic'" in err


@pytest.mark.parametrize(
    "modes, params, message",
    [
        ([0, 3, 4], {}, "modes must be positive"),
        ([2, 3, 5], {}, "references mode outside 1..4"),
        ([2, 3, 4], {"p": "1", "q": "1", "r": "r2"}, "explicit r is only allowed"),
        ([2, 3, 4], {"p": "generic", "q": "1", "r": "-1"}, "explicit r is only allowed"),
    ],
)
def test_model_layer_rules_are_one_line_errors(tmp_path, capsys, modes, params, message):
    doc = _two_gyrostat_doc(**params)
    doc["gyrostats"][1]["modes"] = modes
    assert main(["check", write(tmp_path, "bad.json", doc)]) == 1
    err = one_line_error(capsys)
    assert "gyrostat 2" in err and message in err


def test_custom_symbol_with_own_index_is_an_extra(tmp_path, capsys):
    # z1 on gyrostat 1 carries that gyrostat's index but is no standard name;
    # b1 on gyrostat 2 ties a standard name of gyrostat 1
    doc = _two_gyrostat_doc(b="b1")
    doc["gyrostats"][0]["params"]["c"] = "z1"
    path = write(tmp_path, "custom.json", doc)
    g = load_model(path)
    assert g.extra_symbols == ("z1", "b1") and "z1" in g.var_table.names
    for cmd in ("check", "jacobi", "invariants"):
        out = tmp_path / f"{cmd}.json"
        assert main([cmd, path, "--out", str(out)]) == 0
        params = json.loads(out.read_text())["model"]["gyrostats"]
        assert params[0]["params"]["c"] == "z1" and params[1]["params"]["b"] == "b1"
    assert main(["invariants", path, "--subclass", "b1"]) == 1
    assert "zero all of b1, b2" in one_line_error(capsys)
