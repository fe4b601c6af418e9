from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_package_surface():
    import paloma

    assert paloma.__version__
    for name in ("parse_model", "validate", "pretty_print", "exit_rate",
                 "build_ctmc", "export_tsv", "export_dot", "stoch_step",
                 "cap_step", "agent_steps", "bisimilar", "check_bisim_phi",
                 "naive_bisim", "candidate_isometries", "locations_of",
                 "seq_in", "struct_equiv", "remove_at"):
        assert callable(getattr(paloma, name)), name
    assert paloma.EMPTY == ()


def test_dir_lists_every_export():
    import paloma

    listed = dir(paloma)
    assert listed == sorted(listed)
    assert set(paloma.__all__) <= set(listed) and "__version__" in listed


def test_readme_library_example_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks, "README has a python example"
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for block in blocks:
            exec(compile(block, "<README>", "exec"), {})
    finally:
        os.chdir(cwd)
    out = capsys.readouterr().out
    assert "# states" in out
    assert "True reflection" in out


def test_shipped_models_are_valid():
    from paloma.parser import parse_model, validate

    for path in sorted((ROOT / "models").glob("*.paloma")):
        result = parse_model(path.read_text(encoding="utf-8"))
        assert result.ok, path
        assert not [d for d in validate(result.definition) if d.severity == "error"]


def test_sources_are_standard_library_python_3_10():
    # README promises pure standard-library Python (3.10+): every module
    # parses under the 3.10 grammar and imports only the standard library or
    # the package itself, and the package declares no dependencies. No module
    # imports dataclasses: generating the classes was a fifth of every call
    import ast
    import sys

    sources = sorted((ROOT / "src" / "paloma").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                         feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "paloma", (path.name, name)
                assert top != "dataclasses", (path.name, name)
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, flags=re.MULTILINE)


def test_cli_import_skips_dataclasses_and_inspect():
    # a fresh interpreter, as every command-line call is: importing the CLI
    # must not pull in dataclasses, nor inspect, which it imports
    import subprocess
    import sys

    probe = ("import sys, paloma.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _fresh_interpreter(probe: str) -> str:
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_CALLS = [
    (["check", "models/scenario.paloma"], "cli geometry model parser"),
    (["rate", "models/scenario.paloma", "--system", "Scenario1",
      "--action", "!!message_move"], "cli geometry model parser rates"),
    (["ctmc", "models/scenario.paloma", "--system", "Scenario1"],
     "cli ctmc geometry model parser semantics"),
    (["bisim", "models/scenario.paloma", "--left", "Scenario1", "--right", "Scenario2"],
     "cli equivalence geometry model parser rates semantics"),
]
_COMMAND_CALLS = pytest.mark.parametrize("argv, loaded", _CALLS,
                                         ids=["check", "rate", "ctmc", "bisim"])


@pytest.mark.parametrize("argv, loaded, code", [
    *((argv, loaded, 0) for argv, loaded in _CALLS),
    (["check", "tests/exponent.paloma"], "cli geometry model parser", 0),
    (["check", "tests/malformed.paloma"], "_tokens cli geometry model parser", 2),
], ids=["check", "rate", "ctmc", "bisim", "exponent-check", "malformed-check"])
def test_a_command_loads_only_the_layers_it_runs(argv, loaded, code):
    # every command-line call is a fresh interpreter: check and rate never
    # import the CTMC or bisimulation layers, ctmc skips bisimulation, and
    # bisim skips the CTMC module and the array module its columns use. Only
    # a model that the reader declines loads the token pass: a valid one with
    # its rates written 1e+0 and 2.5E+1 does not
    probe = ("import contextlib, io, sys\n"
             "from paloma import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    assert cli.main({argv!r}) == {code}\n"
             "print(*sorted(m[7:] for m in sys.modules if m.startswith('paloma.')))\n"
             "print('array' in sys.modules)")
    assert _fresh_interpreter(probe) == f"{loaded}\n{argv[0] == 'ctmc'}\n"


def _cli_call(argv: list[str]) -> tuple[str, str, int, list[str]]:
    """stdout, stderr and exit code of ``argv`` in a fresh interpreter at 80
    columns, and which of argparse and the modules it imports it loaded."""
    import json

    probe = ("import contextlib, io, json, os, sys\n"
             "os.environ['COLUMNS'] = '80'\n"
             "from paloma import cli\n"
             "out, err = io.StringIO(), io.StringIO()\n"
             "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
             "    try:\n"
             f"        code = cli.main({argv!r})\n"
             "    except SystemExit as exc:\n"
             "        code = exc.code\n"
             "print(json.dumps([out.getvalue(), err.getvalue(), code,\n"
             "                  sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))]))")
    return tuple(json.loads(_fresh_interpreter(probe)))


@_COMMAND_CALLS
def test_a_well_formed_call_skips_argparse(argv, loaded):
    # options spelled exactly, each with its value, are read off the CLI's
    # option table: argparse, gettext and locale are never imported
    out, err, code, stdlib = _cli_call(argv)
    assert (code, err, stdlib) == (0, "", [])
    assert out


def test_help_abbreviations_and_usage_errors_go_through_argparse():
    loaded = ["argparse", "gettext", "locale"]
    out, err, code, stdlib = _cli_call(["--help"])
    assert (err, code, stdlib) == ("", 0, loaded)
    assert out.startswith("usage: paloma [-h] {check,ctmc,rate,bisim} ...\n")
    assert "    bisim               decide bisimilarity of two systems\n" in out
    rate = ["rate", "models/scenario.paloma", "--action", "!!message_move"]
    assert _cli_call([*rate, "--sys", "Scenario1"]) == ("2\n", "", 0, loaded)
    assert _cli_call([*rate, "--system", "Scenario1"]) == ("2\n", "", 0, [])
    out, err, code, stdlib = _cli_call(
        ["bisim", "models/scenario.paloma", "--left", "Scenario1", "--right", "Scenario2",
         "--mode", "fixed-phi", "--matrix=-1,0,0,1", "--offset", "0,0"])
    assert (err, code, stdlib) == ("", 0, loaded)
    assert out.startswith("verdict: related\nisometry: reflection: linear [[-1, 0], [0, 1]]")
    assert _cli_call(["ctmc", "models/scenario.paloma"]) == ("", (
        "usage: paloma ctmc [-h] --system SYSTEM [--bound BOUND] [--format {tsv,dot}]\n"
        "                   [--out OUT]\n"
        "                   model\n"
        "paloma ctmc: error: the following arguments are required: --system\n"), 2, loaded)


def test_every_exported_name_resolves_on_first_use():
    # importing the package loads no module; each exported name loads the
    # module that defines it, and is the very object that module holds
    probe = """
import importlib, sys
import paloma
assert [m for m in sys.modules if m.startswith("paloma.")] == []
assert len(paloma.__all__) == 80 and set(paloma.__all__) <= set(dir(paloma))
for name in paloma.__all__:
    module = importlib.import_module("paloma." + paloma._MODULE_OF[name])
    assert getattr(paloma, name) is getattr(module, name), name
namespace = {}
exec("from paloma import *", namespace)
assert set(paloma.__all__) <= set(namespace)
for module in ("ctmc", "equivalence", "geometry", "model", "parser", "rates", "semantics"):
    assert getattr(paloma, module) is sys.modules["paloma." + module]
try:
    paloma.no_such_name
except AttributeError:
    print("ok")
"""
    assert _fresh_interpreter(probe) == "ok\n"
