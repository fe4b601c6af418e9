from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import families
from conftest import (
    ALIASED_SOURCE,
    BLOCKING_SOURCE,
    COLLISION_SOURCE,
    SCENARIO_P,
    SCENARIO_R,
    SCENARIO_SOURCE,
)
from paloma import cli

NAIVE_SOURCE = """
location l0 = (0.0, 0.0);
location l1 = (3.0, 0.0);
W(l0) := (tick, 1.0).W(l0);
W(l1) := (tick, 1.0).W(l1);
system A = W(l0);
system B = W(l1);
"""


def run_cli(*argv: str, env: dict[str, str] | None = None,
            timeout: float | None = None):
    full_env = dict(os.environ)
    full_env.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "paloma.cli", *argv],
        capture_output=True, text=True, env=full_env, timeout=timeout)


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "scenario.paloma"
    path.write_text(SCENARIO_SOURCE, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def blocking_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "blocking.paloma"
    path.write_text(BLOCKING_SOURCE, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def naive_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "naive.paloma"
    path.write_text(NAIVE_SOURCE, encoding="utf-8")
    return str(path)


def test_check_valid_model(scenario_path):
    proc = run_cli("check", scenario_path)
    assert proc.returncode == 0
    assert "ok:" in proc.stdout


def test_check_reports_syntax_error_with_position(tmp_path):
    path = tmp_path / "broken.paloma"
    path.write_text("param r = 1.0\nparam s = 2.0;\n", encoding="utf-8")
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert "error" in proc.stdout and "2:" in proc.stdout


def test_non_finite_parameter_does_not_swallow_the_next_statement(tmp_path):
    # parsing resumes after the parameter's own ";", so the location that
    # follows is declared and nothing else is reported
    path = tmp_path / "infinite.paloma"
    path.write_text("param x = 1e999;\nlocation l0 = (0.0, 0.0);\n"
                    "A(l0) := (tick, 1.0).A(l0);\nsystem S = A(l0);\n", encoding="utf-8")
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert proc.stdout == "error: 1:11: number '1e999' is not finite\n"


def test_check_reports_dangling_constant(tmp_path):
    path = tmp_path / "dangling.paloma"
    path.write_text(
        "location l0 = (0.0, 0.0);\nlocation l9 = (1.0, 1.0);\n"
        "T(l0) := (tick, 1.0).T(l9);\nsystem Main = T(l0);\n", encoding="utf-8")
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert "T(l9)" in proc.stdout


def test_check_unreadable_file():
    proc = run_cli("check", "/nonexistent/nowhere.paloma")
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr


COMMANDS_ON_M = pytest.mark.parametrize("argv", [
    ("check",),
    ("ctmc", "--system", "M"),
    ("rate", "--system", "M", "--action", "tick"),
    ("bisim", "--left", "M", "--right", "M"),
], ids=["check", "ctmc", "rate", "bisim"])


@COMMANDS_ON_M
def test_non_utf8_model_is_an_input_error(tmp_path, argv):
    # exit 1 means only "not related": a file that is not UTF-8 is an input error
    path = tmp_path / "latin1.paloma"
    path.write_bytes(b"location l0 = (0.0, 0.0);\n// caf\xe9 \xff\n")
    proc = run_cli(argv[0], str(path), *argv[1:])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"error: cannot read {path}: ")
    assert proc.stdout == ""


@COMMANDS_ON_M
@pytest.mark.parametrize("source, diagnostics", [
    ("location l0 = (0.0, 0.0)\nA(l0) := (tick, 1.0).A(l0);\nsystem M = A(l0);\n",
     "error: 2:1: expected ';', found 'A'\nerror: 3:14: undeclared location 'l0'\n"),
    ("location l0 = (0.0, 0.0);\nA(l0) := (tick, 1.0).B(l0);\nsystem M = A(l0);\n",
     "error: A(l0): continuation B(l0) has no defining equation\n"),
], ids=["parse", "validate"])
def test_an_invalid_model_prints_its_diagnostics_once(tmp_path, argv, source, diagnostics):
    # every command prints the diagnostics as check does: check on stdout,
    # the analyses on stderr
    path = tmp_path / "invalid.paloma"
    path.write_text(source, encoding="utf-8")
    proc = run_cli(argv[0], str(path), *argv[1:])
    assert proc.returncode == 2
    printed, silent = (proc.stdout, proc.stderr) if argv[0] == "check" else (
        proc.stderr, proc.stdout)
    assert printed == diagnostics
    assert silent == ""


def test_ctmc_scenario_tsv(scenario_path):
    proc = run_cli("ctmc", scenario_path, "--system", "Scenario1", "--bound", "100")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "# states"
    states = [l for l in lines[1:lines.index("")]]
    assert len(states) == 4
    assert states[0] == "0\tTransmitter(l0) || Receiver(l1)"
    transitions = lines[lines.index("# transitions") + 1:]
    assert len(transitions) == 8
    assert transitions[0] == (
        f"0\t1\t{SCENARIO_R * SCENARIO_P:.17g}\t!!\tmessage_move")


def test_ctmc_blocked_transmitter(blocking_path):
    proc = run_cli("ctmc", blocking_path, "--system", "T")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[1] == "0\tTransmitter(l0)"
    assert lines[-1] == "# transitions"


def test_ctmc_bound_exceeded_suppresses_output(scenario_path, tmp_path):
    proc = run_cli("ctmc", scenario_path, "--system", "Scenario1", "--bound", "2")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "bound" in proc.stderr
    # --out is opened only once the chain is closed: no file is created, and
    # an existing one keeps its bytes
    fresh, kept = tmp_path / "fresh.tsv", tmp_path / "kept.tsv"
    kept.write_bytes(b"an earlier chain\n")
    for out in (fresh, kept):
        proc = run_cli("ctmc", scenario_path, "--system", "Scenario1", "--bound", "2",
                       "--out", str(out))
        assert (proc.returncode, proc.stdout) == (3, "")
    assert not fresh.exists()
    assert kept.read_bytes() == b"an earlier chain\n"


def test_ctmc_env_bound_applies(scenario_path):
    proc = run_cli("ctmc", scenario_path, "--system", "Scenario1",
                   env={"PALOMA_BOUND": "2"})
    assert proc.returncode == 3


@pytest.mark.parametrize("argv, env, message", [
    (("ctmc", "--system", "Scenario1"), {"PALOMA_BOUND": "ten"},
     "PALOMA_BOUND must be an integer, got 'ten'"),
    (("bisim", "--left", "Scenario1", "--right", "Scenario1", "--mode", "naive"), {},
     "naive mode compares single agents; pick systems with exactly one component"),
    (("bisim", "--left", "Scenario1", "--right", "Scenario2", "--mode", "fixed-phi",
      "--offset", "0,0"), {}, "fixed-phi mode needs --matrix and --offset"),
    (("bisim", "--left", "Scenario1", "--right", "Scenario2", "--mode", "fixed-phi",
      "--matrix=-1,0,0,1"), {}, "fixed-phi mode needs --matrix and --offset"),
], ids=["non-integer-env-bound", "naive-composition", "fixed-phi-no-matrix",
        "fixed-phi-no-offset"])
def test_options_the_command_cannot_use_are_input_errors(scenario_path, argv, env, message):
    proc = run_cli(argv[0], scenario_path, *argv[1:], env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message}\n"


def test_ctmc_unknown_system(scenario_path):
    proc = run_cli("ctmc", scenario_path, "--system", "Nope")
    assert proc.returncode == 2
    assert "unknown system" in proc.stderr


def test_ctmc_dot_output(scenario_path, tmp_path):
    out = tmp_path / "chain.dot"
    proc = run_cli("ctmc", scenario_path, "--system", "Scenario1",
                   "--format", "dot", "--out", str(out))
    assert proc.returncode == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("digraph ctmc {")
    assert "s0 -> s1" in text


def test_rate_unicast_output(scenario_path):
    proc = run_cli("rate", scenario_path, "--system", "Scenario1",
                   "--action", "!!message_move", "--loc", "l0",
                   "--context", "empty")
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"{SCENARIO_R:.17g}"


def test_rate_unicast_input(scenario_path):
    proc = run_cli("rate", scenario_path, "--system", "Scenario1",
                   "--action", "??message_move", "--loc", "l1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"{SCENARIO_R * SCENARIO_P:.17g}"


def test_rate_blocked_sender_is_zero(blocking_path):
    proc = run_cli("rate", blocking_path, "--system", "T", "--action", "!!message")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0"


def test_rate_spontaneous_literal(tmp_path):
    path = tmp_path / "tick.paloma"
    path.write_text("location l0 = (0.0, 0.0);\nS(l0) := (tick, 0.375).S(l0);\n"
                    "system Main = S(l0);\n", encoding="utf-8")
    proc = run_cli("rate", str(path), "--system", "Main", "--action", "tick")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.375"


def test_rate_unknown_location_and_action(scenario_path):
    proc = run_cli("rate", scenario_path, "--system", "Scenario1",
                   "--action", "!!message_move", "--loc", "l7")
    assert proc.returncode == 2
    proc = run_cli("rate", scenario_path, "--system", "Scenario1",
                   "--action", "!!nothing")
    assert proc.returncode == 2


def test_ctmc_and_bisim_print_a_state_as_one_term(tmp_path):
    path = tmp_path / "aliased.paloma"
    path.write_text(ALIASED_SOURCE, encoding="utf-8")
    chain = run_cli("ctmc", str(path), "--system", "S")
    assert chain.returncode == 0
    assert chain.stdout.splitlines()[1:3] == ["0\tP(l0)", "1\tQ(l0)"]
    proc = run_cli("bisim", str(path), "--left", "S", "--right", "S")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[2:] == ["relation:", "  P(l0)  ~  P(l0)", "  Q(l0)  ~  Q(l0)"]


def test_bisim_scenarios_related_with_reflection(scenario_path):
    proc = run_cli("bisim", scenario_path, "--left", "Scenario1",
                   "--right", "Scenario2", "--context", "empty")
    assert proc.returncode == 0
    assert "verdict: related" in proc.stdout
    assert "reflection" in proc.stdout


def test_bisim_context_separates_transmitter_and_receiver(blocking_path):
    proc = run_cli("bisim", blocking_path, "--left", "T", "--right", "R",
                   "--context", "T")
    assert proc.returncode == 1
    assert "verdict: not-related" in proc.stdout
    assert "!!message" in proc.stdout


def test_bisim_empty_context_relates_them(blocking_path):
    proc = run_cli("bisim", blocking_path, "--left", "T", "--right", "R")
    assert proc.returncode == 0
    assert "verdict: related" in proc.stdout


def test_bisim_naive_mode(naive_path):
    proc = run_cli("bisim", naive_path, "--left", "A", "--right", "B",
                   "--mode", "naive")
    assert proc.returncode == 1
    assert "location mismatch" in proc.stdout
    proc = run_cli("bisim", naive_path, "--left", "A", "--right", "A",
                   "--mode", "naive")
    assert proc.returncode == 0


def test_bisim_fixed_phi_mode(scenario_path):
    proc = run_cli("bisim", scenario_path, "--left", "Scenario1",
                   "--right", "Scenario2", "--mode", "fixed-phi",
                   "--matrix=-1,0,0,1", "--offset", "0,0")
    assert proc.returncode == 0
    proc = run_cli("bisim", scenario_path, "--left", "Scenario1",
                   "--right", "Scenario2", "--mode", "fixed-phi",
                   "--matrix", "1,0,0,1", "--offset", "0,0")
    assert proc.returncode == 1


def test_rates_read_at_one_place_add_up(tmp_path):
    # l0 and l1 lie further apart than GEOMETRIC_TOL, but the translation
    # maps both of Two's agents back onto l0, where One has a single agent:
    # Two ticks at twice One's rate there
    path = tmp_path / "collision.paloma"
    path.write_text(COLLISION_SOURCE, encoding="utf-8")
    assert run_cli("check", str(path)).returncode == 0
    proc = run_cli("bisim", str(path), "--left", "One", "--right", "Two", "--mode", "fixed-phi",
                   "--matrix", "1,0,0,1", "--offset", "7.5e-07,0")
    assert proc.returncode == 1 and proc.stderr == ""
    assert proc.stdout.splitlines()[0] == "verdict: not-related"
    assert re.search(r"rate mismatch at pair \(.*\): action tick at l0 gives 1 vs 2",
                     proc.stdout)


# The degenerate candidates of README "Bisimilarity". SCALED_SOURCE's L and R
# are pairs 1e-5 and 1.15e-5 apart: no scaling by 1.15 is tried, and the
# reflection that swaps their midpoints sends each point within 7.5e-7 of a
# distinct target. In CENTROID_SOURCE a tiny triangle faces three collinear
# points; the middle one sits at its side's centroid and gives no direction,
# and the isometries through the end points send two corners onto one point.
SCALED_SOURCE = """\
location a = (0.0, 0.0); location b = (1e-5, 0.0); location d = (1.15e-5, 0.0);
A(a) := (tick, 1.0).A(a); A(b) := (tick, 1.0).A(b); A(d) := (tick, 1.0).A(d);
system L = A(a) || A(b); system R = A(a) || A(d);
"""
CENTROID_SOURCE = """\
location p0 = (0.0, 0.0); location p1 = (1.2e-6, 0.0);
location p2 = (0.6e-6, 1.0392304845413265e-06);
location q0 = (9.9999988, 0.0); location q1 = (10.0, 0.0); location q2 = (10.0000012, 0.0);
A(p0) := (tick, 1.0).A(p0); A(p1) := (tick, 1.0).A(p1); A(p2) := (tick, 1.0).A(p2);
A(q0) := (tick, 1.0).A(q0); A(q1) := (tick, 1.0).A(q1); A(q2) := (tick, 1.0).A(q2);
system L = A(p0) || A(p1) || A(p2); system R = A(q0) || A(q1) || A(q2);
"""


@pytest.mark.parametrize("source, sides, code, stdout", [
    (SCALED_SOURCE, ("L", "R"), 0,
     "verdict: related\n"
     "isometry: reflection: linear [[-1, 0], [0, 1]], offset (1.075e-05, 0)\n"
     "relation:\n  A(a) || A(b)  ~  A(a) || A(d)\n"),
    (CENTROID_SOURCE, ("L", "R"), 1, "verdict: not-related\nnote: no candidate isometries\n"),
    # no occupied point on either side: the identity alone
    (SCALED_SOURCE, ("empty", "empty"), 0,
     "verdict: related\nisometry: identity: linear [[1, 0], [0, 1]], offset (0, 0)\n"
     "relation:\n  empty  ~  empty\n"),
], ids=["scaled", "centroid-target", "empty"])
def test_bisim_tries_only_exact_one_to_one_candidates(tmp_path, capsys, source, sides, code,
                                                      stdout):
    path = tmp_path / "model.paloma"
    path.write_text(source, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["bisim", str(path), "--left", sides[0], "--right", sides[1]]) == code
    assert capsys.readouterr().out == stdout


def test_bisim_rejects_non_orthogonal_matrix(scenario_path):
    proc = run_cli("bisim", scenario_path, "--left", "Scenario1",
                   "--right", "Scenario2", "--mode", "fixed-phi",
                   "--matrix", "2,0,0,1", "--offset", "0,0")
    assert proc.returncode == 2
    assert "not an isometry" in proc.stderr


@pytest.mark.parametrize("matrix, offset", [
    ("-1,0,0,1", "nan,0"), ("-1,0,0,1", "inf,0"), ("-1,0,0,1", "0,-inf"),
    ("nan,0,0,1", "0,0"), ("-1,0,0,inf", "0,0"),
])
def test_bisim_rejects_non_finite_phi(scenario_path, matrix, offset):
    proc = run_cli("bisim", scenario_path, "--left", "Scenario1",
                   "--right", "Scenario2", "--mode", "fixed-phi",
                   f"--matrix={matrix}", f"--offset={offset}")
    assert proc.returncode == 2
    assert proc.stderr == "error: expected finite --matrix a,b,c,d and --offset tx,ty\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("argv", [
    ("ctmc", "--system", "Scenario1"),
    ("rate", "--system", "Scenario1", "--action", "!!message_move"),
    ("bisim", "--left", "Scenario1", "--right", "Scenario2"),
], ids=["ctmc", "rate", "bisim"])
def test_unwritable_out_is_an_input_error(scenario_path, tmp_path, argv, where):
    # exit 1 means only "not related": a failed write is an input error
    out = tmp_path if where == "directory" else tmp_path / "absent" / "out.txt"
    proc = run_cli(argv[0], scenario_path, *argv[1:], "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"error: cannot write {out}: ")
    assert proc.stdout == ""


def test_bisim_bound_inconclusive(scenario_path):
    proc = run_cli("bisim", scenario_path, "--left", "Scenario1",
                   "--right", "Scenario2", "--bound", "1")
    assert proc.returncode == 3
    assert "verdict: inconclusive" in proc.stdout


@pytest.mark.parametrize("model, argv", [
    ("scenario_path", ("bisim", "--left", "Scenario1", "--right", "Scenario2",
                       "--bound", "0")),
    ("scenario_path", ("bisim", "--left", "Scenario1", "--right", "Scenario2",
                       "--bound", "-3")),
    ("blocking_path", ("bisim", "--left", "T", "--right", "R", "--mode", "naive",
                       "--bound", "0")),
    ("scenario_path", ("bisim", "--left", "Scenario1", "--right", "Scenario2",
                       "--mode", "fixed-phi", "--matrix=-1,0,0,1", "--offset", "0,0",
                       "--bound", "0")),
    ("scenario_path", ("ctmc", "--system", "Scenario1", "--bound", "0")),
])
def test_bound_below_one_is_an_input_error(request, model, argv):
    proc = run_cli(argv[0], request.getfixturevalue(model), *argv[1:])
    assert proc.returncode == 2
    assert "at least 1" in proc.stderr
    assert proc.stdout == ""


def test_outputs_are_stable_across_hash_seeds(scenario_path, blocking_path):
    first = run_cli("ctmc", scenario_path, "--system", "Scenario1",
                    env={"PYTHONHASHSEED": "1"})
    second = run_cli("ctmc", scenario_path, "--system", "Scenario1",
                     env={"PYTHONHASHSEED": "31337"})
    assert first.stdout == second.stdout and first.stdout

    runs = [run_cli("bisim", scenario_path, "--left", "Scenario1",
                    "--right", "Scenario2", env={"PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "31337")]
    assert runs[0] == runs[1] and runs[0]

    fails = [run_cli("bisim", blocking_path, "--left", "T", "--right", "R",
                     "--context", "T", env={"PYTHONHASHSEED": seed}).stdout
             for seed in ("7", "424242")]
    assert fails[0] == fails[1] and fails[0]


MODELS = Path(__file__).resolve().parent.parent / "models"


def _ring_equation(name: str, k: int, tick: float) -> str:
    prev, nxt = (k - 1) % 3, (k + 1) % 3
    reach = f"l{prev}, l{nxt}"
    return (f"{name}(l{k}) := !!(msg, r)@Ir{{{reach}}}.{name}(l{nxt})"
            f" + ??(msg, 0.6)@Wt{{1.0}}.{name}(l{nxt})"
            f" + (tick, {tick!r}).{name}(l{k})"
            f" + !(bc, 0.5)@Ir{{{reach}}}.{name}(l{k})"
            f" + ?(bc, 0.6)@Prob{{1.0}}.{name}(l{nxt});")


# ring-3: three agents S(lk) on a circle of radius 3. Each unicasts and
# broadcasts to both neighbours, ticks, and moves on when it receives. Rot is
# Main rotated one place in composition order; in Odd one agent is an E,
# which ticks at 0.31 instead of 0.3.
RING_SOURCE = "\n".join([
    "param r = 1.0;",
    "location l0 = (3.0, 0.0);",
    "location l1 = (-1.4999999999999993, 2.598076211353316);",
    "location l2 = (-1.5000000000000013, -2.598076211353315);",
    *(_ring_equation("S", k, 0.3) for k in range(3)),
    *(_ring_equation("E", k, 0.31) for k in range(3)),
    "system Main = S(l0) || S(l1) || S(l2);",
    "system Rot = S(l1) || S(l2) || S(l0);",
    "system Odd = S(l0) || S(l1) || E(l2);",
]) + "\n"

# The exit code and the sha256 of stdout of each command. Exports, reports
# and rates must stay byte-identical unless a change says why.
GOLDEN = [
    ("scenario", ("ctmc", "--system", "Scenario1"), 0,
     "5c0d92013c6bb931a19e7c257e0d396aeab4797d79bba43627bb0df339eaaafd"),
    ("scenario", ("ctmc", "--system", "Scenario1", "--format", "dot"), 0,
     "e8e8b3d96cd5cfa1ece79a2ac51f392bb542bde87090dca753650e62da5390c7"),
    ("scenario", ("ctmc", "--system", "Scenario2"), 0,
     "8ef0f1c724a30a8ac71a09045430ffae72d8beeb1c38270489c96f346f688a1b"),
    ("scenario", ("ctmc", "--system", "Scenario2", "--format", "dot"), 0,
     "bc0f2a8eb81acdf045b413c1a78e35ad131cd46cd784c62b2f0c000901421631"),
    ("blocking", ("ctmc", "--system", "T"), 0,
     "079bbdbc33d58738ab50903766f290f8b011740c1cf4ef7e88489f28f83381c8"),
    ("blocking", ("ctmc", "--system", "T", "--format", "dot"), 0,
     "ffa4ee82d038ae5cb5a59e9ff4dd755286608a665df42490a607b0dc2c6e1698"),
    ("blocking", ("ctmc", "--system", "R"), 0,
     "a6d80e2ea38b61fd864b2af35339ed465a54672316b07ea6b349e5896fbb0be2"),
    ("blocking", ("ctmc", "--system", "R", "--format", "dot"), 0,
     "ab0dc61e6858017a9a982bc06555ad174a12f3f7de302d706424b4443e601116"),
    ("blocking", ("ctmc", "--system", "Pair"), 0,
     "7852e9d994f596da7e5ae398c2931f97d3f7003c2f337e20494deaad09c2d44f"),
    ("blocking", ("ctmc", "--system", "Pair", "--format", "dot"), 0,
     "74f48a3b02f31bf61e3e38bc2716b6ecc2bfd13df084ae5ef4ebfa1fd7fd2fcd"),
    ("scenario", ("bisim", "--left", "Scenario1", "--right", "Scenario2"), 0,
     "29de7156f53e4475f79c874052d0304f0707eab853ec0b7fdbdbfcc0729339ca"),
    ("blocking", ("bisim", "--left", "T", "--right", "R"), 0,
     "620a0df5b4b3d2257ca07596e07eb575f4df8d45900ed6255ae9829696edc176"),
    ("blocking", ("bisim", "--left", "T", "--right", "R", "--context", "T"), 1,
     "1b2677c57c9659b9284c5f548fe24bb11ff012d28e02c8274e46d8eeb466df6d"),
    ("ring", ("ctmc", "--system", "Main"), 0,
     "8cf80b18b0471234fc038c4e3a84104d6f2a4f9f26de7fc4477c89ed1a45a139"),
    ("ring", ("ctmc", "--system", "Main", "--format", "dot"), 0,
     "3ffe5d1e0ebc6a845ce19e92de3dd2477c8b134053989ee7d521da446abd20d4"),
    ("ring", ("bisim", "--left", "Main", "--right", "Rot"), 0,
     "ad1923430b77ee92dae75d3b9eba993fad7c331ff74fc02dfe9f12300956b146"),
    ("ring", ("bisim", "--left", "Main", "--right", "Odd"), 1,
     "6acebbc91b7ec04f9fd94c9d9df3dfb22a551ec9fac4eab4c10766637fa600c8"),
    ("ring", ("rate", "--system", "Main", "--action", "??msg", "--loc", "l1"), 0,
     "0606afe3ce3d5c0160dabd6fdbba2b359f561d83ca7b6b0cab48e7b7dcb8fb92"),
    ("ring", ("rate", "--system", "Odd", "--action", "?bc"), 0,
     "9b1e9e7e3cd1a7f9e1b62acff82909854778793d15a86124b6e43ba966b019c6"),
    ("ring", ("rate", "--system", "Main", "--action", "!!msg", "--context", "Odd"), 0,
     "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2"),
    # the TSV digest is the one perfbench/reference.py pins for ctmc-ring
    ("ring4", ("ctmc", "--system", "Main"), 0,
     "19c0d84d9717bb48fa29dda6024b609dab1a9ff9e5bbf1d30e0c51c6ba20bade"),
    ("ring4", ("ctmc", "--system", "Main", "--format", "dot"), 0,
     "209e8340a1d58acea31ddfe539efd866e8bbcc5c4907c2d0a9eb047133b35fda"),
]


@pytest.fixture(scope="module")
def golden_models(tmp_path_factory):
    ring = tmp_path_factory.mktemp("models") / "ring3.paloma"
    ring.write_text(RING_SOURCE, encoding="utf-8")
    # ring-4 as the ctmc-ring benchmark workload builds it: agents come to
    # share a location, and the listeners in a sender's range change from
    # state to state
    ring4 = ring.with_name("ring4.paloma")
    ring4.write_text(families.ring(4, 0), encoding="utf-8")
    return {"scenario": str(MODELS / "scenario.paloma"),
            "blocking": str(MODELS / "blocking.paloma"),
            "ring": str(ring), "ring4": str(ring4)}


# the hash seed changes set iteration order, which no output may depend on
@pytest.mark.parametrize("hash_seed", ["0", "123"])
@pytest.mark.parametrize("model, argv, code, digest", GOLDEN)
def test_output_matches_golden_digest(golden_models, model, argv, code, digest, hash_seed):
    proc = run_cli(argv[0], golden_models[model], *argv[1:],
                   env={"PYTHONHASHSEED": hash_seed})
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == digest


# each command's call, the bytes a reader takes before it closes stdout, and
# the command's own exit code. The ring-4 chain (over 100 KB) is cut after
# 100 bytes, as `head -c 100` would; every other output is short, and the
# reader closes stdout before the child can write.
OUTPUT_CALLS = {
    "check": (("check", "scenario"), 0, 0),
    "ctmc": (("ctmc", "scenario", "--system", "Scenario1"), 0, 0),
    "ctmc-ring4-tsv": (("ctmc", "ring4", "--system", "Main"), 100, 0),
    "ctmc-ring4-dot": (("ctmc", "ring4", "--system", "Main", "--format", "dot"), 100, 0),
    "rate": (("rate", "scenario", "--system", "Scenario1", "--action", "!!message_move"), 0, 0),
    "bisim-related": (("bisim", "ring4", "--left", "Main", "--right", "Rot"), 0, 0),
    "bisim-not-related": (("bisim", "ring", "--left", "Main", "--right", "Odd"), 0, 1),
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["closed-pipe", "closed-fd", "full"])
@pytest.mark.parametrize("call", OUTPUT_CALLS)
def test_output_into_a_closed_or_full_stdout(golden_models, tmp_path, call, sink,
                                             unbuffered):
    # a reader that closes stdout early is no failure, nor is a stdout closed
    # before the start (`>&-`): the command keeps its own exit code and writes
    # nothing on stderr. A failed write, as on /dev/full, is an input error of
    # one line. No call exits 120 ("Exception ignored" at the final flush) or
    # prints a traceback, buffered or not.
    if sink == "full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    (command, model, *options), read, code = OUTPUT_CALLS[call]
    argv = [sys.executable, "-m", "paloma.cli", command, golden_models[model], *options]
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    err_path = tmp_path / "stderr"
    message = ""
    with open(err_path, "wb") as err:
        if sink == "closed-pipe":
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
            assert len(proc.stdout.read(read)) == read
            proc.stdout.close()
            seen = proc.wait(timeout=60)
        elif sink == "closed-fd":
            seen = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv], stderr=err,
                                  env=env, timeout=60).returncode
        else:
            with open("/dev/full", "wb") as full:
                seen = subprocess.run(argv, stdout=full, stderr=err, env=env,
                                      timeout=60).returncode
            code, message = 2, "error: cannot write stdout: [Errno 28] No space left on device\n"
    assert (seen, err_path.read_text(encoding="utf-8")) == (code, message)


@pytest.mark.parametrize("bound, code, verdict", [
    ("26", 3, "inconclusive"), ("27", 0, "related"),
])
def test_ring_bound_threshold(golden_models, bound, code, verdict):
    # ring-3 Main against Rot pairs all 27 states of either side: a bound of
    # 26 stops the exploration, and 27 lets it finish
    proc = run_cli("bisim", golden_models["ring"], "--left", "Main", "--right", "Rot",
                   "--bound", bound)
    assert proc.returncode == code
    assert proc.stdout.splitlines()[0] == f"verdict: {verdict}"


def test_root_rate_failure_is_definite_within_any_bound(golden_models):
    # every candidate fails a rate condition at the root pair, so no
    # candidate explores and the verdict is definite even with room for one
    # state
    proc = run_cli("bisim", golden_models["ring"], "--left", "Main", "--right", "Odd",
                   "--bound", "1")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[0] == "verdict: not-related"
    candidates = [line for line in lines if line.startswith("  candidate ")]
    assert candidates
    assert all("rate mismatch at pair" in line for line in candidates)
    assert "action tick" in lines[1]


def test_printed_candidates_round_trip_through_fixed_phi(golden_models):
    # each refuted candidate, fed back as its printed matrix and offset,
    # fails with the counterexample printed beside it; the witness printed
    # for a related pair gives the same report
    printed = re.compile(r"(?:  candidate|isometry:) [a-z-]+: linear \[\[(\S+), (\S+)\], "
                         r"\[(\S+), (\S+)\]\], offset \((\S+), (\S+)\)(?:: (.*))?")

    def fixed_phi(argv: tuple, match: re.Match):
        entries = match.groups()[:6]
        return run_cli(*argv, "--mode", "fixed-phi", f"--matrix={','.join(entries[:4])}",
                       f"--offset={','.join(entries[4:])}")

    argv = ("bisim", golden_models["ring"], "--left", "Main", "--right", "Odd")
    lines = run_cli(*argv).stdout.splitlines()
    candidates = [printed.fullmatch(line) for line in lines if line.startswith("  candidate ")]
    assert len(candidates) == 6 and all(candidates)
    for match in candidates:
        fixed = fixed_phi(argv, match)
        assert fixed.returncode == 1
        assert fixed.stdout.splitlines()[1] == f"counterexample: {match.group(7)}"
    argv = ("bisim", golden_models["scenario"], "--left", "Scenario1", "--right", "Scenario2")
    related = run_cli(*argv)
    fixed = fixed_phi(argv, printed.fullmatch(related.stdout.splitlines()[1]))
    assert fixed.returncode == related.returncode == 0
    assert fixed.stdout == related.stdout


# Locations near the largest double: distances between them overflow to
# infinity, and a centroid summed before dividing would too
HUGE_SOURCE = """\
location l0 = (-1e308, 0.0);
location l1 = (1e308, 0.0);
location l2 = (1e308, 1e308);
A(l0) := (tick, 1.0).A(l0);
A(l1) := (tick, 1.0).A(l1);
A(l2) := (tick, 1.0).A(l2);
B(l1) := (tick, 2.0).B(l1);
B(l2) := (tick, 2.0).B(l2);
system Main = A(l0) || A(l1);
system Swap = A(l1) || A(l0);
system Side = A(l1) || A(l2);
system Odd = A(l0) || B(l1);
system All = A(l0) || A(l1) || A(l2);
system AllOdd = A(l0) || A(l1) || B(l2);
"""


@pytest.mark.parametrize("left, right, code, verdict", [
    ("Main", "Swap", 0, "related"), ("All", "All", 0, "related"),
    ("Main", "Side", 1, "not-related"), ("Main", "Odd", 1, "not-related"),
    ("All", "AllOdd", 1, "not-related"),
])
def test_locations_near_the_largest_double_do_not_overflow(tmp_path, left, right, code, verdict):
    path = tmp_path / "huge.paloma"
    path.write_text(HUGE_SOURCE, encoding="utf-8")
    proc = run_cli("bisim", str(path), "--left", left, "--right", right)
    assert proc.returncode == code and proc.stderr == ""
    assert proc.stdout.splitlines()[0] == f"verdict: {verdict}"


def test_long_alias_chain_is_checked_and_derived(tmp_path):
    lines = ["location l0 = (0.0, 0.0);"]
    lines += [f"B{k}(l0) := B{k + 1}(l0);" for k in range(2000)]
    lines += ["B2000(l0) := (t, 1.0).B0(l0);", "system S = B0(l0);"]
    path = tmp_path / "chain.paloma"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = run_cli("check", str(path), timeout=20)
    assert proc.returncode == 0, proc.stdout[:500]
    assert proc.stdout == "ok: 2001 equations, 1 systems\n"
    proc = run_cli("ctmc", str(path), "--system", "S", timeout=20)
    assert proc.returncode == 0, proc.stderr[:500]
    assert proc.stdout == "# states\n0\tB0(l0)\n\n# transitions\n0\t0\t1\t.\tt\n"


@pytest.fixture(scope="module")
def deep_choice_path(tmp_path_factory):
    body = " + ".join(f"(a{k}, 1.0).D(l0)" for k in range(3000))
    path = tmp_path_factory.mktemp("models") / "deep.paloma"
    path.write_text(f"location l0 = (0.0, 0.0);\nD(l0) := {body};\nsystem S = D(l0);\n",
                    encoding="utf-8")
    return str(path)


def deep_choice_expected(path: str, command: str) -> str:
    """The deep choice's output for ``command``; CTMC edges and the exit rate
    come from the brute-force oracle."""
    import oracle
    from paloma.model import render_model
    from paloma.parser import parse_model

    defn = parse_model(Path(path).read_text(encoding="utf-8")).definition
    defs, system = defn.definitions(), defn.systems["S"]
    if command == "check":
        return "ok: 1 equations, 1 systems\n"
    if command == "rate":
        return f"{oracle.exit_rate(defs, '.', 'a0', system, ()):.17g}\n"
    if command == "ctmc":
        states, edges = oracle.explore(defs, system)
        assert len(states) == 1 and len(edges) == 3000
        lines = sorted(f"0\t0\t{rate:.17g}\t{glyph}\t{label}"
                       for (_, (glyph, label, _, _)), rate in edges.items())
        return f"# states\n0\t{render_model(system)}\n\n# transitions\n" + "\n".join(lines) + "\n"
    return ("verdict: related\nisometry: identity: linear [[1, 0], [0, 1]], offset (0, 0)\n"
            "relation:\n  D(l0)  ~  D(l0)\n")


@pytest.mark.parametrize("argv", [
    ("check",),
    ("ctmc", "--system", "S"),
    ("rate", "--system", "S", "--action", "a0"),
    ("bisim", "--left", "S", "--right", "S"),
], ids=lambda argv: argv[0])
def test_deep_choice_is_analysed(deep_choice_path, argv):
    # a 3,000-way choice: terms hash in constant time and nothing recurses
    # over a choice tree, so every command analyses it
    proc = run_cli(argv[0], deep_choice_path, *argv[1:], timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stderr == ""
    assert proc.stdout == deep_choice_expected(deep_choice_path, argv[0])


SELF_LISTENING_SOURCE = """\
location l0 = (0.0, 0.0);
A(l0) := !!(m, 1.0)@Ir{all}.A(l0) + ??(m, 1.0)@Wt{1.0}.A(l0);
B(l0) := (tick, 1.0).B(l0);
system SA = A(l0);
system SB = B(l0);
system BA = B(l0) || A(l0);
system AA = A(l0) || A(l0);
"""


@pytest.fixture(scope="module")
def self_listening_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "self.paloma"
    path.write_text(SELF_LISTENING_SOURCE, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv,stdout", [
    # A listens on its own unicast label, but never receives its own message:
    # next to B, which does not listen, it is blocked in both layers
    (("rate", "--system", "SA", "--context", "SB", "--action", "!!m"), "0\n"),
    (("ctmc", "--system", "BA"), "# states\n0\tB(l0) || A(l0)\n\n"
                                 "# transitions\n0\t0\t1\t.\ttick\n"),
    # two such senders deliver all of their rate to each other
    (("rate", "--system", "AA", "--action", "!!m"), "2\n"),
    (("rate", "--system", "AA", "--action", "??m"), "2\n"),
    (("ctmc", "--system", "AA"), "# states\n0\tA(l0) || A(l0)\n\n"
                                 "# transitions\n0\t0\t2\t!!\tm\n"),
])
def test_sender_is_not_in_its_own_receiver_pool(self_listening_path, argv, stdout):
    proc = run_cli(argv[0], self_listening_path, *argv[1:])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout


def test_rate_call_resolves_each_equation_once(tmp_path, monkeypatch, capsys):
    # validate fills one Definitions and the query reuses it: none of
    # wide-150's 151 equations holds a bare constant reference, so each is
    # its own unfolding, and neither validate nor interning the agents
    # unfolds one again: every real unfolding reads its equation through
    # lookup
    from paloma import cli
    from paloma.model import Definitions

    path = tmp_path / "wide-150.paloma"
    path.write_text(families.wide(150, 1), encoding="utf-8")
    calls = []
    lookup = Definitions.lookup

    def counting(self, ref):
        calls.append(ref)
        return lookup(self, ref)

    monkeypatch.setattr(Definitions, "lookup", counting)
    for argv in (("--system", "Main", "--action", "??msg"),
                 ("--system", "Probe", "--context", "Main", "--action", "??msg")):
        calls.clear()
        assert cli.main(["rate", str(path), *argv]) == 0
        assert len(calls) == 0
    assert capsys.readouterr().out == "89.999999999999858\n0.71999999999999997\n"


@pytest.mark.parametrize("argv, layers", [
    (("ctmc", "--system", "Scenario1"), {"semantics.build_ctmc", "semantics.export_tsv"}),
    (("rate", "--system", "Scenario1", "--action", "??message_move"), {"rates.exit_rate"}),
    (("bisim", "--left", "Scenario1", "--right", "Scenario2"), {"equivalence.bisimilar"}),
], ids=["ctmc", "rate", "bisim"])
def test_traced_cli_records_a_span_per_layer(scenario_path, tmp_path, argv, layers):
    # perfbench/tracing.py rebinds the CLI's calls into the layers on
    # paloma.cli, so every command must call what is bound there
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(MODELS.parent / "perfbench" / "tracing.py"), str(spans), "0", "--",
         argv[0], scenario_path, *argv[1:]],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(MODELS.parent / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(argv[0], scenario_path, *argv[1:]).stdout
    names = {span["name"] for span in json.loads(spans.read_text(encoding="utf-8"))}
    assert {"cli.main", "parser.parse_model", "parser.validate"} | layers <= names


def _argparse_reading(argv: list[str]):
    """``build_arg_parser().parse_args(argv)``, or ``None`` where it exits."""
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_arg_parser().parse_args(argv)
        except SystemExit:
            return None


_OPTION_NAMES = sorted({name for _, _, options in cli._COMMANDS.values()
                        for name, *_ in options})
_VALUES = ["m", "S", "", "-1", "0", "5", "0x5", "٣", " 7", "1_0", "tsv", "dot", "xml",
           "naive", "fixed-phi", "isometry", "a=b"]
_OPTIONS = st.sampled_from(_OPTION_NAMES) | st.sampled_from(_OPTION_NAMES).flatmap(
    lambda name: st.sampled_from([name[:k] for k in range(3, len(name))]))  # abbreviated
_PIECES = st.one_of(
    st.tuples(_OPTIONS, st.sampled_from(_VALUES)),
    st.builds(lambda name, value: (f"{name}={value}",), _OPTIONS, st.sampled_from(_VALUES)),
    st.sampled_from(["-h", "--help", "--", "--bogus", *_VALUES]).map(lambda token: (token,)))


@st.composite
def _argvs(draw) -> list[str]:
    """A command, its model and required options, plus a few drawn pieces,
    shuffled, and sometimes without the first of them."""
    command = draw(st.sampled_from([*cli._COMMANDS] * 3 + ["chec", "-h", "--"]))
    options = cli._COMMANDS[command][2] if command in cli._COMMANDS else ()
    own = st.tuples(st.sampled_from([name for name, *_ in options] or ["--out"]),
                    st.sampled_from(_VALUES))
    pieces = [("m",), *((name, "S") for name, _, required, _, _ in options if required),
              *draw(st.lists(own | own | _PIECES, max_size=3))]
    pieces = draw(st.permutations(pieces))[draw(st.sampled_from([0, 0, 0, 1])):]
    return [command, *(token for piece in pieces for token in piece)]


@settings(max_examples=400, deadline=None)
@given(_argvs())
@example(["rate", "m", "--loc", "a", "--system", "S", "--loc", "b", "--action", "t"])
@example(["ctmc", "--bound", "5", "m", "--system", "S", "--bound", "٣", "--format", "dot"])
@example(["bisim", "m", "--left", "S", "--right", "S", "--o", "x"])  # --offset or --out
def test_the_option_table_reader_agrees_with_argparse(argv):
    # main reads argv off the option table where it can, else through
    # argparse: the reader declines every argv that argparse rejects, and
    # any namespace it returns is the one argparse would give
    read, parsed = cli._read_argv(argv), _argparse_reading(argv)
    if parsed is None:
        assert read is None
    elif read is not None:
        assert vars(read) == vars(parsed)


@pytest.mark.parametrize("argv", [
    ["check", ""],
    ["ctmc", "m", "--system", "S", "--bound", " 7", "--format", "dot", "--system", "T"],
    ["rate", "--system", "S", "m", "--action", "!!a", "--loc", "x", "--loc", "x"],
    ["bisim", "m", "--left", "L", "--right", "R", "--mode", "fixed-phi", "--matrix", "1,0,0,1",
     "--offset", "0,0", "--context", "C", "--bound", "1_0", "--out", "o"],
], ids=["check", "ctmc", "rate", "bisim"])
def test_the_option_table_reader_reads_the_usual_form(argv):
    read = cli._read_argv(argv)
    assert read is not None and vars(read) == vars(_argparse_reading(argv))


# A written before location l1 broadcasts to l0 alone; D, written after it,
# to both. B at l1 hears D, never A.
ALL_ORDER_SOURCE = """
location l0 = (0.0, 0.0);
A(l0) := !(m, {rate})@Ir{{all}}.A(l0);
location l1 = (1.0, 0.0);
B(l1) := ?(m, 1.0)@Prob{{1.0}}.C(l1) + ?(n, 1.0)@Prob{{1.0}}.C(l1);
C(l1) := (t, 1.0).C(l1);
D(l0) := !(n, 1.0)@Ir{{all}}.D(l0);
system Early = A(l0) || B(l1);
system Late = D(l0) || B(l1);
"""


def test_all_ranges_over_the_locations_declared_before_it(tmp_path):
    # the same rule through the reader, with A's rate written 1.0 and 1e+0,
    # and the ctmc command
    from paloma.parser import _read, parse_model, pretty_print

    plain, exponent = ALL_ORDER_SOURCE.format(rate="1.0"), ALL_ORDER_SOURCE.format(rate="1e+0")
    assert _read(plain) is not None and _read(exponent) == _read(plain)
    for source in (plain, exponent):
        result = parse_model(source)
        assert result.ok and result.diagnostics == []
        defn = result.definition
        l0, l1 = defn.locations["l0"], defn.locations["l1"]
        assert defn.equations["A", "l0"].body.prefix.influence == {l0}
        assert defn.equations["D", "l0"].body.prefix.influence == {l0, l1}
        printed = pretty_print(defn)
        assert "A(l0) := !(m, 1.0)@Ir{l0}.A(l0);" in printed
        assert "D(l0) := !(n, 1.0)@Ir{all}.D(l0);" in printed
        path = tmp_path / "all-order.paloma"
        path.write_text(source, encoding="utf-8")
        for system, states in (("Early", ["A(l0) || B(l1)"]),
                               ("Late", ["D(l0) || B(l1)", "D(l0) || C(l1)"])):
            out = run_cli("ctmc", str(path), "--system", system)
            assert out.returncode == 0, out.stderr
            listed = out.stdout.split("\n\n")[0].splitlines()[1:]
            assert listed == [f"{n}\t{term}" for n, term in enumerate(states)]
