from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import BLOCKING_SOURCE, SCENARIO_P, SCENARIO_R, SCENARIO_SOURCE

NAIVE_SOURCE = """
location l0 = (0.0, 0.0);
location l1 = (3.0, 0.0);
W(l0) := (tick, 1.0).W(l0);
W(l1) := (tick, 1.0).W(l1);
system A = W(l0);
system B = W(l1);
"""


def run_cli(*argv: str, env: dict[str, str] | None = None):
    full_env = dict(os.environ)
    full_env.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "paloma.cli", *argv],
        capture_output=True, text=True, env=full_env)


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


def test_ctmc_bound_exceeded_suppresses_output(scenario_path):
    proc = run_cli("ctmc", scenario_path, "--system", "Scenario1", "--bound", "2")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "bound" in proc.stderr


def test_ctmc_env_bound_applies(scenario_path):
    proc = run_cli("ctmc", scenario_path, "--system", "Scenario1",
                   env={"PALOMA_BOUND": "2"})
    assert proc.returncode == 3


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


def test_bisim_rejects_non_orthogonal_matrix(scenario_path):
    proc = run_cli("bisim", scenario_path, "--left", "Scenario1",
                   "--right", "Scenario2", "--mode", "fixed-phi",
                   "--matrix", "2,0,0,1", "--offset", "0,0")
    assert proc.returncode == 2
    assert "not an isometry" in proc.stderr


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
