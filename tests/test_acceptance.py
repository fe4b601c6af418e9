"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager

from paloma.ctmc import build_ctmc, export_dot, export_tsv
from paloma.geometry import compose, invert
from paloma.model import (
    ActionId,
    ActionType,
    Choice,
    EMPTY,
    SeqComponent,
    constant,
)
from paloma.rates import (
    RateQuery,
    exit_rate,
    receive_weight,
    unicast_influence,
    unicast_out_rate,
    unicast_receive_prob,
)
from paloma.semantics import derivations
from conftest import BLOCKING_SOURCE, SCENARIO_P, SCENARIO_R, SCENARIO_SOURCE, load
from oracle import random_model
from test_cli import run_cli
from test_geometry import random_isometry
from test_rates import competition_model
from test_semantics import assert_matches_oracle

from paloma.parser import parse_model, pretty_print


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s")
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_syntactic_rate_golden_examples():
    with criterion(1, "syntactic rates match the worked example exactly", 1.0):
        for seed in range(20):
            rng = random.Random(1000 + seed)
            r = rng.uniform(0.001, 50.0)
            w1 = rng.uniform(0.001, 50.0)
            w2 = rng.uniform(0.001, 50.0)
            source = f"""
            location l0 = (0.0, 0.0);
            location l1 = (1.0, 0.0);
            location l2 = (2.0, 0.0);
            Tester(l0) := (message, {r!r}).Tester(l0);
            Transmitter(l0) := !!(message, {r!r})@Ir{{l1, l2}}.Transmitter(l0);
            Receiver1(l1) := ??(message, 0.5)@Wt{{{w1!r}}}.Receiver1(l1);
            Receiver2(l2) := ??(message, 0.25)@Wt{{{w2!r}}}.Receiver2(l2);
            system Sys = Transmitter(l0) || Receiver1(l1) || Receiver2(l2);
            """
            defn = load(source)
            defs = defn.definitions()
            l0, l1 = defs.locations["l0"], defs.locations["l1"]
            mixed = SeqComponent(
                Choice(constant("Tester", l0), constant("Transmitter", l0)), l0)
            assert unicast_out_rate(defs, mixed, "message") == r
            assert unicast_out_rate(defs, constant("Receiver1", l1), "message") == 0.0
            assert receive_weight(defs, defn.systems["Sys"], "message") == w1 + w2


def test_criterion_2_context_aware_rate_golden_examples(scenario):
    with criterion(2, "context-aware exit rates match the mirrored scenario", 1.0):
        defs = scenario.definitions()
        l0, l1 = defs.locations["l0"], defs.locations["l1"]
        sc1 = scenario.systems["Scenario1"]
        sc2 = scenario.systems["Scenario2"]
        out = ActionId.parse("!!message_move")
        inp = ActionId.parse("??message_move")

        def check(value: float, expected: float) -> None:
            assert math.isclose(value, expected, rel_tol=1e-9, abs_tol=0.0)

        check(exit_rate(defs, RateQuery(out, sc1, EMPTY, frozenset({l0}))), SCENARIO_R)
        check(exit_rate(defs, RateQuery(inp, sc1, EMPTY, frozenset({l1}))),
              SCENARIO_R * SCENARIO_P)
        # the reflection maps l0 to l1 and back; image queries on the
        # mirrored system return the same values
        check(exit_rate(defs, RateQuery(out, sc2, EMPTY, frozenset({l1}))), SCENARIO_R)
        check(exit_rate(defs, RateQuery(inp, sc2, EMPTY, frozenset({l0}))),
              SCENARIO_R * SCENARIO_P)


def test_criterion_3_ctmc_matches_independent_oracle(scenario):
    with criterion(3, "engine CTMC equals the brute-force oracle on 50 random "
                      "models plus the scenario", 30.0):
        assert_matches_oracle(scenario, "Scenario1")
        for seed in range(50):
            defn = random_model(random.Random(20_000 + seed),
                                max_agents=3, n_locations=2, n_labels=2)
            assert_matches_oracle(defn)


def test_criterion_4_bisimilarity_verdicts(tmp_path):
    with criterion(4, "bisimilarity verdicts reproduce the worked examples", 5.0):
        scenario_path = tmp_path / "scenario.paloma"
        scenario_path.write_text(SCENARIO_SOURCE, encoding="utf-8")
        blocking_path = tmp_path / "blocking.paloma"
        blocking_path.write_text(BLOCKING_SOURCE, encoding="utf-8")

        mirrored = run_cli("bisim", str(scenario_path), "--left", "Scenario1",
                           "--right", "Scenario2", "--context", "empty")
        assert mirrored.returncode == 0
        assert "verdict: related" in mirrored.stdout
        assert "reflection" in mirrored.stdout

        silent = run_cli("bisim", str(blocking_path), "--left", "T", "--right", "R",
                         "--context", "empty")
        assert silent.returncode == 0
        assert "verdict: related" in silent.stdout

        separated = run_cli("bisim", str(blocking_path), "--left", "T",
                            "--right", "R", "--context", "T")
        assert separated.returncode == 1
        assert "verdict: not-related" in separated.stdout
        assert "!!message" in separated.stdout


def test_criterion_5_property_suite():
    with criterion(5, "rule-level property suites hold on random models", 60.0):
        _property_capability_mass()
        _property_unicast_sender_rate()
        _property_broadcast_sender_rate()
        _property_exit_rate_additivity()
        _property_receive_prob_normalization()
        _property_isometry_group_laws()
        _property_rates_consistent_with_ctmc()


def _property_capability_mass():
    from paloma.semantics import CapLabel, cap_step

    checked = 0
    for seed in range(300):
        defn = random_model(random.Random(30_000 + seed))
        defs = defn.definitions()
        system = defn.systems["Main"]
        all_locs = frozenset(defs.locations.values())
        for label_name in ("m0", "m1"):
            offer = CapLabel(ActionType.BROADCAST_IN, label_name, all_locs, system)
            for agent in system:
                cont = cap_step(defs, agent, offer)
                if cont is not None:
                    assert math.isclose(cont.total(), 1.0, rel_tol=1e-9)
                    checked += 1
            offer = CapLabel(ActionType.UNICAST_IN, label_name, all_locs, system)
            cont = cap_step(defs, system, offer)
            if cont is not None:
                assert math.isclose(cont.total(), 1.0, rel_tol=1e-9)
                checked += 1
    assert checked >= 200, checked


def _property_unicast_sender_rate():
    from paloma.model import UnicastOut, choice_leaves

    checked = 0
    for seed in range(700):
        defn = random_model(random.Random(40_000 + seed))
        defs = defn.definitions()
        system = defn.systems["Main"]
        fired: dict[tuple, float] = {}
        for d in derivations(defs, system):
            if d.label.kind is ActionType.UNICAST_OUT:
                key = (d.sender, d.label.label, d.label.influence)
                fired[key] = fired.get(key, 0.0) + sum(s.rate for s in d.steps)
        expected: dict[tuple, float] = {}
        for i, agent in enumerate(system):
            for leaf in choice_leaves(defs, agent):
                prefix = leaf.prefix
                if not isinstance(prefix, UnicastOut):
                    continue
                pool = sum(receive_weight(defs, other, prefix.label)
                           for j, other in enumerate(system)
                           if j != i and other.location in prefix.influence)
                key = (i, prefix.label, prefix.influence)
                if pool > 0.0:
                    expected[key] = expected.get(key, 0.0) + prefix.rate
                else:
                    expected.setdefault(key, 0.0)
        for key, want in expected.items():
            got = fired.get(key, 0.0)
            if want > 0.0:
                assert math.isclose(got, want, rel_tol=1e-9)
            else:
                assert got == 0.0
            checked += 1
    assert checked >= 200, checked


def _property_broadcast_sender_rate():
    from paloma.model import BroadcastOut, choice_leaves

    checked = 0
    for seed in range(700):
        defn = random_model(random.Random(50_000 + seed))
        defs = defn.definitions()
        system = defn.systems["Main"]
        fired: dict[tuple, float] = {}
        for d in derivations(defs, system):
            if d.label.kind is ActionType.BROADCAST_OUT:
                key = (d.sender, d.label.label, d.label.influence)
                fired[key] = fired.get(key, 0.0) + sum(s.rate for s in d.steps)
        for i, agent in enumerate(system):
            for leaf in choice_leaves(defs, agent):
                prefix = leaf.prefix
                if isinstance(prefix, BroadcastOut):
                    key = (i, prefix.label, prefix.influence)
                    want = sum(l.prefix.rate for l in choice_leaves(defs, agent)
                               if isinstance(l.prefix, BroadcastOut)
                               and l.prefix.label == prefix.label
                               and l.prefix.influence == prefix.influence)
                    assert math.isclose(fired[key], want, rel_tol=1e-9)
                    checked += 1
    assert checked >= 200, checked


def _property_exit_rate_additivity():
    checked = 0
    rng = random.Random(77)
    for seed in range(150):
        defn = random_model(random.Random(60_000 + seed))
        defs = defn.definitions()
        system = defn.systems["Main"]
        locs = sorted(defs.locations.values(), key=lambda l: l.name)
        if len(locs) < 2:
            continue
        half = rng.randint(1, len(locs) - 1)
        part1, part2 = frozenset(locs[:half]), frozenset(locs[half:])
        for label in ("m0", "m1"):
            for glyph in ("", "!", "?", "!!", "??"):
                action = ActionId.parse(glyph + label)
                union = exit_rate(defs, RateQuery(action, system, EMPTY, part1 | part2))
                split = (exit_rate(defs, RateQuery(action, system, EMPTY, part1))
                         + exit_rate(defs, RateQuery(action, system, EMPTY, part2)))
                assert math.isclose(union, split, rel_tol=1e-9, abs_tol=1e-12)
                checked += 1
    assert checked >= 200, checked


def _property_receive_prob_normalization():
    checked = 0
    for seed in range(400):
        rng = random.Random(70_000 + seed)
        result = parse_model(competition_model(rng))
        assert result.ok
        defn = result.definition
        defs = defn.definitions()
        system = defn.systems["Main"]
        sender = system[0]
        influence = unicast_influence(defs, sender, "m")
        eligible = [j for j, part in enumerate(system[1:], start=1)
                    if part.location in influence
                    and receive_weight(defs, part, "m") > 0.0]
        if not eligible:
            continue
        total = sum(
            unicast_receive_prob(
                defs, system[j],
                tuple(p for k, p in enumerate(system) if k != j), sender, "m")
            for j in eligible)
        assert math.isclose(total, 1.0, rel_tol=1e-9)
        checked += 1
    assert checked >= 200, checked


def _property_isometry_group_laws():
    rng = random.Random(4242)
    for _ in range(250):
        phi1 = random_isometry(rng)
        phi2 = random_isometry(rng)
        point = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        other = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        composed = compose(phi1, phi2)
        assert math.dist(composed.apply(point), phi1.apply(phi2.apply(point))) <= 1e-9
        assert compose(phi1, invert(phi1)).is_identity(1e-9)
        assert math.isclose(math.dist(phi1.apply(point), phi1.apply(other)),
                            math.dist(point, other), rel_tol=1e-9, abs_tol=1e-9)


def _attributed_ctmc_rate(defs, state, action, loc) -> float:
    """CTMC outgoing rate of ``state`` attributable to ``action`` at ``loc``."""
    total = 0.0
    out_kinds = {ActionType.SPONTANEOUS, ActionType.BROADCAST_OUT,
                 ActionType.UNICAST_OUT}
    for d in derivations(defs, state):
        if d.label.label != action.label:
            continue
        if action.act_type in out_kinds:
            if d.label.kind is action.act_type and state[d.sender].location == loc:
                total += sum(s.rate for s in d.steps)
        elif action.act_type is ActionType.BROADCAST_IN:
            if d.label.kind is ActionType.BROADCAST_OUT:
                for s in d.steps:
                    hits = sum(1 for j in s.received if state[j].location == loc)
                    total += s.rate * hits
        else:
            if d.label.kind is ActionType.UNICAST_OUT:
                for s in d.steps:
                    hits = sum(1 for j in s.received if state[j].location == loc)
                    total += s.rate * hits
    return total


def _property_rates_consistent_with_ctmc():
    from paloma.ctmc import BoundExceeded

    models_checked = 0
    seed = 0
    while models_checked < 200 and seed < 3000:
        seed += 1
        defn = random_model(random.Random(80_000 + seed),
                            max_agents=2, n_constants=2)
        defs = defn.definitions()
        try:
            ctmc = build_ctmc(defs, defn.systems["Main"], bound=6)
        except BoundExceeded:
            continue
        locs = sorted(defs.locations.values(), key=lambda l: l.name)
        for state in ctmc.states:
            for label in ("m0", "m1"):
                for glyph in ("", "!", "?", "!!", "??"):
                    action = ActionId.parse(glyph + label)
                    for loc in locs:
                        syntactic = exit_rate(defs, RateQuery(
                            action, state, EMPTY, frozenset({loc})))
                        operational = _attributed_ctmc_rate(defs, state, action, loc)
                        assert math.isclose(syntactic, operational,
                                            rel_tol=1e-9, abs_tol=1e-12), (
                            seed, glyph + label, loc.name, syntactic, operational)
        models_checked += 1
    assert models_checked >= 200, models_checked


def test_criterion_6_determinism(tmp_path):
    with criterion(6, "repeated runs produce byte-identical exports and reports",
                   30.0):
        scenario_path = tmp_path / "scenario.paloma"
        scenario_path.write_text(SCENARIO_SOURCE, encoding="utf-8")
        blocking_path = tmp_path / "blocking.paloma"
        blocking_path.write_text(BLOCKING_SOURCE, encoding="utf-8")

        def full_run(hash_seed: str) -> list[str]:
            env = {"PYTHONHASHSEED": hash_seed}
            outputs = []
            for fmt in ("tsv", "dot"):
                proc = run_cli("ctmc", str(scenario_path), "--system", "Scenario1",
                               "--format", fmt, env=env)
                assert proc.returncode == 0
                outputs.append(proc.stdout)
            for left, right, ctx in (("Scenario1", "Scenario2", "empty"),):
                proc = run_cli("bisim", str(scenario_path), "--left", left,
                               "--right", right, "--context", ctx, env=env)
                outputs.append(proc.stdout)
            proc = run_cli("bisim", str(blocking_path), "--left", "T",
                           "--right", "R", "--context", "T", env=env)
            assert proc.returncode == 1
            outputs.append(proc.stdout)
            return outputs

        first = full_run("0")
        second = full_run("98765")
        assert first == second
        assert all(first)

        # in-process regeneration is stable as well
        defn1 = load(SCENARIO_SOURCE)
        defn2 = load(SCENARIO_SOURCE)
        a = build_ctmc(defn1.definitions(), defn1.systems["Scenario1"], 100)
        b = build_ctmc(defn2.definitions(), defn2.systems["Scenario1"], 100)
        assert export_tsv(a) == export_tsv(b)
        assert export_dot(a) == export_dot(b)
        assert pretty_print(defn1) == pretty_print(defn2)
