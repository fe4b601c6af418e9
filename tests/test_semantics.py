from __future__ import annotations

import io
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from paloma.ctmc import BoundExceeded, Ctmc, build_ctmc, export_dot, export_tsv
from paloma.model import (
    ActionId,
    ActionType,
    EMPTY,
    ModelError,
    canonical,
    constant,
    render_model,
    struct_equiv,
)
from paloma.semantics import (
    CapLabel,
    Continuation,
    StochLabel,
    agent_steps,
    cap_step,
    component_steps,
    derivations,
    stoch_step,
)
from conftest import SCENARIO_P, SCENARIO_R, load
from oracle import explore, random_model

A = ActionId.parse


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


BROADCAST_SOURCE = """
location l0 = (0.0, 0.0);
location l1 = (1.0, 0.0);
location l2 = (2.0, 0.0);
B(l0) := !(ping, 2.0)@Ir{l1, l2}.B(l0);
L(l1) := ?(ping, 0.5)@Prob{0.4}.Done(l1);
Done(l1) := (idle, 1.0).Done(l1);
M(l2) := ?(ping, 0.9)@Prob{1.0}.Done2(l2);
Done2(l2) := (idle, 1.0).Done2(l2);
system Main = B(l0) || L(l1) || M(l2);
system Lone = B(l0);
"""


def test_cap_step_broadcast_in_masses():
    defn = load(BROADCAST_SOURCE)
    defs = defn.definitions()
    l1 = defs.locations["l1"]
    listener = constant("L", l1)
    label = CapLabel(ActionType.BROADCAST_IN, "ping",
                     frozenset({l1}), (listener,))
    cont = cap_step(defs, listener, label)
    assert cont is not None and len(cont) == 2
    assert close(cont.value_at((constant("Done", l1),)), 0.5 * 0.4)
    assert close(cont.value_at((listener,)), 1.0 - 0.5 * 0.4)
    assert close(cont.total(), 1.0)


def test_cap_step_unicast_in_masses(scenario):
    defs = scenario.definitions()
    sc1 = scenario.systems["Scenario1"]
    receiver = sc1[1]
    label = CapLabel(ActionType.UNICAST_IN, "message_move",
                     frozenset(defs.locations.values()), sc1)
    cont = cap_step(defs, receiver, label)
    assert cont is not None
    # sole listener: the whole pool weight is its own
    succ = constant("Receiver", defs.locations["l0"])
    assert close(cont.value_at((succ,)), SCENARIO_P)
    assert close(cont.value_at((receiver,)), 1.0 - SCENARIO_P)


def test_cap_step_out_of_range_is_absent():
    defn = load(BROADCAST_SOURCE)
    defs = defn.definitions()
    l1, l2 = defs.locations["l1"], defs.locations["l2"]
    listener = constant("L", l1)
    label = CapLabel(ActionType.BROADCAST_IN, "ping", frozenset({l2}), (listener,))
    assert cap_step(defs, listener, label) is None


def test_cap_step_without_matching_prefix_is_absent(scenario):
    defs = scenario.definitions()
    t = scenario.systems["Scenario1"][0]
    label = CapLabel(ActionType.UNICAST_IN, "message_move",
                     frozenset(defs.locations.values()), scenario.systems["Scenario1"])
    assert cap_step(defs, t, label) is None


def test_cap_step_composed_broadcast_is_a_product():
    defn = load(BROADCAST_SOURCE)
    defs = defn.definitions()
    main = defn.systems["Main"]
    all_locs = frozenset(defs.locations.values())
    label = CapLabel(ActionType.BROADCAST_IN, "ping", all_locs, main)
    pair = main[1:]
    cont = cap_step(defs, pair, label)
    assert cont is not None and len(cont) == 4
    pq1, pq2 = 0.5 * 0.4, 0.9 * 1.0
    l1, l2 = defs.locations["l1"], defs.locations["l2"]
    both = (constant("Done", l1), constant("Done2", l2))
    assert close(cont.value_at(both), pq1 * pq2)
    assert close(cont.value_at(pair), (1 - pq1) * (1 - pq2))
    assert close(cont.total(), 1.0)


def test_cap_step_composed_unicast_moves_one_side(scenario):
    defs = scenario.definitions()
    l0, l1 = defs.locations["l0"], defs.locations["l1"]
    pair = (constant("Receiver", l0), constant("Receiver", l1))
    label = CapLabel(ActionType.UNICAST_IN, "message_move",
                     frozenset({l0, l1}), pair)
    cont = cap_step(defs, pair, label)
    assert cont is not None
    assert close(cont.total(), 1.0)
    for state in cont.support():
        changed = sum(1 for a, b in zip(state, pair)
                      if not struct_equiv(defs, a, b))
        assert changed <= 1


def test_stoch_step_scenario_outcomes(scenario):
    defs = scenario.definitions()
    sc1 = scenario.systems["Scenario1"]
    steps = stoch_step(defs, sc1)
    assert len(steps) == 1
    label, cont = steps[0]
    assert label.kind is ActionType.UNICAST_OUT
    assert label.label == "message_move"
    assert label.context == sc1
    l0, l1 = defs.locations["l0"], defs.locations["l1"]
    moved_both = (constant("Transmitter", l1), constant("Receiver", l0))
    moved_sender = (constant("Transmitter", l1), constant("Receiver", l1))
    assert close(cont.value_at(moved_both), SCENARIO_R * SCENARIO_P)
    assert close(cont.value_at(moved_sender), SCENARIO_R * (1 - SCENARIO_P))
    assert close(cont.total(), SCENARIO_R)


def test_stoch_step_lone_broadcaster_fires():
    defn = load(BROADCAST_SOURCE)
    defs = defn.definitions()
    lone = defn.systems["Lone"]
    steps = stoch_step(defs, lone)
    assert len(steps) == 1
    label, cont = steps[0]
    assert label.kind is ActionType.BROADCAST_OUT
    assert close(cont.value_at(lone), 2.0)  # self-loop at full rate


def test_stoch_step_blocked_unicast_is_empty(blocking):
    defs = blocking.definitions()
    assert stoch_step(defs, blocking.systems["T"]) == []


def test_build_ctmc_scenario_is_the_frozen_four_state_chain(scenario):
    defs = scenario.definitions()
    sc1 = scenario.systems["Scenario1"]
    ctmc = build_ctmc(defs, sc1, bound=100)
    assert len(ctmc.states) == 4
    texts = [render_model(s) for s in ctmc.states]
    assert texts == [
        "Transmitter(l0) || Receiver(l1)",
        "Transmitter(l1) || Receiver(l0)",
        "Transmitter(l1) || Receiver(l1)",
        "Transmitter(l0) || Receiver(l0)",
    ]
    rp = SCENARIO_R * SCENARIO_P
    rq = SCENARIO_R * (1 - SCENARIO_P)
    got = {(t.source, t.target): t.rate for t in ctmc.transitions}
    expected = {
        (0, 1): rp, (0, 2): rq,
        (1, 0): rp, (1, 3): rq,
        (2, 3): rp, (2, 0): rq,
        (3, 2): rp, (3, 1): rq,
    }
    assert got.keys() == expected.keys()
    for edge, rate in expected.items():
        assert close(got[edge], rate)
    assert all(t.kind is ActionType.UNICAST_OUT for t in ctmc.transitions)


def test_build_ctmc_blocked_transmitter(blocking):
    defs = blocking.definitions()
    ctmc = build_ctmc(defs, blocking.systems["T"], bound=10)
    assert len(ctmc.states) == 1
    assert ctmc.transitions == []


def test_build_ctmc_spontaneous_self_loop():
    source = """
    location l0 = (0.0, 0.0);
    X(l0) := (tick, 0.5).X(l0);
    system Main = X(l0);
    """
    defn = load(source)
    defs = defn.definitions()
    ctmc = build_ctmc(defs, defn.systems["Main"], bound=10)
    assert len(ctmc.states) == 1
    (t,) = ctmc.transitions
    assert (t.source, t.target, t.rate) == (0, 0, 0.5)
    assert t.kind is ActionType.SPONTANEOUS


def test_build_ctmc_bound_exceeded(scenario):
    defs = scenario.definitions()
    with pytest.raises(BoundExceeded) as info:
        build_ctmc(defs, scenario.systems["Scenario1"], bound=2)
    assert info.value.discovered == 3


def test_agent_steps_scenario(scenario):
    defs = scenario.definitions()
    sc1 = scenario.systems["Scenario1"]
    l0, l1 = defs.locations["l0"], defs.locations["l1"]
    receiver_steps = agent_steps(defs, sc1, 1)
    assert {(a.text, render_model((s,))) for a, s in receiver_steps} == {
        ("??message_move", "Receiver(l0)")}
    transmitter_steps = agent_steps(defs, sc1, 0)
    assert {(a.text, render_model((s,))) for a, s in transmitter_steps} == {
        ("!!message_move", "Transmitter(l1)")}


def test_agent_steps_blocked_transmitter(blocking):
    defs = blocking.definitions()
    assert agent_steps(defs, blocking.systems["T"], 0) == set()
    with pytest.raises(ModelError):
        agent_steps(defs, blocking.systems["T"], 1)


def test_component_steps_roles(blocking):
    defs = blocking.definitions()
    t = blocking.systems["T"]
    r = blocking.systems["R"]
    # subject receiver inside a transmitter context: it can only receive
    steps = component_steps(defs, t, r)
    assert {s.action.text for s in steps} == {"??message"}
    assert {s.label_text for s in steps} == {"!!message"}
    # subject transmitter in the same context: with no receiver, no steps
    assert component_steps(defs, t, t) == set()
    # sender and receiver both inside the subject: both roles observed
    pair = blocking.systems["Pair"]
    both = component_steps(defs, EMPTY, pair)
    assert {s.action.text for s in both} == {"!!message", "??message"}


def test_labels_and_continuations_refuse_what_they_cannot_hold(scenario):
    defs = scenario.definitions()
    everywhere = defs.all_locations()
    system = scenario.systems["Scenario1"]
    with pytest.raises(ModelError, match="input-typed"):
        CapLabel(ActionType.UNICAST_OUT, "message_move", everywhere, system)
    with pytest.raises(ModelError, match="empty range"):
        StochLabel(ActionType.SPONTANEOUS, "tick", everywhere, system)
    sent = StochLabel(ActionType.UNICAST_OUT, "message_move", everywhere, system)
    assert sent.text == "!!message_move"
    assert StochLabel(ActionType.SPONTANEOUS, "tick", frozenset(), system).text == "tick"
    # a continuation keeps positive values only
    empty = Continuation(defs, [(system, 0.0), (system, -1.0)])
    assert len(empty) == 0 and empty.value_at(system) == 0.0


def test_a_chain_needs_a_bound_of_one_and_equals_only_chains(scenario):
    defs = scenario.definitions()
    with pytest.raises(ModelError, match="at least 1"):
        build_ctmc(defs, scenario.systems["Scenario1"], bound=0)
    chain = build_ctmc(defs, scenario.systems["Scenario1"], bound=10)
    assert chain.__eq__(object()) is NotImplemented
    assert chain != object() and chain == build_ctmc(defs, scenario.systems["Scenario1"], 10)


# -- engine vs oracle --------------------------------------------------------


def engine_edge_map(defs, ctmc: Ctmc):
    edges = {}
    for t in ctmc.transitions:
        key = (canonical(defs, ctmc.states[t.source]), t.kind.glyph, t.label,
               tuple(sorted(l.name for l in t.influence)),
               canonical(defs, ctmc.states[t.target]))
        edges[key] = edges.get(key, 0.0) + t.rate
    return edges


def oracle_edge_map(defs, initial):
    states, edges = explore(defs, initial)
    remapped = {}
    for (src, (kind, label, range_key, dst)), rate in edges.items():
        remapped[(src, kind, label, range_key, dst)] = rate
    return set(states), remapped


def assert_matches_oracle(defn, system_name="Main"):
    defs = defn.definitions()
    initial = defn.systems[system_name]
    ctmc = build_ctmc(defs, initial, bound=2000)
    oracle_states, oracle_edges = oracle_edge_map(defs, initial)
    engine_states = {canonical(defs, s) for s in ctmc.states}
    assert engine_states == oracle_states
    engine_edges = engine_edge_map(defs, ctmc)
    assert engine_edges.keys() == oracle_edges.keys()
    for key, rate in oracle_edges.items():
        assert math.isclose(engine_edges[key], rate, rel_tol=1e-9, abs_tol=1e-12), key


def test_engine_matches_oracle_on_scenario(scenario):
    assert_matches_oracle(scenario, "Scenario1")
    assert_matches_oracle(scenario, "Scenario2")


def test_engine_matches_oracle_on_broadcast_model():
    assert_matches_oracle(load(BROADCAST_SOURCE))


def test_engine_matches_oracle_on_random_models():
    for seed in range(60):
        defn = random_model(random.Random(seed))
        assert_matches_oracle(defn)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       max_agents=st.integers(2, 3), n_locations=st.integers(1, 3),
       max_alternatives=st.integers(2, 3))
def test_ctmc_and_exit_rates_match_oracle_on_drawn_models(seed, max_agents, n_locations,
                                                          max_alternatives):
    import oracle
    from paloma.geometry import ALGEBRAIC_TOL
    from paloma.rates import RateQuery, exit_rate

    defn = random_model(random.Random(seed), max_agents=max_agents,
                        n_locations=n_locations, max_alternatives=max_alternatives)
    assert_matches_oracle(defn)
    defs = defn.definitions()
    main, alt = defn.systems["Main"], defn.systems["Alt"]
    wheres = [None] + [frozenset({loc}) for loc in defs.locations.values()]
    for subject, context in ((main, EMPTY), (main, alt), (alt[0], main)):
        for glyph in (".", "!", "?", "!!", "??"):
            for label in ("m0", "m1"):
                action = A(label if glyph == "." else glyph + label)
                for where in wheres:
                    engine = exit_rate(defs, RateQuery(action, subject, context, where))
                    reference = oracle.exit_rate(defs, glyph, label, subject, context, where)
                    assert math.isclose(engine, reference, rel_tol=ALGEBRAIC_TOL,
                                        abs_tol=1e-12), (glyph, label, where)


def test_ctmc_conserves_unblocked_unicast_rate():
    # The !! edges leaving a CTMC state on one label and range add up to the
    # prefix rates of its unblocked senders on that label and range: the
    # rate is shared among receivers and outcomes, never lost or gained. A
    # prefix is unblocked when another agent listens on its label in range.
    import oracle
    from paloma.model import UnicastOut

    checked = 0
    for seed in range(300):
        defn = random_model(random.Random(seed), n_locations=3, max_alternatives=3)
        defs = defn.definitions()
        ctmc = build_ctmc(defs, defn.systems["Main"], bound=2000)
        outgoing: dict[tuple, float] = {}
        for t in ctmc.transitions:
            if t.kind is ActionType.UNICAST_OUT:
                key = (t.source, t.label, t.influence)
                outgoing[key] = outgoing.get(key, 0.0) + t.rate
        expected: dict[tuple, float] = {}
        for s, state in enumerate(ctmc.states):
            for i, agent in enumerate(state):
                for prefix, _ in oracle.alternatives(defs, agent):
                    if isinstance(prefix, UnicastOut) and any(
                            j != i and other.location in prefix.influence
                            and oracle.weight_for(defs, other, prefix.label) > 0.0
                            for j, other in enumerate(state)):
                        key = (s, prefix.label, prefix.influence)
                        expected[key] = expected.get(key, 0.0) + prefix.rate
        assert outgoing.keys() == expected.keys(), seed
        for key, want in expected.items():
            assert math.isclose(outgoing[key], want, rel_tol=1e-9), (seed, key)
            checked += 1
    assert checked >= 200


# -- rule-level properties ---------------------------------------------------


def test_capability_mass_conservation():
    checked = 0
    for seed in range(250):
        defn = random_model(random.Random(seed))
        defs = defn.definitions()
        system = defn.systems["Main"]
        all_locs = frozenset(defs.locations.values())
        for label_name in ("m0", "m1"):
            for kind in (ActionType.BROADCAST_IN, ActionType.UNICAST_IN):
                offer = CapLabel(kind, label_name, all_locs, system)
                if kind is ActionType.BROADCAST_IN:
                    for agent in system:
                        cont = cap_step(defs, agent, offer)
                        if cont is not None:
                            assert math.isclose(cont.total(), 1.0, rel_tol=1e-9)
                            checked += 1
                else:
                    cont = cap_step(defs, system, offer)
                    if cont is not None:
                        assert math.isclose(cont.total(), 1.0, rel_tol=1e-9)
                        checked += 1
    assert checked >= 200


def test_unicast_sender_total_rate_is_all_or_nothing():
    from paloma.model import UnicastOut, choice_leaves
    from paloma.rates import receive_weight

    checked = 0
    for seed in range(700):
        defn = random_model(random.Random(seed))
        defs = defn.definitions()
        system = defn.systems["Main"]
        per_sender: dict[tuple, float] = {}
        for d in derivations(defs, system):
            if d.label.kind is ActionType.UNICAST_OUT:
                key = (d.sender, d.label.label, d.label.influence)
                per_sender[key] = per_sender.get(key, 0.0) + sum(
                    s.rate for s in d.steps)
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
            got = per_sender.get(key, 0.0)
            if want > 0.0:
                assert math.isclose(got, want, rel_tol=1e-9), (seed, key)
            else:
                assert got == 0.0, (seed, key)
            checked += 1
    assert checked >= 200


def test_broadcast_sender_rate_survives_removing_receivers():
    def totals(defs, system):
        agg: dict[tuple, float] = {}
        for d in derivations(defs, system):
            if d.label.kind is ActionType.BROADCAST_OUT:
                key = (d.sender, d.label.label, d.label.influence)
                agg[key] = agg.get(key, 0.0) + sum(s.rate for s in d.steps)
        return agg

    checked = 0
    for seed in range(700):
        defn = random_model(random.Random(seed))
        defs = defn.definitions()
        system = defn.systems["Main"]
        with_everyone = totals(defs, system)
        for (sender, label, influence), total in with_everyone.items():
            # the sender alone still fires at the same total rate
            alone = totals(defs, (system[sender],))
            assert math.isclose(alone[(0, label, influence)], total, rel_tol=1e-9)
            checked += 1
    assert checked >= 200


def test_unicast_steps_change_at_most_two_positions():
    for seed in range(120):
        defn = random_model(random.Random(seed))
        defs = defn.definitions()
        system = defn.systems["Main"]
        for d in derivations(defs, system):
            if d.label.kind is not ActionType.UNICAST_OUT:
                continue
            for step in d.steps:
                changed = [k for k, (a, b) in enumerate(zip(system, step.successor))
                           if canonical(defs, (a,)) != canonical(defs, (b,))]
                if step.received:
                    assert set(changed) <= {d.sender} | set(step.received)
                    assert len(step.received) == 1
                else:
                    assert set(changed) <= {d.sender}


def test_failed_reception_keeps_choice_alternatives():
    # a listener that declines a unicast must keep its other alternatives:
    # the failure branch is a self-loop on the unchanged pair, and the
    # spontaneous alternative stays reachable from the original state
    source = """
    location l0 = (0.0, 0.0);
    T(l0) := !!(m, 1.0)@Ir{l0}.T(l0);
    R(l0) := ??(m, 0.5)@Wt{1.0}.A(l0) + (t, 2.0).B(l0);
    A(l0) := (a, 1.0).A(l0);
    B(l0) := (b, 1.0).B(l0);
    system Main = T(l0) || R(l0);
    """
    defn = load(source)
    defs = defn.definitions()
    ctmc = build_ctmc(defs, defn.systems["Main"], bound=20)
    by_target = {(t.source, render_model(ctmc.states[t.target]), t.kind.glyph): t.rate
                 for t in ctmc.transitions if t.source == 0}
    assert close(by_target[(0, "T(l0) || A(l0)", "!!")], 1.0 * 0.5)
    assert close(by_target[(0, "T(l0) || R(l0)", "!!")], 1.0 * 0.5)  # declined: unchanged
    assert close(by_target[(0, "T(l0) || B(l0)", ".")], 2.0)


def test_broadcast_failure_also_keeps_choice_alternatives():
    source = """
    location l0 = (0.0, 0.0);
    location l1 = (1.0, 0.0);
    S(l0) := !(m, 1.0)@Ir{l1}.S(l0);
    R(l1) := ?(m, 0.5)@Prob{0.5}.A(l1) + (t, 2.0).B(l1);
    A(l1) := (a, 1.0).A(l1);
    B(l1) := (b, 1.0).B(l1);
    system Main = S(l0) || R(l1);
    """
    defn = load(source)
    defs = defn.definitions()
    ctmc = build_ctmc(defs, defn.systems["Main"], bound=20)
    by_target = {(t.source, render_model(ctmc.states[t.target]), t.kind.glyph): t.rate
                 for t in ctmc.transitions if t.source == 0}
    assert close(by_target[(0, "S(l0) || A(l1)", "!")], 0.25)
    assert close(by_target[(0, "S(l0) || R(l1)", "!")], 0.75)
    assert close(by_target[(0, "S(l0) || B(l1)", ".")], 2.0)


def test_build_ctmc_is_deterministic(scenario):
    defs = scenario.definitions()
    sc1 = scenario.systems["Scenario1"]
    a = build_ctmc(defs, sc1, bound=100)
    b = build_ctmc(defs, sc1, bound=100)
    assert [render_model(s) for s in a.states] == [render_model(s) for s in b.states]
    assert a.transitions == b.transitions
    assert export_tsv(a) == export_tsv(b)
    assert export_dot(a) == export_dot(b)


def test_export_tsv_layout(scenario):
    defs = scenario.definitions()
    ctmc = build_ctmc(defs, scenario.systems["Scenario1"], bound=100)
    text = export_tsv(ctmc)
    lines = text.split("\n")
    assert lines[0] == "# states"
    assert lines[1] == "0\tTransmitter(l0) || Receiver(l1)"
    blank = lines.index("")
    assert lines[blank + 1] == "# transitions"
    first = lines[blank + 2].split("\t")
    assert first[0] == "0" and first[3] == "!!" and first[4] == "message_move"
    assert first[2] == f"{SCENARIO_R * SCENARIO_P:.17g}"
    assert text.endswith("\n") and "\r" not in text


def test_export_dot_shape(scenario):
    defs = scenario.definitions()
    ctmc = build_ctmc(defs, scenario.systems["Scenario1"], bound=100)
    text = export_dot(ctmc)
    assert text.startswith("digraph ctmc {")
    assert 's0 [shape=doublecircle label="Transmitter(l0) || Receiver(l1)"];' in text
    assert "->" in text and text.endswith("}\n")


def test_build_ctmc_resolves_each_agent_term_once(scenario, monkeypatch):
    from paloma.model import Definitions

    calls = []
    resolve = Definitions.resolve

    def counting(self, comp):
        calls.append(comp)
        return resolve(self, comp)

    monkeypatch.setattr(Definitions, "resolve", counting)
    ctmc = build_ctmc(scenario.definitions(), scenario.systems["Scenario1"], bound=100)
    terms = {part for state in ctmc.states for part in state}
    assert len(ctmc.states) == 4
    assert sorted(map(repr, calls)) == sorted(map(repr, terms))


# -- engine vs the derivation it replaced (tests/ctmc_reference.py) ----------


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), max_agents=st.integers(1, 3),
       n_locations=st.integers(1, 3), max_alternatives=st.integers(1, 3))
def test_derivation_matches_the_reference_on_drawn_models(seed, max_agents, n_locations,
                                                          max_alternatives):
    # equal bytes and equal values, not closeness: every rate is summed in
    # the same order as before
    import ctmc_reference as reference
    from paloma.semantics import _keyed_component_steps

    defn = random_model(random.Random(seed), max_agents=max_agents,
                        n_locations=n_locations, max_alternatives=max_alternatives)
    defs = defn.definitions()
    everywhere = defs.all_locations()
    for system in (defn.systems["Main"], defn.systems["Alt"]):
        engine = build_ctmc(defs, system, bound=2000)
        expected = reference.build_ctmc(defs, system, bound=2000)
        assert engine == expected
        # the columns give back, on access, the records the reference built
        assert engine.transitions == expected.transitions
        assert export_tsv(engine) == reference.export_tsv(expected)
        assert export_dot(engine) == export_dot(expected)
        for state in engine.states[:12]:
            assert derivations(defs, state) == reference.derivations(defs, state)
            for cut in range(len(state)):
                context, subject = state[:cut], state[cut:]
                assert (list(_keyed_component_steps(defs, context, subject).items())
                        == list(reference._keyed_component_steps(defs, context, subject).items()))
            for kind in (ActionType.BROADCAST_IN, ActionType.UNICAST_IN):
                for label in ("m0", "m1"):
                    offer = CapLabel(kind, label, everywhere, state)
                    for subject in (state, state[0]):
                        found = cap_step(defs, subject, offer)
                        wanted = reference.cap_step(defs, subject, offer)
                        assert (found is None) == (wanted is None)
                        assert found is None or found.items() == wanted.items()
        for bound in (1, 2, 3):
            outcomes = []
            for build in (build_ctmc, reference.build_ctmc):
                try:
                    outcomes.append(build(defs, system, bound))
                except BoundExceeded as exc:
                    outcomes.append(exc.discovered)
            assert outcomes[0] == outcomes[1]


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("export", [export_tsv, export_dot], ids=["tsv", "dot"])
def test_export_streams_the_text_it_returns_in_few_writes(export):
    # ring-4 runs to some 5,000 lines: written in chunks of 256 lines, an
    # unbuffered stream sees a few dozen writes, not one per line
    import families

    defn = load(families.ring(4, 0))
    ctmc = build_ctmc(defn.definitions(), defn.systems["Main"], bound=1000)
    text = export(ctmc)
    stream = _CountingStream()
    assert export(ctmc, stream) is None
    assert stream.getvalue() == text
    assert text.count("\n") > 4 * 256
    assert stream.writes <= math.ceil(text.count("\n") / 256) + 2


# -- the per-agent tables -----------------------------------------------------


@pytest.mark.parametrize("reach, fails", [("l1", True), ("l0", False)])
def test_two_inputs_on_one_label_fail_only_in_range(reach, fails):
    # without validate, an agent with two ??msg prefixes is found out when a
    # unicast reaches it, as it was before the listen tables
    import ctmc_reference as reference
    from paloma.parser import parse_model

    result = parse_model(
        "location l0 = (0.0, 0.0);\nlocation l1 = (1.0, 0.0);\n"
        f"A(l0) := !!(msg, 1.0)@Ir{{{reach}}}.A(l0);\n"
        "B(l1) := ??(msg, 0.5)@Wt{1.0}.B(l1) + ??(msg, 0.25)@Wt{2.0}.B(l1);\n"
        "system S = A(l0) || B(l1);\n")
    assert result.ok
    system = result.definition.systems["S"]
    for build in (build_ctmc, reference.build_ctmc):
        defs = result.definition.definitions()
        if fails:
            with pytest.raises(ModelError, match="at most one"):
                build(defs, system, bound=10)
        else:
            assert build(defs, system, bound=10).transitions == []


def test_continuation_takes_successor_ids_from_the_derivation():
    # a derivation's continuation is the map from its steps' successors to
    # their rates, each successor interned in the given Definitions
    import families

    defn = load(families.ring(4, 0))
    defs = defn.definitions()
    ctmc = build_ctmc(defs, defn.systems["Main"], bound=1000)
    found = [d for state in ctmc.states[:40] for d in derivations(defs, state)]
    expected = [Continuation(defs, [(s.successor, s.rate) for s in d.steps]).items()
                for d in found]
    assert [d.continuation(defs).items() for d in found] == expected


def test_subject_steps_yield_each_action_and_successor_once():
    # two alternatives with one action text and one successor make one
    # subject step, the first derived; the others keep derivation order
    from paloma.model import _state_key
    from paloma.semantics import _subject_steps

    for source, expected in (
            ("A(l) := (t, 1.0).A(l) + (t, 2.0).A(l);", [("t", (0,))]),
            ("A(l) := (t, 1.0).A(l) + (u, 1.0).B(l) + (t, 2.0).A(l);\n"
             "B(l) := (t, 1.0).A(l);", [("t", (0,)), ("u", (1,))])):
        defn = load(f"location l = (0.0, 0.0);\n{source}\nsystem S = A(l);\n")
        defs = defn.definitions()
        key = _state_key(defs, defn.systems["S"])
        assert [(action.text, succ) for action, _, succ, _, _
                in _subject_steps(defs, key, 0)] == expected


def test_continuation_in_other_definitions_interns_the_same_successors():
    # a derivation's continuation interns each successor in the Definitions
    # it is given: continued in a second Definitions of the same model, it
    # lists the same items as in the one that derived it
    import families

    defn = load(families.ring(4, 0))
    defs, other = defn.definitions(), defn.definitions()
    ctmc = build_ctmc(defs, defn.systems["Main"], bound=1000)
    found = [d for state in ctmc.states[:40] for d in derivations(defs, state)]
    assert found
    assert ([d.continuation(other).items() for d in found]
            == [d.continuation(defs).items() for d in found])


def test_ring4_fills_each_listen_entry_once_and_reuses_derivations(monkeypatch):
    import families
    from paloma.model import _AgentState

    defn = load(families.ring(4, 0))
    defs = defn.definitions()
    calls = []
    single_input = _AgentState.single_input

    def counting(self, kind, label):
        calls.append((id(self), kind, label))
        return single_input(self, kind, label)

    monkeypatch.setattr(_AgentState, "single_input", counting)
    ctmc = build_ctmc(defs, defn.systems["Main"], bound=1000)
    assert len(ctmc.states) == 256 and len(ctmc.transitions) == 4768
    inputs = {(ActionType.UNICAST_IN, "msg"), (ActionType.BROADCAST_IN, "bc")}
    assert sorted(calls, key=repr) == sorted(
        ((id(agent), kind, label) for agent in defs._agents for kind, label in inputs), key=repr)
    assert all(agent.listens.keys() == inputs for agent in defs._agents)
    # 4 agent states, each sending on 3 alternatives: far fewer derivations
    # are computed than the 3,072 that the 256 states ask for
    assert sum(len(agent.derived) for agent in defs._agents) < len(ctmc.states)
