from __future__ import annotations

import math
import random

import pytest

from paloma.model import (
    ActionId,
    Choice,
    EMPTY,
    ModelError,
    SeqComponent,
    constant,
    seq_in,
)
from paloma.parser import parse_model
from paloma.rates import (
    RateQuery,
    broadcast_act_prob,
    broadcast_out_rate,
    broadcast_system_rate,
    exit_rate,
    receive_weight,
    spontaneous_rate,
    unicast_act_prob,
    unicast_cap_rate,
    unicast_influence,
    unicast_out_rate,
    unicast_receive_prob,
    unicast_system_rate,
)
from conftest import SCENARIO_P, SCENARIO_R, load
from oracle import random_model

A = ActionId.parse


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


def syntactic_model(r: float = 1.25, w1: float = 2.0, w2: float = 3.5) -> str:
    return f"""
    location l0 = (0.0, 0.0);
    location l1 = (1.0, 0.0);
    location l2 = (2.0, 0.0);
    Tester(l0) := (message, {r!r}).Tester(l0);
    Transmitter(l0) := !!(message, {r!r})@Ir{{l1, l2}}.Transmitter(l0);
    Receiver1(l1) := ??(message, 0.5)@Wt{{{w1!r}}}.Receiver1(l1);
    Receiver2(l2) := ??(message, 0.25)@Wt{{{w2!r}}}.Receiver2(l2);
    system Sys = Transmitter(l0) || Receiver1(l1) || Receiver2(l2);
    """


def test_unicast_out_rate_ignores_spontaneous_alternative():
    defn = load(syntactic_model(r=1.25))
    defs = defn.definitions()
    l0 = defs.locations["l0"]
    summed = SeqComponent(Choice(constant("Tester", l0), constant("Transmitter", l0)), l0)
    assert unicast_out_rate(defs, summed, "message") == 0.0 + 1.25
    assert unicast_out_rate(defs, constant("Receiver1", defs.locations["l1"]), "message") == 0.0


def test_unicast_out_rate_label_mismatch_is_zero():
    defn = load(syntactic_model())
    defs = defn.definitions()
    t = constant("Transmitter", defs.locations["l0"])
    assert unicast_out_rate(defs, t, "other") == 0.0


def test_receive_weight_sums_over_composition():
    for rng_seed in range(20):
        rng = random.Random(rng_seed)
        r, w1, w2 = (rng.uniform(0.01, 10.0) for _ in range(3))
        defn = load(syntactic_model(r, w1, w2))
        defs = defn.definitions()
        system = defn.systems["Sys"]
        assert receive_weight(defs, system, "message") == w1 + w2
        t = constant("Transmitter", defs.locations["l0"])
        assert unicast_out_rate(defs, SeqComponent(
            Choice(constant("Tester", defs.locations["l0"]), t),
            defs.locations["l0"]), "message") == r


def test_receive_weight_trivial_cases():
    defn = load(syntactic_model())
    defs = defn.definitions()
    t = constant("Transmitter", defs.locations["l0"])
    assert receive_weight(defs, t, "message") == 0.0
    assert receive_weight(defs, seq_in(defn.systems["Sys"], frozenset()), "message") == 0.0


def test_spontaneous_rate_base_case():
    source = """
    location l0 = (0.0, 0.0);
    S(l0) := (tick, 3.0).S(l0);
    system Main = S(l0);
    """
    defn = load(source)
    defs = defn.definitions()
    assert spontaneous_rate(defs, constant("S", defs.locations["l0"]), "tick") == 3.0


def test_broadcast_out_rate_sums_choice_and_ignores_inputs():
    source = """
    location l0 = (0.0, 0.0);
    location l1 = (1.0, 0.0);
    B(l0) := !(m, 1.5)@Ir{l0}.B(l0) + !(m, 2.25)@Ir{l1}.B(l0);
    L(l0) := ??(m, 0.5)@Wt{1.0}.L(l0);
    T(l0) := !!(m, 1.0)@Ir{l0}.T(l0);
    system Main = B(l0) || L(l0) || T(l0);
    """
    defn = load(source)
    defs = defn.definitions()
    l0 = defs.locations["l0"]
    assert broadcast_out_rate(defs, constant("B", l0), "m") == 1.5 + 2.25
    assert broadcast_out_rate(defs, constant("L", l0), "m") == 0.0


def test_unicast_influence_union_over_choice():
    source = """
    location l1 = (1.0, 0.0);
    location l2 = (2.0, 0.0);
    A(l1) := !!(m, 1.0)@Ir{l1}.A(l1) + !!(m, 2.0)@Ir{l2}.A(l1);
    R(l1) := ??(m, 0.5)@Wt{1.0}.R(l1);
    R(l2) := ??(m, 0.5)@Wt{1.0}.R(l2);
    system Main = A(l1) || R(l1) || R(l2);
    """
    defn = load(source)
    defs = defn.definitions()
    l1, l2 = defs.locations["l1"], defs.locations["l2"]
    assert unicast_influence(defs, constant("A", l1), "m") == frozenset({l1, l2})
    assert unicast_influence(defs, constant("R", l1), "m") == frozenset()


def test_act_prob_base_cases():
    defn = load(syntactic_model())
    defs = defn.definitions()
    r1 = constant("Receiver1", defs.locations["l1"])
    assert unicast_act_prob(defs, r1, "message") == 0.5
    assert unicast_act_prob(defs, r1, "nothing") == 0.0
    assert unicast_act_prob(defs, constant("Transmitter", defs.locations["l0"]),
                            "message") == 0.0


def test_broadcast_act_prob_multiplies_receive_and_act():
    source = """
    location l0 = (0.0, 0.0);
    B(l0) := ?(m, 0.5)@Prob{0.4}.B(l0);
    system Main = B(l0);
    """
    defn = load(source)
    defs = defn.definitions()
    assert close(broadcast_act_prob(defs, constant("B", defs.locations["l0"]), "m"),
                 0.5 * 0.4)


def test_repeated_input_prefix_is_rejected_by_probability_query():
    from paloma.model import Definitions, Location, PrefixGuarded, UnicastIn, ConstantRef

    l0 = Location("l0", (0.0, 0.0))
    leaf1 = SeqComponent(PrefixGuarded(UnicastIn("m", 0.5, 1.0), ConstantRef("X", l0)), l0)
    leaf2 = SeqComponent(PrefixGuarded(UnicastIn("m", 0.25, 2.0), ConstantRef("X", l0)), l0)
    both = SeqComponent(Choice(leaf1, leaf2), l0)
    defs = Definitions({"l0": l0}, {("X", "l0"): both})
    with pytest.raises(ModelError):
        unicast_act_prob(defs, both, "m")


def test_unicast_cap_rate_respects_per_alternative_range():
    source = """
    location l1 = (1.0, 0.0);
    location l2 = (2.0, 0.0);
    A(l1) := !!(m, 1.0)@Ir{l1}.A(l1) + !!(m, 2.0)@Ir{l2}.A(l1);
    R(l1) := ??(m, 0.5)@Wt{1.0}.R(l1);
    R(l2) := ??(m, 0.5)@Wt{1.0}.R(l2);
    system Main = A(l1) || R(l1) || R(l2);
    """
    defn = load(source)
    defs = defn.definitions()
    l1, l2 = defs.locations["l1"], defs.locations["l2"]
    a = constant("A", l1)
    assert unicast_cap_rate(defs, l1, a, "m") == 1.0
    assert unicast_cap_rate(defs, l2, a, "m") == 2.0
    single = defs.equations[("R", "l1")]
    assert unicast_cap_rate(defs, l2, single, "m") == 0.0


def test_unicast_system_rate_blocks_without_receivers(blocking):
    defs = blocking.definitions()
    l0 = defs.locations["l0"]
    t = constant("Transmitter", l0)
    # alone: own weight is zero, nothing can receive
    assert unicast_system_rate(defs, l0, EMPTY, (t,), "message") == 0.0
    # with a receiver in context the full rate is deliverable
    r = constant("Receiver", l0)
    assert unicast_system_rate(defs, l0, (r,), (t,), "message") == 1.0


def test_unicast_receive_prob_normalizes_by_weight():
    defn = load(syntactic_model(w1=2.0, w2=3.5))
    defs = defn.definitions()
    sys = defn.systems["Sys"]
    t, r1, r2 = sys
    assert close(unicast_receive_prob(defs, r1, (t, r2), t, "message"), 2.0 / 5.5)
    assert close(unicast_receive_prob(defs, r2, (t, r1), t, "message"), 3.5 / 5.5)


def test_unicast_receive_prob_single_and_out_of_range(blocking):
    defs = blocking.definitions()
    l0 = defs.locations["l0"]
    t, r = constant("Transmitter", l0), constant("Receiver", l0)
    assert unicast_receive_prob(defs, r, (t,), t, "message") == 1.0
    # out of range: sender range excludes the receiver's location
    source = """
    location l0 = (0.0, 0.0);
    location l9 = (9.0, 0.0);
    T(l0) := !!(m, 1.0)@Ir{l0}.T(l0);
    R(l9) := ??(m, 0.5)@Wt{1.0}.R(l9);
    system Main = T(l0) || R(l9);
    """
    defn = load(source)
    d2 = defn.definitions()
    t2, r9 = defn.systems["Main"]
    assert unicast_receive_prob(d2, r9, (t2,), t2, "m") == 0.0


def test_broadcast_system_rate_sums_in_range_senders():
    source = """
    location l1 = (1.0, 0.0);
    location l2 = (2.0, 0.0);
    B1(l1) := !(m, 1.0)@Ir{l1}.B1(l1);
    B2(l2) := !(m, 2.5)@Ir{l1, l2}.B2(l2);
    L(l1) := ?(m, 0.5)@Prob{0.5}.L(l1);
    system Main = B1(l1) || B2(l2) || L(l1);
    """
    defn = load(source)
    defs = defn.definitions()
    l1, l2 = defs.locations["l1"], defs.locations["l2"]
    context = defn.systems["Main"][:2]
    assert broadcast_system_rate(defs, l1, context, "m") == 1.0 + 2.5
    assert broadcast_system_rate(defs, l2, context, "m") == 2.5
    assert broadcast_system_rate(defs, l1, EMPTY, "m") == 0.0


# -- context-aware exit rate -------------------------------------------------


def test_exit_rate_scenario_golden_values(scenario):
    defs = scenario.definitions()
    l0, l1 = defs.locations["l0"], defs.locations["l1"]
    sc1 = scenario.systems["Scenario1"]
    sc2 = scenario.systems["Scenario2"]

    out = exit_rate(defs, RateQuery(A("!!message_move"), sc1, EMPTY, frozenset({l0})))
    assert close(out, SCENARIO_R)
    inp = exit_rate(defs, RateQuery(A("??message_move"), sc1, EMPTY, frozenset({l1})))
    assert close(inp, SCENARIO_R * SCENARIO_P)

    # mirrored queries on the reflected system give the same numbers
    out2 = exit_rate(defs, RateQuery(A("!!message_move"), sc2, EMPTY, frozenset({l1})))
    assert close(out2, SCENARIO_R)
    inp2 = exit_rate(defs, RateQuery(A("??message_move"), sc2, EMPTY, frozenset({l0})))
    assert close(inp2, SCENARIO_R * SCENARIO_P)


def test_exit_rate_unmentioned_label_is_zero(scenario):
    defs = scenario.definitions()
    sc1 = scenario.systems["Scenario1"]
    for text in ("ghost", "!ghost", "?ghost", "!!ghost", "??ghost"):
        assert exit_rate(defs, RateQuery(A(text), sc1, EMPTY)) == 0.0


def test_exit_rate_blocked_transmitter_is_zero(blocking):
    defs = blocking.definitions()
    t = blocking.systems["T"]
    assert exit_rate(defs, RateQuery(A("!!message"), t, EMPTY)) == 0.0


def test_exit_rate_unblocked_by_context_receiver(blocking):
    defs = blocking.definitions()
    t = blocking.systems["T"]
    r = blocking.systems["R"]
    assert exit_rate(defs, RateQuery(A("!!message"), t, r)) == 1.0


def test_exit_rate_spontaneous_equals_literal():
    source = """
    location l0 = (0.0, 0.0);
    S(l0) := (tick, 0.375).S(l0);
    system Main = S(l0);
    """
    defn = load(source)
    defs = defn.definitions()
    assert exit_rate(defs, RateQuery(A("tick"), defn.systems["Main"], EMPTY)) == 0.375


def test_exit_rate_broadcast_receive():
    source = """
    location l0 = (0.0, 0.0);
    location l1 = (1.0, 0.0);
    B(l0) := !(ping, 2.0)@Ir{l1}.B(l0);
    L(l1) := ?(ping, 0.5)@Prob{0.4}.L(l1);
    system Main = B(l0) || L(l1);
    """
    defn = load(source)
    defs = defn.definitions()
    l0, l1 = defs.locations["l0"], defs.locations["l1"]
    main = defn.systems["Main"]
    assert close(exit_rate(defs, RateQuery(A("?ping"), main, EMPTY, frozenset({l1}))),
                 2.0 * 0.5 * 0.4)
    assert exit_rate(defs, RateQuery(A("!ping"), main, EMPTY, frozenset({l0}))) == 2.0
    # the broadcaster's own location is outside its range: no reception there
    assert exit_rate(defs, RateQuery(A("?ping"), main, EMPTY, frozenset({l0}))) == 0.0


def test_exit_rate_additive_over_disjoint_location_sets():
    rng = random.Random(99)
    checked = 0
    for seed in range(60):
        defn = random_model(random.Random(seed))
        defs = defn.definitions()
        system = defn.systems["Main"]
        locs = sorted(defs.locations.values(), key=lambda l: l.name)
        if len(locs) < 2:
            continue
        half = rng.randint(1, len(locs) - 1)
        l1, l2 = frozenset(locs[:half]), frozenset(locs[half:])
        for label in ("m0", "m1"):
            for glyph in ("", "!", "?", "!!", "??"):
                action = A(glyph + label)
                both = exit_rate(defs, RateQuery(action, system, EMPTY, l1 | l2))
                split = (exit_rate(defs, RateQuery(action, system, EMPTY, l1))
                         + exit_rate(defs, RateQuery(action, system, EMPTY, l2)))
                assert math.isclose(both, split, rel_tol=1e-9, abs_tol=1e-12)
                checked += 1
    assert checked >= 200


def competition_model(rng: random.Random) -> str:
    n_locs = rng.randint(1, 3)
    n_recv = rng.randint(1, 4)
    lines = [f"location l{k} = ({float(k)!r}, 0.0);" for k in range(n_locs)]
    in_range = rng.sample(range(n_locs), rng.randint(1, n_locs))
    range_text = ", ".join(f"l{k}" for k in in_range)
    lines.append(f"T(l0) := !!(m, {rng.uniform(0.1, 4.0)!r})@Ir{{{range_text}}}.T(l0);")
    parts = ["T(l0)"]
    for i in range(n_recv):
        loc = rng.randrange(n_locs)
        lines.append(f"R{i}(l{loc}) := ??(m, {rng.uniform(0.05, 0.95)!r})"
                     f"@Wt{{{rng.uniform(0.1, 4.0)!r}}}.R{i}(l{loc});")
        parts.append(f"R{i}(l{loc})")
    lines.append(f"system Main = {' || '.join(parts)};")
    return "\n".join(lines)


def test_receive_probabilities_sum_to_one_over_eligible_receivers():
    checked = 0
    for seed in range(300):
        rng = random.Random(seed)
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
        total = 0.0
        for j in eligible:
            rest = tuple(p for k, p in enumerate(system) if k != j)
            total += unicast_receive_prob(defs, system[j], rest, sender, "m")
        assert math.isclose(total, 1.0, rel_tol=1e-9)
        checked += 1
    assert checked >= 200


def test_probability_queries_stay_in_unit_interval():
    for seed in range(100):
        defn = random_model(random.Random(seed))
        defs = defn.definitions()
        for (name, locname) in defn.equations:
            comp = constant(name, defs.locations[locname])
            for label in ("m0", "m1"):
                assert 0.0 <= unicast_act_prob(defs, comp, label) <= 1.0
                assert 0.0 <= broadcast_act_prob(defs, comp, label) <= 1.0


def test_choice_linearity_of_syntactic_functions():
    for seed in range(40):
        defn = random_model(random.Random(seed))
        defs = defn.definitions()
        keys = sorted(defn.equations)
        rng = random.Random(seed + 1000)
        (n1, l1), (n2, l2) = rng.choice(keys), rng.choice(keys)
        if l1 != l2:
            continue
        loc = defs.locations[l1]
        a, b = constant(n1, loc), constant(n2, loc)
        summed = SeqComponent(Choice(a, b), loc)
        for label in ("m0", "m1"):
            for fn in (unicast_out_rate, spontaneous_rate, broadcast_out_rate,
                       receive_weight):
                assert math.isclose(fn(defs, summed, label),
                                    fn(defs, a, label) + fn(defs, b, label),
                                    rel_tol=1e-12, abs_tol=0.0) or (
                    fn(defs, summed, label) == fn(defs, a, label) + fn(defs, b, label))
            assert unicast_cap_rate(defs, loc, summed, label) == (
                unicast_cap_rate(defs, loc, a, label) + unicast_cap_rate(defs, loc, b, label))


def test_rate_layer_agrees_with_ctmc_derivations():
    # The rate layer and the semantics share one unicast pool rule. On every
    # reachable state, the spontaneous and broadcast totals and the rate of
    # successful unicast receptions in the derivations must equal the exit
    # rates of the whole state in the empty context.
    from paloma.model import ActionType
    from paloma.semantics import build_ctmc, derivations

    positive = {"m0": 0, "!m0": 0, "??m0": 0}
    for seed in range(60):
        defn = random_model(random.Random(seed), max_agents=4, n_labels=1)
        defs = defn.definitions()
        for state in build_ctmc(defs, defn.systems["Main"], 5000).states:
            found = derivations(defs, state)
            for text, kind, received_only in (("m0", ActionType.SPONTANEOUS, False),
                                              ("!m0", ActionType.BROADCAST_OUT, False),
                                              ("??m0", ActionType.UNICAST_OUT, True)):
                engine = sum(step.rate for d in found if d.label.kind is kind
                             for step in d.steps if step.received or not received_only)
                rate = exit_rate(defs, RateQuery(A(text), state, EMPTY))
                assert math.isclose(rate, engine, rel_tol=1e-9), (seed, text)
                positive[text] += rate > 0.0
    assert min(positive.values()) >= 200, positive


def test_exit_rate_matches_brute_force_reference():
    # tests/oracle.py reads the README definition straight off the terms; the
    # engine indexes the system once per query. Every action type, composed
    # and single subjects, with and without a context and a location filter.
    import oracle
    from paloma.geometry import ALGEBRAIC_TOL

    positive = dict.fromkeys((".", "!", "?", "!!", "??"), 0)
    compared = 0
    for seed in range(70):
        rng = random.Random(seed)
        defn = random_model(rng, max_agents=4, n_locations=rng.randint(1, 3),
                            n_labels=2, max_alternatives=3)
        defs = defn.definitions()
        locs = sorted(defs.locations.values(), key=lambda l: l.name)
        main, alt = defn.systems["Main"], defn.systems["Alt"]
        for subject, context in ((main, EMPTY), (main, alt), (alt, main)):
            for where in [None] + [frozenset({loc}) for loc in locs]:
                for sub in [subject, *subject]:
                    for glyph in positive:
                        for label in ("m0", "m1"):
                            engine = exit_rate(defs, RateQuery(
                                A(label if glyph == "." else glyph + label), sub, context, where))
                            reference = oracle.exit_rate(defs, glyph, label, sub, context, where)
                            assert math.isclose(engine, reference, rel_tol=ALGEBRAIC_TOL,
                                                abs_tol=1e-12), (seed, glyph, label, where)
                            positive[glyph] += reference > 0.0
                            compared += 1
    assert compared >= 20000
    assert min(positive.values()) >= 60, positive


def wide_ring(n: int) -> str:
    """n agents on a circle; each unicasts to and listens from both
    neighbours, as in the benchmark's wide family."""
    lines = []
    for k in range(n):
        angle = 2 * math.pi * k / n
        lines.append(f"location l{k} = ({n * math.cos(angle)!r}, {n * math.sin(angle)!r});")
    for k in range(n):
        prev, nxt = (k - 1) % n, (k + 1) % n
        lines.append(f"S(l{k}) := !!(msg, 1.0)@Ir{{l{prev}, l{nxt}}}.S(l{nxt})"
                     f" + ??(msg, 0.6)@Wt{{1.0}}.S(l{nxt}) + (tick, 0.3).S(l{k});")
    lines.append("system Main = " + " || ".join(f"S(l{k})" for k in range(n)) + ";")
    return "\n".join(lines) + "\n"


def test_composed_unicast_query_work_grows_linearly():
    # Counts Python calls, not time: one composed !!msg query on a ring of n
    # agents evaluates each sender's receiver pool once, so doubling n at
    # most about doubles the work (a pool evaluation per agent and occupied
    # location would quadruple it).
    import sys

    def calls(n: int) -> int:
        defn = load(wide_ring(n))
        defs = defn.definitions()
        system = defn.systems["Main"]
        exit_rate(defs, RateQuery(A("tick"), system))  # compiles the agent tables
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event in ("call", "c_call")

        sys.setprofile(profile)
        try:
            value = exit_rate(defs, RateQuery(A("!!msg"), system))
        finally:
            sys.setprofile(None)
        assert value == pytest.approx(n * 1.0)
        return count

    small, large = calls(40), calls(80)
    assert large <= 2.2 * small, (small, large)


def test_unicast_exit_rate_counts_only_locations_others_occupy():
    # A reaches l1 at rate 2 and l2 at rate 1; its own location l0, where no
    # other agent stands, is no delivery target although both ranges cover it
    import oracle

    defn = load("""
    location l0 = (0.0, 0.0);
    location l1 = (1.0, 0.0);
    location l2 = (2.0, 0.0);
    A(l0) := !!(m, 1.0)@Ir{l0, l2}.A(l0) + !!(m, 2.0)@Ir{l0, l1}.A(l0);
    B(l1) := ??(m, 0.5)@Wt{1.0}.B(l1);
    C(l2) := ??(m, 0.5)@Wt{1.0}.C(l2);
    system S = A(l0) || B(l1) || C(l2);
    """)
    defs = defn.definitions()
    system = defn.systems["S"]
    assert exit_rate(defs, RateQuery(A("!!m"), system[0], system[1:])) == 2.0
    assert exit_rate(defs, RateQuery(A("!!m"), system)) == 2.0
    assert oracle.exit_rate(defs, "!!", "m", system, EMPTY) == 2.0
