from __future__ import annotations

import random
import sys
import threading

import pytest

from paloma.model import (
    ActionId,
    ActionType,
    Choice,
    ConstantRef,
    EMPTY,
    Location,
    ModelError,
    SeqComponent,
    Spontaneous,
    UnicastIn,
    _state_key,
    canonical,
    choice_leaves,
    constant,
    guarded,
    locations_of,
    remove_at,
    render_model,
    render_seq,
    seq_in,
    struct_equiv,
)
from paloma.rates import spontaneous_rate
from paloma.semantics import build_ctmc
from conftest import SCENARIO_SOURCE, load, with_aliases
from oracle import random_model

L0 = Location("l0", (-1.0, 0.0))
L1 = Location("l1", (1.0, 0.0))
L2 = Location("l2", (0.0, 2.0))


def agents(defn, name):
    return defn.systems[name]


def test_location_identity_is_by_name():
    assert Location("a", (0.0, 0.0)) == Location("a", (5.0, 5.0))
    assert Location("a", (0.0, 0.0)) != Location("b", (0.0, 0.0))
    assert hash(Location("a", (0.0, 0.0))) == hash(Location("a", (1.0, 1.0)))


def test_action_id_parsing_roundtrip():
    for text, act_type in [("!!msg", ActionType.UNICAST_OUT),
                           ("??msg", ActionType.UNICAST_IN),
                           ("!msg", ActionType.BROADCAST_OUT),
                           ("?msg", ActionType.BROADCAST_IN),
                           ("msg", ActionType.SPONTANEOUS)]:
        action = ActionId.parse(text)
        assert action.act_type is act_type
        assert action.label == "msg"
        assert action.text == text


def test_action_id_rejects_bad_label():
    with pytest.raises(ModelError):
        ActionId.parse("!!not a label")


def test_locations_of_parallel_composition():
    comp = (constant("T", L0), constant("R1", L1), constant("R2", L2))
    assert locations_of(comp) == frozenset({L0, L1, L2})
    assert locations_of(EMPTY) == frozenset()
    assert locations_of((constant("S", L0), constant("T", L0))) == frozenset({L0})
    assert locations_of(constant("S", L1)) == frozenset({L1})


def test_locations_of_distributes_over_composition():
    rng = random.Random(7)
    pool = [L0, L1, L2]
    for _ in range(50):
        left = tuple(constant(f"A{i}", rng.choice(pool)) for i in range(rng.randint(0, 3)))
        right = tuple(constant(f"B{i}", rng.choice(pool)) for i in range(rng.randint(0, 3)))
        assert locations_of(left + right) == locations_of(left) | locations_of(right)


def test_seq_in_filters_in_order():
    t, r = constant("T", L0), constant("R", L1)
    assert seq_in((t, r), {L1}) == [r]
    assert seq_in((t, r), {L0, L1}) == [t, r]
    assert seq_in((t, r), frozenset()) == []
    assert seq_in((t, r)) == [t, r]


def test_seq_in_splits_as_multisets():
    rng = random.Random(13)
    pool = [L0, L1, L2]
    for _ in range(50):
        comp = tuple(constant("X", rng.choice(pool)) for _ in range(rng.randint(0, 5)))
        l1 = {L0}
        l2 = {L1, L2}
        combined = seq_in(comp, l1 | l2)
        assert sorted(id(x) for x in combined) == sorted(
            id(x) for x in seq_in(comp, l1) + seq_in(comp, l2))


def test_remove_at():
    s1, s2, s3 = constant("A", L0), constant("B", L1), constant("C", L2)
    assert remove_at((s1, s2, s3), 1) == (s1, s3)
    assert remove_at((s1,), 0) == EMPTY
    assert remove_at((s1, s1), 0) == (s1,)
    with pytest.raises(ModelError):
        remove_at((s1,), 1)


def test_remove_then_reinsert_is_identity():
    parts = tuple(constant(f"K{i}", L0) for i in range(4))
    for i in range(4):
        removed = remove_at(parts, i)
        assert removed[:i] + (parts[i],) + removed[i:] == parts


def test_struct_equiv_identifies_constant_with_body(scenario):
    defs = scenario.definitions()
    ref = constant("Transmitter", defs.locations["l0"])
    body = defs.equations[("Transmitter", "l0")]
    assert struct_equiv(defs, ref, body)
    assert struct_equiv(defs, (ref,), (body,))


def test_struct_equiv_is_positional(scenario):
    defs = scenario.definitions()
    t = constant("Transmitter", defs.locations["l0"])
    r = constant("Receiver", defs.locations["l1"])
    assert not struct_equiv(defs, (t, r), (r, t))
    assert struct_equiv(defs, (t, r), (t, r))


def test_struct_equiv_is_an_equivalence_relation():
    rng = random.Random(21)
    for seed in range(10):
        defn = random_model(random.Random(seed))
        defs = defn.definitions()
        pool = [SeqComponent(ConstantRef(name, defs.locations[locname]),
                             defs.locations[locname])
                for (name, locname) in defn.equations]
        terms = [(rng.choice(pool),) for _ in range(6)]
        for a in terms:
            assert struct_equiv(defs, a, a)
            for b in terms:
                assert struct_equiv(defs, a, b) == struct_equiv(defs, b, a)
                for c in terms:
                    if struct_equiv(defs, a, b) and struct_equiv(defs, b, c):
                        assert struct_equiv(defs, a, c)


def test_unguarded_recursion_is_detected():
    defs_locations = {"l0": L0}
    x = SeqComponent(ConstantRef("X", L0), L0)
    y = SeqComponent(ConstantRef("Y", L0), L0)
    from paloma.model import Definitions

    defs = Definitions(defs_locations, {("X", "l0"): y, ("Y", "l0"): x})
    with pytest.raises(ModelError):
        canonical(defs, (x,))


def test_choice_leaves_in_written_order(scenario):
    defs = scenario.definitions()
    l0 = defs.locations["l0"]
    a = SeqComponent(
        Choice(
            SeqComponent(
                Choice(constant("Transmitter", l0), constant("Receiver", l0)), l0),
            constant("Transmitter", l0)),
        l0)
    # Receiver(l0) resolves to its unicast-input equation
    leaves = list(choice_leaves(defs, a))
    assert len(leaves) == 3
    assert isinstance(leaves[1].prefix, UnicastIn)


def test_render_model_names_constants(scenario):
    comp = agents(scenario, "Scenario1")
    assert render_model(comp) == "Transmitter(l0) || Receiver(l1)"
    assert render_model(EMPTY) == "empty"


def test_spontaneous_prefix_requires_positive_rate():
    with pytest.raises(ModelError):
        Spontaneous("tick", 0.0)


def test_interned_key_matches_resolved_equality():
    for seed in range(40):
        defn = with_aliases(random_model(random.Random(41_000 + seed), n_locations=2))
        defs = defn.definitions()
        terms = set()
        for system in defn.systems.values():
            ctmc = build_ctmc(defs, system, bound=2000)
            assert len(ctmc.states) == len({canonical(defs, s) for s in ctmc.states}), seed
            terms.update(part for state in ctmc.states for part in state)
        terms |= {constant("Alias" + t.body.name, t.location) for t in list(terms)
                  if isinstance(t.body, ConstantRef)}
        terms |= {defs.resolve(t) for t in list(terms)}
        terms |= {SeqComponent(Choice(t, t), t.location) for t in list(terms)}
        terms = sorted(terms, key=render_seq)
        keys = [_state_key(defs, (t,)) for t in terms]
        resolved = [defs.resolve(t) for t in terms]
        for i in range(len(terms)):
            for j in range(len(terms)):
                assert (keys[i] == keys[j]) == (resolved[i] == resolved[j]), (seed, i, j)


def test_definitions_memo_is_lazy_and_fresh():
    defn = load(SCENARIO_SOURCE)
    defs = defn.definitions()
    assert defn.definitions() is not defs
    loc = defn.locations["l0"]
    key = ("Transmitter", "l0")
    old = defn.equations[key]
    # an edit before the first query is seen
    extra = guarded(Spontaneous("zzz", 1.0), ConstantRef("Transmitter", loc), loc)
    defn.equations[key] = SeqComponent(Choice(old, extra), loc)
    transmitter = constant("Transmitter", loc)
    assert spontaneous_rate(defs, transmitter, "zzz") == 1.0
    # from the first query on the equations count as frozen; a fresh
    # Definitions starts from an empty memo and sees later edits
    defn.equations[key] = old
    assert spontaneous_rate(defs, transmitter, "zzz") == 1.0
    fresh = defn.definitions()
    assert not fresh._ids and not fresh._agents and not fresh._unfolded
    assert spontaneous_rate(fresh, transmitter, "zzz") == 0.0


def test_interning_from_many_threads_agrees():
    defn = with_aliases(random_model(random.Random(42_000), n_locations=3,
                                      n_constants=4, max_alternatives=3))
    terms = sorted({part for state in build_ctmc(defn.definitions(), defn.systems["Main"],
                                                 bound=2000).states
                    for part in state}, key=render_seq)
    terms += [constant("Alias" + t.body.name, t.location) for t in terms]
    rng = random.Random(7)
    orders = [rng.sample(range(len(terms)), len(terms)) for _ in range(8)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            defs = defn.definitions()
            start = threading.Barrier(len(orders))
            results: list[list[int]] = []
            errors: list[BaseException] = []

            def work(order: list[int]) -> None:
                try:
                    start.wait(timeout=30)
                    keys = {i: _state_key(defs, (terms[i],))[0] for i in order}
                    results.append([keys[i] for i in range(len(terms))])
                except BaseException as exc:  # reported by the assertions below
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(order,)) for order in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            assert len(results) == len(orders)
            assert all(result == results[0] for result in results)
            assert len(defs._agents) == len({defs.resolve(t) for t in terms})
    finally:
        sys.setswitchinterval(old_interval)


def test_repr_walks_a_deep_choice_without_recursing():
    # records nest as deep as a choice is wide; repr expands them with a stack
    body = " + ".join(f"(a{k}, 1.0).D(l0)" for k in range(3000))
    defn = load(f"location l0 = (0.0, 0.0);\nD(l0) := {body};\nsystem S = D(l0);\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        text = repr(defn.equations[("D", "l0")])
    finally:
        sys.setrecursionlimit(limit)
    assert text.startswith("SeqComponent(body=Choice(left=SeqComponent(body=Choice(")
    assert text.count("PrefixGuarded(prefix=Spontaneous(label=") == 3000
    # the format of a shallow term is the field-by-field one it always had
    term = SeqComponent(Choice(guarded(Spontaneous("t", 1.0), ConstantRef("D", L0), L0),
                               constant("D", L0)), L0)
    at = "Location(name='l0', point=(-1.0, 0.0))"
    assert repr(term) == (
        f"SeqComponent(body=Choice(left=SeqComponent(body=PrefixGuarded("
        f"prefix=Spontaneous(label='t', rate=1.0), continuation=ConstantRef(name='D', "
        f"location={at})), location={at}), right=SeqComponent(body=ConstantRef(name='D', "
        f"location={at}), location={at})), location={at})")
