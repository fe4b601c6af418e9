from __future__ import annotations

import math
import random

from paloma.equivalence import (
    bisimilar,
    check_bisim_phi,
    naive_bisim,
    recheck_transfer,
)
from paloma.geometry import IDENTITY, invert, reflection_y_axis, translation
from paloma.model import ActionId, EMPTY, constant
from paloma.rates import RateQuery, exit_rate
from conftest import load
from oracle import random_model

TWO_PLACES_SOURCE = """
location l0 = (0.0, 0.0);
location l1 = (3.0, 0.0);
W(l0) := (tick, 1.0).W(l0);
W(l1) := (tick, 1.0).W(l1);
system A = W(l0);
system B = W(l1);
"""


def test_reflexivity_under_identity(scenario):
    defs = scenario.definitions()
    sc1 = scenario.systems["Scenario1"]
    for context in (EMPTY, scenario.systems["Scenario2"]):
        result = check_bisim_phi(defs, sc1, sc1, context, IDENTITY)
        assert result.related
        root = ("Transmitter(l0) || Receiver(l1)",) * 2
        assert root in result.relation


def test_scenarios_are_bisimilar_under_reflection(scenario):
    defs = scenario.definitions()
    sc1 = scenario.systems["Scenario1"]
    sc2 = scenario.systems["Scenario2"]
    result = check_bisim_phi(defs, sc1, sc2, EMPTY, reflection_y_axis())
    assert result.related
    assert ("Transmitter(l0) || Receiver(l1)",
            "Transmitter(l1) || Receiver(l0)") in result.relation


def test_scenarios_are_not_bisimilar_under_identity(scenario):
    defs = scenario.definitions()
    sc1 = scenario.systems["Scenario1"]
    sc2 = scenario.systems["Scenario2"]
    result = check_bisim_phi(defs, sc1, sc2, EMPTY, IDENTITY)
    assert not result.related
    assert result.counterexample is not None


def test_bisimilar_finds_the_reflection_witness(scenario):
    defs = scenario.definitions()
    result = bisimilar(defs, scenario.systems["Scenario1"],
                       scenario.systems["Scenario2"], EMPTY)
    assert result.related
    assert result.witness is not None
    assert result.witness.kind == "reflection"
    l0 = defs.locations["l0"]
    l1 = defs.locations["l1"]
    assert math.dist(result.witness.apply(l0.point), l1.point) <= 1e-9
    assert math.dist(result.witness.apply(l1.point), l0.point) <= 1e-9


def test_blocked_transmitter_and_receiver_equivalent_in_empty_context(blocking):
    defs = blocking.definitions()
    result = bisimilar(defs, blocking.systems["T"], blocking.systems["R"], EMPTY)
    assert result.related


def test_transmitter_receiver_distinguished_by_transmitter_context(blocking):
    defs = blocking.definitions()
    context = blocking.systems["T"]
    result = bisimilar(defs, blocking.systems["T"], blocking.systems["R"], context)
    assert not result.related and not result.inconclusive
    ce = result.counterexample
    assert ce is not None
    assert ce.kind == "unmatched-transition"
    assert ce.transition == "!!message"


def test_fixed_phi_check_matches_the_context_example(blocking):
    defs = blocking.definitions()
    context = blocking.systems["T"]
    result = check_bisim_phi(defs, blocking.systems["T"], blocking.systems["R"],
                             context, IDENTITY)
    assert not result.related
    assert result.counterexample.transition == "!!message"


def test_any_component_bisimilar_to_itself(scenario, blocking):
    for defn, name in ((scenario, "Scenario1"), (scenario, "Scenario2"),
                       (blocking, "Pair")):
        defs = defn.definitions()
        system = defn.systems[name]
        result = bisimilar(defs, system, system, EMPTY)
        assert result.related
        assert result.witness.kind == "identity"


def test_naive_bisim_reflexive(blocking):
    defs = blocking.definitions()
    t = blocking.systems["T"][0]
    result = naive_bisim(defs, t, t, EMPTY)
    assert result.related


def test_naive_bisim_rejects_identical_behavior_at_different_locations():
    defn = load(TWO_PLACES_SOURCE)
    defs = defn.definitions()
    a, b = defn.systems["A"][0], defn.systems["B"][0]
    result = naive_bisim(defs, a, b, EMPTY)
    assert not result.related
    assert result.counterexample.kind == "location-mismatch"


def test_phi_check_relates_identical_behavior_across_locations():
    defn = load(TWO_PLACES_SOURCE)
    defs = defn.definitions()
    a, b = defn.systems["A"], defn.systems["B"]
    shift = translation(3.0, 0.0)
    assert check_bisim_phi(defs, a, b, EMPTY, shift).related
    result = bisimilar(defs, a, b, EMPTY)
    assert result.related


def test_naive_bisim_blocked_components_at_same_location(blocking):
    defs = blocking.definitions()
    t = blocking.systems["T"][0]
    r = blocking.systems["R"][0]
    result = naive_bisim(defs, t, r, EMPTY)
    assert result.related


def test_bound_exceeded_is_inconclusive(scenario):
    defs = scenario.definitions()
    sc1 = scenario.systems["Scenario1"]
    result = check_bisim_phi(defs, sc1, sc1, EMPTY, IDENTITY, bound=1)
    assert not result.related
    assert result.inconclusive


def test_witness_relation_swaps_with_inverted_phi(scenario):
    defs = scenario.definitions()
    sc1 = scenario.systems["Scenario1"]
    sc2 = scenario.systems["Scenario2"]
    phi = reflection_y_axis()
    forward = check_bisim_phi(defs, sc1, sc2, EMPTY, phi)
    backward = check_bisim_phi(defs, sc2, sc1, EMPTY, invert(phi))
    assert forward.related and backward.related
    assert sorted((r, l) for l, r in forward.relation) == sorted(backward.relation)


def test_union_of_witness_relations_stays_transfer_closed(scenario):
    defs = scenario.definitions()
    sc1 = scenario.systems["Scenario1"]
    sc2 = scenario.systems["Scenario2"]
    phi = reflection_y_axis()
    first = check_bisim_phi(defs, sc1, sc2, EMPTY, phi)
    assert first.related
    # a second witness for a derivative pair under the same phi and context
    l0, l1 = defs.locations["l0"], defs.locations["l1"]
    d1 = (constant("Transmitter", l1), constant("Receiver", l1))
    d2 = (constant("Transmitter", l0), constant("Receiver", l0))
    second = check_bisim_phi(defs, d1, d2, EMPTY, phi)
    assert second.related
    union = first.pairs + second.pairs
    finding = recheck_transfer(defs, EMPTY, phi, union)
    assert finding is None, f"union of bisimulations broke closure: {finding.describe()}"


def test_union_property_on_random_models():
    findings = []
    for seed in range(60):
        defn = random_model(random.Random(seed))
        defs = defn.definitions()
        main, alt = defn.systems["Main"], defn.systems["Alt"]
        result = bisimilar(defs, main, alt, EMPTY, bound=300)
        if not result.related:
            continue
        mirror = check_bisim_phi(defs, alt, main, EMPTY, invert(result.witness),
                                 bound=300)
        if not mirror.related:
            continue
        union = result.pairs + [(r, l) for l, r in mirror.pairs]
        # the union mixes both orientations only when phi is an involution
        if not invert(result.witness).is_identity(1e-9):
            union = result.pairs
        finding = recheck_transfer(defs, EMPTY, result.witness, union)
        if finding is not None:
            findings.append((seed, finding.describe()))
    assert not findings, findings


def test_singleton_location_checks_agree_with_small_subsets(scenario):
    import itertools

    defs = scenario.definitions()
    locs = sorted(defs.locations.values(), key=lambda l: l.name)
    phi = reflection_y_axis()
    actions = [ActionId.parse(g + "message_move") for g in ("", "!", "?", "!!", "??")]
    subjects = [(scenario.systems["Scenario1"], scenario.systems["Scenario2"]),
                (scenario.systems["Scenario1"], scenario.systems["Scenario1"])]
    for left, right in subjects:
        singleton_ok = True
        for action in actions:
            for loc in locs:
                lv = exit_rate(defs, RateQuery(action, left, EMPTY, frozenset({loc})))
                image = next((c for c in locs
                              if math.dist(phi.apply(loc.point), c.point) <= 1e-6), None)
                rv = 0.0
                if image is not None:
                    rv = exit_rate(defs, RateQuery(action, right, EMPTY,
                                                   frozenset({image})))
                if not math.isclose(lv, rv, rel_tol=1e-9, abs_tol=0.0):
                    singleton_ok = False
        subset_ok = True
        for action in actions:
            for size in (1, 2):
                for subset in itertools.combinations(locs, size):
                    lv = exit_rate(defs, RateQuery(action, left, EMPTY,
                                                   frozenset(subset)))
                    images = set()
                    for loc in subset:
                        image = next((c for c in locs
                                      if math.dist(phi.apply(loc.point), c.point) <= 1e-6),
                                     None)
                        if image is not None:
                            images.add(image)
                    rv = exit_rate(defs, RateQuery(action, right, EMPTY,
                                                   frozenset(images)))
                    if not math.isclose(lv, rv, rel_tol=1e-9, abs_tol=1e-12):
                        subset_ok = False
        assert singleton_ok == subset_ok


def test_repeated_runs_return_identical_results(scenario):
    defs = scenario.definitions()
    sc1 = scenario.systems["Scenario1"]
    sc2 = scenario.systems["Scenario2"]
    a = bisimilar(defs, sc1, sc2, EMPTY)
    b = bisimilar(defs, sc1, sc2, EMPTY)
    assert a.related == b.related
    assert a.witness == b.witness
    assert a.relation == b.relation


def test_rate_condition_holds_across_every_related_pair(scenario):
    defs = scenario.definitions()
    result = bisimilar(defs, scenario.systems["Scenario1"],
                       scenario.systems["Scenario2"], EMPTY)
    assert result.related
    phi = result.witness
    locs = sorted(defs.locations.values(), key=lambda l: l.name)
    for left, right in result.pairs:
        for glyph in ("", "!", "?", "!!", "??"):
            action = ActionId.parse(glyph + "message_move")
            for loc in locs:
                image = next((c for c in locs
                              if math.dist(phi.apply(loc.point), c.point) <= 1e-6), None)
                lv = exit_rate(defs, RateQuery(action, left, EMPTY, frozenset({loc})))
                rv = exit_rate(defs, RateQuery(action, right, EMPTY,
                                               frozenset({image}) if image else frozenset()))
                assert math.isclose(lv, rv, rel_tol=1e-9, abs_tol=0.0), (
                    action.text, loc.name, lv, rv)


def test_random_self_similarity():
    for seed in range(25):
        defn = random_model(random.Random(seed))
        defs = defn.definitions()
        main = defn.systems["Main"]
        result = bisimilar(defs, main, main, EMPTY, bound=400)
        assert result.related, seed
        assert result.witness.kind == "identity"


def test_pair_check_computes_each_state_exit_rate_once(scenario, monkeypatch):
    import paloma.equivalence as equivalence
    from paloma.rates import _rate_table

    defs = scenario.definitions()
    seen = []

    def recording(context, subject, action):
        seen.append((tuple(map(id, subject)), action))
        return _rate_table(context, subject, action)

    monkeypatch.setattr(equivalence, "_rate_table", recording)
    result = bisimilar(defs, scenario.systems["Scenario1"], scenario.systems["Scenario2"],
                       EMPTY)
    # the identity is refuted before the reflection relates the pair, and
    # both candidates read the same tables
    assert result.related and result.witness.kind == "reflection"
    assert len(result.pairs) > 1
    assert seen and len(seen) == len(set(seen))


def test_one_checker_derives_each_state_once_across_candidates(scenario, monkeypatch):
    import paloma.equivalence as equivalence
    from paloma.geometry import rotation
    from paloma.model import _state_key
    from paloma.semantics import _keyed_component_steps

    defs = scenario.definitions()
    seen = []

    def recording(defs_, context, subject):
        seen.append(_state_key(defs_, subject))
        return _keyed_component_steps(defs_, context, subject)

    monkeypatch.setattr(equivalence, "_keyed_component_steps", recording)
    left, right = scenario.systems["Scenario1"], scenario.systems["Scenario2"]
    checker = equivalence._PairChecker(defs, EMPTY, 10000)
    mirrored = checker.run(left, right, reflection_y_axis())
    derived = len(seen)
    turned = checker.run(left, right, rotation(math.pi))
    assert mirrored.related and turned.related
    assert mirrored.relation == turned.relation and len(mirrored.pairs) > 1
    assert derived > 2 and len(seen) == derived
    assert len(seen) == len(set(seen))
    # and the second candidate refined the pair set the first explored
    root = (_state_key(defs, left), _state_key(defs, right))
    assert checker.explore(root, (left, right)) is checker.explore(root, (left, right))


def test_counterexamples_are_built_only_for_a_verdict(monkeypatch):
    # the rate filter and the refinement only ask whether a pair fails; the
    # Counterexample, which renders both sides, is built for the reported
    # root pair alone
    import families
    import paloma.equivalence as equivalence

    built = []
    real = equivalence.Counterexample

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(equivalence, "Counterexample", counting)
    ring = load(families.ring(3, 1))
    assert bisimilar(ring.definitions(), ring.systems["Main"], ring.systems["Rot"],
                     EMPTY).related
    assert built == []
    duo = load(families.duo(4, 1))
    result = bisimilar(duo.definitions(), duo.systems["Main"], duo.systems["Odd"], EMPTY)
    assert not result.related
    assert len(built) == len(result.candidate_failures) == 4
