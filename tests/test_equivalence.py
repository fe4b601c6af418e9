from __future__ import annotations

import math
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import bisim_reference as reference
import families

from paloma.equivalence import (
    BisimResult,
    bisimilar,
    check_bisim_phi,
    naive_bisim,
    recheck_transfer,
)
from paloma.geometry import (
    IDENTITY,
    candidate_isometries,
    invert,
    reflection_y_axis,
    translation,
)
from paloma.model import (
    ActionId,
    EMPTY,
    _model_actions,
    _state_key,
    constant,
    locations_of,
    render_model,
)
from paloma.rates import RateQuery, exit_rate
from conftest import COLLISION_SHIFT, COLLISION_SOURCE, load, with_aliases
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
    finding = recheck_transfer(defs, EMPTY, union)
    assert finding is None, f"union of bisimulations broke closure: {finding.describe()}"


def test_recheck_transfer_names_a_pair_whose_steps_leave_the_set(scenario):
    # the root pair alone is not closed: its matched steps lead to pairs
    # outside the set, so the first step is reported as unmatched
    defs = scenario.definitions()
    sc1, sc2 = scenario.systems["Scenario1"], scenario.systems["Scenario2"]
    assert check_bisim_phi(defs, sc1, sc2, EMPTY, reflection_y_axis()).related
    finding = recheck_transfer(defs, EMPTY, [(sc1, sc2)])
    assert finding is not None and finding.kind == "unmatched-transition"
    assert (finding.left, finding.right) == (render_model(sc1), render_model(sc2))


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
        finding = recheck_transfer(defs, EMPTY, union)
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
    from paloma.semantics import _keyed_component_steps

    defs = scenario.definitions()
    seen = []

    def recording(defs_, context, subject):
        seen.append(_state_key(defs_, subject))
        return _keyed_component_steps(defs_, context, subject)

    monkeypatch.setattr(equivalence, "_keyed_component_steps", recording)
    left, right = scenario.systems["Scenario1"], scenario.systems["Scenario2"]
    checker = equivalence._Checker(defs, EMPTY, 10000)
    mirrored = checker.run(left, right, reflection_y_axis())
    derived = len(seen)
    reached = dict(checker._reached)
    turned = checker.run(left, right, rotation(math.pi))
    assert mirrored.related and turned.related
    assert mirrored.relation == turned.relation and len(mirrored.pairs) > 1
    assert derived > 2 and len(seen) == derived
    assert len(seen) == len(set(seen))
    # each side was reached once, by the first candidate, and the second
    # candidate refined the same reached states
    roots = (_state_key(defs, left), _state_key(defs, right))
    assert set(reached) == set(roots)
    assert all(checker._reached[root] is reached[root] for root in roots)


def test_counterexamples_are_built_only_for_a_verdict(monkeypatch):
    # the rate filter and the refinement only ask whether a pair fails; the
    # Counterexample, which renders both sides, is built for the reported
    # root pair alone
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


def test_rate_frames_are_built_once_per_location_sets(monkeypatch):
    # a state's rate signature depends on the isometry only through the
    # locations it occupies: the candidate is inverted once, and the inverse
    # maps each right location once, not once per state that occupies it
    import paloma.equivalence as equivalence
    from paloma.geometry import Isometry

    ring = load(families.ring(3, 1))
    defs = ring.definitions()
    left, right = ring.systems["Main"], ring.systems["Rot"]
    inverted, applied = [], []
    real_invert, real_apply = equivalence.invert, Isometry.apply
    monkeypatch.setattr(equivalence, "invert",
                        lambda phi: inverted.append(phi) or real_invert(phi))
    monkeypatch.setattr(Isometry, "apply",
                        lambda self, point: applied.append(point) or real_apply(self, point))
    checker = equivalence._Checker(defs, EMPTY)
    assert checker.run(left, right, IDENTITY).related
    states = checker.reach(_state_key(defs, right), right)[0]
    location_sets = {checker.rates(key)[0] for key in states}
    assert len(location_sets) * 3 < len(states)
    assert inverted == [IDENTITY]
    assert len(applied) <= len(set().union(*location_sets))


def _drawn(seed, max_agents, n_locations, max_alternatives):
    defn = random_model(random.Random(seed), max_agents=max_agents,
                        n_locations=n_locations, max_alternatives=max_alternatives)
    return defn.definitions(), defn.systems["Main"], defn.systems["Alt"]


def test_relation_keeps_the_pairs_reachable_inside_it():
    # the parent printed every related pair of the product it explored; some
    # of them are reached from the root only through pairs that are not
    # related, and the printed relation leaves those out
    defs, main, _ = _drawn(5, 2, 3, 2)
    rot = main[1:] + main[:1]
    result = bisimilar(defs, main, rot, EMPTY)
    parent = reference.bisimilar(defs, main, rot, EMPTY)
    assert result.related and parent.related and result.witness == parent.witness
    omitted = set(parent.relation) - set(result.relation)
    assert set(result.relation) < set(parent.relation)
    assert ("C0(l1) || C2(l2)", "C0(l2) || C2(l2)") in omitted
    assert recheck_transfer(defs, EMPTY, result.pairs) is None


def test_related_verdict_renders_each_state_of_the_relation_once(monkeypatch):
    # steps are ordered by successor key and pairs relate state numbers, so
    # terms are rendered only for the report, one per state and side
    import paloma.equivalence as equivalence

    rendered = []
    real = equivalence.render_model
    monkeypatch.setattr(equivalence, "render_model",
                        lambda term: rendered.append(term) or real(term))
    ring = load(families.ring(3, 1))
    result = bisimilar(ring.definitions(), ring.systems["Main"], ring.systems["Rot"], EMPTY)
    assert result.related and len(result.relation) > 1
    states = len({l for l, _ in result.relation}) + len({r for _, r in result.relation})
    assert 0 < len(rendered) <= states


def test_aliased_state_prints_as_one_term_and_roots_as_given():
    # Alias holds AliasC(l) := C(l) in place of each agent C(l) of Main, so
    # both roots share one key and one reach; the right root's key recurs as
    # the rotated state, and prints as the right root on every line
    defn = with_aliases(random_model(random.Random(142), max_agents=2, n_locations=2,
                                     max_alternatives=2))
    defs = defn.definitions()
    main = defn.systems["Main"]
    alias = tuple(constant("Alias" + part.body.name, part.location) for part in main)
    result = bisimilar(defs, main, alias, EMPTY)
    assert result.related and result.witness.kind == "identity"
    assert render_model(main) == "C2(l0) || C0(l0)"
    assert [pair for pair in result.relation if "Alias" in "".join(pair)] == [
        ("C0(l0) || C2(l0)", "AliasC2(l0) || AliasC0(l0)"),
        ("C2(l0) || C0(l0)", "AliasC2(l0) || AliasC0(l0)"),
    ]
    assert (main, alias) in result.pairs
    assert len(result.relation) == len(set(result.relation)) == 28
    for side in (0, 1):
        printed = {(_state_key(defs, pair[side]), text[side])
                   for pair, text in zip(result.pairs, result.relation)}
        assert len(printed) == len(dict(printed))


def test_bound_counts_the_states_each_side_reaches():
    # Alt reaches more than 5 states, while the parent's pair space stayed
    # within 5 and gave a definite verdict
    from paloma.equivalence import _Checker

    defs, main, alt = _drawn(36, 2, 1, 3)
    checker = _Checker(defs, EMPTY)
    assert len(checker.reach(_state_key(defs, alt), alt)[0]) > 5
    parent = reference.bisimilar(defs, main, alt, EMPTY, 5)
    assert not parent.related and not parent.inconclusive
    result = bisimilar(defs, main, alt, EMPTY, 5)
    assert result.inconclusive and not result.related
    assert bisimilar(defs, main, alt, EMPTY) == reference.bisimilar(defs, main, alt, EMPTY)


ORDER_SOURCE = """
location l0 = (0.0, 0.0);
location l1 = (2.0, 0.0);
A(l0) := (tick, 0.1).A(l0) + (go, 1.0).A(l1);
A(l1) := (tick, 0.1).A(l1);
B(l0) := (tick, 0.2).B(l0) + (go, 1.0).B(l1);
B(l1) := (tick, 0.2).B(l1);
C(l0) := (tick, 0.3).C(l0) + (go, 1.0).C(l1);
C(l1) := (tick, 0.3).C(l1);
system Main = A(l0) || B(l0) || C(l0);
system Rot = B(l0) || C(l0) || A(l0);
"""


def test_composition_order_changes_last_bits_without_splitting_a_block():
    defn = load(ORDER_SOURCE)
    defs = defn.definitions()
    main, rot = defn.systems["Main"], defn.systems["Rot"]
    tick, l0 = ActionId.parse("tick"), frozenset({defs.locations["l0"]})
    sums = [exit_rate(defs, RateQuery(tick, side, EMPTY, l0)) for side in (main, rot)]
    assert sums[0].hex() != sums[1].hex()
    result = bisimilar(defs, main, rot, EMPTY)
    assert result.related and result.witness.kind == "identity"
    # each set of agents that moved, on both sides
    assert len(result.relation) == 8


STRADDLE_SOURCE = """
location l0 = (0.0, 0.0);
W(l0) := (tick, 1.00000000499).Z(l0);
V(l0) := (tick, 1.00000000501).Z(l0);
Z(l0) := (rest, 1.0).Z(l0);
X(l0) := (go, 1.0).W(l0);
Y(l0) := (go, 1.0).V(l0);
system A = W(l0);
system B = V(l0);
system GoA = X(l0);
system GoB = Y(l0);
"""


def test_rates_straddling_a_key_boundary_give_a_definite_verdict():
    # the two tick rates are within ALGEBRAIC_TOL of each other, but round to
    # different 9-digit keys: at the root they refute the candidate, and one
    # step in they split the successors' blocks. Both ticks lead to Z, so a
    # root that passed a looser rate check would have no step to blame
    from paloma.cli import _bisim_report
    from paloma.geometry import ALGEBRAIC_TOL

    defn = load(STRADDLE_SOURCE)
    defs = defn.definitions()
    systems = defn.systems
    at_root = bisimilar(defs, systems["A"], systems["B"], EMPTY)
    assert not at_root.related and not at_root.inconclusive
    assert at_root.counterexample.kind == "rate-mismatch"
    assert math.isclose(*at_root.counterexample.values, rel_tol=ALGEBRAIC_TOL)
    one_step = bisimilar(defs, systems["GoA"], systems["GoB"], EMPTY)
    assert not one_step.related and not one_step.inconclusive
    assert one_step.counterexample.kind == "unmatched-transition"
    assert one_step.counterexample.action == "go"
    for result in (at_root, one_step):
        assert "counterexample: " in _bisim_report(result)


class _Expected(reference.ReferencePairChecker):
    """The reference checker with the engine's two intended differences, each
    derived from the reference itself: the relation keeps the reference's
    pairs reachable from the root through matched steps inside it, and a
    candidate that passes the root rate check is inconclusive once either
    side reaches more than ``bound`` states."""

    def reached(self, root, rep) -> int:
        order, reps = [root], {root: rep}
        for key in order:
            for step, succ in self.steps(key, reps[key])[0]:
                if succ not in reps:
                    reps[succ] = step.successor
                    order.append(succ)
        return len(order)

    def run(self, left, right, phi):
        root, rep = (_state_key(self.defs, left), _state_key(self.defs, right)), (left, right)
        if self.rate_gap(root, rep, phi) is None and any(
                self.reached(key, side) > self.bound for key, side in zip(root, rep)):
            return BisimResult(related=False, inconclusive=True, note=(
                f"state bound {self.bound} exceeded while reaching a side's states"))
        result = super().run(left, right, phi)
        if result.related:
            inside = {(_state_key(self.defs, l), _state_key(self.defs, r)): (l, r)
                      for l, r in result.pairs}
            kept, queue = {root}, [root]
            for key in queue:
                right_by_action = self.steps(key[1], inside[key][1])[1]
                for step, key_l in self.steps(key[0], inside[key][0])[0]:
                    for _, key_r in right_by_action.get(step.action, ()):
                        if (key_l, key_r) in inside and (key_l, key_r) not in kept:
                            kept.add((key_l, key_r))
                            queue.append((key_l, key_r))
            pairs = [pair for key, pair in inside.items() if key in kept]
            result.pairs = pairs
            result.relation = [(render_model(l), render_model(r)) for l, r in pairs]
        return result


def _expected(function, *args):
    """``function`` of the reference module, run through ``_Expected``."""
    with mock.patch.object(reference, "ReferencePairChecker", _Expected):
        return function(*args)


# one draw pins each intended difference: a relation the reference prints
# larger, and a side that outgrows the bound while the reference's pair
# space does not
@example(seed=5, max_agents=2, n_locations=3, max_alternatives=2)
@example(seed=36, max_agents=2, n_locations=1, max_alternatives=3)
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), max_agents=st.integers(1, 3),
       n_locations=st.integers(1, 3), max_alternatives=st.integers(1, 3))
def test_checker_matches_the_reference_on_drawn_models(seed, max_agents, n_locations,
                                                       max_alternatives):
    # Main against Alt is seldom related; a system against itself in another
    # composition order always is, and refinement has a large state set to cut
    from paloma.cli import _bisim_report

    defn = random_model(random.Random(seed), max_agents=max_agents,
                        n_locations=n_locations, max_alternatives=max_alternatives)
    defs = defn.definitions()
    main, alt = defn.systems["Main"], defn.systems["Alt"]

    def same(engine, expected):
        assert engine == expected
        assert _bisim_report(engine) == _bisim_report(expected)

    for left, right in ((main, alt), (main, main[1:] + main[:1]), (alt, alt[::-1])):
        for context in (EMPTY, alt[:1]):
            points = [[loc.point for loc in locations_of(context + side)]
                      for side in (left, right)]
            candidates = candidate_isometries(*points)[0]
            for bound in (1, 2, 5, 60):
                same(bisimilar(defs, left, right, context, bound),
                     _expected(reference.bisimilar, defs, left, right, context, bound))
                for phi in candidates:
                    same(check_bisim_phi(defs, left, right, context, phi, bound),
                         _expected(reference.check_bisim_phi, defs, left, right, context,
                                   phi, bound))
                same(naive_bisim(defs, left[0], right[0], context, bound),
                     _expected(reference.naive_bisim, defs, left[0], right[0], context, bound))


def test_rates_are_priced_only_for_actions_some_prefix_carries(monkeypatch):
    # an action that no prefix carries has rate 0 in every state, so the
    # checker prices only the (type, label) pairs the model writes: ring-3
    # and duo-4 each write 5 of the 15 that their 3 labels make
    import paloma.equivalence as equivalence

    priced = []
    real = equivalence._rate_table
    monkeypatch.setattr(equivalence, "_rate_table",
                        lambda *args: priced.append(args[2].text) or real(*args))
    ring = load(families.ring(3, 1))
    result = bisimilar(ring.definitions(), ring.systems["Main"], ring.systems["Rot"], EMPTY)
    assert result.related and len(priced) == 135
    priced.clear()
    duo = load(families.duo(4, 1))
    result = bisimilar(duo.definitions(), duo.systems["Main"], duo.systems["Odd"], EMPTY)
    assert not result.related and len(priced) == 10


def _related_verdicts(defn, shifts=()):
    """The related verdicts of every check on each ordered pair of the
    model's systems, in the empty context and inside its first system:
    the candidate search, fixed-phi under every candidate and under each
    translation by ``shifts``, and the naive check of the first agents."""
    defs = defn.definitions()
    systems = list(defn.systems.values())
    for context in (EMPTY, systems[0]):
        for left in systems:
            for right in systems:
                points = [[loc.point for loc in locations_of(context + side)]
                          for side in (left, right)]
                phis = candidate_isometries(*points)[0] + [translation(*s) for s in shifts]
                results = [bisimilar(defs, left, right, context, bound=400),
                           naive_bisim(defs, left[0], right[0], context, bound=400)]
                results += [check_bisim_phi(defs, left, right, context, phi, bound=400)
                            for phi in phis]
                yield from ((defs, context, r) for r in results if r.related)


def _shipped(name):
    return load((Path(__file__).resolve().parent.parent / "models" / name).read_text())


# each model with the translations to check it under besides its candidates
_INVARIANT_MODELS = {
    "scenario": lambda: [(_shipped("scenario.paloma"), ())],
    "blocking": lambda: [(_shipped("blocking.paloma"), ())],
    "ring-3": lambda: [(load(families.ring(3, 1)), ())],
    "duo-4": lambda: [(load(families.duo(4, 1)), ())],
    "drawn": lambda: [(random_model(random.Random(seed)), ()) for seed in range(40)],
    "collision": lambda: [(load(COLLISION_SOURCE), (COLLISION_SHIFT,))],
}


@pytest.mark.parametrize("model", list(_INVARIANT_MODELS))
def test_related_pairs_have_equal_total_exit_rates(model):
    # a related pair's sides expose, for every action, rates that agree at
    # corresponding places, so their totals agree too; rates that one frame
    # reads at one place must add up for that to hold
    checked = 0
    for defn, shifts in _INVARIANT_MODELS[model]():
        for defs, context, result in _related_verdicts(defn, shifts):
            for pair in result.pairs:
                for action in _model_actions(defs):
                    left, right = (exit_rate(defs, RateQuery(action, side, context))
                                   for side in pair)
                    assert math.isclose(left, right, rel_tol=1e-8), (action.text, pair)
            checked += 1
    assert checked > 0
