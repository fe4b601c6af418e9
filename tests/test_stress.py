"""Wider-shape randomized checks tying the whole stack together."""

from __future__ import annotations

import random

from paloma.ctmc import BoundExceeded, build_ctmc
from paloma.equivalence import bisimilar
from paloma.model import (
    BroadcastOut,
    Choice,
    ConstantRef,
    EMPTY,
    Location,
    PrefixGuarded,
    SeqComponent,
    Spontaneous,
    UnicastOut,
    canonical,
)
from paloma.parser import ModelDefinition
from oracle import explore, random_model
from test_semantics import assert_matches_oracle


def test_engine_matches_oracle_on_wider_models():
    skipped = 0
    for seed in range(20):
        defn = random_model(random.Random(90_000 + seed),
                            max_agents=4, n_locations=3, n_labels=2, n_constants=2)
        defs = defn.definitions()
        try:
            build_ctmc(defs, defn.systems["Main"], bound=1500)
        except BoundExceeded:
            skipped += 1
            continue
        assert_matches_oracle(defn)
    assert skipped < 20


def _shift_copy(defn: ModelDefinition, offset=(10.0, 0.0)) -> ModelDefinition:
    """Extend a model with a translated, renamed copy of every equation and
    add a Mirror system mirroring Main."""
    mapping = {}
    for name, loc in list(defn.locations.items()):
        shifted = Location(name + "m", (loc.point[0] + offset[0],
                                        loc.point[1] + offset[1]))
        defn.locations[shifted.name] = shifted
        mapping[name] = shifted

    def move_prefix(prefix):
        if isinstance(prefix, (UnicastOut, BroadcastOut)):
            shifted_range = frozenset(mapping[l.name] for l in prefix.influence)
            return type(prefix)(prefix.label, prefix.rate, shifted_range)
        return prefix

    def move(comp: SeqComponent) -> SeqComponent:
        body = comp.body
        loc = mapping[comp.location.name]
        if isinstance(body, ConstantRef):
            return SeqComponent(ConstantRef(body.name + "m", loc), loc)
        if isinstance(body, Choice):
            return SeqComponent(Choice(move(body.left), move(body.right)), loc)
        cont = body.continuation
        moved_cont = ConstantRef(cont.name + "m", mapping[cont.location.name])
        return SeqComponent(PrefixGuarded(move_prefix(body.prefix), moved_cont), loc)

    for (name, locname), body in list(defn.equations.items()):
        defn.equations[(name + "m", locname + "m")] = move(body)
    defn.systems["Mirror"] = tuple(move(part) for part in defn.systems["Main"])
    return defn


def test_translated_twin_systems_are_bisimilar():
    related = 0
    for seed in range(20):
        defn = _shift_copy(random_model(random.Random(95_000 + seed),
                                        max_agents=2, n_constants=2))
        defs = defn.definitions()
        result = bisimilar(defs, defn.systems["Main"], defn.systems["Mirror"],
                           EMPTY, bound=500)
        assert result.related, seed
        assert result.witness is not None
        related += 1
    assert related == 20


def test_twin_with_an_extra_action_is_not_bisimilar():
    for seed in range(12):
        defn = _shift_copy(random_model(random.Random(96_000 + seed),
                                        max_agents=2, n_constants=2))
        defs = defn.definitions()
        # give the mirror's first agent an extra observable alternative
        first = defn.systems["Mirror"][0].body
        assert isinstance(first, ConstantRef)
        key = (first.name, first.location.name)
        old = defn.equations[key]
        extra = SeqComponent(
            PrefixGuarded(Spontaneous("zzz", 1.0), ConstantRef(first.name, first.location)),
            old.location)
        defn.equations[key] = SeqComponent(Choice(old, extra), old.location)
        result = bisimilar(defs, defn.systems["Main"], defn.systems["Mirror"],
                           EMPTY, bound=500)
        assert not result.related, seed
        assert not result.inconclusive, seed


def test_oracle_state_sets_match_engine_on_twins():
    for seed in range(8):
        defn = _shift_copy(random_model(random.Random(97_000 + seed),
                                        max_agents=2, n_constants=2))
        defs = defn.definitions()
        ctmc = build_ctmc(defs, defn.systems["Mirror"], bound=1000)
        states, _ = explore(defs, defn.systems["Mirror"], bound=1000)
        assert {canonical(defs, s) for s in ctmc.states} == set(states)
