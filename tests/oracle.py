"""Independent brute-force enumeration of system transitions.

A deliberately naive second implementation of the transition rules, kept
separate from the engine so the two can be compared state-for-state and
rate-for-rate. Joint broadcast outcomes are enumerated explicitly with
itertools.product and every rate is computed from first principles.

Also hosts the random model generator shared by the property suites.
"""

from __future__ import annotations

import itertools
from random import Random

from paloma.model import (
    BroadcastIn,
    BroadcastOut,
    Choice,
    ConstantRef,
    Definitions,
    Location,
    ModelComponent,
    PrefixGuarded,
    SeqComponent,
    Spontaneous,
    UnicastIn,
    UnicastOut,
    canonical,
)
from paloma.parser import ModelDefinition

# Edge key: (kind glyph, label, sorted range names, canonical successor).
EdgeKey = tuple[str, str, tuple[str, ...], ModelComponent]


def alternatives(defs: Definitions, comp: SeqComponent, _depth: int = 0):
    """All prefix alternatives of one agent, unfolding constants and choice."""
    if _depth > 100:
        raise RuntimeError("runaway constant unfolding")
    body = comp.body
    if isinstance(body, ConstantRef):
        eq = defs.equations[(body.name, body.location.name)]
        return alternatives(defs, eq, _depth + 1)
    if isinstance(body, Choice):
        return alternatives(defs, body.left, _depth + 1) + alternatives(
            defs, body.right, _depth + 1)
    assert isinstance(body, PrefixGuarded)
    return [(body.prefix, body.continuation)]


def weight_for(defs: Definitions, agent: SeqComponent, label: str) -> float:
    return sum(p.weight for p, _ in alternatives(defs, agent)
               if isinstance(p, UnicastIn) and p.label == label)


def _succ(state: ModelComponent, changes: dict[int, SeqComponent]) -> ModelComponent:
    return tuple(changes.get(i, agent) for i, agent in enumerate(state))


def _cont_comp(cont: ConstantRef) -> SeqComponent:
    return SeqComponent(cont, cont.location)


def transitions(defs: Definitions, state: ModelComponent) -> dict[EdgeKey, float]:
    """Every outgoing transition of ``state``, rates merged per edge key."""
    edges: dict[EdgeKey, float] = {}

    def add(key: EdgeKey, rate: float) -> None:
        if rate > 0.0:
            edges[key] = edges.get(key, 0.0) + rate

    for i, agent in enumerate(state):
        for prefix, cont in alternatives(defs, agent):
            mover = _cont_comp(cont)

            if isinstance(prefix, Spontaneous):
                succ = canonical(defs, _succ(state, {i: mover}))
                add((".", prefix.label, (), succ), prefix.rate)

            elif isinstance(prefix, BroadcastOut):
                range_key = tuple(sorted(l.name for l in prefix.influence))
                # every other in-range agent with a matching broadcast input
                # independently receives-and-acts with probability p*q
                listeners = []
                for j, other in enumerate(state):
                    if j == i or other.location not in prefix.influence:
                        continue
                    for p2, cont2 in alternatives(defs, other):
                        if isinstance(p2, BroadcastIn) and p2.label == prefix.label:
                            listeners.append((j, _cont_comp(cont2),
                                              p2.act_prob * p2.recv_prob))
                for flags in itertools.product((True, False), repeat=len(listeners)):
                    mass = 1.0
                    changes = {i: mover}
                    for (j, succ_j, pq), acted in zip(listeners, flags):
                        if acted:
                            mass *= pq
                            changes[j] = succ_j
                        else:
                            mass *= 1.0 - pq
                    succ = canonical(defs, _succ(state, changes))
                    add(("!", prefix.label, range_key, succ), prefix.rate * mass)

            elif isinstance(prefix, UnicastOut):
                range_key = tuple(sorted(l.name for l in prefix.influence))
                # the sender never receives its own unicast
                total_weight = sum(
                    weight_for(defs, a, prefix.label)
                    for j, a in enumerate(state) if j != i and a.location in prefix.influence)
                for j, other in enumerate(state):
                    if j == i or other.location not in prefix.influence:
                        continue
                    for p2, cont2 in alternatives(defs, other):
                        if not (isinstance(p2, UnicastIn) and p2.label == prefix.label):
                            continue
                        share = p2.weight / total_weight
                        took = canonical(
                            defs, _succ(state, {i: mover, j: _cont_comp(cont2)}))
                        add(("!!", prefix.label, range_key, took),
                            prefix.rate * share * p2.act_prob)
                        dropped = canonical(defs, _succ(state, {i: mover}))
                        add(("!!", prefix.label, range_key, dropped),
                            prefix.rate * share * (1.0 - p2.act_prob))
    return edges


def explore(defs: Definitions, initial: ModelComponent, bound: int = 2000):
    """Breadth-first closure of ``transitions``; returns (states, edges).

    States are canonical components in discovery order; edges map
    (source state, edge key) to a rate.
    """
    start = canonical(defs, initial)
    order = [start]
    seen = {start}
    edges: dict[tuple[ModelComponent, EdgeKey], float] = {}
    queue = [start]
    while queue:
        current = queue.pop(0)
        for key, rate in transitions(defs, current).items():
            edges[(current, key)] = rate
            succ = key[3]
            if succ not in seen:
                if len(seen) >= bound:
                    raise RuntimeError("oracle state bound exceeded")
                seen.add(succ)
                order.append(succ)
                queue.append(succ)
    return order, edges


# ---------------------------------------------------------------------------
# Context-aware exit rates, read straight off the README definition.


def _listens(defs: Definitions, agent: SeqComponent, label: str,
             influence: frozenset[Location]) -> float:
    return weight_for(defs, agent, label) if agent.location in influence else 0.0


def agent_exit_rate(defs: Definitions, glyph: str, label: str, agent: SeqComponent,
                    others: list[SeqComponent]) -> float:
    """Exit rate of one agent whose context is ``others``."""
    alts = [prefix for prefix, _ in alternatives(defs, agent) if prefix.label == label]
    if glyph == ".":
        return sum(p.rate for p in alts if isinstance(p, Spontaneous))
    if glyph == "!":
        return sum(p.rate for p in alts if isinstance(p, BroadcastOut))
    if glyph == "?":
        # context broadcasts reaching this location, times receive-and-act
        pq = sum(p.act_prob * p.recv_prob for p in alts if isinstance(p, BroadcastIn))
        incoming = sum(p.rate for other in others
                       for p, _ in alternatives(defs, other)
                       if isinstance(p, BroadcastOut) and p.label == label
                       and agent.location in p.influence)
        return incoming * pq
    if glyph == "!!":
        # best total over the context's locations of the alternatives that
        # reach there and find a listener other than the agent in their range
        best = 0.0
        for target in {other.location for other in others}:
            reach = sum(p.rate for p in alts
                        if isinstance(p, UnicastOut) and target in p.influence
                        and sum(_listens(defs, a, label, p.influence) for a in others) > 0.0)
            best = max(best, reach)
        return best
    assert glyph == "??"
    # every context sender alternative reaching this agent, shared by weight
    # among the listeners in its range and scaled by the act probability
    inputs = [p for p in alts if isinstance(p, UnicastIn)]
    if not inputs:
        return 0.0
    own, act = inputs[0].weight, inputs[0].act_prob
    total = 0.0
    for j, other in enumerate(others):
        for p, _ in alternatives(defs, other):
            if (isinstance(p, UnicastOut) and p.label == label
                    and agent.location in p.influence):
                # the pool of every listener in range but the sender
                pool = own + sum(_listens(defs, a, label, p.influence)
                                 for k, a in enumerate(others) if k != j)
                total += p.rate * own / pool * act
    return total


def exit_rate(defs: Definitions, glyph: str, label: str,
              subject: SeqComponent | ModelComponent, context: ModelComponent,
              locations: frozenset[Location] | None = None) -> float:
    """Sum over the subject's agents (those at ``locations``, if given), each
    measured with the rest of the subject moved into the context."""
    parts = [subject] if isinstance(subject, SeqComponent) else list(subject)
    total = 0.0
    for i, agent in enumerate(parts):
        if locations is None or agent.location in locations:
            others = list(context) + parts[:i] + parts[i + 1:]
            total += agent_exit_rate(defs, glyph, label, agent, others)
    return total


# ---------------------------------------------------------------------------
# Random model generation for the property suites.

_PREFIX_KINDS = ("spont", "br_out", "br_in", "uni_out", "uni_in")


def random_model(rng: Random,
                 max_agents: int = 3,
                 n_locations: int = 2,
                 n_labels: int = 2,
                 n_constants: int = 3,
                 max_alternatives: int = 2) -> ModelDefinition:
    """A small random model with every constant defined at every location.

    Per agent, repeated input prefixes on one label are avoided (the language
    forbids them). An agent may both send and listen on one unicast label.
    """
    definition = ModelDefinition()
    for k in range(n_locations):
        name = f"l{k}"
        definition.locations[name] = Location(name, (float(k), float(k % 2)))
    locations = list(definition.locations.values())
    labels = [f"m{k}" for k in range(n_labels)]
    constants = [f"C{k}" for k in range(n_constants)]

    def random_prefix(taken_inputs: set[tuple[str, str]]):
        for _ in range(20):
            kind = rng.choice(_PREFIX_KINDS)
            label = rng.choice(labels)
            if kind == "spont":
                return Spontaneous(label, rng.uniform(0.1, 4.0))
            if kind == "br_out":
                influence = frozenset(rng.sample(locations, rng.randint(1, len(locations))))
                return BroadcastOut(label, rng.uniform(0.1, 4.0), influence)
            if kind == "uni_out":
                influence = frozenset(rng.sample(locations, rng.randint(1, len(locations))))
                return UnicastOut(label, rng.uniform(0.1, 4.0), influence)
            if kind == "br_in":
                if ("?", label) in taken_inputs:
                    continue
                taken_inputs.add(("?", label))
                return BroadcastIn(label, rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            if ("??", label) in taken_inputs:
                continue
            taken_inputs.add(("??", label))
            return UnicastIn(label, rng.uniform(0.05, 0.95), rng.uniform(0.1, 4.0))
        return Spontaneous(rng.choice(labels), rng.uniform(0.1, 4.0))

    def random_continuation() -> ConstantRef:
        return ConstantRef(rng.choice(constants), rng.choice(locations))

    for cname in constants:
        for loc in locations:
            taken: set[tuple[str, str]] = set()
            terms = [
                SeqComponent(PrefixGuarded(random_prefix(taken),
                                           random_continuation()), loc)
                for _ in range(rng.randint(1, max_alternatives))
            ]
            body = terms[0]
            for term in terms[1:]:
                body = SeqComponent(Choice(body, term), loc)
            definition.equations[(cname, loc.name)] = body

    def random_agent() -> SeqComponent:
        ref = ConstantRef(rng.choice(constants), rng.choice(locations))
        return SeqComponent(ref, ref.location)

    definition.systems["Main"] = tuple(
        random_agent() for _ in range(rng.randint(1, max_agents)))
    definition.systems["Alt"] = tuple(
        random_agent() for _ in range(rng.randint(1, max_agents)))
    return definition
