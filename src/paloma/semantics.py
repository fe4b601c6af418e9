"""Transition semantics: from located-agent systems to a CTMC.

Transitions are derived in two layers. The capability layer describes what a
component would do if a message arrived: each in-range listener either
receives and acts, or stays put, with probabilities read from its prefixes
and, for unicast, from the weight competition across the system. The
stochastic layer assigns exponential rates to sender actions and composes
them with the capabilities of everybody else: broadcast reaches all in-range
listeners independently and never blocks; unicast picks exactly one listener
and fires only when an eligible one exists; spontaneous actions involve the
actor alone.

A failed reception leaves the listener exactly as it was, including any
choice alternatives it holds.

The `ctmc` module closes the stochastic relation into a chain. Inside the
engine a state is a tuple of interned agent ids, and each agent
is read through tables compiled once per interned state: a send table of its
outputs, a listen table by input (kind, label), filled on first use, and
its continuations' ids and terms. A derivation's steps depend only on the
sender's leaf and on the ids of the agents in its range, in position order;
they are kept on that key in the sender's memo and reused by every state
that repeats it. The public functions take and return terms.
"""

from __future__ import annotations

from typing import Iterator

from .model import (
    ActionId,
    ActionType,
    Definitions,
    Location,
    ModelComponent,
    ModelError,
    SeqComponent,
    StateKey,
    _AgentState,
    _Record,
    _agents_of,
    _receiver_pool,
    _state_key,
    remove_at,
)


class CapLabel(_Record):
    """Label of a capability transition: an input offer carried to listeners."""

    __slots__ = ("kind", "label", "influence", "context")

    def __init__(self, kind: ActionType, label: str, influence: frozenset[Location],
                 context: ModelComponent):
        if kind not in (ActionType.BROADCAST_IN, ActionType.UNICAST_IN):
            raise ModelError(f"capability labels are input-typed, got {kind}")
        self.kind, self.label, self.influence, self.context = kind, label, influence, context


class StochLabel(_Record):
    """Label of a stochastic transition of kind SPONTANEOUS, BROADCAST_OUT or
    UNICAST_OUT; spontaneous actions carry no range."""

    __slots__ = ("kind", "label", "influence", "context")

    def __init__(self, kind: ActionType, label: str, influence: frozenset[Location],
                 context: ModelComponent):
        if kind is ActionType.SPONTANEOUS and influence:
            raise ModelError("spontaneous labels carry an empty range")
        self.kind, self.label, self.influence, self.context = kind, label, influence, context

    @property
    def text(self) -> str:
        return ActionId(self.kind, self.label).text


# the input type that receives each output type
_INPUT_OF = {ActionType.BROADCAST_OUT: ActionType.BROADCAST_IN,
             ActionType.UNICAST_OUT: ActionType.UNICAST_IN}


class Continuation:
    """Finite-support map from successor systems to probabilities or rates.

    Entries landing on the same state up to constant resolution are summed;
    the first representative seen is kept for display.
    """

    def __init__(self, defs: Definitions,
                 entries: list[tuple[ModelComponent, float]] | None = None):
        self._defs = defs
        self._entries: dict[StateKey, tuple[ModelComponent, float]] = {}
        for state, value in entries or []:
            self.add(state, value)

    def add(self, state: ModelComponent, value: float, key: StateKey | None = None) -> None:
        """Add ``value`` at ``state``, whose engine key is ``key`` if given."""
        if value <= 0.0:
            return
        if key is None:
            key = _state_key(self._defs, state)
        if key in self._entries:
            rep, old = self._entries[key]
            self._entries[key] = (rep, old + value)
        else:
            self._entries[key] = (state, value)

    def items(self) -> list[tuple[ModelComponent, float]]:
        return list(self._entries.values())

    def value_at(self, state: ModelComponent) -> float:
        key = _state_key(self._defs, state)
        entry = self._entries.get(key)
        return entry[1] if entry else 0.0

    def total(self) -> float:
        return sum(value for _, value in self._entries.values())

    def support(self) -> list[ModelComponent]:
        return [rep for rep, _ in self._entries.values()]

    def __len__(self) -> int:
        return len(self._entries)


def _as_component(subject: ModelComponent | SeqComponent) -> ModelComponent:
    return (subject,) if isinstance(subject, SeqComponent) else subject


def _outcomes(defs: Definitions, kind: ActionType, label: str,
              influence: frozenset[Location], listeners: list[_AgentState], pool: float
              ) -> list[tuple[tuple, float]] | None:
    """Joint outcomes of an input offer to ``listeners``, in position order,
    as ``(moves, mass)`` pairs; ``moves`` holds ``(index in listeners, next
    state id, continuation term)`` for each listener that received and
    acted. A broadcast listener within ``influence`` acts with probability
    p·q, independently of the others; a unicast listener is selected with
    its weight's share of the receiver pool ``pool`` and then acts with
    probability p, one alternative per branch. ``None`` when no listener
    can take the offer."""
    per_agent = []
    for j, agent in enumerate(listeners):
        entry = agent.location in influence and agent.listen(kind, label)
        if not entry or (kind is ActionType.UNICAST_IN and pool <= 0.0):
            continue
        k, weight, acted = entry
        share = weight / pool if kind is ActionType.UNICAST_IN else 1.0
        branches = []
        if acted > 0.0:
            branches.append((((j, *defs._next(agent, k)),), share * acted))
        if acted < 1.0:
            branches.append(((), share * (1.0 - acted)))
        per_agent.append(branches)
    if not per_agent:
        return None
    if kind is ActionType.UNICAST_IN:
        return [branch for branches in per_agent for branch in branches]
    joint: list[tuple[tuple, float]] = [((), 1.0)]
    for branches in per_agent:
        joint = [(moves + more, mass * m) for moves, mass in joint for more, m in branches]
    return joint


def _apply(base: tuple, moves: tuple, slot: int, at: list[int] | range) -> tuple:
    """``base`` with the position ``at[index]`` of each move ``(index, next
    state id, continuation term)`` replaced by the move's ``slot``-th field:
    1 for the id, 2 for the term."""
    succ = list(base)
    for move in moves:
        succ[at[move[0]]] = move[slot]
    return tuple(succ)


def cap_step(defs: Definitions, subject: ModelComponent | SeqComponent,
             label: CapLabel) -> Continuation | None:
    """Capability of ``subject`` under an input offer, or ``None``.

    For a single agent the support holds its acted and stayed branches. A
    composed subject reacts to broadcast with the product over its agents
    (non-listeners keep probability one of staying) and to unicast with one
    alternative per agent that could be selected.
    """
    part = _as_component(subject)
    pool = 0.0
    if label.kind is ActionType.UNICAST_IN:
        pool = _receiver_pool(_agents_of(defs, label.context), label.influence, label.label)
    joint = _outcomes(defs, label.kind, label.label, label.influence,
                      _agents_of(defs, part), pool)
    if joint is None:
        return None
    return Continuation(defs, [(_apply(part, moves, 2, range(len(part))), mass)
                               for moves, mass in joint])


class Step(_Record):
    """One joint outcome of a derivation: who ends where, at what rate.
    ``received`` holds the positions that received and acted."""

    __slots__ = ("successor", "rate", "received")

    def __init__(self, successor: ModelComponent, rate: float, received: frozenset[int]):
        self.successor, self.rate, self.received = successor, rate, received


class Derivation(_Record):
    # the last slot is not a field: what ``derivations`` read from the
    # engine, ``(defs, state key, at, steps)`` of ``_derive``, from which
    # ``continuation`` takes each successor's key instead of interning it
    __slots__ = ("label", "sender", "sender_succ", "steps", "_source")

    def __init__(self, label: StochLabel, sender: int, sender_succ: SeqComponent,
                 steps: tuple[Step, ...], _source: tuple | None = None):
        self.label, self.sender, self.sender_succ, self.steps = label, sender, sender_succ, steps
        self._source = _source

    def _values(self) -> tuple:
        return self.label, self.sender, self.sender_succ, self.steps

    def continuation(self, defs: Definitions) -> Continuation:
        out = Continuation(defs)
        if self._source is None or self._source[0] is not defs:
            for step in self.steps:
                out.add(step.successor, step.rate)
        else:
            _, key, at, steps = self._source
            for step, (_, moves) in zip(self.steps, steps):
                out.add(step.successor, step.rate, _apply(key, moves, 1, at))
        return out


def _derive(defs: Definitions, key: StateKey) -> list[tuple]:
    """The stochastic derivations of the state ``key``: one ``(sender,
    kind, label, influence, steps, at)`` per enabled sender alternative, in
    position order. ``at`` lists the positions within range, then the
    sender's. Each step is ``(rate, moves)``; ``moves`` holds ``(index into
    at, next state id, continuation term)`` for each receiver that acted and
    then the sender. Steps depend only on the sender's alternative and the
    agent ids within its range, in position order, so they are derived once
    per such key and kept in the sender's ``derived`` memo."""
    agents = [defs._agents[a] for a in key]
    names = [agent.location.name for agent in agents]
    out = []
    for i, agent in enumerate(agents):
        for s, (_, kind, prefix, influence) in enumerate(agent.sends):
            inside = defs._reach.get(influence)
            if inside is None:
                inside = defs._reach[influence] = frozenset(loc.name for loc in influence)
            at = [j for j, name in enumerate(names) if j != i and name in inside]
            near = tuple([key[j] for j in at])
            steps = agent.derived.get((s, near))
            if steps is None:
                steps = agent.derived[s, near] = _steps(defs, agent, s, near)
            if steps:
                at.append(i)
                out.append((i, kind, prefix.label, influence, steps, at))
    return out


def _steps(defs: Definitions, agent: _AgentState, s: int, near: tuple[int, ...]) -> list:
    """``_derive``'s steps for ``agent`` sending through its ``s``-th send
    table entry to the agents ``near`` within its range."""
    k, kind, prefix, influence = agent.sends[s]
    listeners = [defs._agents[a] for a in near]
    if kind is ActionType.SPONTANEOUS:
        joint = [((), 1.0)]
    else:
        joint = _outcomes(defs, _INPUT_OF[kind], prefix.label, influence, listeners,
                          _receiver_pool(listeners, influence, prefix.label))
        if joint is None:
            # broadcast never blocks, so the sender acts alone; a unicast
            # sender with nobody selectable is blocked
            joint = [((), 1.0)] if kind is ActionType.BROADCAST_OUT else []
    own = (len(near), *defs._next(agent, k))
    return [(prefix.rate * mass, moves + (own,))
            for moves, mass in joint if prefix.rate * mass > 0.0]


def derivations(defs: Definitions, system: ModelComponent) -> list[Derivation]:
    """All stochastic derivations of ``system``, one per enabled sender
    alternative, in position order."""
    key = _state_key(defs, system)
    out: list[Derivation] = []
    for i, kind, label, influence, steps, at in _derive(defs, key):
        succs = tuple(Step(_apply(system, moves, 2, at), rate,
                           frozenset(at[move[0]] for move in moves[:-1]))
                      for rate, moves in steps)
        out.append(Derivation(StochLabel(kind, label, influence, system), i,
                              steps[0][1][-1][2], succs, (defs, key, at, steps)))
    return out


def stoch_step(defs: Definitions,
               system: ModelComponent) -> list[tuple[StochLabel, Continuation]]:
    """The stochastic transitions of ``system`` as labelled continuations."""
    return [(d.label, d.continuation(defs)) for d in derivations(defs, system)]


def agent_steps(defs: Definitions, system: ModelComponent,
                position: int) -> set[tuple[ActionId, SeqComponent]]:
    """Actions the agent at ``position`` can perform inside ``system``,
    each with the agent's successor. Senders appear under their own output
    type, successful receivers under the matching input type; failed
    receptions are not actions."""
    context = remove_at(system, position)
    return {(step.action, step.successor[0])
            for step in component_steps(defs, context, system[position])}


class LiftedStep(_Record):
    """A component-level step: the whole subject's action and successor,
    observed inside a surrounding context. ``label_text`` is the system
    transition's own label, e.g. "!!move"."""

    __slots__ = ("action", "label_text", "successor")

    def __init__(self, action: ActionId, label_text: str, successor: ModelComponent):
        self.action, self.label_text, self.successor = action, label_text, successor


def component_steps(defs: Definitions, context: ModelComponent,
                    subject: ModelComponent | SeqComponent) -> set[LiftedStep]:
    """Steps the subject performs within ``context || subject``.

    The subject acts as sender when it holds the sending agent, and as
    receiver when one of its agents successfully receives; either role may
    hold, each contributing its own action identifier over the same
    successor. Context-only activity is not a subject step.
    """
    return set(_keyed_component_steps(defs, context, subject).values())


def _keyed_component_steps(defs: Definitions, context: ModelComponent,
                           subject: ModelComponent | SeqComponent
                           ) -> dict[tuple[str, StateKey], LiftedStep]:
    """``component_steps``, each keyed by its action's text and the state
    key of its successor."""
    system = context + _as_component(subject)
    offset = len(context)
    found: dict[tuple[str, StateKey], LiftedStep] = {}
    for action, sent, succ_key, moves, at in _subject_steps(
            defs, _state_key(defs, system), offset):
        if (action.text, succ_key) not in found:
            found[action.text, succ_key] = LiftedStep(
                action, sent.text, _apply(system, moves, 2, at)[offset:])
    return found


def _subject_steps(defs: Definitions, key: StateKey, offset: int) -> Iterator[tuple]:
    """The steps of the state ``key`` that its agents from ``offset`` on
    take part in, by the roles of ``component_steps``, in derivation order:
    one ``(action, sender's action, successor key from offset on, moves,
    at)`` per role, ``moves`` and ``at`` as in ``_derive``."""
    # the sender's and the receivers' action of each (kind, label), built once
    built: dict[tuple[ActionType, str], tuple[ActionId, ActionId | None]] = {}
    for i, kind, label, _, steps, at in _derive(defs, key):
        pair = built.get((kind, label))
        if pair is None:
            pair = built[kind, label] = (ActionId(kind, label), ActionId(
                _INPUT_OF[kind], label) if kind in _INPUT_OF else None)
        sent, heard = pair
        for _, moves in steps:
            hears = any(at[move[0]] >= offset for move in moves[:-1])
            if i >= offset or hears:
                succ_key = _apply(key, moves, 1, at)[offset:]
                if i >= offset:
                    yield sent, sent, succ_key, moves, at
                if hears:
                    yield heard, sent, succ_key, moves, at
