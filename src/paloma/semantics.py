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

`build_ctmc` closes the stochastic relation from an initial system by
breadth-first search, merging states whose agents resolve to equal terms.
Inside the engine a state is a tuple of interned agent ids and each agent is
read through its compiled tables; the public functions take and return
terms.
"""

from __future__ import annotations

from collections import deque

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
    render_model,
)

__all__ = [
    "BoundExceeded",
    "CapLabel",
    "Continuation",
    "Ctmc",
    "Derivation",
    "LiftedStep",
    "Step",
    "StochLabel",
    "Transition",
    "agent_steps",
    "build_ctmc",
    "cap_step",
    "component_steps",
    "derivations",
    "export_dot",
    "export_tsv",
    "stoch_step",
]


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

    def add(self, state: ModelComponent, value: float) -> None:
        if value <= 0.0:
            return
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


def _branches(agent: _AgentState, kind: ActionType, label: str,
              influence: frozenset[Location], pool: float
              ) -> list[tuple[int | None, float]] | None:
    """Acted/stayed branches of one agent facing an input offer, as
    ``(leaf taken or None, mass)`` pairs, or ``None`` when it cannot take
    part. A broadcast listener acts with probability p·q; a unicast listener
    is selected with its weight's share of the receiver pool and then acts
    with probability p."""
    if agent.location not in influence:
        return None
    k = agent.single_input(kind, label)
    if k is None:
        return None
    if kind is ActionType.BROADCAST_IN:
        share, acted = 1.0, agent.pq[label]
    else:
        if pool <= 0.0:
            return None
        prefix = agent.leaves[k].prefix
        share, acted = prefix.weight / pool, prefix.act_prob
    branches: list[tuple[int | None, float]] = []
    if acted > 0.0:
        branches.append((k, share * acted))
    if acted < 1.0:
        branches.append((None, share * (1.0 - acted)))
    return branches


def _joint_outcomes(agents: list[_AgentState], kind: ActionType, label: str,
                    influence: frozenset[Location], pool_agents: list[_AgentState],
                    sender: int | None = None
                    ) -> list[tuple[dict[int, int], float]] | None:
    """Joint outcomes of an input offer over ``agents`` other than
    ``sender``, as ``(changes, mass)`` pairs; ``changes`` maps each position
    that received and acted to the leaf it took. Unicast receivers compete
    within the pool of ``pool_agents``, where the sender, if given, sits at
    the same position and takes no share.

    Broadcast yields the product over the in-range listeners, unicast one
    alternative per branch of each selectable receiver. ``None`` when no
    agent can take the offer.
    """
    pool = 0.0
    if kind is ActionType.UNICAST_IN:
        pool = _receiver_pool(pool_agents, influence, label, sender)
    per_agent = []
    for j, agent in enumerate(agents):
        if j != sender:
            branches = _branches(agent, kind, label, influence, pool)
            if branches is not None:
                per_agent.append((j, branches))
    if not per_agent:
        return None
    if kind is ActionType.UNICAST_IN:
        return [({j: k} if k is not None else {}, mass)
                for j, branches in per_agent for k, mass in branches]
    joint: list[tuple[dict[int, int], float]] = [({}, 1.0)]
    for j, branches in per_agent:
        joint = [({**changes, j: k} if k is not None else changes, mass * m)
                 for changes, mass in joint for k, m in branches]
    return joint


def _moved(base: tuple, agents: list[_AgentState], changes: dict[int, int],
           pick) -> tuple:
    """``base`` with each position in ``changes`` replaced by ``pick(agent,
    leaf)``: a continuation term, or a continuation id."""
    succ = list(base)
    for j, k in changes.items():
        succ[j] = pick(agents[j], k)
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
    agents = _agents_of(defs, part)
    pool_agents = []
    if label.kind is ActionType.UNICAST_IN:
        pool_agents = _agents_of(defs, label.context)
    joint = _joint_outcomes(agents, label.kind, label.label, label.influence, pool_agents)
    if joint is None:
        return None
    return Continuation(defs, [(_moved(part, agents, changes, _AgentState.continuation), mass)
                               for changes, mass in joint])


class Step(_Record):
    """One joint outcome of a derivation: who ends where, at what rate.
    ``received`` holds the positions that received and acted."""

    __slots__ = ("successor", "rate", "received")

    def __init__(self, successor: ModelComponent, rate: float, received: frozenset[int]):
        self.successor, self.rate, self.received = successor, rate, received


class Derivation(_Record):
    __slots__ = ("label", "sender", "sender_succ", "steps")

    def __init__(self, label: StochLabel, sender: int, sender_succ: SeqComponent,
                 steps: tuple[Step, ...]):
        self.label, self.sender, self.sender_succ, self.steps = label, sender, sender_succ, steps

    def continuation(self, defs: Definitions) -> Continuation:
        return Continuation(defs, [(s.successor, s.rate) for s in self.steps])


def _derive(agents: list[_AgentState]
            ) -> list[tuple[int, int, ActionType, str, frozenset[Location],
                            list[tuple[dict[int, int], float]]]]:
    """The stochastic derivations of the system whose agents are
    ``agents``: one ``(sender, leaf, kind, label, influence, steps)`` per
    enabled sender alternative, in position order. Each step is ``(changes,
    rate)``, where ``changes`` maps the sender and each receiver that acted
    to the leaf it took."""
    out = []
    for i, agent in enumerate(agents):
        for k in agent.outputs:
            kind = agent.kinds[k]
            prefix = agent.leaves[k].prefix
            if kind is ActionType.SPONTANEOUS:
                influence: frozenset[Location] = frozenset()
                joint = [({}, 1.0)]
            else:
                influence = prefix.influence
                joint = _joint_outcomes(agents, _INPUT_OF[kind], prefix.label,
                                        influence, agents, i)
                if joint is None:
                    # broadcast never blocks, so the sender acts alone; a
                    # unicast sender with nobody selectable is blocked
                    joint = [({}, 1.0)] if kind is ActionType.BROADCAST_OUT else []
            steps = []
            for changes, mass in joint:
                rate = prefix.rate * mass
                if rate > 0.0:
                    steps.append(({**changes, i: k}, rate))
            if steps:
                out.append((i, k, kind, prefix.label, influence, steps))
    return out


def derivations(defs: Definitions, system: ModelComponent) -> list[Derivation]:
    """All stochastic derivations of ``system``, one per enabled sender
    alternative, in position order."""
    agents = _agents_of(defs, system)
    out: list[Derivation] = []
    for i, k, kind, label, influence, steps in _derive(agents):
        succs = tuple(Step(_moved(system, agents, changes, _AgentState.continuation), rate,
                           frozenset(j for j in changes if j != i))
                      for changes, rate in steps)
        out.append(Derivation(StochLabel(kind, label, influence, system), i,
                              agents[i].continuation(k), succs))
    return out


def stoch_step(defs: Definitions,
               system: ModelComponent) -> list[tuple[StochLabel, Continuation]]:
    """The stochastic transitions of ``system`` as labelled continuations."""
    return [(d.label, d.continuation(defs)) for d in derivations(defs, system)]


class BoundExceeded(Exception):
    def __init__(self, discovered: int, bound: int):
        super().__init__(f"state bound {bound} exceeded after discovering "
                         f"{discovered} states")
        self.discovered = discovered
        self.bound = bound


class Transition(_Record):
    __slots__ = ("source", "target", "rate", "kind", "label", "influence")

    def __init__(self, source: int, target: int, rate: float, kind: ActionType,
                 label: str, influence: frozenset[Location]):
        self.source, self.target, self.rate = source, target, rate
        self.kind, self.label, self.influence = kind, label, influence


class Ctmc(_Record):
    __slots__ = ("states", "transitions", "initial")
    __hash__ = None  # mutable, like the lists it holds

    def __init__(self, states: list[ModelComponent], transitions: list[Transition],
                 initial: int = 0):
        self.states, self.transitions, self.initial = states, transitions, initial


def build_ctmc(defs: Definitions, initial: ModelComponent, bound: int) -> Ctmc:
    """Breadth-first closure of the stochastic relation from ``initial``.

    States are indexed in discovery order, edges with equal source, target
    and label are merged by rate addition, and discovering more than
    ``bound`` states raises BoundExceeded. Each state keeps the first
    representative seen, for display.
    """
    if bound < 1:
        raise ModelError("state bound must be at least 1")
    start_key = _state_key(defs, initial)
    index: dict[StateKey, int] = {start_key: 0}
    keys: list[StateKey] = [start_key]
    states: list[ModelComponent] = [initial]
    queue: deque[int] = deque([0])
    edges: dict[tuple[int, int, ActionType, str, frozenset[Location]], float] = {}
    agents_of = defs._agents
    while queue:
        src = queue.popleft()
        key = keys[src]
        agents = [agents_of[a] for a in key]
        for _, _, kind, label, influence, steps in _derive(agents):
            # sum per target within the derivation before adding to the edge,
            # so each edge adds its derivations' continuation totals
            into: dict[int, float] = {}
            for changes, rate in steps:
                succ = _moved(key, agents, changes, defs._next)
                dst = index.get(succ)
                if dst is None:
                    if len(states) + 1 > bound:
                        raise BoundExceeded(len(states) + 1, bound)
                    dst = len(states)
                    index[succ] = dst
                    keys.append(succ)
                    states.append(_moved(states[src], agents, changes, _AgentState.continuation))
                    queue.append(dst)
                into[dst] = into.get(dst, 0.0) + rate
            for dst, rate in into.items():
                edge = (src, dst, kind, label, influence)
                edges[edge] = edges.get(edge, 0.0) + rate
    transitions = [
        Transition(src, dst, rate, kind, label, influence)
        for (src, dst, kind, label, influence), rate in edges.items()
    ]
    transitions.sort(key=lambda t: (t.source, t.target, t.kind.glyph, t.label,
                                    sorted(loc.name for loc in t.influence)))
    return Ctmc(states, transitions)


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
    part = _as_component(subject)
    offset = len(context)
    system = context + part
    key = _state_key(defs, system)
    agents = [defs._agents[a] for a in key]
    found: dict[tuple[str, StateKey], LiftedStep] = {}
    for i, _, kind, label, _, steps in _derive(agents):
        text = ActionId(kind, label).text
        for changes, _ in steps:
            actions = []
            if i >= offset:
                actions.append(ActionId(kind, label))
            if any(j >= offset and j != i for j in changes):
                actions.append(ActionId(_INPUT_OF[kind], label))
            if actions:
                succ_key = _moved(key, agents, changes, defs._next)[offset:]
                for action in actions:
                    if (action.text, succ_key) not in found:
                        succ = _moved(system, agents, changes, _AgentState.continuation)[offset:]
                        found[action.text, succ_key] = LiftedStep(action, text, succ)
    return found


# -- exports ----------------------------------------------------------------


def export_tsv(ctmc: Ctmc) -> str:
    """State table and transition table, tab-separated.

    States come first (`id<TAB>term`), then one line per transition
    (`src<TAB>dst<TAB>rate<TAB>kind<TAB>label`), rates with 17 significant
    digits, sections separated by a blank line, LF endings.
    """
    lines = ["# states"]
    for i, state in enumerate(ctmc.states):
        lines.append(f"{i}\t{render_model(state)}")
    lines.append("")
    lines.append("# transitions")
    for t in ctmc.transitions:
        lines.append(f"{t.source}\t{t.target}\t{t.rate:.17g}\t{t.kind.glyph}\t{t.label}")
    return "\n".join(lines) + "\n"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(ctmc: Ctmc) -> str:
    """Graphviz digraph with rate-labelled edges."""
    lines = ["digraph ctmc {", "  rankdir=LR;"]
    for i, state in enumerate(ctmc.states):
        shape = "doublecircle" if i == ctmc.initial else "circle"
        lines.append(f"  s{i} [shape={shape} label={_dot_quote(render_model(state))}];")
    for t in ctmc.transitions:
        label = f"{t.kind.glyph}{t.label} {t.rate:.17g}"
        lines.append(f"  s{t.source} -> s{t.target} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
