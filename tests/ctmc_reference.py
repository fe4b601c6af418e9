"""The CTMC derivation as it stood before per-agent send and listen tables
and the derivation memo: a reference for ``paloma.semantics``, as
``tests/bisim_reference.py`` is for bisimulation.

Every state walks every agent through ``_branches``, recomputing the
receiver pool and each listener's branches, and every successor is rebuilt
from the changed leaves. The functions below are kept as they were; only
the agent tables they read that no longer exist are rebuilt by the helpers
at the top (``_continuation``, ``_next_id``, ``_kind``, ``_outputs`` and
``_pq``), without caching. Tests require the engine to match them byte for
byte and value for value.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from paloma.model import (
    ActionId,
    ActionType,
    Definitions,
    Location,
    ModelComponent,
    ModelError,
    SeqComponent,
    StateKey,
    _AgentState,
    _PREFIX_TYPES,
    _agents_of,
    _state_key,
    render_model,
)
from paloma.semantics import (
    _INPUT_OF,
    BoundExceeded,
    CapLabel,
    Continuation,
    Ctmc,
    Derivation,
    LiftedStep,
    Step,
    StochLabel,
    Transition,
)


def _continuation(agent: _AgentState, leaf: int) -> SeqComponent:
    cont = agent.leaves[leaf].continuation
    return SeqComponent(cont, cont.location)


def _next_id(defs: Definitions):
    return lambda agent, leaf: defs._intern(_continuation(agent, leaf))


def _kind(agent: _AgentState, leaf: int) -> ActionType:
    return _PREFIX_TYPES[type(agent.leaves[leaf].prefix)]


def _outputs(agent: _AgentState) -> tuple[int, ...]:
    return tuple(k for k in range(len(agent.leaves))
                 if _kind(agent, k) not in (ActionType.UNICAST_IN, ActionType.BROADCAST_IN))


def _pq(agent: _AgentState, label: str) -> float:
    prefix = agent.leaves[agent.single_input(ActionType.BROADCAST_IN, label)].prefix
    return prefix.act_prob * prefix.recv_prob


def _receiver_pool(system: Iterable[_AgentState],
                   influence: frozenset[Location], label: str,
                   sender: int | None = None) -> float:
    """Receive weight on ``label`` of every agent of ``system`` within
    ``influence``, except the sender at position ``sender``: a sender never
    receives its own unicast, even when it listens on the label."""
    return sum(agent.weight.get(label, 0) for j, agent in enumerate(system)
               if j != sender and agent.location in influence)


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
        share, acted = 1.0, _pq(agent, label)
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
    return Continuation(defs, [(_moved(part, agents, changes, _continuation), mass)
                               for changes, mass in joint])


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
        for k in _outputs(agent):
            kind = _kind(agent, k)
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
        succs = tuple(Step(_moved(system, agents, changes, _continuation), rate,
                           frozenset(j for j in changes if j != i))
                      for changes, rate in steps)
        out.append(Derivation(StochLabel(kind, label, influence, system), i,
                              _continuation(agents[i], k), succs))
    return out


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
                succ = _moved(key, agents, changes, _next_id(defs))
                dst = index.get(succ)
                if dst is None:
                    if len(states) + 1 > bound:
                        raise BoundExceeded(len(states) + 1, bound)
                    dst = len(states)
                    index[succ] = dst
                    keys.append(succ)
                    states.append(_moved(states[src], agents, changes, _continuation))
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
                succ_key = _moved(key, agents, changes, _next_id(defs))[offset:]
                for action in actions:
                    if (action.text, succ_key) not in found:
                        succ = _moved(system, agents, changes, _continuation)[offset:]
                        found[action.text, succ_key] = LiftedStep(action, text, succ)
    return found


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
