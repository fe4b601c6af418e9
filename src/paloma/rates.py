"""Rate, weight and probability queries over located-agent terms.

Two layers live here. The context-unaware functions read numbers straight
off an agent's syntax: the rate at which it could send, the weight and
probability with which it would listen. The context-aware exit rate then
combines them for an agent sitting inside a surrounding system, where
unicast blocking, receiver competition and influence ranges all matter.

The public functions take immutable terms; each agent is read through the
compiled tables its interned state carries in the model's ``Definitions``,
and the private helpers work on those tables directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .model import (
    ActionId,
    ActionType,
    BroadcastOut,
    Definitions,
    EMPTY,
    Location,
    ModelComponent,
    Prefix,
    SeqComponent,
    UnicastOut,
    _AgentState,
    _agents_of,
)

__all__ = [
    "RateQuery",
    "broadcast_act_prob",
    "broadcast_out_rate",
    "broadcast_system_rate",
    "exit_rate",
    "receive_weight",
    "spontaneous_rate",
    "unicast_act_prob",
    "unicast_cap_rate",
    "unicast_influence",
    "unicast_out_rate",
    "unicast_receive_prob",
    "unicast_system_rate",
]


def _prefixes(agent: _AgentState, kind: ActionType, label: str) -> list[Prefix]:
    """The agent's ``kind`` prefixes on ``label``, in written order."""
    return [agent.leaves[k].prefix for k in agent.groups.get((kind, label), ())]


def _own_rate(agent: _AgentState, kind: ActionType, label: str) -> float:
    """Total rate of the agent's ``kind`` prefixes on ``label``."""
    return sum(p.rate for p in _prefixes(agent, kind, label))


def unicast_out_rate(defs: Definitions, comp: SeqComponent, label: str) -> float:
    """Total rate of outgoing unicast on ``label``, summed across choice."""
    return _own_rate(defs._agent(comp), ActionType.UNICAST_OUT, label)


def spontaneous_rate(defs: Definitions, comp: SeqComponent, label: str) -> float:
    return _own_rate(defs._agent(comp), ActionType.SPONTANEOUS, label)


def broadcast_out_rate(defs: Definitions, comp: SeqComponent, label: str) -> float:
    return _own_rate(defs._agent(comp), ActionType.BROADCAST_OUT, label)


def unicast_influence(defs: Definitions, comp: SeqComponent, label: str) -> frozenset[Location]:
    """Union of influence ranges over the agent's unicast outputs on ``label``."""
    ranges: frozenset[Location] = frozenset()
    for prefix in _prefixes(defs._agent(comp), ActionType.UNICAST_OUT, label):
        ranges |= prefix.influence
    return ranges


def receive_weight(defs: Definitions,
                   subject: Union[SeqComponent, ModelComponent, Iterable[SeqComponent]],
                   label: str) -> float:
    """Unicast receive weight on ``label``: summed over choice, composition
    and collections, with repeated agents counted once per occurrence."""
    if isinstance(subject, SeqComponent):
        return defs._agent(subject).weight.get(label, 0)
    return sum(receive_weight(defs, part, label) for part in subject)


def unicast_act_prob(defs: Definitions, comp: SeqComponent, label: str) -> float:
    """Probability that the agent acts on a received unicast ``label``."""
    return _unicast_act_prob(defs._agent(comp), label)


def _unicast_act_prob(agent: _AgentState, label: str) -> float:
    k = agent.single_input(ActionType.UNICAST_IN, label)
    return agent.leaves[k].prefix.act_prob if k is not None else 0.0


def broadcast_act_prob(defs: Definitions, comp: SeqComponent, label: str) -> float:
    """Probability that the agent receives and acts on broadcast ``label``."""
    return _broadcast_act_prob(defs._agent(comp), label)


def _broadcast_act_prob(agent: _AgentState, label: str) -> float:
    if agent.single_input(ActionType.BROADCAST_IN, label) is None:
        return 0.0
    return agent.pq[label]


def _sends_to(senders: Iterable[_AgentState], kind: ActionType,
              label: str, target: Location) -> Iterator[UnicastOut | BroadcastOut]:
    """Output prefixes of ``kind`` on ``label`` among ``senders`` whose range
    covers ``target``, in written order."""
    for agent in senders:
        for prefix in _prefixes(agent, kind, label):
            if target in prefix.influence:
                yield prefix


def _receiver_pool(system: Iterable[_AgentState],
                   influence: frozenset[Location], label: str) -> float:
    """Receive weight on ``label`` of every agent of ``system`` within
    ``influence``; a sender that listens on its own label counts too."""
    return sum(agent.weight.get(label, 0) for agent in system
               if agent.location in influence)


def unicast_cap_rate(defs: Definitions, target: Location,
                     comp: SeqComponent, label: str) -> float:
    """Rate at which the agent is capable of unicasting ``label`` so that it
    reaches ``target``; each alternative counts only if its own range covers
    the target."""
    return sum(prefix.rate for prefix in _sends_to(
        [defs._agent(comp)], ActionType.UNICAST_OUT, label, target))


def unicast_system_rate(defs: Definitions, target: Location,
                        context: ModelComponent, part: ModelComponent,
                        label: str) -> float:
    """Rate at which ``part`` unicasts ``label`` to ``target`` inside
    ``context``. Unicast blocks: an alternative contributes only when some
    agent of the whole system carries receive weight within its range."""
    return _unicast_system_rate(target, _agents_of(defs, context), _agents_of(defs, part), label)


def _unicast_system_rate(target: Location, context: list[_AgentState],
                         part: list[_AgentState], label: str) -> float:
    system = context + part
    total = 0.0
    for prefix in _sends_to(part, ActionType.UNICAST_OUT, label, target):
        if _receiver_pool(system, prefix.influence, label) > 0.0:
            total += prefix.rate
    return total


def unicast_receive_prob(defs: Definitions, receiver: SeqComponent,
                         context: ModelComponent, sender: SeqComponent,
                         label: str) -> float:
    """Probability that ``receiver`` is the one to pick up a unicast
    ``label`` sent by ``sender``, competing with every weighted listener in
    range. Zero when out of range or when nobody can receive."""
    influence = unicast_influence(defs, sender, label)
    if receiver.location not in influence:
        return 0.0
    own = receive_weight(defs, receiver, label)
    pool = _receiver_pool(_agents_of(defs, context + (receiver,)), influence, label)
    if pool <= 0.0:
        return 0.0
    return own / pool


def broadcast_system_rate(defs: Definitions, target: Location,
                          context: ModelComponent, label: str) -> float:
    """Total rate at which ``context`` broadcasts ``label`` reaching
    ``target``. Broadcast never blocks, so no receiver check is needed."""
    return _broadcast_system_rate(target, _agents_of(defs, context), label)


def _broadcast_system_rate(target: Location, context: list[_AgentState],
                           label: str) -> float:
    total = 0.0
    for prefix in _sends_to(context, ActionType.BROADCAST_OUT, label, target):
        total += prefix.rate
    return total


@dataclass(frozen=True)
class RateQuery:
    """What to measure: an action performed by ``subject`` within
    ``context``, optionally restricted to agents in ``locations``."""

    action: ActionId
    subject: Union[SeqComponent, ModelComponent]
    context: ModelComponent = EMPTY
    locations: frozenset[Location] | None = None


def exit_rate(defs: Definitions, query: RateQuery) -> float:
    """Context-aware exit rate of an action.

    For a single agent the action type decides the shape: spontaneous and
    broadcast output read the agent's own rates; broadcast input multiplies
    the context's broadcast rate into this location by the agent's
    receive-and-act probability; unicast output is the best rate deliverable
    to any context location, zero when blocked; unicast input sums, over
    every sender alternative in the context, the sender's rate shared by
    weight competition and scaled by the act probability.

    For a composed subject the rate is the sum over its agents, each
    measured with the rest of the subject moved into the context. A location
    restriction keeps only agents stationed there.
    """
    subject = query.subject
    context = _agents_of(defs, query.context)
    if isinstance(subject, SeqComponent):
        if query.locations is not None:
            subject = (subject,)
        else:
            return _agent_exit_rate(query.action, context, defs._agent(subject))
    if query.locations is None:
        picked = range(len(subject))
    else:
        picked = [i for i, part in enumerate(subject) if part.location in query.locations]
    parts = _agents_of(defs, subject)
    total = 0.0
    for i in picked:
        agent_context = context + parts[:i] + parts[i + 1:]
        total += _agent_exit_rate(query.action, agent_context, parts[i])
    return total


def _agent_exit_rate(action: ActionId, context: list[_AgentState],
                     agent: _AgentState) -> float:
    label = action.label
    act_type = action.act_type
    if act_type in (ActionType.SPONTANEOUS, ActionType.BROADCAST_OUT):
        return _own_rate(agent, act_type, label)
    if act_type is ActionType.BROADCAST_IN:
        prob = _broadcast_act_prob(agent, label)
        if prob <= 0.0:
            return 0.0
        return _broadcast_system_rate(agent.location, context, label) * prob
    if act_type is ActionType.UNICAST_OUT:
        # best deliverable rate over the locations the context occupies;
        # an empty context offers nowhere to deliver, hence zero
        best = 0.0
        for loc in {other.location for other in context}:
            best = max(best, _unicast_system_rate(loc, context, [agent], label))
        return best
    assert act_type is ActionType.UNICAST_IN
    act = _unicast_act_prob(agent, label)
    own = agent.weight.get(label, 0)
    if act <= 0.0 or own <= 0.0:
        return 0.0
    system = context + [agent]
    total = 0.0
    for prefix in _sends_to(context, ActionType.UNICAST_OUT, label, agent.location):
        pool = _receiver_pool(system, prefix.influence, label)
        if pool > 0.0:
            total += prefix.rate * (own / pool) * act
    return total
