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

from typing import Iterable, Union

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
    _OUTPUT_OF,
    _Record,
    _agents_of,
    _as_component,
    _receiver_pool,
)


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
    return _act_prob(defs._agent(comp), ActionType.UNICAST_IN, label)


def broadcast_act_prob(defs: Definitions, comp: SeqComponent, label: str) -> float:
    """Probability that the agent receives and acts on broadcast ``label``."""
    return _act_prob(defs._agent(comp), ActionType.BROADCAST_IN, label)


def _act_prob(agent: _AgentState, kind: ActionType, label: str) -> float:
    """Probability that the agent acts on a ``kind`` input on ``label``."""
    entry = agent.listen(kind, label)
    return entry[2] if entry else 0.0


def unicast_cap_rate(defs: Definitions, target: Location,
                     comp: SeqComponent, label: str) -> float:
    """Rate at which the agent is capable of unicasting ``label`` so that it
    reaches ``target``; each alternative counts only if its own range covers
    the target."""
    return sum(prefix.rate for prefix in _prefixes(defs._agent(comp), ActionType.UNICAST_OUT, label)
               if target in prefix.influence)


def unicast_system_rate(defs: Definitions, target: Location,
                        context: ModelComponent, part: ModelComponent,
                        label: str) -> float:
    """Rate at which ``part`` unicasts ``label`` to ``target`` inside
    ``context``. Unicast blocks: an alternative contributes only when some
    agent of the whole system other than its sender carries receive weight
    within its range."""
    agents = _agents_of(defs, context + part)
    system = _System(agents, ActionId(ActionType.UNICAST_OUT, label))
    total = 0.0
    for p in range(len(context), len(agents)):
        for prefix in _prefixes(agents[p], ActionType.UNICAST_OUT, label):
            if target in prefix.influence and system.unblocked(prefix, p):
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
    system = _System(_agents_of(defs, context), ActionId(ActionType.BROADCAST_IN, label))
    return system.incoming_rate(target.name, -1)


class RateQuery(_Record):
    """What to measure: an action performed by ``subject`` within
    ``context``, optionally restricted to agents in ``locations``."""

    __slots__ = ("action", "subject", "context", "locations")

    def __init__(self, action: ActionId, subject: Union[SeqComponent, ModelComponent],
                 context: ModelComponent = EMPTY,
                 locations: frozenset[Location] | None = None):
        self.action, self.subject, self.context, self.locations = (
            action, subject, context, locations)


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

    A query indexes the system once, so its cost grows with the number of
    agents and the sizes of the ranges involved, not with their product.
    Every sum adds its terms in composition order (a receiver pool ends with
    the measured agent's own weight) and, within an agent, in written order.
    """
    return _rate_table(_agents_of(defs, query.context),
                       _agents_of(defs, _as_component(query.subject)),
                       query.action, query.locations)[1]


def _rate_table(context: list[_AgentState], subject: list[_AgentState], action: ActionId,
                locations: frozenset[Location] | None = None
                ) -> tuple[dict[str, float], float]:
    """The exit rate of ``action`` by the composed ``subject`` inside
    ``context``, from one index of the system: by each location name the
    subject occupies, and in total. With ``locations``, only agents
    stationed there count. Each sum adds in subject order from 0.0."""
    system = _System(context + subject, action)
    by_location: dict[str, float] = {}
    total = 0.0
    for i, agent in enumerate(subject):
        if locations is None or agent.location in locations:
            rate = system.agent_rate(len(context) + i)
            name = agent.location.name
            by_location[name] = by_location.get(name, 0.0) + rate
            total += rate
    return by_location, total


class _System:
    """The agents of a system in composition order, seen by queries for one
    action, with the indexes that the action's kind reads, built up front.
    Locations are keyed by name, so no lookup hashes a ``Location``."""

    def __init__(self, agents: list[_AgentState], action: ActionId):
        self.agents = agents
        self.kind = kind = action.act_type
        self.label = label = action.label
        # for each location name, the outputs that an input of this kind
        # receives and whose range covers it, as ``(position, prefix)`` in
        # composition order and in written order within an agent
        self.senders: dict[str, list[tuple[int, UnicastOut | BroadcastOut]]] = {}
        # the receive weights on the label at each location name, as
        # ``(position, weight)`` in composition order; for unicast only
        self.listeners: dict[str, list[tuple[int, float]]] = {}
        # how many agents stand at each location name; for unicast output
        self.occupied: dict[str, int] = {}
        self._in_range: dict[frozenset[Location], list[tuple[int, float]]] = {}
        if kind in _OUTPUT_OF:
            for q, agent in enumerate(agents):
                for prefix in _prefixes(agent, _OUTPUT_OF[kind], label):
                    for loc in prefix.influence:
                        self.senders.setdefault(loc.name, []).append((q, prefix))
        if kind is ActionType.UNICAST_OUT or kind is ActionType.UNICAST_IN:
            for r, agent in enumerate(agents):
                name, weight = agent.location.name, agent.weight.get(label, 0)
                if weight > 0.0:
                    self.listeners.setdefault(name, []).append((r, weight))
                if kind is ActionType.UNICAST_OUT:
                    self.occupied[name] = self.occupied.get(name, 0) + 1

    def agent_rate(self, p: int) -> float:
        """Exit rate of the agent at position ``p``, with every other agent
        of the system as its context."""
        agent, kind, label = self.agents[p], self.kind, self.label
        if kind is ActionType.SPONTANEOUS or kind is ActionType.BROADCAST_OUT:
            return _own_rate(agent, kind, label)
        if kind is ActionType.BROADCAST_IN:
            prob = _act_prob(agent, kind, label)
            if prob <= 0.0:
                return 0.0
            return self.incoming_rate(agent.location.name, p) * prob
        if kind is ActionType.UNICAST_OUT:
            return self.best_delivery(p)
        act = _act_prob(agent, kind, label)
        own = agent.weight.get(label, 0)
        if act <= 0.0 or own <= 0.0:
            return 0.0
        total = 0.0
        for q, prefix in self.senders.get(agent.location.name, ()):
            if q != p:
                # the pool of _receiver_pool over the agents but the sender
                # and this one, then this one
                weights = [weight for r, weight in self.in_range(prefix) if r != p and r != q]
                weights.append(own)
                total += prefix.rate * (own / sum(weights)) * act
        return total

    def incoming_rate(self, name: str, skip: int) -> float:
        """Total rate of the outputs that the measured input receives and
        that reach location ``name``, leaving out the agent at ``skip``."""
        total = 0.0
        for q, prefix in self.senders.get(name, ()):
            if q != skip:
                total += prefix.rate
        return total

    def best_delivery(self, p: int) -> float:
        """The best rate at which the agent at ``p`` unicasts to any location
        another agent occupies, over its unblocked alternatives; an empty
        context offers nowhere to deliver, hence zero."""
        agent = self.agents[p]
        here = agent.location.name
        delivered: dict[str, float] = {}
        for prefix in _prefixes(agent, ActionType.UNICAST_OUT, self.label):
            if self.unblocked(prefix, p):
                for loc in prefix.influence:
                    name = loc.name
                    if self.occupied.get(name, 0) > (name == here):
                        delivered[name] = delivered.get(name, 0.0) + prefix.rate
        return max(delivered.values(), default=0.0)

    def unblocked(self, prefix: UnicastOut, sender: int) -> bool:
        """Whether an agent other than the one at ``sender`` listens on the
        label within the range of its unicast ``prefix``."""
        return any(r != sender for r, _ in self.in_range(prefix))

    def in_range(self, prefix: UnicastOut) -> list[tuple[int, float]]:
        """The receive weights on the label within ``prefix``'s range, as
        ``(position, weight)`` in composition order, kept by range."""
        found = self._in_range.get(prefix.influence)
        if found is None:
            found = []
            for loc in prefix.influence:
                found += self.listeners.get(loc.name, ())
            found.sort()
            self._in_range[prefix.influence] = found
        return found
