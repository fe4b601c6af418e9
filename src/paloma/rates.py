"""Rate, weight and probability queries over located-agent terms.

Two layers live here. The context-unaware functions read numbers straight
off an agent's syntax: the rate at which it could send, the weight and
probability with which it would listen. The context-aware exit rate then
combines them for an agent sitting inside a surrounding system, where
unicast blocking, receiver competition and influence ranges all matter.

Every function is pure and works on immutable terms; constants are resolved
through the model's defining equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .model import (
    ActionId,
    ActionType,
    BroadcastIn,
    BroadcastOut,
    Definitions,
    EMPTY,
    Location,
    ModelComponent,
    ModelError,
    PrefixGuarded,
    SeqComponent,
    Spontaneous,
    UnicastIn,
    UnicastOut,
    choice_leaves,
    locations_of,
    remove_at,
    seq_in,
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


def unicast_out_rate(defs: Definitions, comp: SeqComponent, label: str) -> float:
    """Total rate of outgoing unicast on ``label``, summed across choice."""
    return sum(leaf.prefix.rate for leaf in choice_leaves(defs, comp)
               if isinstance(leaf.prefix, UnicastOut) and leaf.prefix.label == label)


def spontaneous_rate(defs: Definitions, comp: SeqComponent, label: str) -> float:
    return sum(leaf.prefix.rate for leaf in choice_leaves(defs, comp)
               if isinstance(leaf.prefix, Spontaneous) and leaf.prefix.label == label)


def broadcast_out_rate(defs: Definitions, comp: SeqComponent, label: str) -> float:
    return sum(leaf.prefix.rate for leaf in choice_leaves(defs, comp)
               if isinstance(leaf.prefix, BroadcastOut) and leaf.prefix.label == label)


def unicast_influence(defs: Definitions, comp: SeqComponent, label: str) -> frozenset[Location]:
    """Union of influence ranges over the agent's unicast outputs on ``label``."""
    ranges: frozenset[Location] = frozenset()
    for leaf in choice_leaves(defs, comp):
        if isinstance(leaf.prefix, UnicastOut) and leaf.prefix.label == label:
            ranges |= leaf.prefix.influence
    return ranges


def receive_weight(defs: Definitions,
                   subject: Union[SeqComponent, ModelComponent, Iterable[SeqComponent]],
                   label: str) -> float:
    """Unicast receive weight on ``label``: summed over choice, composition
    and collections, with repeated agents counted once per occurrence."""
    if isinstance(subject, SeqComponent):
        return sum(leaf.prefix.weight for leaf in choice_leaves(defs, subject)
                   if isinstance(leaf.prefix, UnicastIn) and leaf.prefix.label == label)
    return sum(receive_weight(defs, part, label) for part in subject)


def _single_input(defs: Definitions, comp: SeqComponent, label: str,
                  input_type) -> PrefixGuarded | None:
    """The agent's one alternative guarded by an ``input_type`` prefix on
    ``label``, if any."""
    matches = [leaf for leaf in choice_leaves(defs, comp)
               if isinstance(leaf.prefix, input_type) and leaf.prefix.label == label]
    if len(matches) > 1:
        raise ModelError(
            f"agent has {len(matches)} {input_type.__name__} prefixes on "
            f"label {label!r}; at most one is allowed")
    return matches[0] if matches else None


def unicast_act_prob(defs: Definitions, comp: SeqComponent, label: str) -> float:
    """Probability that the agent acts on a received unicast ``label``."""
    leaf = _single_input(defs, comp, label, UnicastIn)
    return leaf.prefix.act_prob if leaf is not None else 0.0


def broadcast_act_prob(defs: Definitions, comp: SeqComponent, label: str) -> float:
    """Probability that the agent receives and acts on broadcast ``label``."""
    leaf = _single_input(defs, comp, label, BroadcastIn)
    return leaf.prefix.act_prob * leaf.prefix.recv_prob if leaf is not None else 0.0


def _sends_to(defs: Definitions, senders: ModelComponent, prefix_type,
              label: str, target: Location) -> Iterator[UnicastOut | BroadcastOut]:
    """Output prefixes of ``prefix_type`` on ``label`` among ``senders``
    whose range covers ``target``, in written order."""
    for member in senders:
        for leaf in choice_leaves(defs, member):
            prefix = leaf.prefix
            if (isinstance(prefix, prefix_type) and prefix.label == label
                    and target in prefix.influence):
                yield prefix


def _receiver_pool(defs: Definitions, system: ModelComponent,
                   influence: Iterable[Location], label: str) -> float:
    """Receive weight on ``label`` of every agent of ``system`` within
    ``influence``; a sender that listens on its own label counts too."""
    return receive_weight(defs, seq_in(system, influence), label)


def unicast_cap_rate(defs: Definitions, target: Location,
                     comp: SeqComponent, label: str) -> float:
    """Rate at which the agent is capable of unicasting ``label`` so that it
    reaches ``target``; each alternative counts only if its own range covers
    the target."""
    return sum(prefix.rate for prefix in _sends_to(defs, (comp,), UnicastOut, label, target))


def unicast_system_rate(defs: Definitions, target: Location,
                        context: ModelComponent, part: ModelComponent,
                        label: str) -> float:
    """Rate at which ``part`` unicasts ``label`` to ``target`` inside
    ``context``. Unicast blocks: an alternative contributes only when some
    agent of the whole system carries receive weight within its range."""
    system = context + part
    total = 0.0
    for prefix in _sends_to(defs, part, UnicastOut, label, target):
        if _receiver_pool(defs, system, prefix.influence, label) > 0.0:
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
    pool = _receiver_pool(defs, context + (receiver,), influence, label)
    if pool <= 0.0:
        return 0.0
    return own / pool


def broadcast_system_rate(defs: Definitions, target: Location,
                          context: ModelComponent, label: str) -> float:
    """Total rate at which ``context`` broadcasts ``label`` reaching
    ``target``. Broadcast never blocks, so no receiver check is needed."""
    total = 0.0
    for prefix in _sends_to(defs, context, BroadcastOut, label, target):
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
    if isinstance(subject, SeqComponent):
        if query.locations is not None:
            subject = (subject,)
        else:
            return _agent_exit_rate(defs, query.action, query.context, subject)
    if query.locations is None:
        picked = range(len(subject))
    else:
        picked = [i for i, part in enumerate(subject) if part.location in query.locations]
    total = 0.0
    for i in picked:
        agent_context = query.context + remove_at(subject, i)
        total += _agent_exit_rate(defs, query.action, agent_context, subject[i])
    return total


def _agent_exit_rate(defs: Definitions, action: ActionId,
                     context: ModelComponent, comp: SeqComponent) -> float:
    label = action.label
    act_type = action.act_type
    if act_type is ActionType.SPONTANEOUS:
        return spontaneous_rate(defs, comp, label)
    if act_type is ActionType.BROADCAST_OUT:
        return broadcast_out_rate(defs, comp, label)
    if act_type is ActionType.BROADCAST_IN:
        prob = broadcast_act_prob(defs, comp, label)
        if prob <= 0.0:
            return 0.0
        return broadcast_system_rate(defs, comp.location, context, label) * prob
    if act_type is ActionType.UNICAST_OUT:
        # best deliverable rate over the locations the context occupies;
        # an empty context offers nowhere to deliver, hence zero
        best = 0.0
        for loc in locations_of(context):
            best = max(best, unicast_system_rate(defs, loc, context, (comp,), label))
        return best
    assert act_type is ActionType.UNICAST_IN
    act = unicast_act_prob(defs, comp, label)
    own = receive_weight(defs, comp, label)
    if act <= 0.0 or own <= 0.0:
        return 0.0
    system = context + (comp,)
    total = 0.0
    for prefix in _sends_to(defs, context, UnicastOut, label, comp.location):
        pool = _receiver_pool(defs, system, prefix.influence, label)
        if pool > 0.0:
            total += prefix.rate * (own / pool) * act
    return total
