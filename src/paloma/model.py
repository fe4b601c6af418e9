"""Core term representation for PALOMA models.

A model is a parallel composition of located sequential agents. Each agent is
built from prefix-guarded behaviour (unicast/broadcast output, unicast/broadcast
input, or a spontaneous action), choice between behaviours, and named constants
that tie the recursion. Every agent carries an explicit location in the plane;
message prefixes carry an influence range, the set of locations a message can
reach.

All values here are immutable and hashable, so terms can serve directly as
dictionary keys for state-space exploration.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

__all__ = [
    "ActionId",
    "ActionType",
    "BroadcastIn",
    "BroadcastOut",
    "Choice",
    "ConstantRef",
    "Definitions",
    "EMPTY",
    "Location",
    "ModelComponent",
    "ModelError",
    "Prefix",
    "PrefixGuarded",
    "SeqComponent",
    "Spontaneous",
    "UnicastIn",
    "UnicastOut",
    "action_labels",
    "canonical",
    "choice_leaves",
    "constant",
    "guarded",
    "locations_of",
    "remove_at",
    "render_model",
    "render_prefix",
    "render_seq",
    "seq_in",
    "struct_equiv",
]


class ModelError(Exception):
    """Malformed term: dangling constant, unguarded recursion, bad index."""


class ActionType(enum.Enum):
    SPONTANEOUS = "."
    BROADCAST_OUT = "!"
    BROADCAST_IN = "?"
    UNICAST_OUT = "!!"
    UNICAST_IN = "??"

    @property
    def glyph(self) -> str:
        return self.value


@dataclass(frozen=True)
class ActionId:
    """An action identifier: a type glyph plus a message label."""

    act_type: ActionType
    label: str

    @property
    def text(self) -> str:
        if self.act_type is ActionType.SPONTANEOUS:
            return self.label
        return self.act_type.glyph + self.label

    @staticmethod
    def parse(text: str) -> "ActionId":
        """Parse an action string such as ``!!move``, ``?ping`` or ``tick``."""
        for act_type in (ActionType.UNICAST_OUT, ActionType.UNICAST_IN,
                         ActionType.BROADCAST_OUT, ActionType.BROADCAST_IN):
            if text.startswith(act_type.glyph):
                label = text[len(act_type.glyph):]
                break
        else:
            act_type, label = ActionType.SPONTANEOUS, text
        if not label.isidentifier():
            raise ModelError(f"invalid action label: {label!r}")
        return ActionId(act_type, label)


@dataclass(frozen=True)
class Location:
    """A named point in the plane. Identity is by name alone."""

    name: str
    point: tuple[float, float] = field(compare=False)


# The influence range of a message prefix, expanded to concrete locations.
InfluenceRange = frozenset[Location]


@dataclass(frozen=True)
class UnicastOut:
    label: str
    rate: float
    influence: InfluenceRange

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ModelError(f"unicast rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class UnicastIn:
    label: str
    act_prob: float
    weight: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.act_prob <= 1.0:
            raise ModelError(f"act probability out of range: {self.act_prob}")
        if not self.weight > 0:
            raise ModelError(f"receive weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class BroadcastOut:
    label: str
    rate: float
    influence: InfluenceRange

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ModelError(f"broadcast rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class BroadcastIn:
    label: str
    act_prob: float
    recv_prob: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.act_prob <= 1.0:
            raise ModelError(f"act probability out of range: {self.act_prob}")
        if not 0.0 <= self.recv_prob <= 1.0:
            raise ModelError(f"receive probability out of range: {self.recv_prob}")


@dataclass(frozen=True)
class Spontaneous:
    label: str
    rate: float

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ModelError(f"rate must be positive, got {self.rate}")


Prefix = Union[UnicastOut, UnicastIn, BroadcastOut, BroadcastIn, Spontaneous]

_PREFIX_TYPES = {
    UnicastOut: ActionType.UNICAST_OUT,
    UnicastIn: ActionType.UNICAST_IN,
    BroadcastOut: ActionType.BROADCAST_OUT,
    BroadcastIn: ActionType.BROADCAST_IN,
    Spontaneous: ActionType.SPONTANEOUS,
}


_PREFIX_NAMES = {kind: cls.__name__ for cls, kind in _PREFIX_TYPES.items()}


def prefix_action(prefix: Prefix) -> ActionId:
    return ActionId(_PREFIX_TYPES[type(prefix)], prefix.label)


@dataclass(frozen=True)
class ConstantRef:
    """Reference to a defining equation, keyed by (name, location)."""

    name: str
    location: Location


@dataclass(frozen=True)
class PrefixGuarded:
    prefix: Prefix
    continuation: ConstantRef


@dataclass(frozen=True)
class Choice:
    left: "SeqComponent"
    right: "SeqComponent"


SeqBody = Union[PrefixGuarded, Choice, ConstantRef]


@dataclass(frozen=True)
class SeqComponent:
    """A single located agent: a behaviour body tagged with its location."""

    body: SeqBody
    location: Location


# Parallel composition, in written order. The empty tuple is the empty
# context; it is never a standalone system.
ModelComponent = tuple[SeqComponent, ...]

EMPTY: ModelComponent = ()


def constant(name: str, location: Location) -> SeqComponent:
    return SeqComponent(ConstantRef(name, location), location)


def guarded(prefix: Prefix, continuation: ConstantRef, location: Location) -> SeqComponent:
    return SeqComponent(PrefixGuarded(prefix, continuation), location)


def choice(left: SeqComponent, right: SeqComponent) -> SeqComponent:
    if left.location != right.location:
        raise ModelError(
            f"choice operands must share a location: "
            f"{left.location.name} vs {right.location.name}")
    return SeqComponent(Choice(left, right), left.location)


_CLOSE_CHOICE = object()


class _AgentState:
    """Compiled tables of one interned agent state, read off its resolved
    choice tree: what the semantics and rate layers ask of an agent."""

    __slots__ = ("location", "leaves", "kinds", "outputs", "groups", "weight",
                 "pq", "next_ids")

    def __init__(self, resolved: SeqComponent):
        self.location = resolved.location
        self.leaves = tuple(_syntactic_leaves(resolved))
        self.kinds = tuple(_PREFIX_TYPES[type(leaf.prefix)] for leaf in self.leaves)
        # leaf indices of the output and spontaneous alternatives
        self.outputs = tuple(k for k, kind in enumerate(self.kinds)
                             if kind not in (ActionType.UNICAST_IN, ActionType.BROADCAST_IN))
        # leaf indices by (kind, label), in written order
        self.groups: dict[tuple[ActionType, str], tuple[int, ...]] = {}
        # unicast receive weight and broadcast p·q, by label
        self.weight: dict[str, float] = {}
        self.pq: dict[str, float] = {}
        # interned id of each leaf's continuation, filled on first use
        self.next_ids: list[int | None] = [None] * len(self.leaves)
        for k, (leaf, kind) in enumerate(zip(self.leaves, self.kinds)):
            prefix = leaf.prefix
            key = (kind, prefix.label)
            self.groups[key] = self.groups.get(key, ()) + (k,)
            if kind is ActionType.UNICAST_IN:
                self.weight[prefix.label] = self.weight.get(prefix.label, 0) + prefix.weight
            elif kind is ActionType.BROADCAST_IN:
                self.pq[prefix.label] = prefix.act_prob * prefix.recv_prob

    def continuation(self, leaf: int) -> SeqComponent:
        """The agent term the ``leaf``-th alternative continues as."""
        cont = self.leaves[leaf].continuation
        return SeqComponent(cont, cont.location)

    def single_input(self, kind: ActionType, label: str) -> int | None:
        """Leaf index of the agent's one ``kind`` input on ``label``, if any."""
        found = self.groups.get((kind, label), ())
        if len(found) > 1:
            raise ModelError(
                f"agent has {len(found)} {_PREFIX_NAMES[kind]} prefixes on "
                f"label {label!r}; at most one is allowed")
        return found[0] if found else None


@dataclass
class Definitions:
    """Declared locations and constant-defining equations of one model.

    Queries fill a private memo on first use: the unfolding of each constant,
    and one interned agent state per distinct resolved term, with compiled
    tables the engine reads instead of walking terms. The equations are
    treated as frozen from the first query on; edit them before it, or take
    a fresh ``Definitions``. Filling the memo is idempotent and guarded by a
    lock, so one instance can be shared between threads.
    """

    locations: dict[str, Location]
    equations: dict[tuple[str, str], SeqComponent]
    _unfolded: dict[tuple[str, str], SeqComponent] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _ids: dict[SeqComponent, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _by_resolved: dict[SeqComponent, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _agents: list[_AgentState] = field(
        default_factory=list, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False)

    def all_locations(self) -> frozenset[Location]:
        return frozenset(self.locations.values())

    def lookup(self, ref: ConstantRef) -> SeqComponent:
        key = (ref.name, ref.location.name)
        try:
            return self.equations[key]
        except KeyError:
            raise ModelError(
                f"no defining equation for {ref.name}({ref.location.name})") from None

    def resolve(self, comp: SeqComponent) -> SeqComponent:
        """Unfold constant references down to prefixes, through choice.

        Continuations under a prefix stay symbolic, so the result is a
        canonical form suitable for comparing and hashing states. The walk
        is iterative and each constant is unfolded once per instance.
        """
        unfolded = self._unfolded
        trail: set[tuple[str, str]] = set()
        done: list[SeqComponent] = []
        choices: list[SeqComponent] = []
        # a pending term is expanded; _CLOSE_CHOICE closes the innermost open
        # choice; a (name, location) key closes that constant's unfolding
        pending: list = [comp]
        while pending:
            item = pending.pop()
            if item is _CLOSE_CHOICE:
                node = choices.pop()
                right = done.pop()
                left = done.pop()
                if left is not node.body.left or right is not node.body.right:
                    node = SeqComponent(Choice(left, right), node.location)
                done.append(node)
            elif isinstance(item, tuple):
                trail.discard(item)
                unfolded[item] = done[-1]
            else:
                body = item.body
                if isinstance(body, ConstantRef):
                    key = (body.name, body.location.name)
                    known = unfolded.get(key)
                    if known is not None:
                        done.append(known)
                        continue
                    if key in trail:
                        raise ModelError(
                            "unguarded recursion through constant "
                            f"{body.name}({body.location.name})")
                    trail.add(key)
                    pending.append(key)
                    pending.append(self.lookup(body))
                elif isinstance(body, Choice):
                    choices.append(item)
                    pending += (_CLOSE_CHOICE, body.right, body.left)
                else:
                    done.append(item)
        return done[0]

    def _intern(self, comp: SeqComponent) -> int:
        """The agent state id of ``comp``; terms that resolve to equal trees
        share one id, and each distinct term is resolved once."""
        found = self._ids.get(comp)
        if found is not None:
            return found
        with self._lock:
            found = self._ids.get(comp)
            if found is None:
                resolved = self.resolve(comp)
                # one lookup, because hashing a resolved tree walks all of it
                fresh = len(self._agents)
                found = self._by_resolved.setdefault(resolved, fresh)
                if found == fresh:
                    self._agents.append(_AgentState(resolved))
                self._ids[comp] = found
        return found

    def _agent(self, comp: SeqComponent) -> _AgentState:
        return self._agents[self._intern(comp)]

    def _next(self, agent: _AgentState, leaf: int) -> int:
        """The state id ``agent`` moves to through its ``leaf``-th alternative."""
        found = agent.next_ids[leaf]
        if found is None:
            found = agent.next_ids[leaf] = self._intern(agent.continuation(leaf))
        return found


# The engine's key for a system state: one agent state id per position.
StateKey = tuple[int, ...]


def _state_key(defs: Definitions, component: ModelComponent) -> StateKey:
    """The engine's key for ``component``: equal exactly when ``canonical``
    is, but hashed as a tuple of ints."""
    return tuple(map(defs._intern, component))


def _agents_of(defs: Definitions, component: ModelComponent) -> list[_AgentState]:
    """The compiled agent state at each position of ``component``."""
    return [defs._agent(part) for part in component]


def locations_of(component: ModelComponent | SeqComponent) -> frozenset[Location]:
    """Set of locations occupied by the agents of a component."""
    if isinstance(component, SeqComponent):
        return frozenset((component.location,))
    return frozenset(part.location for part in component)


def seq_in(component: ModelComponent,
           locations: Iterable[Location] | None = None) -> list[SeqComponent]:
    """Agents of ``component`` located in ``locations``, in written order.

    ``None`` selects every agent. Duplicates are kept: weights and rates sum
    over occurrences.
    """
    if locations is None:
        return list(component)
    wanted = frozenset(locations)
    return [part for part in component if part.location in wanted]


def remove_at(component: ModelComponent, index: int) -> ModelComponent:
    """Drop the agent at ``index``, keeping the order of the rest."""
    if not 0 <= index < len(component):
        raise ModelError(f"component index {index} out of range 0..{len(component) - 1}")
    return component[:index] + component[index + 1:]


def canonical(defs: Definitions, component: ModelComponent) -> ModelComponent:
    """Canonical form of a system state: each agent constant-resolved.

    This is the reference that the oracle and the tests compare states by;
    the engine keys states by interned agent ids instead (``_state_key``),
    which are equal exactly when these forms are.
    """
    return tuple(defs.resolve(part) for part in component)


def struct_equiv(defs: Definitions,
                 left: ModelComponent | SeqComponent,
                 right: ModelComponent | SeqComponent) -> bool:
    """Syntactic equivalence of terms, identifying constants with their bodies.

    Parallel composition compares position by position; no reordering.
    """
    if isinstance(left, SeqComponent) != isinstance(right, SeqComponent):
        return False
    if isinstance(left, SeqComponent):
        return defs.resolve(left) == defs.resolve(right)
    return canonical(defs, left) == canonical(defs, right)


def choice_leaves(defs: Definitions, comp: SeqComponent) -> Iterator[PrefixGuarded]:
    """The prefix-guarded alternatives of an agent, left to right."""
    return iter(_syntactic_leaves(defs.resolve(comp)))


def _syntactic_leaves(comp: SeqComponent) -> list[PrefixGuarded]:
    """The prefix-guarded alternatives written in ``comp``'s choice tree,
    left to right; constant references are skipped, not resolved."""
    leaves: list[PrefixGuarded] = []
    stack = [comp]
    while stack:
        body = stack.pop().body
        if isinstance(body, Choice):
            stack.append(body.right)
            stack.append(body.left)
        elif isinstance(body, PrefixGuarded):
            leaves.append(body)
    return leaves


def action_labels(defs: Definitions) -> list[str]:
    """Every action label mentioned by the model's equations, sorted."""
    return sorted({leaf.prefix.label
                   for body in defs.equations.values()
                   for leaf in _syntactic_leaves(body)})


def format_number(value: float) -> str:
    return repr(float(value))


def render_prefix(prefix: Prefix, all_locations: frozenset[Location] | None = None) -> str:
    def render_range(influence: InfluenceRange) -> str:
        if all_locations is not None and influence == all_locations:
            return "all"
        return ", ".join(sorted(loc.name for loc in influence))

    num = format_number
    if isinstance(prefix, UnicastOut):
        return f"!!({prefix.label}, {num(prefix.rate)})@Ir{{{render_range(prefix.influence)}}}"
    if isinstance(prefix, UnicastIn):
        return f"??({prefix.label}, {num(prefix.act_prob)})@Wt{{{num(prefix.weight)}}}"
    if isinstance(prefix, BroadcastOut):
        return f"!({prefix.label}, {num(prefix.rate)})@Ir{{{render_range(prefix.influence)}}}"
    if isinstance(prefix, BroadcastIn):
        return f"?({prefix.label}, {num(prefix.act_prob)})@Prob{{{num(prefix.recv_prob)}}}"
    return f"({prefix.label}, {num(prefix.rate)})"


def render_seq(comp: SeqComponent, all_locations: frozenset[Location] | None = None) -> str:
    body = comp.body
    if isinstance(body, ConstantRef):
        return f"{body.name}({body.location.name})"
    if isinstance(body, PrefixGuarded):
        cont = body.continuation
        return (f"{render_prefix(body.prefix, all_locations)}"
                f".{cont.name}({cont.location.name})")
    return (f"{render_seq(body.left, all_locations)} + "
            f"{render_seq(body.right, all_locations)}")


def render_model(component: ModelComponent,
                 all_locations: frozenset[Location] | None = None) -> str:
    if not component:
        return "empty"
    return " || ".join(render_seq(part, all_locations) for part in component)
