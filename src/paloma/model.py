"""Core term representation for PALOMA models.

A model is a parallel composition of located sequential agents. Each agent is
built from prefix-guarded behaviour (unicast/broadcast output, unicast/broadcast
input, or a spontaneous action), choice between behaviours, and named constants
that tie the recursion. Every agent carries an explicit location in the plane;
message prefixes carry an influence range, the set of locations a message can
reach.

All values here are immutable and hashable, so terms can serve directly as
dictionary keys for state-space exploration. A term's hash is fixed when it is
built, so hashing never walks a term, and comparing terms never recurses.
"""

from __future__ import annotations

import enum
import threading
from typing import Iterable, Iterator, Union


class ModelError(Exception):
    """Malformed term: dangling constant, unguarded recursion, bad index."""


class _Record:
    """A value made of the fields named by its ``__slots__``: it compares
    equal, hashes and prints field by field, in slot order."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        # records nest as deep as a choice is wide: expand them with a stack
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, _Record):
                out.append(item)
                continue
            parts: list = [f"{type(item).__name__}("]
            for k, (name, value) in enumerate(zip(item.__slots__, item._values())):
                parts += (f"{', ' if k else ''}{name}=",
                          value if isinstance(value, _Record) else repr(value))
            parts.append(")")
            stack += reversed(parts)
        return "".join(out)


class _Term(_Record):
    """A term node, equal by its ``_fields``. Its hash is fixed at
    construction from theirs, a child node's being its stored ``_hash``, so
    hashing takes constant time; equality walks two trees with a stack.
    Fields are never reassigned after construction: the hash depends on them."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a._hash != b._hash:
                return False
            for name in a._fields:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, _Term):
                    pending.append((x, y))
                elif x is not y and x != y:
                    return False
        return True


class ActionType(enum.Enum):
    SPONTANEOUS = "."
    BROADCAST_OUT = "!"
    BROADCAST_IN = "?"
    UNICAST_OUT = "!!"
    UNICAST_IN = "??"

    # members are singletons: hash them by identity, in C, not by name
    __hash__ = object.__hash__

    def __init__(self, glyph: str):
        self.glyph = glyph


class ActionId(_Term):
    """An action identifier: a type glyph plus a message label."""

    __slots__ = ("act_type", "label", "text")
    _fields = ("act_type", "label")

    def __init__(self, act_type: ActionType, label: str):
        self.act_type, self.label = act_type, label
        self.text = label if act_type is ActionType.SPONTANEOUS else act_type.glyph + label
        self._hash = hash((act_type, label))

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


class Location(_Term):
    """A named point in the plane. Identity is by name alone."""

    __slots__ = ("name", "point")
    _fields = ("name",)

    def __init__(self, name: str, point: tuple[float, float]):
        self.name, self.point = name, point
        self._hash = hash((name,))


# The influence range of a message prefix, expanded to concrete locations.
InfluenceRange = frozenset[Location]
_NO_RANGE: InfluenceRange = frozenset()  # a spontaneous action's, shared


class UnicastOut(_Term):
    __slots__ = _fields = ("label", "rate", "influence")

    def __init__(self, label: str, rate: float, influence: InfluenceRange):
        if not rate > 0:
            raise ModelError(f"unicast rate must be positive, got {rate}")
        self.label, self.rate, self.influence = label, rate, influence
        self._hash = hash((label, rate, influence))


class UnicastIn(_Term):
    __slots__ = _fields = ("label", "act_prob", "weight")

    def __init__(self, label: str, act_prob: float, weight: float):
        if not 0.0 <= act_prob <= 1.0:
            raise ModelError(f"act probability out of range: {act_prob}")
        if not weight > 0:
            raise ModelError(f"receive weight must be positive, got {weight}")
        self.label, self.act_prob, self.weight = label, act_prob, weight
        self._hash = hash((label, act_prob, weight))


class BroadcastOut(_Term):
    __slots__ = _fields = ("label", "rate", "influence")

    def __init__(self, label: str, rate: float, influence: InfluenceRange):
        if not rate > 0:
            raise ModelError(f"broadcast rate must be positive, got {rate}")
        self.label, self.rate, self.influence = label, rate, influence
        self._hash = hash((label, rate, influence))


class BroadcastIn(_Term):
    __slots__ = _fields = ("label", "act_prob", "recv_prob")

    def __init__(self, label: str, act_prob: float, recv_prob: float):
        if not 0.0 <= act_prob <= 1.0:
            raise ModelError(f"act probability out of range: {act_prob}")
        if not 0.0 <= recv_prob <= 1.0:
            raise ModelError(f"receive probability out of range: {recv_prob}")
        self.label, self.act_prob, self.recv_prob = label, act_prob, recv_prob
        self._hash = hash((label, act_prob, recv_prob))


class Spontaneous(_Term):
    __slots__ = _fields = ("label", "rate")

    def __init__(self, label: str, rate: float):
        if not rate > 0:
            raise ModelError(f"rate must be positive, got {rate}")
        self.label, self.rate = label, rate
        self._hash = hash((label, rate))


Prefix = Union[UnicastOut, UnicastIn, BroadcastOut, BroadcastIn, Spontaneous]

_PREFIX_TYPES = {
    UnicastOut: ActionType.UNICAST_OUT,
    UnicastIn: ActionType.UNICAST_IN,
    BroadcastOut: ActionType.BROADCAST_OUT,
    BroadcastIn: ActionType.BROADCAST_IN,
    Spontaneous: ActionType.SPONTANEOUS,
}


_PREFIX_NAMES = {kind: cls.__name__ for cls, kind in _PREFIX_TYPES.items()}


class ConstantRef(_Term):
    """Reference to a defining equation, keyed by (name, location)."""

    __slots__ = _fields = ("name", "location")

    def __init__(self, name: str, location: Location):
        self.name, self.location = name, location
        self._hash = hash((name, location._hash))


class PrefixGuarded(_Term):
    __slots__ = _fields = ("prefix", "continuation")

    def __init__(self, prefix: Prefix, continuation: ConstantRef):
        self.prefix, self.continuation = prefix, continuation
        self._hash = hash((prefix._hash, continuation._hash))


class Choice(_Term):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: "SeqComponent", right: "SeqComponent"):
        self.left, self.right = left, right
        self._hash = hash((left._hash, right._hash))


SeqBody = Union[PrefixGuarded, Choice, ConstantRef]


class SeqComponent(_Term):
    """A single located agent: a behaviour body tagged with its location."""

    __slots__ = _fields = ("body", "location")

    def __init__(self, body: SeqBody, location: Location):
        self.body, self.location = body, location
        self._hash = hash((body._hash, location._hash))


# Parallel composition, in written order. The empty tuple is the empty
# context; it is never a standalone system.
ModelComponent = tuple[SeqComponent, ...]

EMPTY: ModelComponent = ()


def constant(name: str, location: Location) -> SeqComponent:
    return SeqComponent(ConstantRef(name, location), location)


def guarded(prefix: Prefix, continuation: ConstantRef, location: Location) -> SeqComponent:
    return SeqComponent(PrefixGuarded(prefix, continuation), location)


_CLOSE_CHOICE = object()


class _AgentState:
    """Compiled tables of one interned agent state, read off the resolved
    choice tree it keeps: what the model, semantics and rate layers ask of
    an agent. ``listens`` and ``next`` are filled on first use, and
    ``derived`` is the semantics layer's memo of the derivations it sends."""

    __slots__ = ("resolved", "location", "leaves", "groups", "weight", "sends", "listens",
                 "derived", "next")

    def __init__(self, resolved: SeqComponent):
        self.resolved = resolved
        self.location = resolved.location
        self.leaves = tuple(_syntactic_leaves(resolved))
        # leaf indices by (kind, label), in written order
        self.groups: dict[tuple[ActionType, str], tuple[int, ...]] = {}
        # unicast receive weight by label
        self.weight: dict[str, float] = {}
        # (leaf, kind, prefix, influence) of each output and spontaneous alternative
        self.sends: list[tuple[int, ActionType, Prefix, InfluenceRange]] = []
        # (leaf, weight, act probability) by input (kind, label), or None
        self.listens: dict[tuple[ActionType, str], tuple[int, float, float] | None] = {}
        self.derived: dict[tuple[int, tuple[int, ...]], list] = {}
        # (state id, term) of each leaf's continuation
        self.next: list[tuple[int, SeqComponent] | None] = [None] * len(self.leaves)
        for k, leaf in enumerate(self.leaves):
            prefix = leaf.prefix
            kind = _PREFIX_TYPES[type(prefix)]
            self.groups[kind, prefix.label] = self.groups.get((kind, prefix.label), ()) + (k,)
            if kind is ActionType.UNICAST_IN:
                self.weight[prefix.label] = self.weight.get(prefix.label, 0) + prefix.weight
            elif kind is not ActionType.BROADCAST_IN:
                self.sends.append((k, kind, prefix, getattr(prefix, "influence", _NO_RANGE)))

    def single_input(self, kind: ActionType, label: str) -> int | None:
        """Leaf index of the agent's one ``kind`` input on ``label``, if any."""
        found = self.groups.get((kind, label), ())
        if len(found) > 1:
            raise ModelError(
                f"agent has {len(found)} {_PREFIX_NAMES[kind]} prefixes on "
                f"label {label!r}; at most one is allowed")
        return found[0] if found else None

    def listen(self, kind: ActionType, label: str) -> tuple[int, float, float] | None:
        """``(leaf, weight, act probability)`` of the agent's one ``kind``
        input on ``label``, ``None`` if it has none. A broadcast listener
        acts with probability p·q and has weight 1."""
        if (kind, label) not in self.listens:
            k = self.single_input(kind, label)
            prefix = None if k is None else self.leaves[k].prefix
            self.listens[kind, label] = None if prefix is None else (
                (k, prefix.weight, prefix.act_prob) if kind is ActionType.UNICAST_IN
                else (k, 1.0, prefix.act_prob * prefix.recv_prob))
        return self.listens[kind, label]


def _receiver_pool(system: Iterable[_AgentState], influence: frozenset[Location],
                   label: str) -> float:
    """Receive weight on ``label`` of the agents of ``system`` within
    ``influence``. Callers leave a sender out of its own pool: it never
    receives its own unicast, even when it listens on the label."""
    return sum(agent.weight.get(label, 0) for agent in system if agent.location in influence)


class Definitions:
    """Declared locations and constant-defining equations of one model.

    Queries fill a private memo on first use: the unfolding of each constant,
    and one interned agent state per distinct resolved term, with compiled
    tables the engine reads instead of walking terms. The equations are
    treated as frozen from the first query on; edit them before it, or take
    a fresh ``Definitions``. Filling the memo is idempotent and guarded by a
    lock, so one instance can be shared between threads.
    """

    def __init__(self, locations: dict[str, Location],
                 equations: dict[tuple[str, str], SeqComponent]):
        self.locations = locations
        self.equations = equations
        self._unfolded: dict[tuple[str, str], SeqComponent] = {}
        self._ids: dict[SeqComponent, int] = {}
        self._by_resolved: dict[SeqComponent, int] = {}
        self._agents: list[_AgentState] = []
        # each range's location names as a set and sorted, for the semantics
        self._reach: dict[InfluenceRange, tuple[frozenset[str], list[str]]] = {}
        self._lock = threading.Lock()

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

    def _resolve_equation(self, key: tuple[str, str]) -> SeqComponent:
        """The resolved body of the equation ``key``, kept as that constant's
        unfolding: what resolving a reference to it yields."""
        found = self._unfolded.get(key)
        if found is None:
            found = self._unfolded[key] = self.resolve(self.equations[key])
        return found

    def _intern(self, comp: SeqComponent) -> int:
        """The agent state id of ``comp``; terms that resolve to equal trees
        share one id, and each distinct term is resolved once."""
        found = self._ids.get(comp)
        if found is not None:
            return found
        with self._lock:
            found = self._ids.get(comp)
            if found is None:
                # a constant that was already unfolded needs no resolve call
                body = comp.body
                resolved = (self._unfolded.get((body.name, body.location.name))
                            if isinstance(body, ConstantRef) else None)
                if resolved is None:
                    resolved = self.resolve(comp)
                fresh = len(self._agents)
                found = self._by_resolved.setdefault(resolved, fresh)
                if found == fresh:
                    self._agents.append(_AgentState(resolved))
                self._ids[comp] = found
        return found

    def _agent(self, comp: SeqComponent) -> _AgentState:
        return self._agents[self._intern(comp)]

    def _next(self, agent: _AgentState, leaf: int) -> tuple[int, SeqComponent]:
        """The state id and the agent term that ``agent`` moves to through
        its ``leaf``-th alternative, built once."""
        found = agent.next[leaf]
        if found is None:
            cont = agent.leaves[leaf].continuation
            term = SeqComponent(cont, cont.location)
            found = agent.next[leaf] = (self._intern(term), term)
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
    return tuple(agent.resolved for agent in _agents_of(defs, component))


def struct_equiv(defs: Definitions,
                 left: ModelComponent | SeqComponent,
                 right: ModelComponent | SeqComponent) -> bool:
    """Syntactic equivalence of terms, identifying constants with their bodies.

    Parallel composition compares position by position; no reordering.
    """
    if isinstance(left, SeqComponent) != isinstance(right, SeqComponent):
        return False
    if isinstance(left, SeqComponent):
        return defs._intern(left) == defs._intern(right)
    return _state_key(defs, left) == _state_key(defs, right)


def choice_leaves(defs: Definitions, comp: SeqComponent) -> Iterator[PrefixGuarded]:
    """The prefix-guarded alternatives of an agent, left to right."""
    return iter(defs._agent(comp).leaves)


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
    return list(dict.fromkeys(action.label for action in _model_actions(defs)))


def _model_actions(defs: Definitions) -> list[ActionId]:
    """Every action that a prefix of the model's equations carries: by
    label, then in ``ActionType`` order."""
    kinds = list(ActionType)
    found = {(leaf.prefix.label, kinds.index(_PREFIX_TYPES[type(leaf.prefix)]))
             for body in defs.equations.values() for leaf in _syntactic_leaves(body)}
    return [ActionId(kinds[n], label) for label, n in sorted(found)]


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
    # a choice prints as its operands joined by " + ": its leaves, left to right
    parts: list[str] = []
    stack = [comp]
    while stack:
        body = stack.pop().body
        if isinstance(body, Choice):
            stack += (body.right, body.left)
        elif isinstance(body, ConstantRef):
            parts.append(f"{body.name}({body.location.name})")
        else:
            cont = body.continuation
            parts.append(f"{render_prefix(body.prefix, all_locations)}"
                         f".{cont.name}({cont.location.name})")
    return " + ".join(parts)


def render_model(component: ModelComponent,
                 all_locations: frozenset[Location] | None = None) -> str:
    if not component:
        return "empty"
    return " || ".join(render_seq(part, all_locations) for part in component)
