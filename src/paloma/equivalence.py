"""Bisimulation checks for located-agent components.

Two components are compared inside a fixed surrounding context. A relation
on component states is a bisimulation when, pair by pair, both sides expose
the same context-aware exit rates at corresponding locations and can match
each other's observable steps with related successors. Correspondence of
locations is taken up to a planar isometry; the top-level check searches the
finite candidate isometries synthesised from the occupied locations.

The computation is partition refinement over the states the two sides
reach: blocks start from each state's exit rates, read in the left side's
frame, and split until every state of a block steps under the same actions
into the same blocks. The sides are related when their roots share a block.
"""

from __future__ import annotations

import functools
import math

from .geometry import (
    IDENTITY,
    KEY_DIGITS,
    Isometry,
    _PointGrid,
    candidate_isometries,
    invert,
)
from .model import (
    Definitions,
    Location,
    ModelComponent,
    SeqComponent,
    StateKey,
    _Record,
    _agents_of,
    _model_actions,
    _state_key,
    locations_of,
    render_model,
)
from .rates import _rate_table
from .semantics import _apply, _subject_steps


class Counterexample(_Record):
    """``kind`` is "rate-mismatch", "unmatched-transition" or "location-mismatch"."""

    __slots__ = ("kind", "left", "right", "action", "transition", "location", "values")

    def __init__(self, kind: str, left: str, right: str, action: str | None = None,
                 transition: str | None = None, location: str | None = None,
                 values: tuple[float, float] | None = None):
        self.kind, self.left, self.right = kind, left, right
        self.action, self.transition, self.location, self.values = (
            action, transition, location, values)

    def describe(self) -> str:
        pair = f"({self.left}, {self.right})"
        if self.kind == "rate-mismatch":
            lv, rv = self.values
            return (f"rate mismatch at pair {pair}: action {self.action} at "
                    f"{self.location} gives {lv:.17g} vs {rv:.17g}")
        if self.kind == "unmatched-transition":
            return (f"unmatched transition at pair {pair}: a {self.transition} "
                    f"transition ({self.action} step) on one side has no "
                    "matching step on the other")
        return f"location mismatch at pair {pair}: {self.location}"


class BisimResult(_Record):
    __slots__ = ("related", "inconclusive", "witness", "relation", "pairs",
                 "counterexample", "candidate_failures", "note")
    __hash__ = None  # mutable, like the lists it holds

    def __init__(self, related: bool, inconclusive: bool = False, witness: Isometry | None = None,
                 relation: list[tuple[str, str]] | None = None,
                 pairs: list[tuple[ModelComponent, ModelComponent]] | None = None,
                 counterexample: Counterexample | None = None,
                 candidate_failures: list[str] | None = None, note: str | None = None):
        self.related, self.inconclusive, self.witness = related, inconclusive, witness
        self.relation = [] if relation is None else relation
        self.pairs = [] if pairs is None else pairs
        self.counterexample = counterexample
        self.candidate_failures = [] if candidate_failures is None else candidate_failures
        self.note = note


# A pair of side states: their keys, and the terms that represent them.
PairKey = tuple[StateKey, StateKey]
PairRep = tuple[ModelComponent, ModelComponent]
# A state's location names when they must match literally, and its nonzero
# exit rates, quantised, keyed by action index and the place they are read.
Signature = tuple[tuple[str, ...] | None, frozenset[tuple[tuple, float]]]
# A side's reached states: their numbers by key, breadth first; each one's
# term, the first found for it in derivation order (the root's is the one it
# was reached from); and each one's steps, as (action text, successor number).
Reach = tuple[dict[StateKey, int], list[ModelComponent], list[tuple[tuple[str, int], ...]]]


class _Checker:
    """Shared engine behind the bisimilarity checks of one call. States are
    keyed by their state keys and related by their numbers in each side's
    reach. Only the rate signatures depend on the isometry, so all
    candidates share each state's steps, exit rates and reached states."""

    def __init__(self, defs: Definitions, context: ModelComponent,
                 bound: float = math.inf, same_location: bool = False):
        self.defs = defs
        self.context = context
        self.context_key = _state_key(defs, context)
        self.context_agents = _agents_of(defs, context)
        self.bound = bound
        self.same_location = same_location
        # an action no prefix carries has rate 0 in every state, and
        # signatures keep only nonzero rates: leave such actions out
        self.actions = _model_actions(defs)
        self.located = _PointGrid(defs.locations.values()).match
        self._steps_cache: dict[StateKey, dict[tuple[str, StateKey], tuple]] = {}
        self._rates: dict[StateKey, tuple[tuple[str, ...], list[dict[str, float]]]] = {}
        self._reached: dict[StateKey, Reach | None] = {}
        self.left_frame = self.frame(None)

    def steps(self, key: StateKey) -> dict[tuple[str, StateKey], tuple]:
        """The steps of the state ``key`` in derivation order, the first of
        each action text and successor key, with the transition's label and
        the moves and positions of ``_derive`` that it applies."""
        cached = self._steps_cache.get(key)
        if cached is None:
            cached = self._steps_cache[key] = {
                (action.text, succ): (sent.text, moves, at)
                for action, sent, succ, moves, at in _subject_steps(
                    self.defs, self.context_key + key, len(self.context))}
        return cached

    def rates(self, key: StateKey) -> tuple[tuple[str, ...], list[dict[str, float]]]:
        """The sorted location names of the agents of ``key``, and its exit
        rates of each model action by location name."""
        found = self._rates.get(key)
        if found is None:
            subject = [self.defs._agents[a] for a in key]
            found = self._rates[key] = (tuple(sorted({a.location.name for a in subject})), [
                _rate_table(self.context_agents, subject, action)[0] for action in self.actions])
        return found

    def reach(self, root: StateKey, rep: ModelComponent) -> Reach | None:
        """The states reachable from ``root`` (represented by ``rep``), or
        ``None`` once there are more than ``bound``. Reached once per root, in
        derivation order: a state's term is built once, from its parent's."""
        if root in self._reached:
            return self._reached[root]
        index, order, terms = {root: 0}, [root], [rep]
        for n, key in enumerate(order):
            for (_, succ), (_, moves, at) in self.steps(key).items():
                if succ not in index:
                    index[succ] = len(order)
                    order.append(succ)
                    terms.append(_apply(self.context + terms[n], moves, 2, at)[len(self.context):])
                    if len(order) > self.bound:
                        self._reached[root] = None
                        return None
        found = self._reached[root] = (index, terms, [
            tuple((text, index[succ]) for text, succ in self._steps_cache[key])
            for key in order])
        return found

    def frame(self, phi_inv: Isometry | None):
        """Where each location name is read in the left side's frame, as its
        rounded point and report name. A right location (with ``phi_inv``)
        is mapped back once, onto the declared location there if any. With
        literal locations, a state is one agent, read in total."""
        if self.same_location:
            return lambda name: ((), "(total)")

        @functools.cache
        def place(name: str) -> tuple[tuple[float, ...], str]:
            found = self.defs.locations[name]
            if phi_inv is not None:
                point = phi_inv.apply(found.point)
                found = self.located(point) or Location(f"{point}", point)
            return tuple(round(c, KEY_DIGITS) for c in found.point), found.name

        return place

    def placed(self, key: StateKey, frame) -> dict[tuple, float]:
        """The nonzero exit rates of ``key`` by action index and the place
        ``frame`` reads each at, summed per place in composition order."""
        found: dict[tuple, float] = {}
        for index, table in enumerate(self.rates(key)[1]):
            for name, rate in table.items():
                if rate:
                    where = (index, *frame(name))
                    found[where] = found.get(where, 0.0) + rate
        return found

    def signature(self, key: StateKey, frame) -> Signature:
        """What the rate conditions compare of ``key``: its rates read in
        ``frame``, to ``KEY_DIGITS`` significant digits, and its location
        names when they must match."""
        return (self.rates(key)[0] if self.same_location else None,
                frozenset((where, float(f"{rate:.{KEY_DIGITS}g}"))
                          for where, rate in self.placed(key, frame).items()))

    def rate_gap(self, keys: PairKey, rep: PairRep, frames: list) -> Counterexample:
        """Why the signatures of two states differ: their location names, else
        the first place whose quantised rates differ, with unrounded rates."""
        names, rates = zip(*map(self.signature, keys, frames))
        if names[0] != names[1]:
            return Counterexample("location-mismatch", *map(render_model, rep),
                                  location=f"{list(names[0])} vs {list(names[1])}")
        # a place whose rates differ has an entry on one side only
        where = min(rates[0] ^ rates[1])[0]
        values = tuple(self.placed(key, frame).get(where, 0.0) for key, frame in zip(keys, frames))
        return Counterexample("rate-mismatch", *map(render_model, rep),
                              action=self.actions[where[0]].text, location=where[2],
                              values=values)

    def refine(self, sides: list[Reach], frames: list) -> list[list[int]]:
        """Each side's block of each of its states. Blocks start from the
        rate signatures, and split on the set of (action, block) each state
        steps into, until their number stops growing."""
        ids: dict = {}
        blocks = [[ids.setdefault(self.signature(key, frame), len(ids)) for key in index]
                  for (index, _, _), frame in zip(sides, frames)]
        count = len(ids)
        while True:
            ids = {}
            blocks = [[ids.setdefault((own[n], frozenset((text, own[s]) for text, s in steps)),
                                      len(ids)) for n, steps in enumerate(moves)]
                      for own, (_, _, moves) in zip(blocks, sides)]
            if len(ids) == count:
                return blocks
            count = len(ids)

    def transfer_gap(self, key: PairKey, rep: PairRep,
                     related=None) -> Counterexample | None:
        """A step on either side that the other cannot match with a step to a
        successor ``related(left, right)`` to its own; with ``None``, a step
        under an action the other side lacks; tried by action text, then
        successor key."""
        left, right = self.steps(key[0]), self.steps(key[1])
        for own, other, flipped in ((left, right, False), (right, left, True)):
            for (text, succ), (label, _, _) in sorted(own.items()):
                others = [k for t, k in other if t == text]
                if not others or (related is not None and not any(
                        related(k, succ) if flipped else related(succ, k) for k in others)):
                    return Counterexample("unmatched-transition", *map(render_model, rep),
                                          action=text, transition=label)
        return None

    def relation(self, sides: list[Reach], blocks: list[list[int]]) -> list[tuple[int, int]]:
        """The pairs of state numbers reachable from the roots (0 and 0)
        through matched steps whose successors share a block."""
        (_, _, left_moves), (_, _, right_moves) = sides
        pairs = [(0, 0)]
        seen = set(pairs)
        # each right state's successors by action and successor block
        grouped: dict[int, dict[tuple[str, int], list[int]]] = {}
        for left, right in pairs:
            partners = grouped.get(right)
            if partners is None:
                partners = grouped[right] = {}
                for text, succ in right_moves[right]:
                    partners.setdefault((text, blocks[1][succ]), []).append(succ)
            for text, succ_l in left_moves[left]:
                for succ_r in partners.get((text, blocks[0][succ_l]), ()):
                    if (succ_l, succ_r) not in seen:
                        seen.add((succ_l, succ_r))
                        pairs.append((succ_l, succ_r))
        return pairs

    def run(self, left: ModelComponent, right: ModelComponent,
            phi: Isometry) -> BisimResult:
        root = (_state_key(self.defs, left), _state_key(self.defs, right))
        root_rep = (left, right)
        frames = [self.left_frame, self.frame(invert(phi))]
        # a root that fails a rate condition is in no bisimulation, so the
        # verdict needs no reach
        if self.signature(root[0], frames[0]) != self.signature(root[1], frames[1]):
            return BisimResult(related=False, counterexample=(
                self.transfer_gap(root, root_rep) or self.rate_gap(root, root_rep, frames)))

        sides = [self.reach(root[0], left)]
        sides.append(sides[0] and self.reach(root[1], right))
        if sides[1] is None:
            return BisimResult(
                related=False, inconclusive=True,
                note=f"state bound {self.bound} exceeded while reaching a side's states")
        blocks = self.refine(sides, frames)
        (left_index, _, _), (right_index, _, _) = sides

        def related(l: StateKey, r: StateKey) -> bool:
            return blocks[0][left_index[l]] == blocks[1][right_index[r]]

        if related(*root):
            pairs = self.relation(sides, blocks)
            # each state of the relation prints as one term, rendered once;
            # a root prints as given, even when both sides share one reach
            terms = [[rep, *side[1][1:]] for rep, side in zip(root_rep, sides)]
            names = [{n: render_model(own[n]) for n in set(numbers)}
                     for own, numbers in zip(terms, zip(*pairs))]
            pairs.sort(key=lambda pair: (names[0][pair[0]], names[1][pair[1]]))
            return BisimResult(related=True, witness=phi,
                               relation=[(names[0][l], names[1][r]) for l, r in pairs],
                               pairs=[(terms[0][l], terms[1][r]) for l, r in pairs])

        # report the most telling root failure: a step the other side cannot
        # take at all, else a step into a block the other side cannot reach
        return BisimResult(related=False, counterexample=(
            self.transfer_gap(root, root_rep) or self.transfer_gap(root, root_rep, related)))


def check_bisim_phi(defs: Definitions, left: ModelComponent, right: ModelComponent,
                    context: ModelComponent, phi: Isometry,
                    bound: int = 10000) -> BisimResult:
    """Is there a bisimulation with respect to ``phi`` containing the pair?

    Reaches each side's states inside the shared context and refines them
    into blocks of equal exit rates at phi-corresponding locations and
    matching steps; a related verdict prints the pairs reachable from the
    root through matched steps whose successors share a block.
    """
    return _Checker(defs, context, bound).run(left, right, phi)


def naive_bisim(defs: Definitions, left: SeqComponent, right: SeqComponent,
                context: ModelComponent, bound: int = 10000) -> BisimResult:
    """Bisimulation on single agents with locations taken literally: related
    agents must occupy the same location, here and after every step."""
    checker = _Checker(defs, context, bound, same_location=True)
    return checker.run((left,), (right,), IDENTITY)


def recheck_transfer(defs: Definitions, context: ModelComponent,
                     pairs: list[tuple[ModelComponent, ModelComponent]]
                     ) -> Counterexample | None:
    """Audit an explicit pair set against the transfer conditions; used to
    confirm that unions of computed witness relations stay closed."""
    checker = _Checker(defs, context)
    keyed = [((_state_key(defs, l), _state_key(defs, r)), (l, r)) for l, r in pairs]
    keys = {key for key, _ in keyed}
    for key, rep in keyed:
        found = checker.transfer_gap(key, rep, lambda l, r: (l, r) in keys)
        if found is not None:
            return found
    return None


def bisimilar(defs: Definitions, left: ModelComponent, right: ModelComponent,
              context: ModelComponent, bound: int = 10000) -> BisimResult:
    """Search the candidate isometries for a witness relating the pair.

    Candidates come from the locations occupied by the two sides including
    the shared context; the first related verdict wins. With no witness the
    result carries one failure summary per candidate tried. One checker
    serves every candidate, so each side's states are reached at most once.
    """
    points_left = [loc.point for loc in locations_of(context + left)]
    points_right = [loc.point for loc in locations_of(context + right)]
    candidates, note = candidate_isometries(points_left, points_right)
    failures: list[str] = []
    first_failure: Counterexample | None = None
    saw_inconclusive = False
    checker = _Checker(defs, context, bound)
    for phi in candidates:
        result = checker.run(left, right, phi)
        if result.related:
            return result
        if result.inconclusive:
            saw_inconclusive = True
            failures.append(f"{phi.describe()}: inconclusive ({result.note})")
        else:
            failures.append(f"{phi.describe()}: {result.counterexample.describe()}")
            if first_failure is None:
                first_failure = result.counterexample
    if not candidates:
        note = note or "no candidate isometries"
    return BisimResult(related=False, inconclusive=saw_inconclusive,
                       counterexample=first_failure,
                       candidate_failures=failures, note=note)
