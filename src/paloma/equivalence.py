"""Bisimulation checks for located-agent components.

Two components are compared inside a fixed surrounding context. A relation
on component pairs survives when, pair by pair, both sides expose the same
context-aware exit rates at corresponding locations and can match each
other's observable steps with related successors. Correspondence of
locations is taken up to a planar isometry; the top-level check searches the
finite candidate isometries synthesised from the occupied locations.

The computation is a greatest fixpoint: start from every reachable pair that
passes the rate conditions, then repeatedly drop pairs whose transitions
cannot be matched within what remains.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque

from .geometry import (
    ALGEBRAIC_TOL,
    IDENTITY,
    Isometry,
    Point,
    _PointGrid,
    candidate_isometries,
    invert,
)
from .model import (
    ActionId,
    ActionType,
    Definitions,
    Location,
    ModelComponent,
    SeqComponent,
    StateKey,
    _Record,
    _agents_of,
    _state_key,
    action_labels,
    locations_of,
    render_model,
)
from .rates import _rate_table
from .semantics import LiftedStep, _keyed_component_steps

__all__ = [
    "BisimResult",
    "Counterexample",
    "bisimilar",
    "check_bisim_phi",
    "naive_bisim",
    "recheck_transfer",
]

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


def _model_actions(defs: Definitions) -> list[ActionId]:
    return [ActionId(act_type, label)
            for label in action_labels(defs)
            for act_type in (ActionType.SPONTANEOUS, ActionType.BROADCAST_OUT,
                             ActionType.BROADCAST_IN, ActionType.UNICAST_OUT,
                             ActionType.UNICAST_IN)]


def _rates_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=ALGEBRAIC_TOL, abs_tol=0.0)


# A pair of side states: their keys, and the terms that represent them.
PairKey = tuple[StateKey, StateKey]
PairRep = tuple[ModelComponent, ModelComponent]
# A failed condition at a pair: a Counterexample's kind and its details,
# rendered into one only for the pair a verdict reports.
Gap = tuple[str, dict]


def _counterexample(rep: PairRep, gap: Gap | None) -> Counterexample | None:
    if gap is None:
        return None
    return Counterexample(gap[0], render_model(rep[0]), render_model(rep[1]), **gap[1])


# A state's steps by action text, each with its successor's key; and the
# successor keys under each action.
Steps = tuple[dict[str, list[tuple[LiftedStep, StateKey]]], dict[str, frozenset[StateKey]]]
Relation = tuple[dict[StateKey, set[StateKey]], dict[StateKey, set[StateKey]]]


def _relation(keys) -> Relation:
    """A pair set indexed by either side: each left key's right keys, and back."""
    relation: Relation = ({}, {})
    for left, right in keys:
        relation[0].setdefault(left, set()).add(right)
        relation[1].setdefault(right, set()).add(left)
    return relation


class _Frames(dict):
    """Rate frames under ``phi``, built on first use: for two states' location
    names, each matched point's report name and the location each side reads."""

    def __init__(self, phi: Isometry, located, named: dict[str, Location]):
        super().__init__()
        self.phi, self.phi_inv, self.located, self.named = phi, invert(phi), located, named

    def __missing__(self, names: tuple[tuple[str, ...], tuple[str, ...]]):
        points: dict[tuple[float, float], Point] = {}
        for point in [self.named[name].point for name in names[0]] + [
                self.phi_inv.apply(self.named[name].point) for name in names[1]]:
            points.setdefault(tuple(round(c, 9) for c in point), point)
        matched = [(points[p], self.located(points[p]), self.located(self.phi.apply(points[p])))
                   for p in sorted(points)]
        frame = self[names] = (
            [left.name if left is not None else f"{point}" for point, left, _ in matched],
            tuple(left and left.name for _, left, _ in matched),
            tuple(right and right.name for _, _, right in matched))
        return frame


class _PairChecker:
    """Shared engine behind the bisimilarity checks of one call. Pairs are
    keyed by the two sides' state keys; each pair keeps the first
    representative terms seen, for display. Only the rate conditions depend
    on the isometry, and only through the sides' location sets, so all
    candidates share each state's steps, exit rates and reachable pairs."""

    def __init__(self, defs: Definitions, context: ModelComponent,
                 bound: float = math.inf, same_location: bool = False):
        self.defs = defs
        self.context = context
        self.context_agents = _agents_of(defs, context)
        self.bound = bound
        self.same_location = same_location
        self.actions = _model_actions(defs)
        self.located = _PointGrid(defs.locations.values()).match
        self._named: dict[str, Location] = {}
        self._steps_cache: dict[StateKey, Steps] = {}
        self._rates: dict[StateKey, tuple[tuple[str, ...], list]] = {}
        self._vectors: dict[tuple[StateKey, tuple], tuple[float, ...]] = {}
        self._explored: dict[PairKey, dict[PairKey, PairRep] | None] = {}

    def steps(self, key: StateKey, subject: ModelComponent) -> Steps:
        """The steps of the state ``key`` (represented by ``subject``), in a
        fixed order: by action text, label text, then rendered successor."""
        cached = self._steps_cache.get(key)
        if cached is None:
            keyed = _keyed_component_steps(self.defs, self.context, subject)
            by_action: dict[str, list[tuple[LiftedStep, StateKey]]] = {}
            for (text, succ_key), step in sorted(
                    keyed.items(), key=lambda item: (item[0][0], item[1].label_text,
                                                     render_model(item[1].successor))):
                by_action.setdefault(text, []).append((step, succ_key))
            succs = {text: frozenset(k for _, k in group) for text, group in by_action.items()}
            cached = self._steps_cache[key] = (by_action, succs)
        return cached

    def rates(self, key: StateKey) -> tuple[tuple[str, ...], list[tuple[dict[str, float], float]]]:
        """The sorted location names of the agents of ``key``, and its exit
        rates of each model action: by location name, and in total."""
        found = self._rates.get(key)
        if found is None:
            subject = [self.defs._agents[a] for a in key]
            located = {agent.location.name: agent.location for agent in subject}
            self._named.update(located)
            found = self._rates[key] = (tuple(sorted(located)), [
                _rate_table(self.context_agents, subject, action) for action in self.actions])
        return found

    def vector(self, key: StateKey, names: tuple[str | None, ...]) -> tuple[float, ...]:
        """The exit rates of ``key`` at each of ``names``, action by action."""
        found = self._vectors.get((key, names))
        if found is None:
            found = self._vectors[key, names] = tuple(
                table.get(name, 0.0) for table, _ in self.rates(key)[1] for name in names)
        return found

    def rate_gap(self, key: PairKey, frames: _Frames) -> Gap | None:
        """First violated rate condition at this pair under ``frames.phi``."""
        (left, left_rates), (right, right_rates) = self.rates(key[0]), self.rates(key[1])
        if self.same_location:
            if left != right:
                return "location-mismatch", {"location": f"{list(left)} vs {list(right)}"}
            wheres = ["(total)"]
            left_rates, right_rates = [t for _, t in left_rates], [t for _, t in right_rates]
        else:
            wheres, left_names, right_names = frames[left, right]
            left_rates = self.vector(key[0], left_names)
            right_rates = self.vector(key[1], right_names)
        if left_rates != right_rates:
            for index, (lv, rv) in enumerate(zip(left_rates, right_rates)):
                if lv != rv and not _rates_close(lv, rv):
                    action, at = divmod(index, len(wheres))
                    return "rate-mismatch", {"action": self.actions[action].text,
                                             "location": wheres[at], "values": (lv, rv)}
        return None

    def transfer_gap(self, key: PairKey, rep: PairRep,
                     relation: Relation | None) -> Gap | None:
        """A step on either side that the other cannot match into ``relation``;
        with ``None``, a step under an action the other side lacks."""
        left, right = self.steps(key[0], rep[0]), self.steps(key[1], rep[1])
        for (by_action, _), (_, other_succs), partners in (
                (left, right, relation and relation[0]), (right, left, relation and relation[1])):
            for text, group in by_action.items():
                keys = other_succs.get(text)
                for step, succ in group:
                    if keys is None or (partners is not None
                                        and keys.isdisjoint(partners.get(succ, ()))):
                        return "unmatched-transition", {"action": text,
                                                        "transition": step.label_text}
        return None

    def explore(self, root: PairKey, root_rep: PairRep) -> dict[PairKey, PairRep] | None:
        """The pairs reachable from ``root`` through matched steps, each with
        its representative terms, or ``None`` once either side reaches more
        than ``bound`` states. Explored once per root."""
        if root in self._explored:
            return self._explored[root]
        reps = self._explored[root] = {root: root_rep}
        # a left key enters only to take a partner at once, so it counts as seen
        partners = defaultdict(set, {root[0]: {root[1]}})
        right_seen = {root[1]}
        queue = deque([root])
        while queue:
            key = queue.popleft()
            l_rep, r_rep = reps[key]
            # left first: a state both sides reach caches the steps of the
            # representative that asks first
            left_by_action = self.steps(key[0], l_rep)[0]
            right_by_action, right_succs = self.steps(key[1], r_rep)
            # steps sort by action first: this walk keeps their order
            for text, left_group in left_by_action.items():
                keys_r = right_succs.get(text)
                if keys_r is None:
                    continue
                for sl, key_l in left_group:
                    # a step whose successor pairs are all known adds none
                    known = partners[key_l]
                    if keys_r <= known:
                        continue
                    for sr, key_r in right_by_action[text]:
                        if key_r in known:
                            continue
                        known.add(key_r)
                        right_seen.add(key_r)
                        if len(partners) > self.bound or len(right_seen) > self.bound:
                            self._explored[root] = None
                            return None
                        new_key = (key_l, key_r)
                        reps[new_key] = (sl.successor, sr.successor)
                        queue.append(new_key)
        return reps

    def run(self, left: ModelComponent, right: ModelComponent,
            phi: Isometry) -> BisimResult:
        root = (_state_key(self.defs, left), _state_key(self.defs, right))
        root_rep = (left, right)
        frames = _Frames(phi, self.located, self._named)
        # a root that fails a rate condition is outside every candidate
        # relation, so the verdict needs no exploration
        rate_gap = self.rate_gap(root, frames)
        if rate_gap is not None:
            step_gap = self.transfer_gap(root, root_rep, None)
            return BisimResult(related=False,
                               counterexample=_counterexample(root_rep, step_gap or rate_gap))

        reps = self.explore(root, root_rep)
        if reps is None:
            return BisimResult(
                related=False, inconclusive=True,
                note=f"state bound {self.bound} exceeded while exploring the pair space")
        relation = {key: rep for key, rep in reps.items()
                    if self.rate_gap(key, frames) is None}
        indexed = _relation(relation)
        changed = True
        while changed:
            changed = False
            for key in list(relation):
                if self.transfer_gap(key, relation[key], indexed) is not None:
                    del relation[key]
                    indexed[0][key[0]].discard(key[1])
                    indexed[1][key[1]].discard(key[0])
                    changed = True

        if root in relation:
            pairs = sorted(relation.values(),
                           key=lambda pq: (render_model(pq[0]), render_model(pq[1])))
            rendered = [(render_model(l), render_model(r)) for l, r in pairs]
            return BisimResult(related=True, witness=phi, relation=rendered,
                               pairs=pairs)

        # report the most telling root failure: a step the other side cannot
        # take at all, else the closure failure left after refinement
        gap = (self.transfer_gap(root, root_rep, None)
               or self.transfer_gap(root, root_rep, indexed))
        return BisimResult(related=False, counterexample=_counterexample(root_rep, gap))


def check_bisim_phi(defs: Definitions, left: ModelComponent, right: ModelComponent,
                    context: ModelComponent, phi: Isometry,
                    bound: int = 10000) -> BisimResult:
    """Is there a bisimulation with respect to ``phi`` containing the pair?

    Explores the pairs reachable through matched steps inside the shared
    context and computes the greatest relation whose pairs have equal exit
    rates at phi-corresponding locations and match each other's steps.
    """
    return _PairChecker(defs, context, bound).run(left, right, phi)


def naive_bisim(defs: Definitions, left: SeqComponent, right: SeqComponent,
                context: ModelComponent, bound: int = 10000) -> BisimResult:
    """Bisimulation on single agents with locations taken literally: related
    agents must occupy the same location, here and after every step."""
    checker = _PairChecker(defs, context, bound, same_location=True)
    return checker.run((left,), (right,), IDENTITY)


def recheck_transfer(defs: Definitions, context: ModelComponent, phi: Isometry,
                     pairs: list[tuple[ModelComponent, ModelComponent]]
                     ) -> Counterexample | None:
    """Audit an explicit pair set against the transfer conditions; used to
    confirm that unions of computed witness relations stay closed. The
    transfer conditions do not depend on ``phi``."""
    checker = _PairChecker(defs, context)
    keyed = [((_state_key(defs, l), _state_key(defs, r)), (l, r)) for l, r in pairs]
    relation = _relation(key for key, _ in keyed)
    for key, rep in keyed:
        gap = checker.transfer_gap(key, rep, relation)
        if gap is not None:
            return _counterexample(rep, gap)
    return None


def bisimilar(defs: Definitions, left: ModelComponent, right: ModelComponent,
              context: ModelComponent, bound: int = 10000) -> BisimResult:
    """Search the candidate isometries for a witness relating the pair.

    Candidates come from the locations occupied by the two sides including
    the shared context; the first related verdict wins. With no witness the
    result carries one failure summary per candidate tried. One checker
    serves every candidate, so the pair space is explored at most once.
    """
    points_left = [loc.point for loc in locations_of(context + left)]
    points_right = [loc.point for loc in locations_of(context + right)]
    candidates, note = candidate_isometries(points_left, points_right)
    failures: list[str] = []
    first_failure: Counterexample | None = None
    saw_inconclusive = False
    checker = _PairChecker(defs, context, bound)
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
