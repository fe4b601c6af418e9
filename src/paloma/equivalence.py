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

import functools
import math
from collections import deque

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


class _PairChecker:
    """Shared engine behind the bisimilarity checks of one call. Pairs are
    keyed by the two sides' state keys; each pair keeps the first
    representative terms seen, for display. Only the rate conditions depend
    on the isometry, so all candidates share each state's steps and exit
    rates and the pairs reachable from a root, computed once."""

    def __init__(self, defs: Definitions, context: ModelComponent,
                 bound: float = math.inf, same_location: bool = False):
        self.defs = defs
        self.context = context
        self.context_agents = _agents_of(defs, context)
        self.bound = bound
        self.same_location = same_location
        self.actions = _model_actions(defs)
        # the declared location at a point; candidates ask about the same few
        # points again and again
        self.located = functools.cache(_PointGrid(defs.locations.values()).match)
        self._steps_cache: dict[StateKey, tuple[
            list[tuple[LiftedStep, StateKey]],
            dict[ActionId, list[tuple[LiftedStep, StateKey]]]]] = {}
        self._rates: dict[StateKey, list[tuple[dict[str, float], float]]] = {}
        self._explored: dict[PairKey, dict[PairKey, PairRep] | None] = {}

    def steps(self, key: StateKey, subject: ModelComponent
              ) -> tuple[list[tuple[LiftedStep, StateKey]],
                         dict[ActionId, list[tuple[LiftedStep, StateKey]]]]:
        """The steps of the state ``key`` (represented by ``subject``) in a
        fixed order, each with its successor's key; and the same steps
        grouped by action."""
        cached = self._steps_cache.get(key)
        if cached is None:
            keyed = _keyed_component_steps(self.defs, self.context, subject)
            ordered = sorted(
                ((step, succ_key) for (_, succ_key), step in keyed.items()),
                key=lambda pair: (pair[0].action.text, pair[0].label_text,
                                  render_model(pair[0].successor)))
            by_action: dict[ActionId, list[tuple[LiftedStep, StateKey]]] = {}
            for entry in ordered:
                by_action.setdefault(entry[0].action, []).append(entry)
            cached = self._steps_cache[key] = (ordered, by_action)
        return cached

    def rates(self, key: StateKey) -> list[tuple[dict[str, float], float]]:
        """Exit rates of each model action by the state ``key``: by location
        name of its agents, and in total."""
        tables = self._rates.get(key)
        if tables is None:
            subject = [self.defs._agents[a] for a in key]
            tables = self._rates[key] = [_rate_table(self.context_agents, subject, action)
                                         for action in self.actions]
        return tables

    def rate_gap(self, key: PairKey, rep: PairRep, phi: Isometry) -> Gap | None:
        """First violated rate condition at this pair under ``phi``, if any."""
        left, right = rep
        left_rates, right_rates = self.rates(key[0]), self.rates(key[1])
        if self.same_location:
            left_locs = sorted(l.name for l in locations_of(left))
            right_locs = sorted(l.name for l in locations_of(right))
            if left_locs != right_locs:
                return "location-mismatch", {"location": f"{left_locs} vs {right_locs}"}
            for index, action in enumerate(self.actions):
                lv, rv = left_rates[index][1], right_rates[index][1]
                if not _rates_close(lv, rv):
                    return "rate-mismatch", {"action": action.text, "location": "(total)",
                                             "values": (lv, rv)}
            return None

        phi_inv = invert(phi)
        points: dict[tuple[float, float], Point] = {}
        for loc in sorted(locations_of(left), key=lambda l: l.name):
            points.setdefault(tuple(round(c, 9) for c in loc.point), loc.point)
        for loc in sorted(locations_of(right), key=lambda l: l.name):
            pre = phi_inv.apply(loc.point)
            points.setdefault(tuple(round(c, 9) for c in pre), pre)
        matched = [(points[p], self.located(points[p]), self.located(phi.apply(points[p])))
                   for p in sorted(points)]
        for index, action in enumerate(self.actions):
            left_table, right_table = left_rates[index][0], right_rates[index][0]
            for point, left_loc, right_loc in matched:
                lv = 0.0 if left_loc is None else left_table.get(left_loc.name, 0.0)
                rv = 0.0 if right_loc is None else right_table.get(right_loc.name, 0.0)
                if not _rates_close(lv, rv):
                    where = left_loc.name if left_loc is not None else f"{point}"
                    return "rate-mismatch", {"action": action.text, "location": where,
                                             "values": (lv, rv)}
        return None

    def transfer_gap(self, key: PairKey, rep: PairRep,
                     relation: set[PairKey] | None) -> Gap | None:
        """A step on either side that the other cannot match into ``relation``;
        with ``None``, a step under an action the other side lacks."""
        left_steps, left_by_action = self.steps(key[0], rep[0])
        right_steps, right_by_action = self.steps(key[1], rep[1])

        def unmatched(steps_a, by_action_b, left_first: bool):
            for sa, key_a in steps_a:
                for _, key_b in by_action_b.get(sa.action, ()):
                    pair = (key_a, key_b) if left_first else (key_b, key_a)
                    if relation is None or pair in relation:
                        break
                else:
                    return "unmatched-transition", {"action": sa.action.text,
                                                    "transition": sa.label_text}
            return None

        failure = unmatched(left_steps, right_by_action, left_first=True)
        if failure is not None:
            return failure
        return unmatched(right_steps, left_by_action, left_first=False)

    def explore(self, root: PairKey, root_rep: PairRep) -> dict[PairKey, PairRep] | None:
        """The pairs reachable from ``root`` through matched steps, each with
        its representative terms, or ``None`` once either side reaches more
        than ``bound`` states. Explored once per root."""
        if root in self._explored:
            return self._explored[root]
        reps = self._explored[root] = {root: root_rep}
        left_seen = {root[0]}
        right_seen = {root[1]}
        queue = deque([root])
        while queue:
            key = queue.popleft()
            l_rep, r_rep = reps[key]
            # left first: a state both sides reach caches the steps of the
            # representative that asks first
            left_steps, _ = self.steps(key[0], l_rep)
            _, right_by_action = self.steps(key[1], r_rep)
            for sl, key_l in left_steps:
                for sr, key_r in right_by_action.get(sl.action, ()):
                    new_key = (key_l, key_r)
                    if new_key in reps:
                        continue
                    left_seen.add(key_l)
                    right_seen.add(key_r)
                    if len(left_seen) > self.bound or len(right_seen) > self.bound:
                        self._explored[root] = None
                        return None
                    reps[new_key] = (sl.successor, sr.successor)
                    queue.append(new_key)
        return reps

    def run(self, left: ModelComponent, right: ModelComponent,
            phi: Isometry) -> BisimResult:
        root = (_state_key(self.defs, left), _state_key(self.defs, right))
        root_rep = (left, right)
        # a root that fails a rate condition is outside every candidate
        # relation, so the verdict needs no exploration
        rate_gap = self.rate_gap(root, root_rep, phi)
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
                    if self.rate_gap(key, rep, phi) is None}
        changed = True
        while changed:
            changed = False
            keys = set(relation)
            for key in list(relation):
                if self.transfer_gap(key, relation[key], keys) is not None:
                    del relation[key]
                    keys.discard(key)
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
               or self.transfer_gap(root, root_rep, set(relation)))
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
    keys = {key for key, _ in keyed}
    for key, rep in keyed:
        gap = checker.transfer_gap(key, rep, keys)
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
