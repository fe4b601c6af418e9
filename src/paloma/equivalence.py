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
from collections import deque
from dataclasses import dataclass, field

from .geometry import (
    ALGEBRAIC_TOL,
    IDENTITY,
    Isometry,
    _match_point,
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
    _state_key,
    action_labels,
    locations_of,
    render_model,
)
from .rates import RateQuery, exit_rate
from .semantics import LiftedStep, _keyed_component_steps

__all__ = [
    "BisimResult",
    "Counterexample",
    "bisimilar",
    "check_bisim_phi",
    "naive_bisim",
    "recheck_transfer",
]

@dataclass(frozen=True)
class Counterexample:
    kind: str  # "rate-mismatch" | "unmatched-transition" | "location-mismatch"
    left: str
    right: str
    action: str | None = None
    transition: str | None = None
    location: str | None = None
    values: tuple[float, float] | None = None

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


@dataclass
class BisimResult:
    related: bool
    inconclusive: bool = False
    witness: Isometry | None = None
    relation: list[tuple[str, str]] = field(default_factory=list)
    pairs: list[tuple[ModelComponent, ModelComponent]] = field(default_factory=list)
    counterexample: Counterexample | None = None
    candidate_failures: list[str] = field(default_factory=list)
    note: str | None = None


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


class _PairChecker:
    """Shared engine behind the bisimilarity checks. Pairs are keyed by the
    two sides' state keys; each pair keeps the first representative terms
    seen, for display."""

    def __init__(self, defs: Definitions, context: ModelComponent,
                 phi: Isometry, bound: int,
                 same_location: bool = False):
        self.defs = defs
        self.context = context
        self.phi = phi
        self.phi_inv = invert(phi)
        self.bound = bound
        self.same_location = same_location
        self.actions = _model_actions(defs)
        self._steps_cache: dict[StateKey, tuple[
            list[tuple[LiftedStep, StateKey]],
            dict[ActionId, list[tuple[LiftedStep, StateKey]]]]] = {}
        self._rates: dict[tuple[StateKey, int, str | None], float] = {}

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

    def _exit_rate(self, key: StateKey, subject: ModelComponent, index: int,
                   location: Location | None) -> float:
        """Exit rate of the ``index``-th model action by ``subject`` at
        ``location``, or in total for ``None``. It depends on the state only
        through its key, so each is computed once per checker."""
        memo = (key, index, None if location is None else location.name)
        rate = self._rates.get(memo)
        if rate is None:
            where = None if location is None else frozenset({location})
            rate = self._rates[memo] = exit_rate(self.defs, RateQuery(
                self.actions[index], subject, self.context, where))
        return rate

    def rate_failure(self, key: PairKey, rep: PairRep) -> Counterexample | None:
        """First violated rate condition at this pair, if any."""
        (left_key, right_key), (left, right) = key, rep
        if self.same_location:
            left_locs = sorted(l.name for l in locations_of(left))
            right_locs = sorted(l.name for l in locations_of(right))
            if left_locs != right_locs:
                return Counterexample(
                    "location-mismatch", render_model(left), render_model(right),
                    location=f"{left_locs} vs {right_locs}")
            for index, action in enumerate(self.actions):
                lv = self._exit_rate(left_key, left, index, None)
                rv = self._exit_rate(right_key, right, index, None)
                if not _rates_close(lv, rv):
                    return Counterexample(
                        "rate-mismatch", render_model(left), render_model(right),
                        action=action.text, location="(total)", values=(lv, rv))
            return None

        points: dict[tuple[float, float], tuple[float, float]] = {}
        for loc in sorted(locations_of(left), key=lambda l: l.name):
            points.setdefault(tuple(round(c, 9) for c in loc.point), loc.point)
        for loc in sorted(locations_of(right), key=lambda l: l.name):
            pre = self.phi_inv.apply(loc.point)
            points.setdefault(tuple(round(c, 9) for c in pre), pre)
        matched = [(points[p], _match_point(points[p], self.defs.locations),
                    _match_point(self.phi.apply(points[p]), self.defs.locations))
                   for p in sorted(points)]
        for index, action in enumerate(self.actions):
            for point, left_loc, right_loc in matched:
                lv = 0.0
                if left_loc is not None:
                    lv = self._exit_rate(left_key, left, index, left_loc)
                rv = 0.0
                if right_loc is not None:
                    rv = self._exit_rate(right_key, right, index, right_loc)
                if not _rates_close(lv, rv):
                    where = left_loc.name if left_loc is not None else f"{point}"
                    return Counterexample(
                        "rate-mismatch", render_model(left), render_model(right),
                        action=action.text, location=where, values=(lv, rv))
        return None

    def action_gap(self, key: PairKey, rep: PairRep) -> Counterexample | None:
        """A step one side offers under an action the other side lacks."""
        left_steps, left_actions = self.steps(key[0], rep[0])
        right_steps, right_actions = self.steps(key[1], rep[1])
        for step, _ in left_steps:
            if step.action not in right_actions:
                return Counterexample(
                    "unmatched-transition", render_model(rep[0]), render_model(rep[1]),
                    action=step.action.text, transition=step.label_text)
        for step, _ in right_steps:
            if step.action not in left_actions:
                return Counterexample(
                    "unmatched-transition", render_model(rep[0]), render_model(rep[1]),
                    action=step.action.text, transition=step.label_text)
        return None

    def transfer_failure(self, key: PairKey, rep: PairRep,
                         relation: set[PairKey]) -> Counterexample | None:
        """A step on either side that the other cannot match into ``relation``."""
        left_steps, left_by_action = self.steps(key[0], rep[0])
        right_steps, right_by_action = self.steps(key[1], rep[1])

        def unmatched(steps_a, by_action_b, left_first: bool):
            for sa, key_a in steps_a:
                for _, key_b in by_action_b.get(sa.action, ()):
                    pair = (key_a, key_b) if left_first else (key_b, key_a)
                    if pair in relation:
                        break
                else:
                    return Counterexample(
                        "unmatched-transition", render_model(rep[0]), render_model(rep[1]),
                        action=sa.action.text, transition=sa.label_text)
            return None

        failure = unmatched(left_steps, right_by_action, left_first=True)
        if failure is not None:
            return failure
        return unmatched(right_steps, left_by_action, left_first=False)

    def run(self, left: ModelComponent, right: ModelComponent) -> BisimResult:
        root = (_state_key(self.defs, left), _state_key(self.defs, right))
        root_rep = (left, right)
        # a root that fails a rate condition is outside every candidate
        # relation, so the verdict needs no exploration
        failure = self.rate_failure(root, root_rep)
        if failure is not None:
            gap = self.action_gap(root, root_rep)
            return BisimResult(related=False,
                               counterexample=gap if gap is not None else failure)

        reps: dict[PairKey, PairRep] = {root: root_rep}
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
                        return BisimResult(
                            related=False, inconclusive=True,
                            note=f"state bound {self.bound} exceeded while exploring "
                                 "the pair space")
                    reps[new_key] = (sl.successor, sr.successor)
                    queue.append(new_key)

        relation = {key: rep for key, rep in reps.items()
                    if self.rate_failure(key, rep) is None}
        changed = True
        while changed:
            changed = False
            keys = set(relation)
            for key in list(relation):
                if self.transfer_failure(key, relation[key], keys) is not None:
                    del relation[key]
                    keys.discard(key)
                    changed = True

        if root in relation:
            pairs = sorted(relation.values(),
                           key=lambda pq: (render_model(pq[0]), render_model(pq[1])))
            rendered = [(render_model(l), render_model(r)) for l, r in pairs]
            return BisimResult(related=True, witness=self.phi, relation=rendered,
                               pairs=pairs)

        # report the most telling root failure: a step the other side cannot
        # take at all, else the closure failure left after refinement
        failure = self.action_gap(root, root_rep)
        if failure is None:
            failure = self.transfer_failure(root, root_rep, set(relation))
        return BisimResult(related=False, counterexample=failure)


def check_bisim_phi(defs: Definitions, left: ModelComponent, right: ModelComponent,
                    context: ModelComponent, phi: Isometry,
                    bound: int = 10000) -> BisimResult:
    """Is there a bisimulation with respect to ``phi`` containing the pair?

    Explores the pairs reachable through matched steps inside the shared
    context and computes the greatest relation whose pairs have equal exit
    rates at phi-corresponding locations and match each other's steps.
    """
    checker = _PairChecker(defs, context, phi, bound)
    return checker.run(left, right)


def naive_bisim(defs: Definitions, left: SeqComponent, right: SeqComponent,
                context: ModelComponent, bound: int = 10000) -> BisimResult:
    """Bisimulation on single agents with locations taken literally: related
    agents must occupy the same location, here and after every step."""
    checker = _PairChecker(defs, context, IDENTITY, bound, same_location=True)
    return checker.run((left,), (right,))


def recheck_transfer(defs: Definitions, context: ModelComponent, phi: Isometry,
                     pairs: list[tuple[ModelComponent, ModelComponent]]
                     ) -> Counterexample | None:
    """Audit an explicit pair set against the transfer conditions; used to
    confirm that unions of computed witness relations stay closed."""
    checker = _PairChecker(defs, context, phi, bound=1)
    keyed = [((_state_key(defs, l), _state_key(defs, r)), (l, r)) for l, r in pairs]
    keys = {key for key, _ in keyed}
    for key, rep in keyed:
        failure = checker.transfer_failure(key, rep, keys)
        if failure is not None:
            return failure
    return None


def bisimilar(defs: Definitions, left: ModelComponent, right: ModelComponent,
              context: ModelComponent, bound: int = 10000) -> BisimResult:
    """Search the candidate isometries for a witness relating the pair.

    Candidates come from the locations occupied by the two sides including
    the shared context; the first related verdict wins. With no witness the
    result carries one failure summary per candidate tried.
    """
    points_left = [loc.point for loc in locations_of(context + left)]
    points_right = [loc.point for loc in locations_of(context + right)]
    candidates, note = candidate_isometries(points_left, points_right)
    failures: list[str] = []
    first_failure: Counterexample | None = None
    saw_inconclusive = False
    for phi in candidates:
        result = check_bisim_phi(defs, left, right, context, phi, bound)
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
