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
    ModelComponent,
    SeqComponent,
    action_labels,
    canonical,
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


class _PairChecker:
    """Shared engine behind the bisimilarity checks."""

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
        self._steps_cache: dict[ModelComponent,
                                list[tuple[LiftedStep, ModelComponent]]] = {}

    def steps(self, subject: ModelComponent) -> list[tuple[LiftedStep, ModelComponent]]:
        """The subject's steps in a fixed order, each with the canonical
        form of its successor."""
        key = canonical(self.defs, subject)
        cached = self._steps_cache.get(key)
        if cached is None:
            keyed = _keyed_component_steps(self.defs, self.context, subject)
            cached = sorted(
                ((step, succ_key) for (_, succ_key), step in keyed.items()),
                key=lambda pair: (pair[0].action.text, pair[0].label_text,
                                  render_model(pair[0].successor)))
            self._steps_cache[key] = cached
        return cached

    def rate_failure(self, left: ModelComponent,
                     right: ModelComponent) -> Counterexample | None:
        """First violated rate condition at this pair, if any."""
        if self.same_location:
            left_locs = sorted(l.name for l in locations_of(left))
            right_locs = sorted(l.name for l in locations_of(right))
            if left_locs != right_locs:
                return Counterexample(
                    "location-mismatch", render_model(left), render_model(right),
                    location=f"{left_locs} vs {right_locs}")
            for action in self.actions:
                lv = exit_rate(self.defs, RateQuery(action, left, self.context))
                rv = exit_rate(self.defs, RateQuery(action, right, self.context))
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
        for action in self.actions:
            for key in sorted(points):
                point = points[key]
                left_loc = _match_point(point, self.defs.locations)
                right_loc = _match_point(self.phi.apply(point), self.defs.locations)
                lv = 0.0
                if left_loc is not None:
                    lv = exit_rate(self.defs, RateQuery(
                        action, left, self.context, frozenset({left_loc})))
                rv = 0.0
                if right_loc is not None:
                    rv = exit_rate(self.defs, RateQuery(
                        action, right, self.context, frozenset({right_loc})))
                if not _rates_close(lv, rv):
                    where = left_loc.name if left_loc is not None else f"{point}"
                    return Counterexample(
                        "rate-mismatch", render_model(left), render_model(right),
                        action=action.text, location=where, values=(lv, rv))
        return None

    def action_gap(self, left: ModelComponent,
                   right: ModelComponent) -> Counterexample | None:
        """A step one side offers under an action the other side lacks."""
        left_steps = self.steps(left)
        right_steps = self.steps(right)
        left_actions = {s.action for s, _ in left_steps}
        right_actions = {s.action for s, _ in right_steps}
        for step, _ in left_steps:
            if step.action not in right_actions:
                return Counterexample(
                    "unmatched-transition", render_model(left), render_model(right),
                    action=step.action.text, transition=step.label_text)
        for step, _ in right_steps:
            if step.action not in left_actions:
                return Counterexample(
                    "unmatched-transition", render_model(left), render_model(right),
                    action=step.action.text, transition=step.label_text)
        return None

    def transfer_failure(self, left: ModelComponent, right: ModelComponent,
                         relation: set) -> Counterexample | None:
        """A step on either side that the other cannot match into ``relation``."""
        left_steps = self.steps(left)
        right_steps = self.steps(right)

        def unmatched(steps_a, steps_b, left_first: bool):
            for sa, key_a in steps_a:
                hit = False
                for sb, key_b in steps_b:
                    if sb.action != sa.action:
                        continue
                    pair = (key_a, key_b) if left_first else (key_b, key_a)
                    if pair in relation:
                        hit = True
                        break
                if not hit:
                    return Counterexample(
                        "unmatched-transition", render_model(left), render_model(right),
                        action=sa.action.text, transition=sa.label_text)
            return None

        failure = unmatched(left_steps, right_steps, left_first=True)
        if failure is not None:
            return failure
        return unmatched(right_steps, left_steps, left_first=False)

    def run(self, left: ModelComponent, right: ModelComponent) -> BisimResult:
        defs = self.defs
        root = (canonical(defs, left), canonical(defs, right))
        reps: dict[tuple, tuple[ModelComponent, ModelComponent]] = {root: (left, right)}
        left_seen = {root[0]}
        right_seen = {root[1]}
        queue = deque([root])
        while queue:
            key = queue.popleft()
            l_rep, r_rep = reps[key]
            left_steps = self.steps(l_rep)
            right_steps = self.steps(r_rep)
            for sl, key_l in left_steps:
                for sr, key_r in right_steps:
                    if sl.action != sr.action:
                        continue
                    new_key = (key_l, key_r)
                    if new_key in reps:
                        continue
                    left_seen.add(new_key[0])
                    right_seen.add(new_key[1])
                    if len(left_seen) > self.bound or len(right_seen) > self.bound:
                        return BisimResult(
                            related=False, inconclusive=True,
                            note=f"state bound {self.bound} exceeded while exploring "
                                 "the pair space")
                    reps[new_key] = (sl.successor, sr.successor)
                    queue.append(new_key)

        relation: dict[tuple, tuple[ModelComponent, ModelComponent]] = {}
        rate_failures: dict[tuple, Counterexample] = {}
        for key, (l_rep, r_rep) in reps.items():
            failure = self.rate_failure(l_rep, r_rep)
            if failure is None:
                relation[key] = (l_rep, r_rep)
            else:
                rate_failures[key] = failure

        changed = True
        while changed:
            changed = False
            keys = set(relation)
            for key in list(relation):
                l_rep, r_rep = relation[key]
                if self.transfer_failure(l_rep, r_rep, keys) is not None:
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
        # take at all, else the local rate or location violation, else the
        # closure failure left after refinement
        failure = self.action_gap(left, right)
        if failure is None:
            failure = rate_failures.get(root)
        if failure is None:
            failure = self.transfer_failure(left, right, set(relation))
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
    keys = {(canonical(defs, l), canonical(defs, r)) for l, r in pairs}
    for left, right in pairs:
        failure = checker.transfer_failure(left, right, keys)
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
