"""References that every benchmark output is checked against.

None of them is computed by the engine under test at run time: state counts
and rates are closed forms derived by hand from the family definitions in
families.py, verdict shapes follow from the models' symmetry, and the CTMC
transition count and TSV digest were pinned from the engine's output at the
commit that introduced the benchmark (they do not depend on the seed, because
the seed changes only coordinates and equation order). ring-3 is also
compared state-for-state and rate-for-rate with the brute-force oracle in
tests/oracle.py.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import hashlib
import math
import re

import families as fam

RING_CTMC_N = 4
RING_CTMC_STATES = RING_CTMC_N ** RING_CTMC_N
RING_CTMC_TRANSITIONS = 4768
RING_CTMC_TSV_SHA256 = "19c0d84d9717bb48fa29dda6024b609dab1a9ff9e5bbf1d30e0c51c6ba20bade"

RING_BISIM_RELATION_PAIRS = 93
DUO_CANDIDATES = 4

RATE_REL_TOL = 1e-9


def rate_queries(n: int) -> list[tuple[list[str], float]]:
    """The rate-wide CLI queries on wide-n with their closed-form values.

    In Main agent k sits alone at lk, and both of its neighbours unicast and
    broadcast to it. A unicast from a neighbour competes over the two agents
    in that neighbour's range (weight 1 each), so agent k takes half of it.
    The Probe at l0 joins the pools of the senders at l1 and l(n-1) with its
    own weight, and unicasts to l1, where agent 1 always listens.
    """
    r = fam.UNICAST_RATE
    unicast_in = 2 * r * 0.5 * fam.UNICAST_ACT
    broadcast_in = 2 * fam.BROADCAST_RATE * fam.BROADCAST_ACT
    w = fam.PROBE_WEIGHT
    probe = ["--system", "Probe", "--context", "Main"]
    main = ["--system", "Main"]
    return [
        (main + ["--action", "!!msg"], n * r),
        (main + ["--action", "??msg"], n * unicast_in),
        (main + ["--action", "tick"], n * fam.TICK_RATE),
        (main + ["--action", "!bc"], n * fam.BROADCAST_RATE),
        (main + ["--action", "?bc"], n * broadcast_in),
        (main + ["--action", "??msg", "--loc", "l0"], unicast_in),
        (main + ["--action", "!bc", "--loc", "l0"], fam.BROADCAST_RATE),
        (probe + ["--action", "??msg"], 2 * r * (w / (2 + w)) * fam.PROBE_UNICAST_ACT),
        (probe + ["--action", "?bc"],
         2 * fam.BROADCAST_RATE * fam.PROBE_BROADCAST_ACT * fam.PROBE_BROADCAST_RECV),
        (probe + ["--action", "!!msg"], fam.PROBE_UNICAST_RATE),
    ]


def check_rate(text: str, expected: float) -> list[str]:
    try:
        value = float(text)
    except ValueError:
        return [f"rate output is not a number: {text[:80]!r}"]
    if not math.isclose(value, expected, rel_tol=RATE_REL_TOL, abs_tol=0.0):
        return [f"rate {value!r} differs from closed form {expected!r}"]
    return []


def check_ctmc_tsv(text: str) -> list[str]:
    problems = []
    head, _, tail = text.partition("\n\n# transitions\n")
    states = head.splitlines()[1:]
    transitions = tail.splitlines()
    if len(states) != RING_CTMC_STATES:
        problems.append(f"{len(states)} states, expected n^n = {RING_CTMC_STATES}")
    if len(set(line.split("\t", 1)[-1] for line in states)) != len(states):
        problems.append("a state is listed twice")
    if len(transitions) != RING_CTMC_TRANSITIONS:
        problems.append(f"{len(transitions)} transitions, expected {RING_CTMC_TRANSITIONS}")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != RING_CTMC_TSV_SHA256:
        problems.append(f"TSV digest {digest} differs from the pinned one")
    return problems


def check_related(text: str) -> list[str]:
    """ring-3 Main against Main rotated one place: related, and the witness
    is the identity (rotation in composition order moves no location)."""
    lines = text.splitlines()
    if lines[:1] != ["verdict: related"]:
        return [f"expected 'verdict: related', got {lines[:1]}"]
    problems = []
    if len(lines) < 2 or not lines[1].startswith("isometry: identity:"):
        problems.append("the witness is not the identity")
    pairs = [line for line in lines[3:] if "  ~  " in line]
    if len(pairs) != RING_BISIM_RELATION_PAIRS:
        problems.append(f"{len(pairs)} relation pairs, expected {RING_BISIM_RELATION_PAIRS}")
    return problems


_CANDIDATE = re.compile(r"^  candidate .*: rate mismatch at pair .*: action tick at ")


def check_refuted(text: str) -> list[str]:
    """duo Main against Odd: not related, and every one of the candidate
    isometries fails on the tick rate, since Odd differs from Main only
    there."""
    lines = text.splitlines()
    if lines[:1] != ["verdict: not-related"]:
        return [f"expected 'verdict: not-related', got {lines[:1]}"]
    candidates = [line for line in lines if line.startswith("  candidate ")]
    problems = []
    if len(candidates) != DUO_CANDIDATES:
        problems.append(f"{len(candidates)} candidates tried, expected {DUO_CANDIDATES}")
    if not all(_CANDIDATE.match(line) for line in candidates):
        problems.append("a candidate failed on something other than the tick rate")
    if candidates and not candidates[0].startswith("  candidate identity:"):
        problems.append("the identity is not tried first")
    return problems


def check_against_oracle(oracle, defs, initial, ctmc, canonical) -> list[str]:
    """Engine CTMC against the brute-force oracle: same canonical states,
    same edges, rates equal to 1e-9."""
    states, edges = oracle.explore(defs, initial)
    if {canonical(defs, s) for s in ctmc.states} != set(states):
        return ["engine and oracle reach different states"]
    engine: dict = {}
    for t in ctmc.transitions:
        key = (canonical(defs, ctmc.states[t.source]), t.kind.glyph, t.label,
               tuple(sorted(loc.name for loc in t.influence)),
               canonical(defs, ctmc.states[t.target]))
        engine[key] = engine.get(key, 0.0) + t.rate
    expected = {(src, *key): rate for (src, key), rate in edges.items()}
    if engine.keys() != expected.keys():
        return ["engine and oracle list different edges"]
    wrong = [k for k, rate in expected.items()
             if not math.isclose(engine[k], rate, rel_tol=1e-9, abs_tol=1e-12)]
    return [f"{len(wrong)} edge rates differ from the oracle"] if wrong else []
