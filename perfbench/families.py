"""Seeded model families for the benchmark.

Every family places its locations on a circle and then moves all of them by
one rigid motion of the plane drawn from the seed (rotation, optional
reflection, translation); the seed also shuffles the order of the defining
equations. Rates, influence ranges and composition order never depend on the
seed, so state counts, verdicts and closed-form rates are the same for every
seed while the text the parser reads and the coordinates the geometry layer
sees are not.

    ring-n   n agents S(lk) on n points of a circle of radius n
    wide-n   ring-n plus a one-agent Probe at l0
    duo-m    two agents on m circle points, ranges Ir{all}; Odd differs from
             Main only in one agent's tick rate
"""

from __future__ import annotations

import math
import random

# Rates of the ring agent S(lk); the closed forms in reference.py use them.
UNICAST_RATE = 1.0      # param r: !!(msg, r)@Ir{l(k-1), l(k+1)}.S(l(k+1))
UNICAST_ACT = 0.6       # ??(msg, 0.6)@Wt{1.0}.S(l(k+1))
TICK_RATE = 0.3         # (tick, 0.3).S(lk)
BROADCAST_RATE = 0.5    # !(bc, 0.5)@Ir{l(k-1), l(k+1)}.S(lk)
BROADCAST_ACT = 0.6     # ?(bc, 0.6)@Prob{1.0}.S(l(k+1))

# The wide-n Probe P(l0): listens with a larger weight, unicasts to l1 only.
PROBE_WEIGHT = 3.0
PROBE_UNICAST_ACT = 0.6
PROBE_BROADCAST_ACT = 0.5
PROBE_BROADCAST_RECV = 0.8
PROBE_UNICAST_RATE = 0.7

ODD_TICK_RATE = 0.31


def _motion(rng: random.Random):
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(angle), math.sin(angle)
    flip = -1.0 if rng.random() < 0.5 else 1.0
    tx, ty = rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)

    def move(x: float, y: float) -> tuple[float, float]:
        y = flip * y
        return (c * x - s * y + tx, s * x + c * y + ty)

    return move


def _circle(rng: random.Random, points: int, radius: float) -> list[str]:
    move = _motion(rng)
    lines = []
    for k in range(points):
        theta = 2.0 * math.pi * k / points
        x, y = move(radius * math.cos(theta), radius * math.sin(theta))
        lines.append(f"location l{k} = ({x!r}, {y!r});")
    return lines


def _ring_equation(k: int, n: int, name: str = "S", tick: float = TICK_RATE,
                   reach: str | None = None) -> str:
    prev, nxt = (k - 1) % n, (k + 1) % n
    reach = reach or f"l{prev}, l{nxt}"
    return (f"{name}(l{k}) := !!(msg, r)@Ir{{{reach}}}.{name}(l{nxt})"
            f" + ??(msg, {UNICAST_ACT!r})@Wt{{1.0}}.{name}(l{nxt})"
            f" + (tick, {tick!r}).{name}(l{k})"
            f" + !(bc, {BROADCAST_RATE!r})@Ir{{{reach}}}.{name}(l{k})"
            f" + ?(bc, {BROADCAST_ACT!r})@Prob{{1.0}}.{name}(l{nxt});")


def _assemble(rng: random.Random, header: str, locations: list[str],
              equations: list[str], systems: list[str]) -> str:
    rng.shuffle(equations)
    return "\n".join([header, f"param r = {UNICAST_RATE!r};", *locations,
                      *equations, *systems]) + "\n"


def ring(n: int, seed: int) -> str:
    """ring-n with systems Main (agent k at lk) and Rot (Main rotated one
    place in composition order)."""
    rng = random.Random(f"ring-{n}-{seed}")
    locations = _circle(rng, n, float(n))
    equations = [_ring_equation(k, n) for k in range(n)]
    main = " || ".join(f"S(l{k})" for k in range(n))
    rot = " || ".join(f"S(l{(k + 1) % n})" for k in range(n))
    return _assemble(rng, f"// ring-{n}, seed {seed}", locations, equations,
                     [f"system Main = {main};", f"system Rot = {rot};"])


def wide(n: int, seed: int) -> str:
    """wide-n: the ring-n equations, system Main and a one-agent Probe."""
    rng = random.Random(f"wide-{n}-{seed}")
    locations = _circle(rng, n, float(n))
    equations = [_ring_equation(k, n) for k in range(n)]
    equations.append(
        f"P(l0) := ??(msg, {PROBE_UNICAST_ACT!r})@Wt{{{PROBE_WEIGHT!r}}}.P(l0)"
        f" + ?(bc, {PROBE_BROADCAST_ACT!r})@Prob{{{PROBE_BROADCAST_RECV!r}}}.P(l0)"
        f" + !!(msg, {PROBE_UNICAST_RATE!r})@Ir{{l1}}.P(l0);")
    main = " || ".join(f"S(l{k})" for k in range(n))
    return _assemble(rng, f"// wide-{n}, seed {seed}", locations, equations,
                     [f"system Main = {main};", "system Probe = P(l0);"])


def duo(m: int, seed: int) -> str:
    """duo-m: D(l0) || D(l1) as Main, D(l0) || E(l1) as Odd, where E ticks
    at ODD_TICK_RATE instead of TICK_RATE."""
    rng = random.Random(f"duo-{m}-{seed}")
    locations = _circle(rng, m, float(m))
    equations = [_ring_equation(k, m, "D", reach="all") for k in range(m)]
    equations += [_ring_equation(k, m, "E", ODD_TICK_RATE, reach="all")
                  for k in range(m)]
    return _assemble(rng, f"// duo-{m}, seed {seed}", locations, equations,
                     ["system Main = D(l0) || D(l1);", "system Odd = D(l0) || E(l1);"])
