"""A fixed pure-Python kernel that measures how fast the processor runs now.

The machine the benchmark runs on may be shared: its processor's speed can
change by more than 1.5x for periods of a few seconds to a minute, which
moves every timing of the program with it. The benchmark therefore times
this kernel next to the program's own work and reports times scaled to a
reference speed: a measured time multiplied by UNIT_REFERENCE_S over the
time one unit of the kernel took beside it. A change to paloma cannot
change the kernel's time, so the scaled times move with paloma's speed and
not with the machine's.

The work mixes what paloma spends its time on: building and hashing tuples
and frozensets, dict and set look-ups, sorting, small objects, string
formatting and float arithmetic. It does not import paloma.
"""

from __future__ import annotations

# Seconds per unit of kernel() at the reference speed; a unit takes 1 to
# 3 ms on a shared 2-vCPU x86 VM. Scaled times are in seconds at this speed.
UNIT_REFERENCE_S = 0.0015


class _Node:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight: float):
        self.key = key
        self.weight = weight


def kernel(units: int) -> int:
    """Deterministic work; the returned checksum keeps it from being idle."""
    check = 0
    for unit in range(units):
        seen: dict = {}
        nodes = []
        for i in range(400):
            agents = tuple(sorted(((i * 7 + unit) % 13, (i * 31) % 11, i % 5)))
            key = frozenset({(agents, i % 3), (i % 4, agents[0])})
            seen[key] = seen.get(key, 0.0) + 0.3 * (i % 7) + 1.0 / (1 + i)
            nodes.append(_Node(key, seen[key]))
        nodes.sort(key=lambda n: (n.weight, len(n.key)))
        labels = {f"l{n.weight:.3f}" for n in nodes[:50]}
        check += len(seen) + len(labels) + sum(hash(n.key) & 0xF for n in nodes)
    return check
