from __future__ import annotations

import sys
from pathlib import Path

import pytest

from paloma.model import constant
from paloma.parser import ModelDefinition, parse_model, validate

# the benchmark's seeded model families (perfbench/families.py), which some
# tests pin behaviour on
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

# Mirrored transmitter/receiver pair: the transmitter hops between the two
# locations on every send, the receiver hops on every successful receive.
# Scenario2 is Scenario1 reflected about the y axis.
SCENARIO_SOURCE = """\
// mirrored transmitter/receiver pair
param r = 2.0;
param p = 0.7;
param v = 1.5;

location l0 = (-1.0, 0.0);
location l1 = (1.0, 0.0);

Transmitter(l0) := !!(message_move, r)@Ir{all}.Transmitter(l1);
Transmitter(l1) := !!(message_move, r)@Ir{all}.Transmitter(l0);
Receiver(l1) := ??(message_move, p)@Wt{v}.Receiver(l0);
Receiver(l0) := ??(message_move, p)@Wt{v}.Receiver(l1);

system Scenario1 = Transmitter(l0) || Receiver(l1);
system Scenario2 = Transmitter(l1) || Receiver(l0);
"""

SCENARIO_R = 2.0
SCENARIO_P = 0.7
SCENARIO_V = 1.5

# Self-looping transmitter and receiver at one location; used for the
# context-sensitivity examples (a transmitter alone can never fire).
BLOCKING_SOURCE = """\
param r = 1.0;
param p = 0.5;
param v = 1.0;

location l0 = (0.0, 0.0);

Transmitter(l0) := !!(message, r)@Ir{all}.Transmitter(l0);
Receiver(l0) := ??(message, p)@Wt{v}.Receiver(l0);

system T = Transmitter(l0);
system R = Receiver(l0);
system Pair = Transmitter(l0) || Receiver(l0);
"""

# Q(l0) and R(l0) name one state: `ctmc` and `bisim` both print it as Q(l0),
# the first term found for it in derivation order
ALIASED_SOURCE = """
location l0 = (0.0, 0.0);
P(l0) := (b, 1.0).Q(l0) + (a, 1.0).R(l0);
Q(l0) := (c, 1.0).P(l0);
R(l0) := (c, 1.0).P(l0);
system S = P(l0);
"""


# Two locations just further apart than GEOMETRIC_TOL: a translation by half
# their distance maps both of Two's agents back within tolerance of l0.
COLLISION_SOURCE = """\
location l0 = (0.0, 0.0);
location l1 = (1.5e-6, 0.0);
A(l0) := (tick, 1.0).A(l0);
A(l1) := (tick, 1.0).A(l1);
system One = A(l0);
system Two = A(l0) || A(l1);
"""
COLLISION_SHIFT = (7.5e-7, 0.0)


def load(source: str) -> ModelDefinition:
    result = parse_model(source)
    assert result.ok, [str(d) for d in result.diagnostics]
    problems = [d for d in validate(result.definition) if d.severity == "error"]
    assert not problems, [str(d) for d in problems]
    return result.definition


def with_aliases(defn: ModelDefinition) -> ModelDefinition:
    """Add ``AliasC(l) := C(l)`` for every equation, so that distinct terms
    resolve to equal trees."""
    for name, locname in list(defn.equations):
        defn.equations[("Alias" + name, locname)] = constant(name, defn.locations[locname])
    return defn


@pytest.fixture(scope="session")
def scenario() -> ModelDefinition:
    return load(SCENARIO_SOURCE)


@pytest.fixture(scope="session")
def blocking() -> ModelDefinition:
    return load(BLOCKING_SOURCE)
