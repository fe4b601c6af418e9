"""The CTMC of a located-agent system: its closure and its export.

`build_ctmc` closes the stochastic relation of `semantics` from an initial
system by breadth-first search, merging states whose agents resolve to equal
terms. The chain keeps its edges as parallel columns, as sparse CTMC stores
do (Kwiatkowska, Norman & Parker, PRISM 4.0, 2011): a source, a target, a
rate and the id of a distinct (kind, label, influence) label per edge, with
no object per edge. `Ctmc.transitions` builds `Transition` records on
access. `export_tsv` and `export_dot` write the chain to a text stream in
chunks of a few hundred lines, or return it as one string.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Iterable, Iterator, TextIO

from .model import (
    ActionType,
    Definitions,
    Location,
    ModelComponent,
    ModelError,
    StateKey,
    _Record,
    _state_key,
    render_model,
)
from .semantics import _apply, _derive


# lines per write: few writes even to an unbuffered stream, and only one
# chunk of text held at a time
_CHUNK = 256


class BoundExceeded(Exception):
    def __init__(self, discovered: int, bound: int):
        super().__init__(f"state bound {bound} exceeded after discovering "
                         f"{discovered} states")
        self.discovered = discovered
        self.bound = bound


class Transition(_Record):
    __slots__ = ("source", "target", "rate", "kind", "label", "influence")

    def __init__(self, source: int, target: int, rate: float, kind: ActionType,
                 label: str, influence: frozenset[Location]):
        self.source, self.target, self.rate = source, target, rate
        self.kind, self.label, self.influence = kind, label, influence


class Ctmc:
    """States in discovery order, ``initial`` among them, and edges in
    columns: edge ``e`` goes from ``sources[e]`` to ``targets[e]`` at
    ``rates[e]`` under ``labels[label_ids[e]]``, a (kind, label, influence)
    triple. Two chains are equal when their states, initial state and
    transitions are."""

    __slots__ = ("states", "initial", "sources", "targets", "rates", "label_ids", "labels")
    __hash__ = None  # mutable, like the lists it holds

    def __init__(self, states: list[ModelComponent], transitions: Iterable[Transition] = (),
                 initial: int = 0):
        self.states, self.initial = states, initial
        self.sources, self.targets = array("i"), array("i")
        self.rates, self.label_ids = array("d"), array("i")
        self.labels: list[tuple[ActionType, str, frozenset[Location]]] = []
        ids: dict[tuple[ActionType, str, frozenset[Location]], int] = {}
        for t in transitions:
            triple = (t.kind, t.label, t.influence)
            if triple not in ids:
                ids[triple] = len(self.labels)
                self.labels.append(triple)
            self.sources.append(t.source)
            self.targets.append(t.target)
            self.rates.append(t.rate)
            self.label_ids.append(ids[triple])

    @property
    def transitions(self) -> list[Transition]:
        """The edges as records, in order, built afresh on each access."""
        labels = self.labels
        return [Transition(src, dst, rate, *labels[i])
                for src, dst, rate, i in zip(self.sources, self.targets, self.rates,
                                             self.label_ids)]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.states, self.initial, self.transitions)
                == (other.states, other.initial, other.transitions))


def build_ctmc(defs: Definitions, initial: ModelComponent, bound: int) -> Ctmc:
    """Breadth-first closure of the stochastic relation from ``initial``.

    States are indexed in discovery order, edges with equal source, target
    and label are merged by rate addition, and discovering more than
    ``bound`` states raises BoundExceeded. Each state keeps the first
    representative seen, for display. A state's edges are sorted by target,
    then kind, label and range.
    """
    if bound < 1:
        raise ModelError("state bound must be at least 1")
    start_key = _state_key(defs, initial)
    index: dict[StateKey, int] = {start_key: 0}
    keys: list[StateKey] = [start_key]
    ctmc = Ctmc([initial])
    states, labels = ctmc.states, ctmc.labels
    add_source, add_target = ctmc.sources.append, ctmc.targets.append
    add_rate, add_label = ctmc.rates.append, ctmc.label_ids.append
    # each label's id, and its sort key among the edges to one target
    ids: dict[tuple[ActionType, str, frozenset[Location]], int] = {}
    order: list[tuple] = []
    # states are explored in discovery order, each one's edges merged and
    # sorted before the next one is explored
    for src, key in enumerate(keys):
        edges: dict[tuple[int, int], float] = {}
        for _, kind, label, influence, steps, at in _derive(defs, key):
            i = ids.get((kind, label, influence))
            if i is None:
                i = ids[kind, label, influence] = len(labels)
                labels.append((kind, label, influence))
                # _derive filled the sorted names of every range
                order.append((kind.glyph, label, defs._reach[influence][1]))
            # sum per target within the derivation before adding to the edge,
            # so each edge adds its derivations' continuation totals
            into: dict[int, float] = {}
            for rate, moves in steps:
                succ = _apply(key, moves, 1, at)
                dst = index.get(succ)
                if dst is None:
                    if len(states) + 1 > bound:
                        raise BoundExceeded(len(states) + 1, bound)
                    dst = index[succ] = len(states)
                    keys.append(succ)
                    states.append(_apply(states[src], moves, 2, at))
                into[dst] = into.get(dst, 0.0) + rate
            for dst, rate in into.items():
                edges[dst, i] = edges.get((dst, i), 0.0) + rate
        for edge in sorted(edges, key=lambda e: (e[0], order[e[1]])):
            add_source(src)
            add_target(edge[0])
            add_rate(edges[edge])
            add_label(edge[1])
    return ctmc


# -- exports ----------------------------------------------------------------


def _write(lines: Iterator[str], out: TextIO | None) -> str | None:
    """``lines``, each ended by LF, written to ``out`` in chunks of
    ``_CHUNK`` lines; returned as one string when ``out`` is None."""
    chunks: list[str] = []
    write = chunks.append if out is None else out.write
    while batch := list(islice(lines, _CHUNK)):
        batch.append("")
        write("\n".join(batch))
    return "".join(chunks) if out is None else None


def export_tsv(ctmc: Ctmc, out: TextIO | None = None) -> str | None:
    """State table and transition table, tab-separated, written to ``out``,
    or returned when ``out`` is None.

    States come first (`id<TAB>term`), then one line per transition
    (`src<TAB>dst<TAB>rate<TAB>kind<TAB>label`), rates with 17 significant
    digits, sections separated by a blank line, LF endings.
    """
    return _write(_tsv_lines(ctmc), out)


def _tsv_lines(ctmc: Ctmc) -> Iterator[str]:
    yield "# states"
    for i, state in enumerate(ctmc.states):
        yield f"{i}\t{render_model(state)}"
    yield ""
    yield "# transitions"
    # few distinct rates and labels recur over many transitions: format each
    # (rate, label) tail once, here and in export_dot
    labels = ctmc.labels
    tails: dict[tuple[float, int], str] = {}
    for src, dst, rate, i in zip(ctmc.sources, ctmc.targets, ctmc.rates, ctmc.label_ids):
        tail = tails.get((rate, i))
        if tail is None:
            kind, label, _ = labels[i]
            tail = tails[rate, i] = f"\t{rate:.17g}\t{kind.glyph}\t{label}"
        yield f"{src}\t{dst}{tail}"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(ctmc: Ctmc, out: TextIO | None = None) -> str | None:
    """Graphviz digraph with rate-labelled edges, written to ``out``, or
    returned when ``out`` is None."""
    return _write(_dot_lines(ctmc), out)


def _dot_lines(ctmc: Ctmc) -> Iterator[str]:
    yield "digraph ctmc {"
    yield "  rankdir=LR;"
    for i, state in enumerate(ctmc.states):
        shape = "doublecircle" if i == ctmc.initial else "circle"
        yield f"  s{i} [shape={shape} label={_dot_quote(render_model(state))}];"
    labels = ctmc.labels
    tails: dict[tuple[float, int], str] = {}
    for src, dst, rate, i in zip(ctmc.sources, ctmc.targets, ctmc.rates, ctmc.label_ids):
        tail = tails.get((rate, i))
        if tail is None:
            kind, label, _ = labels[i]
            text = _dot_quote(f"{kind.glyph}{label} {rate:.17g}")
            tail = tails[rate, i] = f" [label={text}];"
        yield f"  s{src} -> s{dst}{tail}"
    yield "}"
