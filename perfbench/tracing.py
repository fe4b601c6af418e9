"""Spans for the traced benchmark run, and the traced CLI process.

A span is a dict with id, name, start, end and parent; times come from
time.perf_counter, which reads the system-wide monotonic clock on Linux, so
spans recorded in child processes line up with the parent's. Spans are kept
in memory and written out when the run ends. A span name is
"<layer>.<call>", and the layer is the paloma module the call goes into.

Run as a script, this file is the traced stand-in for ``python -m
paloma.cli``:

    python3 perfbench/tracing.py SPANS_OUT PARENT_ID -- CLI_ARGS...

It imports paloma.cli, wraps the public functions the CLI calls into the
other modules (parsing, validation, CTMC build and export, rate queries,
bisimulation) so that each call records a span, runs the CLI's own main,
and writes the spans to SPANS_OUT as JSON. No file of the program changes;
the wrappers replace names in the loaded cli module only, so calls the
layers make among themselves are not traced.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, prefix: str, root_parent: str | None = None):
        self.spans: list[dict] = []
        self._prefix = prefix
        self._stack: list[str | None] = [root_parent]

    @contextmanager
    def span(self, name: str):
        span_id = f"{self._prefix}:{len(self.spans)}"
        record = {"id": span_id, "name": name, "start": time.perf_counter(),
                  "end": None, "parent": self._stack[-1]}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed per layer: each span's duration minus the time its
    direct children cover."""
    covered: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    layers: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
        layers[layer] = layers.get(layer, 0.0) + own
    return layers


# names in paloma.cli's namespace -> span name
CLI_BOUNDARY = {
    "parse_model": "parser.parse_model",
    "validate": "parser.validate",
    "build_ctmc": "semantics.build_ctmc",
    "export_tsv": "semantics.export_tsv",
    "export_dot": "semantics.export_dot",
    "bisimilar": "equivalence.bisimilar",
    "check_bisim_phi": "equivalence.check_bisim_phi",
    "naive_bisim": "equivalence.naive_bisim",
}


def traced_cli(spans_out: str, parent: str, cli_args: list[str]) -> int:
    tracer = Tracer(f"p{os.getpid()}", parent)
    with tracer.span("cli.import"):
        import paloma.cli as cli
        import paloma.parser as parser
        import paloma.rates as rates
    for attr, name in CLI_BOUNDARY.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))
    # cmd_rate imports exit_rate from the rates module on each call
    rates.exit_rate = tracer.wrap("rates.exit_rate", rates.exit_rate)
    parser.ModelDefinition.definitions = tracer.wrap(
        "parser.definitions", parser.ModelDefinition.definitions)
    try:
        with tracer.span("cli.main"):
            return cli.main(cli_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: tracing.py SPANS_OUT PARENT_ID -- CLI_ARGS...")
    sys.exit(traced_cli(sys.argv[1], sys.argv[2], sys.argv[4:]))
