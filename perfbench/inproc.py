"""In-process work of the benchmark, in a worker process of its own.

The runner never imports paloma. A child's ru_maxrss, as os.wait4 reports
it, also counts the memory of the process that spawned it, so the runner
stays small and everything that loads models in-process runs here:
setup-time samples, the ring-3 oracle cross-check and the replays of the
traced run. The worker reads one JSON request per line on stdin,
``[command, args...]``, and answers each with one JSON line on stdout,
``{"ok": true, "result": ...}`` or ``{"ok": false, "error": ...}``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
import traceback
from collections import deque
from pathlib import Path

import paloma

import calibrate
import reference as ref
from tracing import Tracer, durations

BOUND = 10000


def load(model: str):
    text = Path(model).read_text(encoding="utf-8")
    result = paloma.parse_model(text)
    if not result.ok:
        raise ValueError(f"{model} does not parse")
    diagnostics = paloma.validate(result.definition)
    if any(d.severity == "error" for d in diagnostics):
        raise ValueError(f"{model} does not validate")
    return result.definition, result.definition.definitions()


def where() -> str:
    return str(Path(paloma.__file__).resolve().parent)


def setup(model: str, batches: int, batch_s: float,
          kernel_units: int) -> list[list[float]]:
    """Pairs [seconds per load, seconds per calibration unit]: one pair per
    batch of loads (read, parse_model, validate, definitions()) lasting at
    least ``batch_s``, each followed by ``kernel_units`` units of
    calibrate.kernel. A batch averages over the processor's swings within
    milliseconds; the kernel right after it gives the speed it ran at."""
    samples = []
    for _ in range(batches):
        loads = 0
        start = time.perf_counter()
        while loads == 0 or time.perf_counter() - start < batch_s:
            load(model)
            loads += 1
        load_s = (time.perf_counter() - start) / loads
        start = time.perf_counter()
        calibrate.kernel(kernel_units)
        samples.append([load_s, (time.perf_counter() - start) / kernel_units])
    return samples


def oracle(model: str, tests_dir: str) -> list[str]:
    """The model's Main through the engine against the brute-force oracle."""
    sys.path.insert(0, tests_dir)
    try:
        import oracle as brute
    finally:
        sys.path.pop(0)
    defn, defs = load(model)
    ctmc = paloma.build_ctmc(defs, defn.systems["Main"], BOUND)
    return ref.check_against_oracle(brute, defs, defn.systems["Main"], ctmc,
                                    paloma.canonical)


def replay_ctmc(model: str) -> dict:
    """build_ctmc's parts by replay: derivations of every state, the
    continuation of every derivation, canonical of every successor; then
    export_dot and the build's traced memory peak."""
    tracer = Tracer("replay")
    defn, defs = load(model)
    system = defn.systems["Main"]
    with tracer.span("semantics.build_ctmc"):
        ctmc = paloma.build_ctmc(defs, system, BOUND)
    n_derivations = n_steps = n_canonical = 0
    for state in ctmc.states:
        with tracer.span("semantics.derivations"):
            found = paloma.derivations(defs, state)
        n_derivations += len(found)
        for derivation in found:
            n_steps += len(derivation.steps)
            with tracer.span("semantics.continuation"):
                items = derivation.continuation(defs).items()
            for successor, _ in items:
                with tracer.span("model.canonical"):
                    paloma.canonical(defs, successor)
                n_canonical += 1
    with tracer.span("semantics.export_dot"):
        paloma.export_dot(ctmc)
    tracemalloc.start()
    try:
        paloma.build_ctmc(defs, system, BOUND)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    spans = tracer.spans
    return {"spans": spans, "metrics": {
        "semantics.derivations_s": sum(durations(spans, "semantics.derivations")),
        "semantics.continuation_s": sum(durations(spans, "semantics.continuation")),
        "semantics.derivations": n_derivations,
        "semantics.steps": n_steps,
        "semantics.new_state_ratio": len(ctmc.states) / n_steps,
        "model.canonical_s": sum(durations(spans, "model.canonical")),
        "model.canonical_calls": n_canonical,
        "semantics.export_dot_s": sum(durations(spans, "semantics.export_dot")),
        "semantics.build_ctmc_peak_mb": peak / 2 ** 20,
    }}


def replay_bisim(model: str, left_name: str, right_name: str) -> dict:
    """bisimilar's parts by replay: candidate synthesis, then
    check_bisim_phi per candidate in bisimilar's order up to the witness;
    then component_steps, canonical and exit_rate (per action, per occupied
    location) over every state each side reaches on its own."""
    tracer = Tracer("replay")
    defn, defs = load(model)
    left, right, context = defn.systems[left_name], defn.systems[right_name], paloma.EMPTY
    with tracer.span("geometry.candidate_isometries"):
        candidates, _ = paloma.candidate_isometries(
            [loc.point for loc in paloma.locations_of(context + left)],
            [loc.point for loc in paloma.locations_of(context + right)])
    tried = rank = pairs = 0
    for tried, phi in enumerate(candidates, 1):
        with tracer.span("equivalence.check_bisim_phi"):
            result = paloma.check_bisim_phi(defs, left, right, context, phi, BOUND)
        if result.related:
            rank, pairs = tried, len(result.relation)
            break
    actions = [paloma.ActionId(kind, label)
               for label in paloma.action_labels(defs) for kind in paloma.ActionType]
    n_canonical = 0
    for side in (left, right):
        seen = {paloma.canonical(defs, side)}
        queue = deque([side])
        while queue:
            state = queue.popleft()
            with tracer.span("semantics.component_steps"):
                steps = paloma.component_steps(defs, context, state)
            for step in steps:
                with tracer.span("model.canonical"):
                    key = paloma.canonical(defs, step.successor)
                n_canonical += 1
                if key not in seen:
                    seen.add(key)
                    queue.append(step.successor)
            for action in actions:
                for loc in paloma.locations_of(state):
                    with tracer.span("rates.exit_rate"):
                        paloma.exit_rate(defs, paloma.RateQuery(
                            action, state, context, frozenset({loc})))
    spans = tracer.spans
    queries = durations(spans, "rates.exit_rate")
    return {"spans": spans, "metrics": {
        "geometry.candidate_isometries_s": sum(durations(spans, "geometry.candidate_isometries")),
        "geometry.candidates": len(candidates),
        "equivalence.check_bisim_phi_s": sum(durations(spans, "equivalence.check_bisim_phi")),
        "equivalence.candidates_tried": tried,
        "equivalence.witness_rank": rank,
        "equivalence.relation_pairs": pairs,
        "semantics.component_steps_s": sum(durations(spans, "semantics.component_steps")),
        "model.canonical_s": sum(durations(spans, "model.canonical")),
        "model.canonical_calls": n_canonical,
        "rates.exit_rate_s": sum(queries),
        "rates.queries": len(queries),
        "rates.query_p50_us": statistics.median(queries) * 1e6,
    }}


COMMANDS = {"where": where, "setup": setup, "oracle": oracle,
            "replay_ctmc": replay_ctmc, "replay_bisim": replay_bisim}


def serve() -> None:
    for line in sys.stdin:
        command, *args = json.loads(line)
        try:
            answer = {"ok": True, "result": COMMANDS[command](*args)}
        except Exception:  # reported to the runner, which counts a failure
            answer = {"ok": False, "error": traceback.format_exc()}
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
