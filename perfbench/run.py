#!/usr/bin/env python3
"""Benchmark for paloma: CLI wall time and throughput on seeded model
families, plus a traced run that breaks the time down by layer.

Run from the root of a checkout (standard library only):

    python3 perfbench/run.py --workload ctmc-ring --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The workloads are listed in perfbench/workloads.json with the reason each
was chosen and the end-to-end metric each per-layer metric should move.
Load comes from this one process: the CLI runs as one child process at a
time (a closed loop with one client). Every run writes its model files, CLI
outputs, spans and a result record under .perfbench/ in the checkout.

--trace 0 times whole iterations of the workload's CLI calls, after one
discarded warm-up iteration, and reports the end-to-end metrics:

    wall_ref_s    median over iterations of the iteration's wall time, spawn
                  to exit of each of its CLI processes, in seconds at the
                  reference speed (below)
    setup_s       median in-process load of the workload's model: read,
                  parse_model, validate and definitions(), in seconds at
                  the reference speed
    peak_rss_mb   median over iterations of the largest ru_maxrss of the
                  iteration's children, read with os.wait4

A time at the reference speed is the time as measured, multiplied by
calibrate.UNIT_REFERENCE_S over the time one unit of calibrate.kernel takes
at that moment: during every CLI call, on the other processor (see
launcher.py), and in-process right after every set-up batch. The processor
of a shared machine changes speed by more than 1.5x for seconds at a time;
the scaling takes that out, and a change to paloma still moves the figure
in full. The times as measured (wall_s) are printed and kept in the record,
with the throughput: the workload's unit of work per second of wall_s
(states_per_s and transitions_per_s on ctmc-ring, queries_per_s on
rate-wide).

--trace 1 alternates untraced iterations with traced ones, in which each CLI
call runs through perfbench/tracing.py and records spans at the CLI's calls
into the layers; it then replays public calls in the inproc.py worker to
split the parts of build_ctmc and bisimilar that no span covers, and
reports the per-layer metrics (PER_LAYER below). End-to-end numbers come
only from untraced runs.

Every output is checked against perfbench/reference.py. The last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics; the exit code is 1 when any check failed, and 2 when the checkout
holds no paloma sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import calibrate
import families as fam
import reference as ref
from tracing import Tracer, durations, self_times

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
# after every measured iteration: set-up batches, each followed by a few
# in-process calibration units
SETUP_BATCHES, SETUP_BATCH_S, SETUP_KERNEL_UNITS = 2, 0.1, 20
STARTUP_REPS = 5
# Children get a fixed hash seed so that set and dict order, and with it the
# work done, is the same in every run.
CHILD_HASHSEED = "0"

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.startup_s": "s", "cli.self_s": "s",
    "parser.parse_s": "s", "parser.validate_s": "s", "parser.bytes_per_s": "B/s",
    "parser.self_s": "s",
    "model.canonical_s": "s", "model.canonical_calls": "count",
    "semantics.build_ctmc_s": "s", "semantics.derivations_s": "s",
    "semantics.continuation_s": "s", "semantics.derivations": "count",
    "semantics.steps": "count", "semantics.new_state_ratio": "ratio",
    "semantics.build_ctmc_peak_mb": "MB", "semantics.export_tsv_s": "s",
    "semantics.export_dot_s": "s", "semantics.tsv_bytes": "B",
    "semantics.component_steps_s": "s", "semantics.self_s": "s",
    "rates.exit_rate_s": "s", "rates.queries": "count", "rates.query_p50_us": "us",
    "rates.self_s": "s",
    "geometry.candidate_isometries_s": "s", "geometry.candidates": "count",
    "equivalence.bisimilar_s": "s", "equivalence.check_bisim_phi_s": "s",
    "equivalence.candidates_tried": "count", "equivalence.witness_rank": "count",
    "equivalence.relation_pairs": "count", "equivalence.self_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}
LAYERS = ("cli", "parser", "semantics", "rates", "equivalence")


@dataclass
class Call:
    args: list[str]                      # CLI arguments after "paloma"
    expect_rc: int
    check: Callable[[str], list[str]]
    out: Path | None = None              # the --out file; stdout otherwise


@dataclass
class Workload:
    name: str
    model: Path
    calls: list[Call]
    items: int                           # units of work in one iteration
    items_name: str
    left: str = "Main"
    right: str = ""


def _write(name: str, text: str) -> Path:
    path = WORK / name
    path.write_text(text, encoding="utf-8")
    return path


def build_workload(name: str, seed: int) -> Workload:
    if name == "ctmc-ring":
        model = _write("ring-4.paloma", fam.ring(ref.RING_CTMC_N, seed))
        out = WORK / "ctmc.tsv"
        call = Call(["ctmc", str(model), "--system", "Main", "--format", "tsv",
                     "--out", str(out)], 0, ref.check_ctmc_tsv, out)
        return Workload(name, model, [call], ref.RING_CTMC_STATES, "states")
    if name == "bisim-related":
        model = _write("ring-3.paloma", fam.ring(3, seed))
        call = Call(["bisim", str(model), "--left", "Main", "--right", "Rot"], 0,
                    ref.check_related)
        return Workload(name, model, [call], ref.RING_BISIM_RELATION_PAIRS, "relation_pairs",
                        right="Rot")
    if name == "bisim-refuted":
        model = _write("duo-4.paloma", fam.duo(4, seed))
        call = Call(["bisim", str(model), "--left", "Main", "--right", "Odd"], 1,
                    ref.check_refuted)
        return Workload(name, model, [call], ref.DUO_CANDIDATES, "candidates", right="Odd")
    assert name == "rate-wide"
    model = _write("wide-150.paloma", fam.wide(150, seed))
    calls = [Call(["rate", str(model), *args], 0,
                  lambda text, e=expected: ref.check_rate(text, e))
             for args, expected in ref.rate_queries(150)]
    return Workload(name, model, calls, len(calls), "queries")


# -- child processes ---------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = CHILD_HASHSEED
    env.pop("PALOMA_BOUND", None)
    return env


class Helper:
    """A helper process of this benchmark that answers one JSON line on its
    stdout for each JSON line it reads on stdin."""

    def __init__(self, script: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)

    def request(self, payload):
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise HelperError(f"{self.proc.args[1]} exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class HelperError(Exception):
    pass


def spawn(launcher: Helper, argv: list[str], stdout: Path,
          timeout: float) -> tuple[int | None, float, int, float]:
    """Run one child to its end through the launcher: (exit code, or None
    if it was killed at the timeout; wall seconds from spawn to exit;
    ru_maxrss in KiB; mean seconds per calibration unit while it ran)."""
    return tuple(launcher.request([argv, str(stdout), timeout]))


def ask(worker: Helper, command: str, *args):
    """The result of an inproc.py command; a failure there raises HelperError."""
    answer = worker.request([command, *args])
    if not answer["ok"]:
        raise HelperError(f"{command}: {answer['error']}")
    return answer["result"]


@dataclass
class Iteration:
    wall: float
    wall_ref: float                      # wall at the reference speed
    rss_kb: int
    attempted: int
    failed: int
    problems: list[str]
    spans: list[dict]


def run_iteration(wl: Workload, launcher: Helper, deadline: float,
                  tracer: Tracer | None = None) -> Iteration:
    """The workload's CLI calls, one child at a time; the wall time is the
    sum of the calls' walls from spawn to exit. Outputs are checked
    afterwards."""
    results = []
    first_span = len(tracer.spans) if tracer else 0
    for i, call in enumerate(wl.calls):
        stdout = WORK / f"call{i}.out"
        timeout = max(1.0, deadline - time.perf_counter())
        if tracer is None:
            results.append(spawn(launcher, [sys.executable, "-m", "paloma.cli", *call.args],
                                 stdout, timeout))
            continue
        child_spans = WORK / f"call{i}.spans.json"
        with tracer.span("cli.process") as span_id:
            results.append(spawn(launcher, [sys.executable, str(HERE / "tracing.py"),
                                  str(child_spans), span_id, "--", *call.args],
                                 stdout, timeout))
        if child_spans.exists():
            tracer.spans += json.loads(child_spans.read_text(encoding="utf-8"))
            child_spans.unlink()
    wall = sum(r[1] for r in results)
    wall_ref = sum(r[1] * calibrate.UNIT_REFERENCE_S / r[3] for r in results)
    spans = tracer.spans[first_span:] if tracer else []
    problems = []
    failed = 0
    for i, (call, (rc, *_)) in enumerate(zip(wl.calls, results)):
        label = f"paloma {' '.join(call.args[:1] + call.args[2:])}"
        known = len(problems)
        if rc is None:
            problems.append(f"{label}: timed out")
        elif rc != call.expect_rc:
            err = (WORK / f"call{i}.err").read_text(encoding="utf-8", errors="replace")
            problems.append(f"{label}: exit {rc}, expected {call.expect_rc}: {err[-300:]}")
        else:
            # bytes, not read_text: the digest check must see line endings as written
            text = (call.out or WORK / f"call{i}.out").read_bytes().decode(
                "utf-8", errors="replace")
            problems += [f"{label}: {p}" for p in call.check(text)]
        failed += len(problems) > known
    return Iteration(wall, wall_ref, max(r[2] for r in results), len(wl.calls), failed,
                     problems, spans)


def measure(wl: Workload, launcher: Helper, seconds: float, deadline: float,
            tracer: Tracer | None = None,
            between: Callable[[], None] = lambda: None,
            ) -> tuple[list[Iteration], list[Iteration]]:
    """A discarded warm-up iteration, then iterations started until
    ``seconds`` have passed; ``between`` runs after the warm-up and after
    each iteration. With a tracer, each untraced iteration is followed by a
    traced one."""
    warm = run_iteration(wl, launcher, deadline)
    between()
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    start = time.perf_counter()
    while True:
        plain.append(run_iteration(wl, launcher, deadline))
        if tracer is not None:
            with tracer.span("bench.iteration"):
                traced.append(run_iteration(wl, launcher, deadline, tracer))
        between()
        last = plain[-1].wall + (traced[-1].wall if traced else 0.0)
        now = time.perf_counter()
        if (now - start >= seconds or now + 2 * last > deadline
                or plain[-1].problems or (traced and traced[-1].problems)):
            break
    return [warm] + plain, traced


def cli_span_metrics(iteration: Iteration, model_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced iteration, from the CLI's spans."""
    spans = iteration.spans
    parse = durations(spans, "parser.parse_model")
    queries = durations(spans, "rates.exit_rate")
    own = self_times(spans)
    values = {
        "parser.parse_s": sum(parse),
        "parser.validate_s": sum(durations(spans, "parser.validate")),
        "parser.bytes_per_s": model_bytes * len(parse) / sum(parse) if parse else 0.0,
        "semantics.build_ctmc_s": sum(durations(spans, "semantics.build_ctmc")),
        "semantics.export_tsv_s": sum(durations(spans, "semantics.export_tsv")),
        "rates.exit_rate_s": sum(queries),
        "rates.queries": len(queries),
        "rates.query_p50_us": statistics.median(queries) * 1e6 if queries else 0.0,
        "equivalence.bisimilar_s": sum(durations(spans, "equivalence.bisimilar")),
    }
    values.update({f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS})
    return values


def startup_times(launcher: Helper, deadline: float) -> list[float]:
    """Wall time of a child that only imports paloma.cli."""
    walls = []
    for _ in range(STARTUP_REPS):
        rc, wall, *_ = spawn(launcher, [sys.executable, "-c", "import paloma.cli"],
                            WORK / "startup.out", max(1.0, deadline - time.perf_counter()))
        if rc == 0:
            walls.append(wall)
    return walls


# -- reporting -----------------------------------------------------------------


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return f"n={n}, too few samples for a tail percentile"
    pct = int(100 * (n - 10) / n)
    return f"n={n}, p{pct} {statistics.quantiles(samples, n=100)[pct - 1]:.6g}"


def environment() -> dict:
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_before": os.getloadavg(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
            "child_pythonhashseed": CHILD_HASHSEED, "commit": commit}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 launcher: Helper, worker: Helper) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = environment()
    wl = build_workload(name, seed)
    problems: list[str] = []
    attempted = failed = 0

    def in_worker(command: str, *args, default=None):
        nonlocal attempted, failed
        attempted += 1
        try:
            return ask(worker, command, *args)
        except HelperError as exc:
            problems.append(str(exc))
            failed += 1
            return default

    if name == "ctmc-ring":
        oracle_model = _write("ring-3-oracle.paloma", fam.ring(3, seed))
        mismatches = in_worker("oracle", str(oracle_model), str(ROOT / "tests"), default=[])
        failed += bool(mismatches)
        problems += [f"ring-3 oracle cross-check: {p}" for p in mismatches]
    tracer = Tracer("bench") if trace else None
    setup: list[list[float]] = []

    def between() -> None:
        setup.extend(in_worker("setup", str(wl.model), SETUP_BATCHES, SETUP_BATCH_S,
                               SETUP_KERNEL_UNITS, default=[]))

    plain, traced = measure(wl, launcher, seconds, deadline, tracer,
                            between=(lambda: None) if trace else between)
    for it in plain + traced:
        attempted += it.attempted
        failed += it.failed
        problems += it.problems
    plain = plain[1:]  # the warm-up
    walls = [it.wall for it in plain]
    wall = statistics.median(walls)
    calls = len(wl.calls)
    lines = [f"{name}: {len(plain)} iterations of {calls} CLI call(s)"]
    if not trace:
        metrics = {
            "wall_ref_s": statistics.median(it.wall_ref for it in plain),
            "setup_s": statistics.median(load / unit for load, unit in setup)
                       * calibrate.UNIT_REFERENCE_S if setup else 0.0,
            "peak_rss_mb": statistics.median(it.rss_kb for it in plain) / 1024,
        }
        units = END_TO_END
        unit = (statistics.median(it.wall / it.wall_ref for it in plain)
                * calibrate.UNIT_REFERENCE_S)
        lines += [f"  wall_s {wall:.6g} s as measured, {tail(walls)}",
                  f"  calibration unit {unit:.6g} s during the calls "
                  f"(reference {calibrate.UNIT_REFERENCE_S} s)",
                  f"  setup_s {statistics.median(load for load, _ in setup):.6g} s as measured, "
                  f"n={len(setup)}" if setup else "  setup_s: no samples",
                  f"  {wl.items_name}_per_s {wl.items / wall:.6g} 1/s"]
        if name == "ctmc-ring":
            lines.append(f"  transitions_per_s {ref.RING_CTMC_TRANSITIONS / wall:.6g} 1/s")
    else:
        metrics = {key: 0.0 for key in PER_LAYER}
        model_bytes = wl.model.stat().st_size
        per_iteration = [cli_span_metrics(it, model_bytes) for it in traced]
        for key in per_iteration[0]:
            metrics[key] = statistics.median(v[key] for v in per_iteration)
        replay = {"spans": [], "metrics": {}}
        if name == "ctmc-ring":
            replay = in_worker("replay_ctmc", str(wl.model), default=replay)
            metrics["semantics.tsv_bytes"] = wl.calls[0].out.stat().st_size
        elif name.startswith("bisim"):
            replay = in_worker("replay_bisim", str(wl.model), wl.left, wl.right,
                               default=replay)
        metrics.update(replay["metrics"])
        if name == "ctmc-ring":
            lines.append(
                f"  semantics.build_ctmc_s {metrics['semantics.build_ctmc_s']:.6g} s; "
                f"replayed derivations_s + continuation_s "
                f"{metrics['semantics.derivations_s'] + metrics['semantics.continuation_s']:.6g} s")
        per_candidate = durations(replay["spans"], "equivalence.check_bisim_phi")
        if per_candidate:
            lines.append("  check_bisim_phi per candidate (s): "
                         + ", ".join(f"{d:.4g}" for d in per_candidate))
        startup = startup_times(launcher, deadline)
        attempted += STARTUP_REPS
        failed += STARTUP_REPS - len(startup)
        problems += ["import paloma.cli failed"] * (STARTUP_REPS - len(startup))
        metrics["cli.startup_s"] = statistics.median(startup) if startup else 0.0
        traced_wall = statistics.median(it.wall for it in traced)
        traced_ref = statistics.median(it.wall_ref for it in traced)
        untraced_ref = statistics.median(it.wall_ref for it in plain)
        metrics["trace.overhead_s"] = traced_ref - untraced_ref
        all_spans = tracer.spans + replay["spans"]
        metrics["trace.spans"] = len(all_spans)
        lines.append(f"  traced wall_s {traced_wall:.6g} s against untraced {wall:.6g} s as "
                     f"measured, wall_ref_s {traced_ref:.6g} s against {untraced_ref:.6g} s, "
                     f"{len(traced)} of each")
        (WORK / f"spans-{name}-seed{seed}.json").write_text(json.dumps(all_spans),
                                                            encoding="utf-8")
        units = PER_LAYER
    env["loadavg_after"] = os.getloadavg()
    lines.insert(1, f"  {attempted} operations attempted, {failed} failed, "
                    f"failed_ratio {failed / attempted:.4g}")
    lines += [f"  {key} {value:.6g} {units[key]}" for key, value in metrics.items()]
    lines += [f"  FAILED: {p}" for p in problems[:20]]
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    record = {"workload": name, "definition": workloads[name], "seed": seed,
              "seconds": seconds, "trace": int(trace), "environment": env,
              "iteration_walls": walls,
              "iteration_walls_ref": [it.wall_ref for it in plain],
              "setup_samples": setup, "problems": problems, "metrics": metrics}
    (WORK / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(lines), flush=True)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    names = list(json.loads((HERE / "workloads.json").read_text(encoding="utf-8")))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "paloma" / "cli.py").is_file():
        print(f"error: no paloma sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    launcher = Helper("launcher.py")
    worker = Helper("inproc.py")
    try:
        found = ask(worker, "where")
        if Path(found) != (SRC / "paloma").resolve():
            print(f"error: the worker imported paloma from {found}, not {SRC}",
                  file=sys.stderr)
            return 2
        print(f"# environment: {json.dumps(environment())}", flush=True)
        chosen = names if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                                    launcher, worker)
                   for name in chosen}
    finally:
        worker.close()
        launcher.close()
    if len(chosen) == 1:
        summary = results[chosen[0]]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{name}.{key}": value for name, r in results.items()
                               for key, value in r["metrics"].items()}}
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
