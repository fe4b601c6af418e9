"""Command-line interface.

    paloma check  MODEL
    paloma ctmc   MODEL --system NAME [--bound N] [--format tsv|dot] [--out PATH]
    paloma rate   MODEL --system NAME --action ACT [--loc NAME ...] [--context NAME]
    paloma bisim  MODEL --left NAME --right NAME [--context NAME]
                  [--mode isometry|naive|fixed-phi] [--matrix a,b,c,d]
                  [--offset tx,ty] [--bound N]

Exit codes: 0 success or related, 1 not related, 2 input error, 3 state
bound exceeded or inconclusive.
PALOMA_BOUND sets the default bound.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .geometry import Isometry
from .model import ActionId, EMPTY, Definitions, ModelError, action_labels
from .parser import ModelDefinition, parse_model, validate

# Names from the CTMC and bisimulation layers. Each is taken from the package
# when it is first read off this module (PEP 562), and the package loads the
# module that defines it, so ``check`` and ``rate`` import neither layer and
# ``ctmc`` skips bisimulation. Commands read these names through ``_cli``,
# this module, so a name rebound here (as a tracing harness does) is the one
# they call.
_LAYER_NAMES = {"BoundExceeded", "build_ctmc", "export_dot", "export_tsv",
                "BisimResult", "bisimilar", "check_bisim_phi", "naive_bisim"}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAYER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value

EXIT_OK = 0
EXIT_NOT_RELATED = 1
EXIT_INPUT = 2
EXIT_BOUND = 3

DEFAULT_BOUND = 10000


class _InputError(Exception):
    pass


def _bound(given: int | None) -> int:
    """The state bound from ``--bound``, else PALOMA_BOUND, else the default."""
    source = "--bound"
    if given is None:
        raw = os.environ.get("PALOMA_BOUND")
        if raw is None:
            return DEFAULT_BOUND
        source = "PALOMA_BOUND"
        try:
            given = int(raw)
        except ValueError:
            raise _InputError(f"PALOMA_BOUND must be an integer, got {raw!r}") from None
    if given < 1:
        raise _InputError(f"{source} must be at least 1")
    return given


def _load(path: str) -> tuple[ModelDefinition, Definitions]:
    """The model at ``path``, and the ``Definitions`` that validating it
    filled, which the command goes on to query."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    result = parse_model(text)
    diagnostics = list(result.diagnostics)
    if not result.ok:
        raise _InputError("\n".join(str(d) for d in diagnostics) or "parse failed")
    diagnostics += validate(result.definition)
    if any(d.severity == "error" for d in diagnostics):
        raise _InputError("\n".join(str(d) for d in diagnostics))
    return result.definition, result.definition._validated


def _system(defn: ModelDefinition, name: str):
    if name == "empty":
        return EMPTY
    try:
        return defn.systems[name]
    except KeyError:
        raise _InputError(f"unknown system {name!r}; declared: "
                          f"{', '.join(sorted(defn.systems)) or 'none'}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise _InputError(f"cannot write {out}: {exc}") from None


def cmd_check(args: argparse.Namespace) -> int:
    try:
        text = Path(args.model).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.model}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    result = parse_model(text)
    diagnostics = list(result.diagnostics)
    if result.ok:
        diagnostics += validate(result.definition)
    for diagnostic in diagnostics:
        print(diagnostic)
    if any(d.severity == "error" for d in diagnostics):
        return EXIT_INPUT
    print(f"ok: {len(result.definition.equations)} equations, "
          f"{len(result.definition.systems)} systems")
    return EXIT_OK


def cmd_ctmc(args: argparse.Namespace) -> int:
    defn, defs = _load(args.model)
    system = _system(defn, args.system)
    bound = _bound(args.bound)
    try:
        ctmc = _cli.build_ctmc(defs, system, bound)
    except _cli.BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    text = _cli.export_dot(ctmc) if args.format == "dot" else _cli.export_tsv(ctmc)
    _emit(text, args.out)
    return EXIT_OK


def cmd_rate(args: argparse.Namespace) -> int:
    from .rates import RateQuery, exit_rate

    defn, defs = _load(args.model)
    try:
        action = ActionId.parse(args.action)
    except ModelError as exc:
        raise _InputError(str(exc)) from None
    if action.label not in action_labels(defs):
        raise _InputError(f"unknown action label {action.label!r}")
    locations = None
    if args.loc:
        picked = []
        for name in args.loc:
            if name not in defs.locations:
                raise _InputError(f"unknown location {name!r}")
            picked.append(defs.locations[name])
        locations = frozenset(picked)
    subject = _system(defn, args.system)
    context = _system(defn, args.context)
    value = exit_rate(defs, RateQuery(action, subject, context, locations))
    _emit(f"{value:.17g}\n", args.out)
    return EXIT_OK


def _parse_phi(matrix: str, offset: str) -> Isometry:
    try:
        a, b, c, d = (float(part) for part in matrix.split(","))
        tx, ty = (float(part) for part in offset.split(","))
        if not all(map(math.isfinite, (a, b, c, d, tx, ty))):
            raise ValueError
    except ValueError:
        raise _InputError("expected finite --matrix a,b,c,d and --offset tx,ty") from None
    phi = Isometry(((a, b), (c, d)), (tx, ty))
    if not phi.is_orthogonal():
        raise _InputError("the given matrix is not orthogonal: not an isometry")
    return phi


def _bisim_report(result: BisimResult) -> str:
    lines: list[str] = []
    if result.related:
        lines.append("verdict: related")
        if result.witness is not None:
            lines.append(f"isometry: {result.witness.describe()}")
        lines.append("relation:")
        for left, right in result.relation:
            lines.append(f"  {left}  ~  {right}")
    else:
        lines.append("verdict: inconclusive" if result.inconclusive
                     else "verdict: not-related")
        if result.counterexample is not None and not result.inconclusive:
            lines.append(f"counterexample: {result.counterexample.describe()}")
        if result.note:
            lines.append(f"note: {result.note}")
        for failure in result.candidate_failures:
            lines.append(f"  candidate {failure}")
    return "\n".join(lines) + "\n"


def cmd_bisim(args: argparse.Namespace) -> int:
    defn, defs = _load(args.model)
    left = _system(defn, args.left)
    right = _system(defn, args.right)
    context = _system(defn, args.context)
    bound = _bound(args.bound)
    if args.mode == "isometry":
        result = _cli.bisimilar(defs, left, right, context, bound)
    elif args.mode == "naive":
        if len(left) != 1 or len(right) != 1:
            raise _InputError("naive mode compares single agents; pick systems "
                              "with exactly one component")
        result = _cli.naive_bisim(defs, left[0], right[0], context, bound)
    else:
        if args.matrix is None or args.offset is None:
            raise _InputError("fixed-phi mode needs --matrix and --offset")
        phi = _parse_phi(args.matrix, args.offset)
        result = _cli.check_bisim_phi(defs, left, right, context, phi, bound)
    _emit(_bisim_report(result), args.out)
    if result.related:
        return EXIT_OK
    if result.inconclusive:
        return EXIT_BOUND
    return EXIT_NOT_RELATED


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paloma",
        description="Analyses for located-agent stochastic process models.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate a model file")
    check.add_argument("model")
    check.set_defaults(func=cmd_check)

    ctmc = sub.add_parser("ctmc", help="derive the CTMC of a system")
    ctmc.add_argument("model")
    ctmc.add_argument("--system", required=True)
    ctmc.add_argument("--bound", type=int)
    ctmc.add_argument("--format", choices=("tsv", "dot"), default="tsv")
    ctmc.add_argument("--out")
    ctmc.set_defaults(func=cmd_ctmc)

    rate = sub.add_parser("rate", help="context-aware exit rate of an action")
    rate.add_argument("model")
    rate.add_argument("--system", required=True)
    rate.add_argument("--action", required=True,
                      help="action with type glyph, e.g. '!!move', '?ping', 'tick'")
    rate.add_argument("--loc", action="append",
                      help="restrict to agents at this location (repeatable)")
    rate.add_argument("--context", default="empty",
                      help="surrounding system name, or 'empty'")
    rate.add_argument("--out")
    rate.set_defaults(func=cmd_rate)

    bisim = sub.add_parser("bisim", help="decide bisimilarity of two systems")
    bisim.add_argument("model")
    bisim.add_argument("--left", required=True)
    bisim.add_argument("--right", required=True)
    bisim.add_argument("--context", default="empty")
    bisim.add_argument("--mode", choices=("isometry", "naive", "fixed-phi"),
                       default="isometry")
    bisim.add_argument("--matrix", help="fixed-phi linear part, row-major a,b,c,d")
    bisim.add_argument("--offset", help="fixed-phi translation tx,ty")
    bisim.add_argument("--bound", type=int)
    bisim.add_argument("--out")
    bisim.set_defaults(func=cmd_bisim)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
