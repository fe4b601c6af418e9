"""Command-line interface: ``paloma {check,ctmc,rate,bisim} MODEL [options]``.
Each command's options are listed once, in ``_COMMANDS``, and by ``--help``.

Exit codes: 0 success or related, 1 not related, 2 input error, 3 state
bound exceeded or inconclusive. A closed stdout keeps the exit code; a
failed write exits 2.
PALOMA_BOUND sets the default bound.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .geometry import Isometry
from .model import ActionId, EMPTY, Definitions, ModelError, action_labels
from .parser import Diagnostic, ModelDefinition, parse_model, validate

if TYPE_CHECKING:
    import argparse

# Names from the CTMC and bisimulation layers, taken from the package when
# first read here (PEP 562), so a command loads only the layers it runs.
# Commands read them through ``_cli``, this module, so a name rebound here (as
# a tracing harness does) is the one they call.
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
    """Bad input, printed on stderr as ``error: MESSAGE``."""


class _InvalidModel(Exception):
    """A model with errors. Its diagnostics name their own severity, so
    they are printed on stderr as they stand."""


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


def _read(path: str) -> tuple[ModelDefinition | None, list[Diagnostic]]:
    """The model at ``path``, ``None`` if it has errors, and its parse and
    validation diagnostics."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    result = parse_model(text)
    if not result.ok:
        return None, result.diagnostics
    diagnostics = validate(result.definition)
    if any(d.severity == "error" for d in diagnostics):
        return None, diagnostics
    return result.definition, diagnostics


def _load(path: str) -> tuple[ModelDefinition, Definitions]:
    """The model at ``path`` and the ``Definitions`` its validation filled,
    which the command queries."""
    defn, diagnostics = _read(path)
    if defn is None:
        raise _InvalidModel(diagnostics)
    return defn, defn._validated


def _system(defn: ModelDefinition, name: str):
    if name == "empty":
        return EMPTY
    try:
        return defn.systems[name]
    except KeyError:
        raise _InputError(f"unknown system {name!r}; declared: "
                          f"{', '.join(sorted(defn.systems)) or 'none'}") from None


def _emit(out: str | None, write) -> None:
    """Call ``write`` on stdout or the ``--out`` file, opened only now."""
    try:
        if out is not None:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                write(fh)
        elif sys.stdout:  # None if fd 1 was closed at start, as a closed pipe
            write(sys.stdout)
            sys.stdout.flush()
    except OSError as exc:
        if out is None:
            # or the flush at exit fails: exit 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        if not isinstance(exc, BrokenPipeError):
            raise _InputError(f"cannot write {out or 'stdout'}: {exc}") from None


def cmd_check(args: argparse.Namespace) -> int:
    defn, diagnostics = _read(args.model)
    text = "".join(f"{d}\n" for d in diagnostics)
    if defn is not None:
        text += f"ok: {len(defn.equations)} equations, {len(defn.systems)} systems\n"
    _emit(None, lambda fh: fh.write(text))
    return EXIT_INPUT if defn is None else EXIT_OK


def cmd_ctmc(args: argparse.Namespace) -> int:
    defn, defs = _load(args.model)
    system = _system(defn, args.system)
    bound = _bound(args.bound)
    try:
        ctmc = _cli.build_ctmc(defs, system, bound)
    except _cli.BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    export = _cli.export_dot if args.format == "dot" else _cli.export_tsv
    _emit(args.out, lambda fh: export(ctmc, fh))
    return EXIT_OK


def cmd_rate(args: argparse.Namespace) -> int:
    from .rates import RateQuery, exit_rate

    defn, defs = _load(args.model)
    action = ActionId.parse(args.action)
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
    _emit(args.out, lambda fh: fh.write(f"{value:.17g}\n"))
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
    _emit(args.out, lambda fh: fh.write(_bisim_report(result)))
    if result.related:
        return EXIT_OK
    if result.inconclusive:
        return EXIT_BOUND
    return EXIT_NOT_RELATED


# The command grammar: each command's help, handler and options, in --help
# order after the model. An option is (name, kind, required, default, help);
# kind is str, int, a tuple of choices, or list if repeatable. ``main`` reads
# the usual calls off this table and builds argparse from it for the rest,
# so argparse loads only for help, abbreviations and usage errors.
_COMMANDS = {
    "check": ("parse and validate a model file", cmd_check, ()),
    "ctmc": ("derive the CTMC of a system", cmd_ctmc, (
        ("--system", str, True, None, None),
        ("--bound", int, False, None, None),
        ("--format", ("tsv", "dot"), False, "tsv", None),
        ("--out", str, False, None, None))),
    "rate": ("context-aware exit rate of an action", cmd_rate, (
        ("--system", str, True, None, None),
        ("--action", str, True, None,
         "action with type glyph, e.g. '!!move', '?ping', 'tick'"),
        ("--loc", list, False, None, "restrict to agents at this location (repeatable)"),
        ("--context", str, False, "empty", "surrounding system name, or 'empty'"),
        ("--out", str, False, None, None))),
    "bisim": ("decide bisimilarity of two systems", cmd_bisim, (
        ("--left", str, True, None, None),
        ("--right", str, True, None, None),
        ("--context", str, False, "empty", None),
        ("--mode", ("isometry", "naive", "fixed-phi"), False, "isometry", None),
        ("--matrix", str, False, None, "fixed-phi linear part, row-major a,b,c,d"),
        ("--offset", str, False, None, "fixed-phi translation tx,ty"),
        ("--bound", int, False, None, None),
        ("--out", str, False, None, None))),
}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_arg_parser().parse_args(argv)`` gives, read off
    ``_COMMANDS`` when ``argv`` is a command, one model, and options spelled
    exactly, each with a valid value not starting with ``-``; else ``None``
    (help, abbreviations, ``--flag=value``, ``--``, usage errors)."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    kinds = {name: kind for name, kind, *_ in options}
    found = {"command": argv[0], "func": func, "model": None}
    found.update((name[2:], default) for name, _, _, default, _ in options)
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if found["model"] is not None:
                return None
            found["model"] = token
            continue
        value = next(tokens, "-")
        if token not in kinds or value.startswith("-"):
            return None
        kind = kinds[token]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is list:
            value = (found[token[2:]] or []) + [value]
        elif kind is not str and value not in kind:
            return None
        found[token[2:]] = value
    # a given value is never None, and a required option defaults to None
    if found["model"] is None or any(required and found[name[2:]] is None
                                     for name, _, required, _, _ in options):
        return None
    return SimpleNamespace(**found)


def build_arg_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="paloma",
        description="Analyses for located-agent stochastic process models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, func, options) in _COMMANDS.items():
        parser_of = sub.add_parser(command, help=summary)
        parser_of.add_argument("model")
        for name, kind, required, default, text in options:
            parser_of.add_argument(
                name, required=required, default=default, help=text,
                type=int if kind is int else None,
                choices=kind if isinstance(kind, tuple) else None,
                action="append" if kind is list else None)
        parser_of.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv) or build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InvalidModel as exc:
        print(*exc.args[0], sep="\n", file=sys.stderr)
    except (_InputError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
