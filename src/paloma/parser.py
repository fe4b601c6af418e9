"""Textual syntax for PALOMA models.

The concrete grammar, one statement per ``;``:

    model     := statement* EOF
    statement := "param" IDENT "=" NUMBER ";"
               | "location" IDENT "=" "(" NUMBER "," NUMBER ")" ";"
               | "system" IDENT "=" constref ("||" constref)* ";"
               | IDENT "(" IDENT ")" ":=" body ";"            -- equation
    body      := term ("+" term)*
    term      := prefix "." constref | constref
    constref  := IDENT "(" IDENT ")"
    prefix    := "!!" "(" IDENT "," value ")" "@" "Ir" "{" range "}"
               | "??" "(" IDENT "," value ")" "@" "Wt" "{" value "}"
               | "!"  "(" IDENT "," value ")" "@" "Ir" "{" range "}"
               | "?"  "(" IDENT "," value ")" "@" "Prob" "{" value "}"
               | "(" IDENT "," value ")"                      -- spontaneous
    range     := "all" | IDENT ("," IDENT)*
    value     := NUMBER | IDENT                               -- param reference

``//`` starts a line comment. Rates must be positive, probabilities within
[0, 1], weights positive; parameters are plain named numbers, substituted by
value during parsing, and ``all`` expands to the locations declared before
it.

One reader, ``_read``, decides with string methods whether a text is a
model, and builds its definition. For a text it declines, the token pass in
``paloma._tokens``, loaded only then, places each diagnostic. Parsing never
raises on bad input: every failure is reported as a positioned Diagnostic,
and the token pass resynchronises at the next ``;``. ``validate`` walks each
written equation once.
"""

from __future__ import annotations

import math
import re

from .geometry import GEOMETRIC_TOL, _PointGrid
from .model import (
    BroadcastIn,
    BroadcastOut,
    Choice,
    ConstantRef,
    Definitions,
    Location,
    ModelComponent,
    ModelError,
    Prefix,
    PrefixGuarded,
    SeqComponent,
    Spontaneous,
    UnicastIn,
    UnicastOut,
    _Record,
    format_number,
    render_seq,
)


class Diagnostic(_Record):
    """A parse or validation finding. Validation findings concern whole
    equations and carry no source position: ``line`` and ``column`` are
    ``None`` and the printed form leaves the position out."""

    __slots__ = ("severity", "message", "line", "column")  # severity: "error" | "warning"

    def __init__(self, severity: str, message: str, line: int | None = None,
                 column: int | None = None):
        self.severity, self.message, self.line, self.column = severity, message, line, column

    def __str__(self) -> str:
        if self.line is None:
            return f"{self.severity}: {self.message}"
        return f"{self.severity}: {self.line}:{self.column}: {self.message}"


class ModelDefinition(_Record):
    """A parsed and elaborated model file."""

    # the last slot is not a field: the Definitions that the latest
    # validate filled, which the command line goes on to query
    __slots__ = ("params", "locations", "equations", "systems", "_validated")
    __hash__ = None  # mutable, like the dicts it holds

    def __init__(self, params: dict[str, float] | None = None,
                 locations: dict[str, Location] | None = None,
                 equations: dict[tuple[str, str], SeqComponent] | None = None,
                 systems: dict[str, ModelComponent] | None = None):
        self.params = {} if params is None else params
        self.locations = {} if locations is None else locations
        self.equations = {} if equations is None else equations
        self.systems = {} if systems is None else systems
        self._validated: Definitions | None = None

    def _values(self) -> tuple:
        return self.params, self.locations, self.equations, self.systems

    def definitions(self) -> Definitions:
        return Definitions(self.locations, self.equations)


class ParseResult(_Record):
    __slots__ = ("definition", "diagnostics")
    __hash__ = None  # mutable, like the list it holds

    def __init__(self, definition: ModelDefinition | None, diagnostics: list[Diagnostic]):
        self.definition, self.diagnostics = definition, diagnostics

    @property
    def ok(self) -> bool:
        return self.definition is not None


# The grammar's number and keywords; the token pass reads the same ones.
_NUMBER = r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_NUMBER_RE = re.compile(_NUMBER)
_KEYWORDS = frozenset(("param", "location", "system", "all"))
_CLAUSES = {"!!": "Ir", "!": "Ir", "??": "Wt", "?": "Prob"}  # by prefix glyph
_INPUT_GLYPHS = {UnicastIn: "??", BroadcastIn: "?"}


def _read(text: str) -> ModelDefinition | None:
    """The definition of a well-formed model, read with string methods, or
    ``None`` for a text that breaks the grammar or one of its rules. It is
    the only judge of a model and the only builder of one. A constant
    reference, an input or spontaneous prefix, a prefix head (glyph, label
    and value) and a written influence range are each read once per text
    that spells them; ``all`` is expanded once per count of locations
    declared before it."""
    if "//" in text:
        text = re.sub(r"//[^\n]*", "", text)
    *statements, rest = text.split(";")
    if rest.strip():
        return None
    definition = ModelDefinition()
    params, locations, equations = definition.params, definition.locations, definition.equations
    refs: dict[str, ConstantRef] = {}
    prefixes: dict[str, Prefix] = {}
    heads: dict[str, tuple[str, str, float]] = {}
    # a written range by its text; ``all`` by the count of locations before it
    ranges: dict[str | int, frozenset[Location]] = {}

    def name(s: str) -> str:
        s = s.strip()
        if not (s.isascii() and s.isidentifier()) or s in _KEYWORDS:
            raise ValueError(s)
        return s

    def number(s: str) -> float:
        s = s.strip()
        if _NUMBER_RE.fullmatch(s) is None or not math.isfinite(value := float(s)):
            raise ValueError(s)
        return value

    def value(s: str) -> float:
        return params.get(s.strip()) or number(s)  # a parameter is positive

    def constref(s: str) -> ConstantRef:
        s = s.strip()
        ref = refs.get(s)
        if ref is None:
            if s[-1:] != ")":
                raise ValueError(s)
            head, _, loc = s[:-1].partition("(")
            ref = refs[s] = ConstantRef(name(head), locations[loc.strip()])
        return ref

    def prefix(s: str) -> Prefix:
        # the head runs up to the clause's ``{``: a spontaneous prefix is all head
        head, brace, inner = s.strip().partition("{")
        read = heads.get(head)
        if read is None:
            glyph, _, args = head.partition("(")
            args, rp, at = args.partition(")")
            label, _, first = args.partition(",")
            glyph, at = glyph.strip(), at.strip()
            if not rp or (at[:1] != "@" or at[1:].strip() != _CLAUSES[glyph] if glyph else at):
                raise ValueError(s)
            read = heads[head] = glyph, name(label), value(first)
        glyph, label, first = read
        if not glyph:
            if brace:
                raise ValueError(s)
            found = prefixes[s] = Spontaneous(label, first)
            return found
        if inner[-1:] != "}":
            raise ValueError(s)
        inner = inner[:-1]
        if glyph[0] == "!":
            # ``all`` names the locations declared so far, which only grow
            every = inner.strip() == "all"
            key = len(locations) if every else inner
            influence = ranges.get(key)
            if influence is None:
                influence = ranges[key] = frozenset(locations.values()) if every else \
                    frozenset(locations[loc.strip()] for loc in inner.split(","))
            return (UnicastOut if glyph == "!!" else BroadcastOut)(label, first, influence)
        found = prefixes[s] = (UnicastIn if glyph == "??" else BroadcastIn)(
            label, first, value(inner))
        return found

    try:
        for statement in statements:
            words = statement.split(None, 1)
            if words[0] == "param":
                key, _, num = words[1].partition("=")
                key, num = name(key), number(num)
                if key in params or not num > 0:
                    return None
                params[key] = num
            elif words[0] == "location":
                key, _, point = words[1].partition("=")
                key, point = name(key), point.strip()
                if key in locations or point[:1] != "(" or point[-1:] != ")":
                    return None
                x, y = point[1:-1].split(",")
                locations[key] = Location(key, (number(x), number(y)))
            elif words[0] == "system":
                key, _, parts = words[1].partition("=")
                key = name(key)
                if key in definition.systems:
                    return None
                definition.systems[key] = tuple(
                    SeqComponent(ref, ref.location) for ref in map(constref, parts.split("||")))
            else:
                head, _, body = statement.partition(":=")
                head = constref(head)
                loc = head.location
                # terms end with ")": a "+" after "e" or "E" is an exponent's sign
                tree, held = None, ""
                for term in body.split("+"):
                    if term[-1:] in ("e", "E"):
                        held += term + "+"
                        continue
                    guard, dot, ref = (held + term).rpartition(".")
                    held, ref = "", constref(ref)
                    term = SeqComponent(PrefixGuarded(prefixes.get(guard) or prefix(guard), ref),
                                        loc) if dot else SeqComponent(ref, ref.location)
                    tree = term if tree is None else SeqComponent(Choice(tree, term), loc)
                if held or (head.name, loc.name) in equations:
                    return None
                equations[head.name, loc.name] = tree
    except (LookupError, ValueError, ModelError):
        return None
    return definition


def parse_model(text: str) -> ParseResult:
    """Parse model source into an elaborated definition.

    Returns ``_read``'s definition with no diagnostics, or, for a text it
    declines, no definition and the positioned diagnostics of the token
    pass.
    """
    definition = _read(text)
    if definition is not None:
        return ParseResult(definition, [])
    from ._tokens import diagnose

    return ParseResult(None, diagnose(text))


def validate(definition: ModelDefinition) -> list[Diagnostic]:
    """Cross-equation checks; errors here make the model unusable."""
    out: list[Diagnostic] = []
    defs = definition._validated = definition.definitions()

    def err(message: str) -> None:
        out.append(Diagnostic("error", message))

    def warn(message: str) -> None:
        out.append(Diagnostic("warning", message))

    # Locations must lie further apart than the tolerance of geometric
    # matching, so that matching points back to names stays unambiguous.
    placed = _PointGrid()
    for name, loc in definition.locations.items():
        other = placed.match_or_add(loc)
        if other is None:
            continue
        if other.point == loc.point:
            err(f"locations {other.name!r} and {name!r} share coordinates {loc.point}")
        else:
            err(f"locations {other.name!r} and {name!r} lie within {GEOMETRIC_TOL:g} "
                f"of each other: {other.point} and {loc.point}")

    # An equation's body lives at the equation's own location; in particular
    # an alias may not silently relocate the agent.
    for (name, locname), body in definition.equations.items():
        if body.location.name != locname:
            err(f"{name}({locname}): body is located at {body.location.name}; "
                "location changes need a prefix continuation")

    # Every constant reference must have a defining equation at its target
    # location, both in equation bodies and in system definitions. One walk
    # of each written equation checks them and its choices' locations, and
    # collects its input prefixes counted by (kind, label), its unicast
    # outputs, and whether it holds a bare constant reference. The walk is
    # iterative and visits a choice before its left operand and the left
    # operand before the right, so deep choices cannot overflow.
    equations = definition.equations
    aliasing: set[tuple[str, str] | None] = set()

    def walk(owner: str, roots: list[SeqComponent], key: tuple[str, str] | None = None
             ) -> tuple[dict[tuple[str, str], int], list[UnicastOut]]:
        inputs: dict[tuple[str, str], int] = {}
        unicasts = []
        stack = roots[::-1]
        while stack:
            comp = stack.pop()
            body = comp.body
            node = type(body)
            if node is PrefixGuarded:
                prefix = body.prefix
                glyph = _INPUT_GLYPHS.get(type(prefix))
                if glyph:
                    inputs[glyph, prefix.label] = inputs.get((glyph, prefix.label), 0) + 1
                elif type(prefix) is UnicastOut:
                    unicasts.append(prefix)
                cont = body.continuation
                if (cont.name, cont.location.name) not in equations:
                    err(f"{owner}: continuation {cont.name}({cont.location.name}) "
                        "has no defining equation")
            elif node is Choice:
                loc = comp.location
                left, right = body.left.location, body.right.location
                if (left is not loc and left != loc) or (right is not loc and right != loc):
                    err(f"{owner}: choice operands must stay at {loc.name}")
                stack.append(body.right)
                stack.append(body.left)
            else:
                aliasing.add(key)
                if (body.name, body.location.name) not in equations:
                    err(f"{owner}: reference to undefined {body.name}({body.location.name})")
        return inputs, unicasts

    written = {(name, locname): walk(f"{name}({locname})", [body], (name, locname))
               for (name, locname), body in equations.items()}
    for sysname, component in definition.systems.items():
        walk(f"system {sysname}", list(component))
    if out:  # every finding so far is an error
        return out

    # Constant definitions must be guarded: following aliases and choice
    # operands from any equation must terminate in prefixes. A tree with no
    # bare reference is guarded, and resolves to itself: it is stored as its
    # constant's unfolding unresolved.
    resolved: dict[tuple[str, str], SeqComponent] = {}
    for key, tree in equations.items():
        try:
            resolved[key] = defs._unfolded[key] = tree if key not in aliasing \
                else defs._resolve_equation(key)
        except Exception as exc:  # ModelError carries the offending cycle
            err(f"{key[0]}({key[1]}): {exc}")
    if out:
        return out

    # Each agent may carry at most one input prefix per label within one
    # choice tree; receive probabilities have no meaning for repeated inputs.
    # A tree that resolves to itself has the inputs its walk counted; the
    # resolved tree of an aliasing equation is walked in turn, and holds
    # only leaves that were checked already.
    for key, tree in resolved.items():
        inputs = written[key][0] if tree is equations[key] \
            else walk(f"{key[0]}({key[1]})", [tree])[0]
        for (kind, label), count in inputs.items():
            if count > 1:
                err(f"{key[0]}({key[1]}): {count} {kind}{label} input prefixes "
                    "in one choice; at most one is allowed")

    # A unicast output whose range holds no equation with a matching input
    # label can never fire; certain blocking is worth a warning.
    receiving = {(label, locname) for (_, locname), (inputs, _) in written.items()
                 for glyph, label in inputs if glyph == "??"}
    for (name, locname), (_, unicasts) in written.items():
        for prefix in unicasts:
            for loc in prefix.influence:
                if (prefix.label, loc.name) in receiving:
                    break
            else:
                warn(f"{name}({locname}): unicast !!{prefix.label} has no possible "
                     "receiver anywhere in its influence range")
    return out


def pretty_print(definition: ModelDefinition) -> str:
    """Render a definition back to source; reparsing yields an identical one."""
    all_locations = frozenset(definition.locations.values())
    lines: list[str] = []
    for name, value in definition.params.items():
        lines.append(f"param {name} = {format_number(value)};")
    if definition.params:
        lines.append("")
    for name, loc in definition.locations.items():
        x, y = loc.point
        lines.append(f"location {name} = ({format_number(x)}, {format_number(y)});")
    if definition.locations:
        lines.append("")
    for (name, locname), body in definition.equations.items():
        lines.append(f"{name}({locname}) := {render_seq(body, all_locations)};")
    if definition.equations:
        lines.append("")
    for name, component in definition.systems.items():
        parts = " || ".join(render_seq(part, all_locations) for part in component)
        lines.append(f"system {name} = {parts};")
    return "\n".join(lines).strip() + "\n"
