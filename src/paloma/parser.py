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
value during parsing, and ``all`` expands to the set of declared locations.

Parsing never raises on bad input: every failure is reported as a positioned
Diagnostic and the parser resynchronises at the next ``;``.
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
    Prefix,
    PrefixGuarded,
    SeqComponent,
    Spontaneous,
    UnicastIn,
    UnicastOut,
    _Record,
    _syntactic_leaves,
    format_number,
    render_seq,
)

__all__ = [
    "Diagnostic",
    "ModelDefinition",
    "ParseResult",
    "parse_model",
    "pretty_print",
    "validate",
]


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


# One token per match, after the blanks and comments in front of it; the
# empty match at the end of the text is the end-of-input token. No two
# alternatives start with the same character, so their order only decides
# how soon the common tokens match. A character that starts none of them is
# a token of its own, a stray character, which no rule of the grammar
# accepts: a model that holds one always fails its first parse.
_TOKEN_RE = re.compile(
    r"""
    \s*(?://[^\n]*\s*)*
    ( :=|\|\||!!|\?\?|[!?()+{},;.@=]
    | [A-Za-z_][A-Za-z0-9_]*
    | -?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?
    | \Z
    | .
    )
    """,
    re.VERBOSE | re.DOTALL,
)

# A token's kind follows from its text: an operator, a name (its first
# character in _NAME_START), a number, the empty end of input, or else a
# stray character.
_OPERATORS = frozenset((":=", "||", "!!", "??", *"!?()+{},;.@="))
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_KEYWORDS = {"param", "location", "system", "all"}


def _is_number(token: str) -> bool:
    # \d matches any Unicode decimal digit, as isdecimal does, so "٣" is 3.0
    return token.lstrip("-")[:1].isdecimal()


class _ParseError(Exception):
    def __init__(self, message: str, at: int):
        super().__init__(message)
        self.at = at  # the index of the offending token


def _place(text: str) -> tuple[list[str], list[tuple[int, int]], list[Diagnostic]]:
    """Scan ``text`` again after a failed parse: its tokens without the stray
    characters, the line and column of each, and an error for each stray
    character. Only LF ends a line, and columns count characters."""
    tokens: list[str] = []
    places: list[tuple[int, int]] = []
    diagnostics: list[Diagnostic] = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        token, start = match.group(1), match.start(1)
        # only the skipped blanks in front of a token can hold a newline
        newlines = text.count("\n", match.start(), start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", match.start(), start) + 1
        place = (line, start - line_start + 1)
        if not token or token in _OPERATORS or token[:1] in _NAME_START or _is_number(token):
            tokens.append(token)
            places.append(place)
        else:
            diagnostics.append(Diagnostic("error", f"unexpected character {token!r}", *place))
    return tokens, places, diagnostics


class _Parser:
    """The grammar, over token strings that end in the one empty end-of-input
    token, which the parser never passes. ``places`` holds each token's line
    and column; without them, diagnostics carry no position."""

    def __init__(self, tokens: list[str], places: list[tuple[int, int]] | None = None):
        self.tokens = tokens
        self.places = places
        self.index = 0
        self.current = tokens[0]
        self.diagnostics: list[Diagnostic] = []
        self.definition = ModelDefinition()

    # -- token helpers -------------------------------------------------

    def advance(self) -> int:
        """Consume the current token; its index."""
        index = self.index
        self.index = index + 1
        self.current = self.tokens[index + 1]
        return index

    def expect(self, text: str) -> None:
        """Consume the operator or keyword ``text``. No other kind of token
        can share its text, so the text alone decides, as in ``at``."""
        if self.current != text:
            raise _ParseError(f"expected {text!r}, found {self.found()}", self.index)
        self.index += 1
        self.current = self.tokens[self.index]

    def expect_number(self) -> int:
        if not _is_number(self.current):
            raise _ParseError(f"expected 'number', found {self.found()}", self.index)
        return self.advance()

    def found(self) -> str:
        """The current token as a diagnostic names it."""
        return repr(self.current or "end of input")

    def at(self, text: str) -> bool:
        """Whether the current token is the operator or keyword ``text``."""
        return self.current == text

    def error(self, message: str, at: int) -> None:
        place = () if self.places is None else self.places[at]
        self.diagnostics.append(Diagnostic("error", message, *place))

    def synchronize(self) -> None:
        while self.current:
            if self.tokens[self.advance()] == ";":
                return

    # -- grammar -------------------------------------------------------

    def parse(self) -> None:
        while self.current:
            try:
                self.statement()
            except _ParseError as exc:
                self.error(str(exc), exc.at)
                self.synchronize()

    def statement(self) -> None:
        if self.at("param"):
            self.param_stmt()
        elif self.at("location"):
            self.location_stmt()
        elif self.at("system"):
            self.system_stmt()
        elif self.current[:1] in _NAME_START:
            self.equation_stmt()
        else:
            raise _ParseError(f"expected a statement, found {self.found()}", self.index)

    def param_stmt(self) -> None:
        self.advance()
        at = self.index
        name = self.ident("parameter name")
        self.expect("=")
        number = self.expect_number()
        self.expect(";")
        value = self.number(number)
        if name in self.definition.params:
            self.error(f"duplicate parameter {name!r}", at)
        elif not value > 0:
            self.error(f"parameter {name!r} must be positive", number)
        else:
            self.definition.params[name] = value

    def location_stmt(self) -> None:
        self.advance()
        at = self.index
        name = self.ident("location name")
        self.expect("=")
        self.expect("(")
        x = self.number(self.expect_number())
        self.expect(",")
        y = self.number(self.expect_number())
        self.expect(")")
        self.expect(";")
        if name in self.definition.locations:
            self.error(f"duplicate location {name!r}", at)
        else:
            self.definition.locations[name] = Location(name, (x, y))

    def system_stmt(self) -> None:
        self.advance()
        at = self.index
        name = self.ident("system name")
        self.expect("=")
        parts = [self.constref()]
        while self.at("||"):
            self.advance()
            parts.append(self.constref())
        self.expect(";")
        if name in self.definition.systems:
            self.error(f"duplicate system {name!r}", at)
        else:
            self.definition.systems[name] = tuple(
                SeqComponent(ref, ref.location) for ref in parts)

    def equation_stmt(self) -> None:
        at = self.index
        name = self.ident("constant name")
        self.expect("(")
        loc = self.location_name()
        self.expect(")")
        self.expect(":=")
        body = self.body(loc)
        self.expect(";")
        key = (name, loc.name)
        if key in self.definition.equations:
            self.error(f"duplicate equation for {name}({loc.name})", at)
        else:
            self.definition.equations[key] = body

    def body(self, location: Location) -> SeqComponent:
        term = self.term(location)
        while self.at("+"):
            self.advance()
            term = SeqComponent(Choice(term, self.term(location)), location)
        return term

    def term(self, location: Location) -> SeqComponent:
        if self.current[:1] in _NAME_START:
            ref = self.constref()
            return SeqComponent(ref, ref.location)
        prefix = self.prefix()
        self.expect(".")
        cont = self.constref()
        return SeqComponent(PrefixGuarded(prefix, cont), location)

    def constref(self) -> ConstantRef:
        name = self.ident("constant name")
        self.expect("(")
        loc = self.location_name()
        self.expect(")")
        return ConstantRef(name, loc)

    def prefix(self) -> Prefix:
        glyph = self.current
        if glyph == "!!" or glyph == "!":
            self.advance()
            label, value, at = self.label_value()
            influence = self.range_clause("Ir")
            self.check_positive(value, "rate", at)
            return (UnicastOut if glyph == "!!" else BroadcastOut)(label, value, influence)
        if glyph == "??":
            self.advance()
            label, prob, at = self.label_value()
            self.expect("@")
            self.expect("Wt")
            self.expect("{")
            weight, weight_at = self.value()
            self.expect("}")
            self.check_prob(prob, at)
            self.check_positive(weight, "weight", weight_at)
            return UnicastIn(label, prob, weight)
        if glyph == "?":
            self.advance()
            label, prob, at = self.label_value()
            self.expect("@")
            self.expect("Prob")
            self.expect("{")
            recv, recv_at = self.value()
            self.expect("}")
            self.check_prob(prob, at)
            self.check_prob(recv, recv_at)
            return BroadcastIn(label, prob, recv)
        if glyph == "(":
            label, value, at = self.label_value()
            self.check_positive(value, "rate", at)
            return Spontaneous(label, value)
        raise _ParseError(f"expected a prefix, found {self.found()}", self.index)

    def label_value(self) -> tuple[str, float, int]:
        """The label and value of ``(label, value)``, and the value's index."""
        self.expect("(")
        label = self.ident("action label")
        self.expect(",")
        value, at = self.value()
        self.expect(")")
        return label, value, at

    def range_clause(self, keyword: str) -> frozenset[Location]:
        self.expect("@")
        self.expect(keyword)
        self.expect("{")
        if self.at("all"):
            self.advance()
            self.expect("}")
            locations = frozenset(self.definition.locations.values())
            if not locations:
                raise _ParseError("'all' range used but no locations are declared",
                                  self.index)
            return locations
        names = [self.location_name()]
        while self.at(","):
            self.advance()
            names.append(self.location_name())
        self.expect("}")
        return frozenset(names)

    def value(self) -> tuple[float, int]:
        """A number or a parameter's value, and the token's index."""
        at, text = self.index, self.current
        if _is_number(text):
            self.advance()
            return self.number(at), at
        if text[:1] in _NAME_START:
            self.advance()
            if text in self.definition.params:
                return self.definition.params[text], at
            raise _ParseError(f"undeclared parameter {text!r}", at)
        raise _ParseError(f"expected a number or parameter, found {self.found()}", at)

    def number(self, at: int) -> float:
        value = float(self.tokens[at])
        if not math.isfinite(value):
            raise _ParseError(f"number {self.tokens[at]!r} is not finite", at)
        return value

    def ident(self, what: str) -> str:
        """Consume a name that is not a keyword; its text."""
        token = self.current
        if token[:1] not in _NAME_START or token in _KEYWORDS:
            raise _ParseError(f"expected {what}, found {self.found()}", self.index)
        self.index += 1
        self.current = self.tokens[self.index]
        return token

    def location_name(self) -> Location:
        at = self.index
        name = self.ident("location name")
        loc = self.definition.locations.get(name)
        if loc is None:
            raise _ParseError(f"undeclared location {name!r}", at)
        return loc

    def check_positive(self, value: float, what: str, at: int) -> None:
        if not value > 0:
            raise _ParseError(f"{what} must be positive, got {format_number(value)}", at)

    def check_prob(self, value: float, at: int) -> None:
        if not 0.0 <= value <= 1.0:
            raise _ParseError(f"probability out of range: {format_number(value)}", at)


def parse_model(text: str) -> ParseResult:
    """Parse model source into an elaborated definition.

    Returns the definition together with any diagnostics; the definition is
    ``None`` whenever an error diagnostic was produced. The first parse
    reads bare token strings. Only a model that fails it is scanned again
    for positions and stray characters, and parsed again to place each
    diagnostic.
    """
    parser = _Parser(_TOKEN_RE.findall(text))
    parser.parse()
    if not parser.diagnostics:
        return ParseResult(parser.definition, [])
    tokens, places, diagnostics = _place(text)
    parser = _Parser(tokens, places)
    parser.parse()
    return ParseResult(None, diagnostics + parser.diagnostics)


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
        other = placed.match(loc.point)
        if other is None:
            placed.add(loc)
        elif other.point == loc.point:
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
    # location, both in equation bodies and in system definitions.
    # The walk is iterative and visits a choice before its left operand and
    # the left operand before the right, so deep choices cannot overflow.
    def check_refs(owner: str, comp: SeqComponent) -> None:
        stack = [comp]
        while stack:
            comp = stack.pop()
            body = comp.body
            if isinstance(body, ConstantRef):
                if (body.name, body.location.name) not in definition.equations:
                    err(f"{owner}: reference to undefined {body.name}({body.location.name})")
            elif isinstance(body, Choice):
                if body.left.location != comp.location or body.right.location != comp.location:
                    err(f"{owner}: choice operands must stay at {comp.location.name}")
                stack.append(body.right)
                stack.append(body.left)
            else:
                cont = body.continuation
                if (cont.name, cont.location.name) not in definition.equations:
                    err(f"{owner}: continuation {cont.name}({cont.location.name}) "
                        "has no defining equation")

    for (name, locname), body in definition.equations.items():
        check_refs(f"{name}({locname})", body)
    for sysname, component in definition.systems.items():
        for part in component:
            check_refs(f"system {sysname}", part)

    if any(d.severity == "error" for d in out):
        return out

    # Constant definitions must be guarded: following aliases and choice
    # operands from any equation must terminate in prefixes.
    resolved: dict[tuple[str, str], SeqComponent] = {}
    for name, locname in definition.equations:
        try:
            resolved[(name, locname)] = defs._resolve_equation((name, locname))
        except Exception as exc:  # ModelError carries the offending cycle
            err(f"{name}({locname}): {exc}")
    if any(d.severity == "error" for d in out):
        return out

    # Each agent may carry at most one input prefix per label within one
    # choice tree; receive probabilities have no meaning for repeated inputs.
    for (name, locname), tree in resolved.items():
        seen: dict[tuple[str, str], int] = {}
        for leaf in _syntactic_leaves(tree):
            prefix = leaf.prefix
            if isinstance(prefix, (UnicastIn, BroadcastIn)):
                kind = "??" if isinstance(prefix, UnicastIn) else "?"
                seen[(kind, prefix.label)] = seen.get((kind, prefix.label), 0) + 1
        for (kind, label), count in seen.items():
            if count > 1:
                err(f"{name}({locname}): {count} {kind}{label} input prefixes "
                    "in one choice; at most one is allowed")

    # A unicast output whose range holds no equation with a matching input
    # label can never fire; certain blocking is worth a warning.
    written = {key: _syntactic_leaves(body) for key, body in definition.equations.items()}
    receivers_of: dict[str, set[str]] = {}
    for (_, eq_loc), eq_leaves in written.items():
        for eq_leaf in eq_leaves:
            if isinstance(eq_leaf.prefix, UnicastIn):
                receivers_of.setdefault(eq_leaf.prefix.label, set()).add(eq_loc)
    for (name, locname), leaves in written.items():
        for leaf in leaves:
            prefix = leaf.prefix
            if isinstance(prefix, UnicastOut):
                range_names = {loc.name for loc in prefix.influence}
                if not range_names & receivers_of.get(prefix.label, set()):
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
