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
    __slots__ = ("severity", "message", "line", "column")  # severity: "error" | "warning"

    def __init__(self, severity: str, message: str, line: int, column: int):
        self.severity, self.message, self.line, self.column = severity, message, line, column

    def __str__(self) -> str:
        return f"{self.severity}: {self.line}:{self.column}: {self.message}"


class ModelDefinition(_Record):
    """A parsed and elaborated model file."""

    __slots__ = ("params", "locations", "equations", "systems")
    __hash__ = None  # mutable, like the dicts it holds

    def __init__(self, params: dict[str, float] | None = None,
                 locations: dict[str, Location] | None = None,
                 equations: dict[tuple[str, str], SeqComponent] | None = None,
                 systems: dict[str, ModelComponent] | None = None):
        self.params = {} if params is None else params
        self.locations = {} if locations is None else locations
        self.equations = {} if equations is None else equations
        self.systems = {} if systems is None else systems

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


# No two alternatives can start with the same character, so their order only
# decides how soon the common tokens match. Blanks without a newline get a
# group of their own, so that only ``newline`` matches move the line count.
_TOKEN_RE = re.compile(
    r"""
    (?P<blank>[^\S\n]+)
  | (?P<op>:=|\|\||!!|\?\?|[!?()+{},;.@=])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<newline>\s+)
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<comment>//[^\n]*)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = {"param", "location", "system", "all"}


# A token is a plain tuple (kind, text, line, column), kind being "number",
# "ident", "op" or "eof"; the grammar reads token[0] and token[1]. A
# NamedTuple per token would cost about as much again as the regex scan.
_Token = tuple[str, str, int, int]


class _ParseError(Exception):
    def __init__(self, message: str, token: _Token):
        super().__init__(message)
        _, _, line, column = token
        self.diagnostic = Diagnostic("error", message, line, column)


def _tokenize(text: str) -> tuple[list[_Token], list[Diagnostic]]:
    """One pass over ``text``. Every character falls in some match, the
    catch-all ``bad`` group included, so positions follow from match
    offsets."""
    tokens: list[_Token] = []
    diagnostics: list[Diagnostic] = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "blank" or kind == "comment":
            continue
        if kind == "newline":
            lexeme = match.group()
            line += lexeme.count("\n")
            line_start = match.start() + lexeme.rfind("\n") + 1
        elif kind == "bad":
            diagnostics.append(Diagnostic("error", f"unexpected character {match.group()!r}",
                                          line, match.start() - line_start + 1))
        else:
            tokens.append((kind, match.group(), line, match.start() - line_start + 1))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens, diagnostics


class _Parser:
    def __init__(self, tokens: list[_Token]):
        # the stream ends in one "eof" token, which the parser never passes
        self.rest = iter(tokens)
        self.current: _Token = next(self.rest)
        self.diagnostics: list[Diagnostic] = []
        self.definition = ModelDefinition()

    # -- token helpers -------------------------------------------------

    def advance(self) -> _Token:
        token = self.current
        self.current = next(self.rest, token)
        return token

    def expect(self, text: str) -> _Token:
        """Consume the operator ``text``. No other kind of token can share
        an operator's text, so the text alone decides, as in ``at``."""
        token = self.current
        if token[1] != text:
            raise _ParseError(f"expected {text!r}, found {token[1] or 'end of input'!r}",
                              token)
        self.current = next(self.rest, token)
        return token

    def expect_number(self) -> _Token:
        token = self.current
        if token[0] != "number":
            raise _ParseError(f"expected 'number', found {token[1] or 'end of input'!r}",
                              token)
        return self.advance()

    def at(self, text: str) -> bool:
        """Whether the current token is the operator or keyword ``text``."""
        return self.current[1] == text

    def error(self, message: str, token: _Token | None = None) -> None:
        _, _, line, column = token or self.current
        self.diagnostics.append(Diagnostic("error", message, line, column))

    def synchronize(self) -> None:
        while self.current[0] != "eof":
            if self.advance()[1] == ";":
                return

    # -- grammar -------------------------------------------------------

    def parse(self) -> None:
        while self.current[0] != "eof":
            try:
                self.statement()
            except _ParseError as exc:
                self.diagnostics.append(exc.diagnostic)
                self.synchronize()

    def statement(self) -> None:
        if self.at("param"):
            self.param_stmt()
        elif self.at("location"):
            self.location_stmt()
        elif self.at("system"):
            self.system_stmt()
        elif self.current[0] == "ident":
            self.equation_stmt()
        else:
            token = self.current
            raise _ParseError(f"expected a statement, found {token[1]!r}", token)

    def param_stmt(self) -> None:
        self.advance()
        name = self.ident("parameter name")
        self.expect("=")
        token = self.expect_number()
        self.expect(";")
        value = self.number(token)
        if name[1] in self.definition.params:
            self.error(f"duplicate parameter {name[1]!r}", name)
        elif not value > 0:
            self.error(f"parameter {name[1]!r} must be positive", token)
        else:
            self.definition.params[name[1]] = value

    def location_stmt(self) -> None:
        self.advance()
        name = self.ident("location name")
        self.expect("=")
        self.expect("(")
        x = self.number(self.expect_number())
        self.expect(",")
        y = self.number(self.expect_number())
        self.expect(")")
        self.expect(";")
        if name[1] in self.definition.locations:
            self.error(f"duplicate location {name[1]!r}", name)
        else:
            self.definition.locations[name[1]] = Location(name[1], (x, y))

    def system_stmt(self) -> None:
        self.advance()
        name = self.ident("system name")
        self.expect("=")
        parts = [self.constref()]
        while self.at("||"):
            self.advance()
            parts.append(self.constref())
        self.expect(";")
        if name[1] in self.definition.systems:
            self.error(f"duplicate system {name[1]!r}", name)
        else:
            self.definition.systems[name[1]] = tuple(
                SeqComponent(ref, ref.location) for ref in parts)

    def equation_stmt(self) -> None:
        name = self.ident("constant name")
        self.expect("(")
        loc = self.location_name()
        self.expect(")")
        self.expect(":=")
        body = self.body(loc)
        self.expect(";")
        key = (name[1], loc.name)
        if key in self.definition.equations:
            self.error(f"duplicate equation for {name[1]}({loc.name})", name)
        else:
            self.definition.equations[key] = body

    def body(self, location: Location) -> SeqComponent:
        term = self.term(location)
        while self.at("+"):
            self.advance()
            term = SeqComponent(Choice(term, self.term(location)), location)
        return term

    def term(self, location: Location) -> SeqComponent:
        if self.current[0] == "ident":
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
        return ConstantRef(name[1], loc)

    def prefix(self) -> Prefix:
        glyph = self.current[1]
        if glyph == "!!":
            self.advance()
            label, value, vtok = self.label_value()
            influence = self.range_clause("Ir")
            self.check_rate(value, vtok)
            return UnicastOut(label, value, influence)
        if glyph == "??":
            self.advance()
            label, prob, ptok = self.label_value()
            self.expect("@")
            self.keyword_ident("Wt")
            self.expect("{")
            weight, wtok = self.value()
            self.expect("}")
            self.check_prob(prob, ptok)
            self.check_positive(weight, "weight", wtok)
            return UnicastIn(label, prob, weight)
        if glyph == "!":
            self.advance()
            label, value, vtok = self.label_value()
            influence = self.range_clause("Ir")
            self.check_rate(value, vtok)
            return BroadcastOut(label, value, influence)
        if glyph == "?":
            self.advance()
            label, prob, ptok = self.label_value()
            self.expect("@")
            self.keyword_ident("Prob")
            self.expect("{")
            recv, rtok = self.value()
            self.expect("}")
            self.check_prob(prob, ptok)
            self.check_prob(recv, rtok)
            return BroadcastIn(label, prob, recv)
        if glyph == "(":
            label, value, vtok = self.label_value()
            self.check_rate(value, vtok)
            return Spontaneous(label, value)
        raise _ParseError(f"expected a prefix, found {glyph!r}", self.current)

    def label_value(self) -> tuple[str, float, _Token]:
        self.expect("(")
        label = self.ident("action label")
        self.expect(",")
        value, token = self.value()
        self.expect(")")
        return label[1], value, token

    def range_clause(self, keyword: str) -> frozenset[Location]:
        self.expect("@")
        self.keyword_ident(keyword)
        self.expect("{")
        if self.at("all"):
            self.advance()
            self.expect("}")
            locations = frozenset(self.definition.locations.values())
            if not locations:
                raise _ParseError("'all' range used but no locations are declared",
                                  self.current)
            return locations
        names = [self.location_name()]
        while self.at(","):
            self.advance()
            names.append(self.location_name())
        self.expect("}")
        return frozenset(names)

    def value(self) -> tuple[float, _Token]:
        token = self.current
        kind, text = token[0], token[1]
        if kind == "number":
            self.advance()
            return self.number(token), token
        if kind == "ident":
            self.advance()
            if text in self.definition.params:
                return self.definition.params[text], token
            raise _ParseError(f"undeclared parameter {text!r}", token)
        raise _ParseError(f"expected a number or parameter, found {text!r}", token)

    def number(self, token: _Token) -> float:
        value = float(token[1])
        if not math.isfinite(value):
            raise _ParseError(f"number {token[1]!r} is not finite", token)
        return value

    def ident(self, what: str) -> _Token:
        token = self.current
        if token[0] != "ident" or token[1] in _KEYWORDS:
            raise _ParseError(f"expected {what}, found {token[1] or 'end of input'!r}",
                              token)
        self.current = next(self.rest, token)
        return token

    def keyword_ident(self, expected: str) -> None:
        token = self.current
        if token[0] != "ident" or token[1] != expected:
            raise _ParseError(f"expected {expected!r}, found {token[1]!r}", token)
        self.current = next(self.rest, token)

    def location_name(self) -> Location:
        token = self.ident("location name")
        loc = self.definition.locations.get(token[1])
        if loc is None:
            raise _ParseError(f"undeclared location {token[1]!r}", token)
        return loc

    def check_rate(self, value: float, token: _Token) -> None:
        if not value > 0:
            raise _ParseError(f"rate must be positive, got {format_number(value)}", token)

    def check_positive(self, value: float, what: str, token: _Token) -> None:
        if not value > 0:
            raise _ParseError(f"{what} must be positive, got {format_number(value)}", token)

    def check_prob(self, value: float, token: _Token) -> None:
        if not 0.0 <= value <= 1.0:
            raise _ParseError(f"probability out of range: {format_number(value)}", token)


def parse_model(text: str) -> ParseResult:
    """Parse model source into an elaborated definition.

    Returns the definition together with any diagnostics; the definition is
    ``None`` whenever an error diagnostic was produced.
    """
    tokens, diagnostics = _tokenize(text)
    parser = _Parser(tokens)
    parser.parse()
    diagnostics.extend(parser.diagnostics)
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(parser.definition, diagnostics)


def validate(definition: ModelDefinition) -> list[Diagnostic]:
    """Cross-equation checks; errors here make the model unusable."""
    out: list[Diagnostic] = []
    defs = definition.definitions()

    def err(message: str) -> None:
        out.append(Diagnostic("error", message, 0, 0))

    def warn(message: str) -> None:
        out.append(Diagnostic("warning", message, 0, 0))

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
    for (name, locname), body in definition.equations.items():
        try:
            resolved[(name, locname)] = defs.resolve(body)
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
