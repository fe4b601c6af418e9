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

Each statement is parsed in one pass over a local token index, its
fixed-width windows checked directly. Parsing never raises on bad input:
every failure is reported as a positioned Diagnostic, named as a
token-by-token reading names it, and the parser resynchronises at the next
``;``. ``validate`` walks each written equation once.
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


def _is_name(token: str) -> bool:
    return token[:1] in _NAME_START and token not in _KEYWORDS


def _found(token: str) -> str:
    """A token as a diagnostic names it."""
    return repr(token or "end of input")


# The widest fixed window, an input prefix, spans 11 tokens; as many
# end-of-input sentinels after the end token keep every window in the list.
_PAD = 11

# The name slots of a window. A declared location name must also name a
# location declared before it.
_NAMES = {"parameter name", "location name", "declared location name", "system name",
          "constant name", "action label"}


class _ParseError(Exception):
    def __init__(self, message: str, at: int, resume: int | None = None):
        super().__init__(message)
        self.at = at  # the index of the offending token
        # where resynchronisation starts: the first token not yet read
        self.resume = at if resume is None else resume


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
    """The grammar, over token strings that end in the empty end-of-input
    token, which the parser never passes. ``places`` holds each token's line
    and column; without them, diagnostics carry no position.

    Each rule takes the index of its first token and returns the index after
    its last. A fixed-width window of tokens on a hot path is checked
    directly; only when it fails does ``expect`` read it again token by
    token, to raise the error of the first token the grammar rejects. A
    constant reference or an input or spontaneous prefix is built once per
    parse: ``terms`` holds it by its window, which stands for the same term
    wherever it recurs."""

    def __init__(self, tokens: list[str], places: list[tuple[int, int]] | None = None):
        self.tokens = tokens + [""] * _PAD
        self.places = places
        self.diagnostics: list[Diagnostic] = []
        self.definition = ModelDefinition()
        self.params = self.definition.params
        self.locations = self.definition.locations
        self.terms: dict[tuple[str, ...], ConstantRef | Prefix] = {}

    def error(self, message: str, at: int) -> None:
        place = () if self.places is None else self.places[at]
        self.diagnostics.append(Diagnostic("error", message, *place))

    def expect(self, i: int, slots: tuple[str, ...]) -> None:
        """Read the tokens from ``i`` against ``slots`` in order and raise
        the error of the first token that its slot rejects. A slot is a name
        slot of ``_NAMES``, a "value", a "number", a "finite number", or
        else an operator or keyword."""
        for at, slot in enumerate(slots, i):
            token = self.tokens[at]
            if slot == "value":
                self.value(at)
            elif slot in _NAMES:
                if not _is_name(token):
                    what = slot.removeprefix("declared ")
                    raise _ParseError(f"expected {what}, found {_found(token)}", at)
                if slot == "declared location name" and token not in self.locations:
                    raise _ParseError(f"undeclared location {token!r}", at, at + 1)
            elif slot.endswith("number"):
                if not _is_number(token):
                    raise _ParseError(f"expected 'number', found {_found(token)}", at)
                if slot == "finite number":
                    self.number(at)
            elif token != slot:
                raise _ParseError(f"expected {slot!r}, found {_found(token)}", at)

    # -- grammar -------------------------------------------------------

    def parse(self) -> None:
        tokens = self.tokens
        i = 0
        while tokens[i]:
            try:
                i = self.statement(i)
            except _ParseError as exc:
                self.error(str(exc), exc.at)
                # resynchronise after the next ";", or stop at the end
                try:
                    i = tokens.index(";", exc.resume) + 1
                except ValueError:
                    i = tokens.index("", exc.resume)

    def statement(self, i: int) -> int:
        head = self.tokens[i]
        if head == "param":
            return self.param_stmt(i + 1)
        if head == "location":
            return self.location_stmt(i + 1)
        if head == "system":
            return self.system_stmt(i + 1)
        if head[:1] in _NAME_START:
            return self.equation_stmt(i)
        raise _ParseError(f"expected a statement, found {_found(head)}", i)

    def param_stmt(self, i: int) -> int:
        self.expect(i, ("parameter name", "=", "number", ";"))
        name = self.tokens[i]
        value = self.number(i + 2, i + 3)
        if name in self.params:
            self.error(f"duplicate parameter {name!r}", i)
        elif not value > 0:
            self.error(f"parameter {name!r} must be positive", i + 2)
        else:
            self.params[name] = value
        return i + 4

    def location_stmt(self, i: int) -> int:
        name, eq, lp, x, comma, y, rp, semi = self.tokens[i:i + 8]
        if not (eq == "=" and lp == "(" and comma == "," and rp == ")" and semi == ";"
                and _is_name(name) and _is_number(x) and _is_number(y)):
            self.expect(i, ("location name", "=", "(", "finite number", ",",
                            "finite number", ")", ";"))
        point = (self.number(i + 3), self.number(i + 5))
        if name in self.locations:
            self.error(f"duplicate location {name!r}", i)
        else:
            self.locations[name] = Location(name, point)
        return i + 8

    def system_stmt(self, i: int) -> int:
        self.expect(i, ("system name", "="))
        tokens, name = self.tokens, self.tokens[i]
        ref, end = self.constref(i + 2)
        parts = [ref]
        while tokens[end] == "||":
            ref, end = self.constref(end + 1)
            parts.append(ref)
        if tokens[end] != ";":
            self.expect(end, (";",))
        if name in self.definition.systems:
            self.error(f"duplicate system {name!r}", i)
        else:
            self.definition.systems[name] = tuple(
                SeqComponent(ref, ref.location) for ref in parts)
        return end + 1

    def equation_stmt(self, i: int) -> int:
        """An equation; its body is its terms joined by "+", each a constant
        reference or a prefix "." a constant reference."""
        tokens = self.tokens
        head, end = self.constref(i)
        if tokens[end] != ":=":
            self.expect(end, (":=",))
        loc = head.location
        body = None
        while True:
            end += 1
            if tokens[end][:1] in _NAME_START:
                ref, end = self.constref(end)
                term = SeqComponent(ref, ref.location)
            else:
                prefix, end = self.prefix(end)
                if tokens[end] != ".":
                    self.expect(end, (".",))
                ref, end = self.constref(end + 1)
                term = SeqComponent(PrefixGuarded(prefix, ref), loc)
            body = term if body is None else SeqComponent(Choice(body, term), loc)
            if tokens[end] != "+":
                break
        if tokens[end] != ";":
            self.expect(end, (";",))
        key = (head.name, loc.name)
        if key in self.definition.equations:
            self.error(f"duplicate equation for {head.name}({loc.name})", i)
        else:
            self.definition.equations[key] = body
        return end + 1

    def constref(self, i: int) -> tuple[ConstantRef, int]:
        window = tuple(self.tokens[i:i + 4])
        ref = self.terms.get(window)
        if ref is None:
            name, lp, loc, rp = window
            loc = self.locations.get(loc)
            if not (lp == "(" and rp == ")" and loc is not None and _is_name(name)):
                self.expect(i, ("constant name", "(", "declared location name", ")"))
            ref = self.terms[window] = ConstantRef(name, loc)
        return ref, i + 4

    def prefix(self, i: int) -> tuple[Prefix, int]:
        """A prefix: its glyph, unless spontaneous, then ``(label, value)``
        and the clause of its kind. Each value is read where it stands and
        checked for range after the whole prefix. An input or spontaneous
        prefix spans a fixed window and is kept in ``terms``; an output is
        not, as its range varies in width and ``all`` grows with the
        locations declared."""
        tokens = self.tokens
        glyph = tokens[i]
        end = i + 5 if glyph == "(" else i + 11
        window = tuple(tokens[i:end])
        found = self.terms.get(window)
        if found is not None:
            return found, end
        j = i if glyph == "(" else i + 1
        lp, label, comma, _, rp = tokens[j:j + 5]
        if glyph not in ("(", "!!", "!", "??", "?"):
            raise _ParseError(f"expected a prefix, found {_found(glyph)}", i)
        if not (lp == "(" and comma == "," and rp == ")" and _is_name(label)):
            self.expect(j, ("(", "action label", ",", "value", ")"))
        first = self.value(j + 3)
        if glyph == "!!" or glyph == "!":
            influence, end = self.range_clause(j + 5)
            self.check_positive(first, "rate", j + 3, end)
            return (UnicastOut if glyph == "!!" else BroadcastOut)(label, first, influence), end
        if glyph == "(":
            self.check_positive(first, "rate", j + 3, end)
            found = self.terms[window] = Spontaneous(label, first)
            return found, end
        keyword = "Wt" if glyph == "??" else "Prob"
        at, kw, lb, _, rb = window[6:]
        if not (at == "@" and kw == keyword and lb == "{" and rb == "}"):
            self.expect(j + 5, ("@", keyword, "{", "value", "}"))
        second = self.value(j + 8)
        self.check_prob(first, j + 3, end)
        if glyph == "??":
            self.check_positive(second, "weight", j + 8, end)
            found = self.terms[window] = UnicastIn(label, first, second)
        else:
            self.check_prob(second, j + 8, end)
            found = self.terms[window] = BroadcastIn(label, first, second)
        return found, end

    def range_clause(self, i: int) -> tuple[frozenset[Location], int]:
        tokens = self.tokens
        if not (tokens[i] == "@" and tokens[i + 1] == "Ir" and tokens[i + 2] == "{"):
            self.expect(i, ("@", "Ir", "{"))
        i += 3
        if tokens[i] == "all":
            if tokens[i + 1] != "}":
                self.expect(i + 1, ("}",))
            # never empty: the equation's head named a declared location
            return frozenset(self.locations.values()), i + 2
        names = []
        while True:
            loc = self.locations.get(tokens[i])
            if loc is None:
                self.expect(i, ("declared location name",))
            names.append(loc)
            if tokens[i + 1] != ",":
                break
            i += 2
        if tokens[i + 1] != "}":
            self.expect(i + 1, ("}",))
        return frozenset(names), i + 2

    def value(self, at: int) -> float:
        """A number or a parameter's value."""
        token = self.tokens[at]
        if _is_number(token):
            return self.number(at)
        if token[:1] in _NAME_START:
            if token in self.params:
                return self.params[token]
            raise _ParseError(f"undeclared parameter {token!r}", at, at + 1)
        raise _ParseError(f"expected a number or parameter, found {_found(token)}", at)

    def number(self, at: int, resume: int | None = None) -> float:
        value = float(self.tokens[at])
        if not math.isfinite(value):
            raise _ParseError(f"number {self.tokens[at]!r} is not finite", at,
                              at + 1 if resume is None else resume)
        return value

    def check_positive(self, value: float, what: str, at: int, resume: int) -> None:
        if not value > 0:
            raise _ParseError(f"{what} must be positive, got {format_number(value)}", at, resume)

    def check_prob(self, value: float, at: int, resume: int) -> None:
        if not 0.0 <= value <= 1.0:
            raise _ParseError(f"probability out of range: {format_number(value)}", at, resume)


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
    # location, both in equation bodies and in system definitions. One walk
    # of each written equation checks them and its choices' locations, and
    # collects its leaves and whether it holds a bare constant reference.
    # The walk is iterative and visits a choice before its left operand and
    # the left operand before the right, so deep choices cannot overflow.
    equations = definition.equations
    aliasing: set[tuple[str, str] | None] = set()

    def walk(owner: str, roots: list[SeqComponent],
             key: tuple[str, str] | None = None) -> list[PrefixGuarded]:
        leaves = []
        stack = roots[::-1]
        while stack:
            comp = stack.pop()
            body = comp.body
            if isinstance(body, PrefixGuarded):
                leaves.append(body)
                cont = body.continuation
                if (cont.name, cont.location.name) not in equations:
                    err(f"{owner}: continuation {cont.name}({cont.location.name}) "
                        "has no defining equation")
            elif isinstance(body, Choice):
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
        return leaves

    written = {(name, locname): walk(f"{name}({locname})", [body], (name, locname))
               for (name, locname), body in equations.items()}
    for sysname, component in definition.systems.items():
        walk(f"system {sysname}", list(component))

    if any(d.severity == "error" for d in out):
        return out

    # Constant definitions must be guarded: following aliases and choice
    # operands from any equation must terminate in prefixes. A tree with no
    # bare reference is guarded, and resolves to itself: it is stored as its
    # constant's unfolding unresolved.
    resolved: dict[tuple[str, str], SeqComponent] = {}
    for name, locname in equations:
        if (name, locname) not in aliasing:
            resolved[name, locname] = defs._unfolded[name, locname] = equations[name, locname]
            continue
        try:
            resolved[(name, locname)] = defs._resolve_equation((name, locname))
        except Exception as exc:  # ModelError carries the offending cycle
            err(f"{name}({locname}): {exc}")
    if any(d.severity == "error" for d in out):
        return out

    # Each agent may carry at most one input prefix per label within one
    # choice tree; receive probabilities have no meaning for repeated inputs.
    # A tree that resolves to itself has the leaves written in it.
    for (name, locname), tree in resolved.items():
        key = (name, locname)
        seen: dict[tuple[str, str], int] = {}
        for leaf in written[key] if tree is equations[key] else _syntactic_leaves(tree):
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
