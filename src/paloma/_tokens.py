"""The token-level pass, which places every diagnostic.

``parser.parse_model`` loads this module only for a text that its reader,
``parser._read``, declines; that reader alone decides whether a text is a
model and builds its definition. ``diagnose`` scans the text into tokens
with their line and column and checks them against the grammar token by
token: each failure is reported as a positioned Diagnostic, and the pass
resynchronises at the next ``;``.
"""

from __future__ import annotations

import math
import re

from .model import format_number
from .parser import _KEYWORDS, _NUMBER, Diagnostic

# One token per match, after the blanks and comments in front of it; the
# empty match at the end of the text is the end-of-input token. No two
# alternatives start with the same character, so their order only decides
# how soon the common tokens match. A character that starts none of them is
# a token of its own, a stray character, which no rule of the grammar
# accepts: a model that holds one always fails.
_TOKEN_RE = re.compile(
    r"""
    \s*(?://[^\n]*\s*)*
    ( :=|\|\||!!|\?\?|[!?()+{},;.@=]
    | [A-Za-z_][A-Za-z0-9_]*
    | """ + _NUMBER + r"""
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


def _is_number(token: str) -> bool:
    # \d matches any Unicode decimal digit, as isdecimal does, so "٣" is 3.0
    return token.lstrip("-")[:1].isdecimal()


def _is_name(token: str) -> bool:
    return token[:1] in _NAME_START and token not in _KEYWORDS


def _found(token: str) -> str:
    """A token as a diagnostic names it."""
    return repr(token or "end of input")


# The name slots of ``expect``. A declared location name must also name a
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
    """The tokens of ``text`` without the stray characters, the line and
    column of each, and an error for each stray character. Only LF ends a
    line, and columns count characters."""
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


def diagnose(text: str) -> list[Diagnostic]:
    """Every diagnostic of ``text``, in order: an error for each stray
    character, then those of the grammar's rules."""
    tokens, places, diagnostics = _place(text)
    parser = _Parser(tokens, places)
    parser.parse()
    return diagnostics + parser.diagnostics


class _Parser:
    """The grammar, over token strings that end in the empty end-of-input
    token, which no rule reads past. ``places`` holds each token's line and
    column.

    Each rule takes the index of its first token and returns the index after
    its last, and reads its tokens through ``expect``, which raises the
    error of the first token the grammar rejects. The rules keep only what
    the diagnostics read: each parameter's value, and the names of the
    locations, systems and equations declared so far."""

    def __init__(self, tokens: list[str], places: list[tuple[int, int]]):
        self.tokens, self.places = tokens, places
        self.diagnostics: list[Diagnostic] = []
        self.params: dict[str, float] = {}
        self.locations: set[str] = set()
        self.systems: set[str] = set()
        self.equations: set[tuple[str, str]] = set()

    def error(self, message: str, at: int) -> None:
        self.diagnostics.append(Diagnostic("error", message, *self.places[at]))

    def declare(self, names: set, name: str | tuple[str, str], message: str, at: int) -> None:
        """Add ``name`` to ``names``, or report it as a duplicate."""
        if name in names:
            self.error(message, at)
        names.add(name)

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
        self.expect(i, ("location name", "=", "(", "finite number", ",",
                        "finite number", ")", ";"))
        name = self.tokens[i]
        self.declare(self.locations, name, f"duplicate location {name!r}", i)
        return i + 8

    def system_stmt(self, i: int) -> int:
        self.expect(i, ("system name", "="))
        end = self.constref(i + 2)
        while self.tokens[end] == "||":
            end = self.constref(end + 1)
        self.expect(end, (";",))
        name = self.tokens[i]
        self.declare(self.systems, name, f"duplicate system {name!r}", i)
        return end + 1

    def equation_stmt(self, i: int) -> int:
        """An equation; its body is its terms joined by "+", each a constant
        reference or a prefix "." a constant reference."""
        tokens = self.tokens
        end = self.constref(i)
        self.expect(end, (":=",))
        while True:
            end += 1
            if tokens[end][:1] not in _NAME_START:
                end = self.prefix(end)
                self.expect(end, (".",))
                end += 1
            end = self.constref(end)
            if tokens[end] != "+":
                break
        self.expect(end, (";",))
        name, loc = tokens[i], tokens[i + 2]
        self.declare(self.equations, (name, loc), f"duplicate equation for {name}({loc})", i)
        return end + 1

    def constref(self, i: int) -> int:
        self.expect(i, ("constant name", "(", "declared location name", ")"))
        return i + 4

    def prefix(self, i: int) -> int:
        """A prefix: its glyph, unless spontaneous, then ``(label, value)``
        and the clause of its kind. Each value is read where it stands and
        checked for range after the whole prefix."""
        glyph = self.tokens[i]
        if glyph not in ("(", "!!", "!", "??", "?"):
            raise _ParseError(f"expected a prefix, found {_found(glyph)}", i)
        j = i if glyph == "(" else i + 1
        self.expect(j, ("(", "action label", ",", "value", ")"))
        first = self.value(j + 3)
        if glyph in ("(", "!!", "!"):
            end = j + 5 if glyph == "(" else self.range_clause(j + 5)
            self.check_positive(first, "rate", j + 3, end)
            return end
        self.expect(j + 5, ("@", "Wt" if glyph == "??" else "Prob", "{", "value", "}"))
        second, end = self.value(j + 8), j + 10
        self.check_prob(first, j + 3, end)
        if glyph == "??":
            self.check_positive(second, "weight", j + 8, end)
        else:
            self.check_prob(second, j + 8, end)
        return end

    def range_clause(self, i: int) -> int:
        self.expect(i, ("@", "Ir", "{"))
        i += 3
        if self.tokens[i] != "all":
            self.expect(i, ("declared location name",))
            while self.tokens[i + 1] == ",":
                i += 2
                self.expect(i, ("declared location name",))
        self.expect(i + 1, ("}",))
        return i + 2

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
