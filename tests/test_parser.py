from __future__ import annotations

import random

import pytest

from paloma.model import BroadcastIn, PrefixGuarded, Spontaneous, UnicastIn, UnicastOut
from paloma.parser import parse_model, pretty_print, validate
from conftest import SCENARIO_SOURCE
from oracle import random_model


def errors(diagnostics):
    return [d for d in diagnostics if d.severity == "error"]


def warnings(diagnostics):
    return [d for d in diagnostics if d.severity == "warning"]


def test_parse_scenario_elaborates_prefixes():
    result = parse_model(SCENARIO_SOURCE)
    assert result.ok
    defn = result.definition
    body = defn.equations[("Transmitter", "l0")].body
    assert isinstance(body, PrefixGuarded)
    prefix = body.prefix
    assert isinstance(prefix, UnicastOut)
    assert prefix.label == "message_move"
    assert prefix.rate == 2.0
    assert prefix.influence == frozenset(defn.locations.values())
    assert body.continuation.name == "Transmitter"
    assert body.continuation.location.name == "l1"


def test_parse_unicast_input_prefix():
    source = """
    location l0 = (0.0, 0.0);
    location l1 = (1.0, 0.0);
    R(l1) := ??(msg, 0.9)@Wt{2.0}.R(l0);
    R(l0) := ??(msg, 0.9)@Wt{2.0}.R(l1);
    system S = R(l1);
    """
    result = parse_model(source)
    assert result.ok
    prefix = result.definition.equations[("R", "l1")].body.prefix
    assert isinstance(prefix, UnicastIn)
    assert prefix.act_prob == 0.9
    assert prefix.weight == 2.0


def test_parse_spontaneous_prefix():
    source = """
    location l0 = (0.0, 0.0);
    S(l0) := (tick, 1.0).S(l0);
    system Main = S(l0);
    """
    result = parse_model(source)
    assert result.ok
    prefix = result.definition.equations[("S", "l0")].body.prefix
    assert isinstance(prefix, Spontaneous)
    assert prefix.rate == 1.0


def test_parse_broadcast_input_prefix():
    source = """
    location l0 = (0.0, 0.0);
    B(l0) := ?(m, 0.5)@Prob{0.4}.B(l0);
    system Main = B(l0);
    """
    result = parse_model(source)
    assert result.ok
    prefix = result.definition.equations[("B", "l0")].body.prefix
    assert isinstance(prefix, BroadcastIn)
    assert prefix.act_prob == 0.5
    assert prefix.recv_prob == 0.4


def test_probability_out_of_range_is_an_error():
    source = """
    location l0 = (0.0, 0.0);
    R(l0) := ??(msg, 1.5)@Wt{1.0}.R(l0);
    system Main = R(l0);
    """
    result = parse_model(source)
    assert not result.ok
    assert any("probability out of range" in d.message for d in errors(result.diagnostics))


def test_non_positive_rate_is_an_error():
    source = """
    param r = 1.0;
    location l0 = (0.0, 0.0);
    T(l0) := !!(m, 0.0)@Ir{l0}.T(l0);
    system Main = T(l0);
    """
    result = parse_model(source)
    assert not result.ok
    assert any("rate must be positive" in d.message for d in errors(result.diagnostics))


def test_undeclared_parameter_is_an_error_with_position():
    source = "location l0 = (0.0, 0.0);\nT(l0) := !!(m, missing)@Ir{l0}.T(l0);\nsystem Main = T(l0);\n"
    result = parse_model(source)
    assert not result.ok
    (diag,) = [d for d in errors(result.diagnostics) if "missing" in d.message]
    assert diag.line == 2
    assert diag.column > 1


def test_missing_semicolon_reports_position_and_recovers():
    source = """
    param r = 1.0
    param s = 2.0;
    """
    result = parse_model(source)
    assert not result.ok
    assert errors(result.diagnostics)
    # recovery still parses the next statement
    assert all(d.line >= 2 for d in errors(result.diagnostics))


def test_parsing_is_total_on_junk():
    rng = random.Random(5)
    alphabet = "ab(){};.!?|,=:+ \n0123457//"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        result = parse_model(text)
        assert result.ok or errors(result.diagnostics)


def test_validate_reports_dangling_continuation():
    source = """
    location l0 = (0.0, 0.0);
    location l9 = (1.0, 1.0);
    T(l0) := (tick, 1.0).T(l9);
    system Main = T(l0);
    """
    result = parse_model(source)
    assert result.ok
    diags = validate(result.definition)
    assert any("T(l9)" in d.message for d in errors(diags))


def test_validate_rejects_duplicate_coordinates():
    source = """
    location a = (1.0, 2.0);
    location b = (1.0, 2.0);
    T(a) := (tick, 1.0).T(a);
    system Main = T(a);
    """
    result = parse_model(source)
    assert result.ok
    diags = validate(result.definition)
    assert any("share coordinates" in d.message for d in errors(diags))


def test_validate_rejects_locations_within_geometric_tolerance():
    # points this close match each other's names in bisimulation reports
    source = """
    location a = (0.0, 0.0);
    location b = (1e-7, 0.0);
    T(a) := (tick, 1.0).T(a);
    system Main = T(a);
    """
    result = parse_model(source)
    assert result.ok
    messages = [d.message for d in errors(validate(result.definition))]
    assert any("'a' and 'b'" in m and "within 1e-06" in m for m in messages)


def test_validate_warns_on_certainly_blocked_unicast():
    source = """
    location l1 = (0.0, 0.0);
    location l2 = (3.0, 0.0);
    T(l1) := !!(m, 1.0)@Ir{l2}.T(l1);
    R(l1) := ??(m, 0.5)@Wt{1.0}.R(l1);
    system Main = T(l1) || R(l1);
    """
    result = parse_model(source)
    assert result.ok
    diags = validate(result.definition)
    assert not errors(diags)
    assert any("no possible receiver" in d.message for d in warnings(diags))


def test_validate_rejects_repeated_input_prefix_on_one_label():
    source = """
    location l0 = (0.0, 0.0);
    R(l0) := ??(m, 0.5)@Wt{1.0}.R(l0) + ??(m, 0.25)@Wt{2.0}.R(l0);
    T(l0) := !!(m, 1.0)@Ir{l0}.T(l0);
    system Main = T(l0) || R(l0);
    """
    result = parse_model(source)
    assert result.ok
    diags = validate(result.definition)
    assert any("at most one" in d.message for d in errors(diags))


def test_validate_rejects_unguarded_recursion():
    source = """
    location l0 = (0.0, 0.0);
    X(l0) := Y(l0);
    Y(l0) := X(l0);
    system Main = X(l0);
    """
    result = parse_model(source)
    assert result.ok
    diags = validate(result.definition)
    assert any("unguarded" in d.message for d in errors(diags))


def test_non_finite_numbers_are_rejected():
    source = """
    param huge = 1e999;
    location l0 = (0.0, 0.0);
    T(l0) := (tick, 1.0).T(l0);
    system Main = T(l0);
    """
    result = parse_model(source)
    assert not result.ok
    assert any("not finite" in d.message for d in errors(result.diagnostics))
    coords = parse_model("location l0 = (1e999, 0.0);\n")
    assert not coords.ok


def test_alias_may_not_relocate_the_agent():
    source = """
    location l0 = (0.0, 0.0);
    location l1 = (1.0, 0.0);
    A(l0) := B(l1);
    B(l1) := (tick, 1.0).B(l1);
    system Main = A(l0);
    """
    result = parse_model(source)
    assert result.ok
    diags = validate(result.definition)
    assert any("location changes need a prefix continuation" in d.message
               for d in errors(diags))


def test_choice_operands_may_not_relocate_the_agent():
    source = """
    location l0 = (0.0, 0.0);
    location l1 = (1.0, 0.0);
    A(l0) := (a, 1.0).A(l0) + B(l1);
    B(l1) := (b, 1.0).B(l1);
    """
    result = parse_model(source)
    assert result.ok
    assert [d.message for d in errors(validate(result.definition))] == [
        "A(l0): choice operands must stay at l0"]


def test_same_location_alias_is_fine():
    source = """
    location l0 = (0.0, 0.0);
    A(l0) := B(l0);
    B(l0) := (tick, 1.0).B(l0);
    system Main = A(l0);
    """
    result = parse_model(source)
    assert result.ok
    assert not errors(validate(result.definition))


def test_duplicate_equation_is_an_error():
    source = """
    location l0 = (0.0, 0.0);
    T(l0) := (tick, 1.0).T(l0);
    T(l0) := (tock, 1.0).T(l0);
    system Main = T(l0);
    """
    result = parse_model(source)
    assert not result.ok
    assert any("duplicate equation" in d.message for d in errors(result.diagnostics))


def pretty_roundtrip(defn):
    text = pretty_print(defn)
    reparsed = parse_model(text)
    assert reparsed.ok, [str(d) for d in reparsed.diagnostics]
    return reparsed.definition


def test_roundtrip_scenario_is_structurally_identical():
    defn = parse_model(SCENARIO_SOURCE).definition
    again = pretty_roundtrip(defn)
    assert again == defn
    for name, loc in defn.locations.items():
        assert again.locations[name].point == loc.point


def test_validating_a_definition_leaves_it_equal():
    # validate keeps the Definitions it filled on the definition, outside
    # its fields: equality and repr do not see it
    defn = parse_model(SCENARIO_SOURCE).definition
    before = repr(defn)
    assert validate(defn) == []
    assert defn._validated is not None
    assert defn == parse_model(SCENARIO_SOURCE).definition
    assert repr(defn) == before


def test_roundtrip_preserves_choice_association():
    source = """
    location l0 = (0.0, 0.0);
    A(l0) := (a, 1.0).A(l0) + (b, 2.0).A(l0) + (c, 3.0).A(l0);
    system Main = A(l0);
    """
    defn = parse_model(source).definition
    again = pretty_roundtrip(defn)
    assert again.equations[("A", "l0")] == defn.equations[("A", "l0")]


def test_roundtrip_preserves_parallel_order():
    source = """
    location l0 = (0.0, 0.0);
    A(l0) := (a, 1.0).A(l0);
    B(l0) := (b, 1.0).B(l0);
    system Main = B(l0) || A(l0) || B(l0);
    """
    defn = parse_model(source).definition
    again = pretty_roundtrip(defn)
    assert again.systems["Main"] == defn.systems["Main"]


def test_roundtrip_random_models():
    for seed in range(40):
        defn = random_model(random.Random(seed))
        again = pretty_roundtrip(defn)
        assert again == defn, f"seed {seed}"
        for name, loc in defn.locations.items():
            assert again.locations[name].point == loc.point


def test_parameter_substitution_is_value_preserving():
    source = """
    param r = 0.1234567890123456789;
    location l0 = (0.0, 0.0);
    T(l0) := (tick, r).T(l0);
    system Main = T(l0);
    """
    defn = parse_model(source).definition
    assert defn.equations[("T", "l0")].body.prefix.rate == float("0.1234567890123456789")


# (severity, message, line, column) of each diagnostic, recorded before the
# tokenizer became a single-pass scan; positions count characters, and only
# LF ends a line.
PINNED_DIAGNOSTICS = [
    ("location l0 = (0.0, 0.0);\nS(l0) := (tick, 1.0) # .S(l0);\nsystem M = S(l0);\n",
     [("error", "unexpected character '#'", 2, 22)]),
    ("// first comment line\n// second comment line\n  // third, indented\n"
     "location l0 = (0.0, 0.0);\n$S(l0) := (tick, 1.0).S(l0);\n",
     [("error", "unexpected character '$'", 5, 1)]),
    ("location l0 = (0.0, 0.0);\r\nS(l0) := (tick, 1.0).S(l0);\r\n"
     "system M = S(l0) & S(l0);\r\n",
     [("error", "unexpected character '&'", 3, 18), ("error", "expected ';', found 'S'", 3, 20)]),
    ("location l0 = (0.0, 0.0);\n\tS(l0) :=\t(tick,\t1.0)\t%.S(l0);\n",
     [("error", "unexpected character '%'", 2, 23)]),
    ("location l0 = (0.0, 0.0);\nS(l0) := (tick, 1.0e).S(l0);\n",
     [("error", "expected ')', found 'e'", 2, 20)]),
    ("location l0 = (1e999, 0.0);\n",
     [("error", "number '1e999' is not finite", 1, 16)]),
    ("location l0 = (-, 0.0);\n",
     [("error", "unexpected character '-'", 1, 16),
      ("error", "expected 'number', found ','", 1, 17)]),
    ("param r = -r;\n",
     [("error", "unexpected character '-'", 1, 11),
      ("error", "expected 'number', found 'r'", 1, 12)]),
    ("location l0 = (0.0, 0.0);\nS(l0) := !!(msg, 1.0)@Ir{",
     [("error", "expected location name, found 'end of input'", 2, 26)]),
    ("location l0 = (0.0, 0.0);\nS(l0) := (tick, 1.0).S(l0);\nsystem M = S(l0);\n) ) ~",
     [("error", "unexpected character '~'", 4, 5),
      ("error", "expected a statement, found ')'", 4, 1)]),
    ("location l0 = (0.0, 0.0); // trailing comment\nsystem M = S(l0)",
     [("error", "expected ';', found 'end of input'", 2, 17)]),
    ("location l0 = (0.0, 0.0);\n^^ S(l0) := (tick, 1.0).S(l0); `\n",
     [("error", "unexpected character '^'", 2, 1), ("error", "unexpected character '^'", 2, 2),
      ("error", "unexpected character '`'", 2, 32)]),
    ("location l0 = (0.0, 0.0);\nS(l0) := (téck, 1.0).S(l0);\n",
     [("error", "unexpected character 'é'", 2, 12),
      ("error", "expected ',', found 'ck'", 2, 13)]),
    ("location l0 = (0.0, 0.0);\rS(l0) := (tick, 1.0).S(l0);\r#\n",
     [("error", "unexpected character '#'", 1, 55)]),
    ("location l0 = (0.0, 0.0);\nS(l0) := (tick, 1.0)//.S(l0);",
     [("error", "expected '.', found 'end of input'", 2, 30)]),
    ("location l0 = (0.0, 0.0);\nS(l0) := !!(msg, 1.0)@",
     [("error", "expected 'Ir', found 'end of input'", 2, 23)]),
    ("location l0 = (0.0, 0.0);\nS(l0) :=",
     [("error", "expected a prefix, found 'end of input'", 2, 9)]),
    ("location l0 = (0.0, 0.0);\nS(l0) := (tick, ",
     [("error", "expected a number or parameter, found 'end of input'", 2, 17)]),
    ("location l0 = (0.0, 0.0);\nS(l0) := ?!(m, 1.0).S(l0);\nT(l0) := (tick, 0.0).T(l0);\n",
     [("error", "expected '(', found '!'", 2, 11),
      ("error", "rate must be positive, got 0.0", 3, 17)]),
    ("location all = (0.0, 0.0);\nparam param = 1.0;\n",
     [("error", "expected location name, found 'all'", 1, 10),
      ("error", "expected parameter name, found 'param'", 2, 7)]),
    ("location l0 = (0.0, 0.0);\n;;\n",
     [("error", "expected a statement, found ';'", 2, 1),
      ("error", "expected a statement, found ';'", 2, 2)]),
    # a non-ASCII letter is a stray character, even where a name would fit
    ("location l0 = (0.0, 0.0);\nS(l0) := (é, 1.0).S(l0);\n",
     [("error", "unexpected character 'é'", 2, 11),
      ("error", "expected action label, found ','", 2, 12)]),
    # declarations the statement reads whole but cannot keep
    ("param r = 1.0;\nparam r = 2.0;\n", [("error", "duplicate parameter 'r'", 2, 7)]),
    ("param r = 0.0;\n", [("error", "parameter 'r' must be positive", 1, 11)]),
    ("location l0 = (0.0, 0.0);\nlocation l0 = (1.0, 0.0);\n",
     [("error", "duplicate location 'l0'", 2, 10)]),
    ("location l0 = (0.0, 0.0);\nS(l0) := (tick, 1.0).S(l0);\nsystem M = S(l0);\n"
     "system M = S(l0);\n", [("error", "duplicate system 'M'", 4, 8)]),
]


@pytest.mark.parametrize("source,expected", PINNED_DIAGNOSTICS)
def test_diagnostic_positions_are_pinned(source, expected):
    result = parse_model(source)
    assert not result.ok
    assert [(d.severity, d.message, d.line, d.column)
            for d in result.diagnostics] == expected


def test_a_valid_model_the_string_reader_declines_parses_token_by_token():
    # the reader splits an equation's terms on "+", which breaks the exponent
    # of 1e+0: it declines the model, and the token parser reads it
    from paloma.parser import _read

    source = "location l0 = (0.0, 0.0);\nS(l0) := (tick, {}).S(l0);\nsystem M = S(l0);\n"
    assert _read(source.format("1e+0")) is None
    result = parse_model(source.format("1e+0"))
    assert result.ok and result.diagnostics == []
    plain = parse_model(source.format("1.0")).definition
    assert result.definition == plain
    assert pretty_print(result.definition) == pretty_print(plain)


def test_unicode_decimal_digits_are_numbers():
    # \d in the token pattern matches any Unicode decimal digit
    result = parse_model("param r = \u0663.\u0665;\nlocation l0 = (-\u0663, 1e\u0663);\n")
    assert result.ok, [str(d) for d in result.diagnostics]
    assert result.definition.params == {"r": 3.5}
    assert result.definition.locations["l0"].point == (-3.0, 1000.0)


def test_validate_reports_every_dangling_operand_in_written_order():
    source = """
    location l0 = (0.0, 0.0);
    D(l0) := (a, 1.0).X(l0) + (b, 1.0).D(l0) + (c, 1.0).Y(l0) + Z(l0);
    system Main = D(l0) || W(l0);
    """
    result = parse_model(source)
    assert result.ok
    assert [d.message for d in errors(validate(result.definition))] == [
        "D(l0): continuation X(l0) has no defining equation",
        "D(l0): continuation Y(l0) has no defining equation",
        "D(l0): reference to undefined Z(l0)",
        "system Main: reference to undefined W(l0)",
    ]


def test_near_location_check_matches_pairwise_scan():
    # Clusters of points a tolerance or so apart, anywhere in the plane: each
    # location must be reported against the first earlier accepted location
    # within the tolerance, as a scan over every pair finds it.
    import math

    from paloma.geometry import GEOMETRIC_TOL
    from paloma.model import Location
    from paloma.parser import ModelDefinition

    rng = random.Random(5)
    reported = 0
    for _ in range(300):
        scale = rng.choice([1.0, 1e3, 1e6, 1e9])
        centres = [(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
                   for _ in range(rng.randint(1, 4))]
        definition = ModelDefinition()
        for k in range(rng.randint(2, 12)):
            x, y = rng.choice(centres)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            r = GEOMETRIC_TOL * rng.choice([0.0, 0.3, 0.99, 1.5, 3.0, rng.uniform(0.0, 6.0)])
            definition.locations[f"l{k}"] = Location(
                f"l{k}", (x + r * math.cos(angle), y + r * math.sin(angle)))
        kept: list[Location] = []
        expected = []
        for loc in definition.locations.values():
            other = next((o for o in kept
                          if math.dist(o.point, loc.point) <= GEOMETRIC_TOL), None)
            if other is None:
                kept.append(loc)
            else:
                expected.append((other.name, loc.name))
        found = []
        for d in errors(validate(definition)):
            names = d.message.split("'")
            found.append((names[1], names[3]))
        assert found == expected
        reported += len(found)
    assert reported >= 300


def test_validate_reports_each_crowded_location_against_the_earliest():
    # shared coordinates, two points within the tolerance, a chain whose
    # third point lies within the tolerance of both earlier ones (the
    # earliest is named), a chain whose middle point is refused and so not
    # matched by the third, and coordinates too large to divide by the grid's
    # cell width; each location is reported once, in declaration order
    source = "\n".join([
        "location a0 = (0.0, 0.0);", "location a1 = (0.0, 0.0);",
        "location b0 = (10.0, 0.0);", "location b1 = (10.0000005, 0.0);",
        "location c0 = (20.0, 0.0);", "location c1 = (20.0000015, 0.0);",
        "location c2 = (20.00000075, 0.0);",
        "location e0 = (30.0, 0.0);", "location e1 = (30.0000008, 0.0);",
        "location e2 = (30.0000016, 0.0);",
        "location d0 = (1e308, 0.0);", "location d1 = (1e308, 0.0);",
        "location d2 = (1e308, 5e-7);", "location d3 = (-1e308, 0.0);",
        "A(a0) := (t, 1.0).A(a0);", "system S = A(a0);", ""])
    result = parse_model(source)
    assert result.ok
    assert [str(d) for d in validate(result.definition)] == [
        "error: locations 'a0' and 'a1' share coordinates (0.0, 0.0)",
        "error: locations 'b0' and 'b1' lie within 1e-06 of each other: "
        "(10.0, 0.0) and (10.0000005, 0.0)",
        "error: locations 'c0' and 'c2' lie within 1e-06 of each other: "
        "(20.0, 0.0) and (20.00000075, 0.0)",
        "error: locations 'e0' and 'e1' lie within 1e-06 of each other: "
        "(30.0, 0.0) and (30.0000008, 0.0)",
        "error: locations 'd0' and 'd1' share coordinates (1e+308, 0.0)",
        "error: locations 'd0' and 'd2' lie within 1e-06 of each other: "
        "(1e+308, 0.0) and (1e+308, 5e-07)",
    ]


def test_validate_resolves_each_equation_once(monkeypatch):
    # a 150-agent ring, a one-agent probe and one alias: 152 equations, of
    # which only the alias holds a bare constant reference. The others are
    # their own unfoldings, so validate's guardedness pass resolves the alias
    # alone and the later passes reuse what it stored
    import math

    from paloma.model import Definitions

    n = 150
    lines = []
    for k in range(n):
        angle = 2 * math.pi * k / n
        lines.append(f"location l{k} = ({n * math.cos(angle)!r}, {n * math.sin(angle)!r});")
    for k in range(n):
        prev, nxt = (k - 1) % n, (k + 1) % n
        lines.append(f"S(l{k}) := !!(msg, 1.0)@Ir{{l{prev}, l{nxt}}}.S(l{nxt})"
                     f" + ??(msg, 0.6)@Wt{{1.0}}.S(l{nxt}) + (tick, 0.3).S(l{k});")
    lines.append("P(l0) := ??(msg, 0.5)@Wt{3.0}.P(l0) + (tick, 0.1).P(l0);")
    lines.append("Q(l0) := P(l0);")
    lines.append("system Main = " + " || ".join(f"S(l{k})" for k in range(n)) + ";")
    result = parse_model("\n".join(lines) + "\n")
    assert not errors(result.diagnostics)

    calls = []
    resolve = Definitions.resolve

    def counting(self, comp):
        calls.append(comp)
        return resolve(self, comp)

    monkeypatch.setattr(Definitions, "resolve", counting)
    assert validate(result.definition) == []
    assert len(result.definition.equations) == n + 2
    assert calls == [result.definition.equations["Q", "l0"]]
