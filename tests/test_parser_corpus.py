"""Parser behaviour pinned on a seeded corpus of mutated models.

The first two digests below were recorded with the tokenizer that built a
positioned token for every lexeme, before the scan read positions only for a
failed parse; they pin every verdict, every diagnostic (text, line, column
and order) and the elaborated definition of every model that still parses.
The last two were recorded with the token-by-token recursive descent and the
four-walk ``validate``, before statements were parsed over fixed-width token
windows and each equation validated in one walk: they pin every validation
diagnostic of the corpus, and the outcome of every base model cut short at
each token boundary.
"""

from __future__ import annotations

import hashlib
import random
import re
from pathlib import Path

import families as fam
from oracle import random_model
from paloma._tokens import _Parser, _place
from paloma.parser import _read, parse_model, pretty_print, validate

ROOT = Path(__file__).resolve().parent.parent

# What a mutation inserts: stray characters, a lone minus, a non-ASCII digit
# (a number, as \d matches it) and letter (a stray character), an overflowing number,
# keywords, comments, operators, blanks and line ends.
SNIPPETS = [
    "#", "$", "~", "&", "%", "^", "`", "/", "\\", "-", "--", "- ", "٣", "٣.٥", "é", "ß",
    "1e999", "-1e999", "0", "-0.0", "7", "1.5e3", "2.", ".5", "param", "location",
    "system", "all", "Ir", "Wt", "Prob", "// note", "// note\n", "//", ";", ",", "(",
    ")", "{", "}", "+", ".", "@", "=", ":=", "||", "!!", "??", "!", "?", " ", "\n",
    "\t", "\r\n", "\r", "\u00a0", "\u2028", "x", "_y9",
]

CORPUS_SIZE = 4000
CORPUS_SHA256 = "d790a69ac20417463722abee61ea75c4a7da90e7fac5b8c45e55e8454b6857c6"
FAMILIES_SHA256 = "5e7b6f2601063fc0bc650d50e3402dd6a656a6f02611d726f54e4edafbcd2efc"
VALIDATE_SHA256 = "f87e5cb6e9c3a7be3928b3d262b4e248aea5b902a4d9eee17c1e2dd6cf0a99ac"
CUTS_SHA256 = "2ddd08f4aea11a4daa4427e8ae65198fb4d5444453c634a8571e528384e0eff5"


def bases() -> list[str]:
    texts = [path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "models").glob("*.paloma"))]
    for seed in (1, 2):
        texts += [fam.ring(3, seed), fam.duo(4, seed), fam.wide(4, seed), fam.wide(7, seed)]
    return texts


BLANKS = [" ", "\n", "\t", "\r\n", "// note\n", "\n//", "\u00a0"]


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        roll = rng.random()
        if roll < 0.2:
            text = text[:at] + text[at + rng.randint(1, 6):]
        elif roll < 0.5:
            text = text[:at] + rng.choice(SNIPPETS) + text[at:]
        elif roll < 0.8:
            # blanks and comments between two tokens leave a model valid
            text = text[:at] + rng.choice(BLANKS) + text[at:]
        else:
            # an ASCII digit made Arabic-Indic: in a number it keeps its value
            digits = [m.start() for m in re.finditer("[0-9]", text)]
            if digits:
                at = rng.choice(digits)
                text = text[:at] + chr(0x660 + int(text[at])) + text[at + 1:]
    return text


def outcome(text: str) -> list[str]:
    """The verdict and every diagnostic, or the model printed back."""
    result = parse_model(text)
    if result.ok:
        return ["ok", pretty_print(result.definition)]
    return ["failed", *(str(d) for d in result.diagnostics)]


def corpus() -> list[str]:
    rng = random.Random(20261018)
    texts = bases()
    return [mutate(rng, texts[k % len(texts)]) for k in range(CORPUS_SIZE)]


def corpus_digest() -> tuple[str, int]:
    digest = hashlib.sha256()
    parsed = 0
    for k, text in enumerate(corpus()):
        lines = outcome(text)
        parsed += lines[0] == "ok"
        digest.update(f"{k}\n".encode())
        for line in lines:
            digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest(), parsed


def validate_digest() -> tuple[str, int]:
    """Every validation diagnostic, in order, of each corpus text that
    parses, and how many of those texts have an error among them."""
    digest = hashlib.sha256()
    refused = 0
    for k, text in enumerate(corpus()):
        result = parse_model(text)
        if result.ok:
            lines = [str(d) for d in validate(result.definition)]
            refused += any(line.startswith("error") for line in lines)
            digest.update(f"{k}\n".encode())
            for line in lines:
                digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest(), refused


# A cut between two tokens: after a name, number, operator, comment or other
# character that is not blank.
TOKEN_END = re.compile(r"//[^\n]*|:=|\|\||!!|\?\?|\w+(?:\.\d+)?(?:[eE][+-]?\d+)?|\S")


def cuts_digest() -> tuple[str, int]:
    """Each base model cut after every token: the parse outcome and, for a
    cut that parses, its validation diagnostics; and how many cuts parse."""
    digest = hashlib.sha256()
    parsed = 0
    for text in bases():
        for match in TOKEN_END.finditer(text):
            cut = text[:match.end()]
            lines = outcome(cut)
            if lines[0] == "ok":
                parsed += 1
                lines += [str(d) for d in validate(parse_model(cut).definition)]
            digest.update(f"{match.end()}\n".encode())
            for line in lines:
                digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest(), parsed


def families_digest() -> str:
    digest = hashlib.sha256()
    for seed in (1, 7):
        for text in (fam.ring(3, seed), fam.ring(4, seed), fam.duo(4, seed),
                     fam.wide(30, seed), fam.wide(150, seed)):
            result = parse_model(text)
            assert result.ok
            digest.update(pretty_print(result.definition).encode("utf-8"))
    return digest.hexdigest()


def test_mutated_corpus_verdicts_and_diagnostics_are_pinned():
    digest, parsed = corpus_digest()
    # the corpus exercises both the accepting and the failing path
    assert 400 < parsed < CORPUS_SIZE - 400
    assert digest == CORPUS_SHA256


def test_pretty_print_of_benchmark_families_is_pinned():
    assert families_digest() == FAMILIES_SHA256


def test_validation_of_the_mutated_corpus_is_pinned():
    digest, refused = validate_digest()
    assert refused > 20
    assert digest == VALIDATE_SHA256


def test_every_token_cut_of_the_base_models_is_pinned():
    digest, parsed = cuts_digest()
    assert parsed > 100
    assert digest == CUTS_SHA256


def token_parse(text: str):
    """The token parser's definition of ``text``, or ``None`` on an error."""
    tokens, places, diagnostics = _place(text)
    parser = _Parser(tokens, places)
    parser.parse()
    return None if diagnostics or parser.diagnostics else parser.definition


def test_the_string_reader_builds_what_the_token_parser_builds():
    # the reader reads every model of the repository, the families and the
    # random models. On every text it accepts, the token parser accepts it
    # too, with an equal definition whose coordinates print the same: the
    # corpus, each base model cut after every character, and a few base
    # models with a blank put at, or a character taken from, every place (a
    # blank inside a token, as "I r" for "Ir", splits it; one taken out
    # joins two, as "paramr")
    texts = bases()
    edited = [text for base in (*texts[:2], fam.ring(3, 1)) for k in range(len(base))
              for text in (base[:k] + " " + base[k:], base[:k] + base[k + 1:])]
    models = [*texts, *(pretty_print(random_model(random.Random(seed)))
                        for seed in range(200))]
    for seed in (1, 7):
        models += [fam.ring(3, seed), fam.ring(4, seed), fam.duo(4, seed),
                   fam.wide(30, seed), fam.wide(150, seed)]
    assert all(_read(text) is not None for text in models)
    accepted = 0
    for text in [*corpus(), *(base[:k] for base in texts for k in range(len(base))),
                 *edited, *models]:
        read = _read(text)
        if read is not None:
            accepted += 1
            parsed = token_parse(text)
            assert parsed is not None, text
            assert read == parsed and pretty_print(read) == pretty_print(parsed), text
    assert accepted > 1000


def test_the_reader_reads_each_head_and_range_per_spelling():
    # prefix heads and ranges are kept by their text, and Ir{all} by the count
    # of locations declared before it: one head under two ranges keeps both
    # ranges, an all written before a later location statement leaves that
    # location out, and a head may take its value from a param. The token
    # parser, which keeps nothing, builds the same definition
    text = "\n".join([
        "param r = 2.5;", "param p = 0.5;",
        "location l0 = (0.0, 0.0);", "location l1 = (1.0, 0.0);", "location l2 = (2.0, 0.0);",
        "A(l0) := !!(m, 1.0)@Ir{l1}.A(l0);", "B(l0) := !!(m, 1.0)@Ir{l2}.B(l0);",
        "C(l0) := !(b, r)@Ir{all}.C(l0);", "location l3 = (3.0, 0.0);",
        "D(l0) := !(b, r)@Ir{all}.D(l0);", "E(l0) := !(b, r)@Ir{ all }.E(l0);",
        "F(l1) := ??(m, p)@Wt{r}.F(l1) + !!(m, r)@Ir{l1}.F(l1);",
        "system S = A(l0) || B(l0) || C(l0) || D(l0) || E(l0) || F(l1);", ""])
    read = _read(text)
    assert read is not None and read == token_parse(text)
    locs = read.locations

    def first(name, locname):
        return read.equations[name, locname].body

    assert first("A", "l0").prefix.influence == {locs["l1"]}
    assert first("B", "l0").prefix.influence == {locs["l2"]}
    assert first("C", "l0").prefix.influence == {locs["l0"], locs["l1"], locs["l2"]}
    assert first("D", "l0").prefix.influence == set(locs.values())
    assert first("E", "l0").prefix.influence == set(locs.values())
    assert first("C", "l0").prefix.rate == 2.5
    unicast_in, unicast_out = (leaf.prefix for leaf in (first("F", "l1").left.body,
                                                        first("F", "l1").right.body))
    assert (unicast_in.act_prob, unicast_in.weight, unicast_out.rate) == (0.5, 2.5, 2.5)
    assert unicast_out.influence == {locs["l1"]}

    # a head that breaks the grammar is declined, also after the same head
    # was read whole earlier in the text
    good = "location l0 = (0.0, 0.0);\nA(l0) := ??(msg, 0.6)@Wt{1.0}.A(l0);\n"
    for broken in ["??(msg, 0.6@Wt{1.0}", "??(msg, 0.6)Wt{1.0}", "??(msg, 0.6)@Ir{1.0}",
                   "!!(msg, 0.6@Ir{l0}", "!!(msg, 0.6)@Ir{l0", "!!(msg, 0.6)@Ir{}",
                   "(msg, 0.6", "(msg, 0.6) x", "(msg, 0.6){", "(msg, 0.6)@Wt{1.0}",
                   "?? (msg, 0.6)@ Wt {1.0} x"]:
        for source in (f"location l0 = (0.0, 0.0);\nA(l0) := {broken}.A(l0);\n",
                       good + f"B(l0) := {broken}.B(l0);\n"):
            assert _read(source) is None, source
            assert token_parse(source) is None, source
