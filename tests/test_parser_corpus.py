"""Parser behaviour pinned on a seeded corpus of mutated models.

The digests below were recorded with the tokenizer that built a positioned
token for every lexeme, before the scan read positions only for a failed
parse; they pin every verdict, every diagnostic (text, line, column and
order) and the elaborated definition of every model that still parses.
"""

from __future__ import annotations

import hashlib
import random
import re
from pathlib import Path

import families as fam
from paloma.parser import parse_model, pretty_print

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


def corpus_digest() -> tuple[str, int]:
    rng = random.Random(20261018)
    texts = bases()
    digest = hashlib.sha256()
    parsed = 0
    for k in range(CORPUS_SIZE):
        lines = outcome(mutate(rng, texts[k % len(texts)]))
        parsed += lines[0] == "ok"
        digest.update(f"{k}\n".encode())
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
