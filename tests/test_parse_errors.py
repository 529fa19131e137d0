"""Parse errors: every message and span on mutated input stays the same.

The inputs are the samples, the printed catalog terms, printed random terms,
printed ``nd_to_sequent`` derivations and a few types.  Each is mutated with a
fixed seed: truncated, given one inserted character, or missing one character.
The fixture ``parse_errors.json`` holds, per mutated input, the error's text,
span and expected tokens, or "accepted".  Lines and columns count from 1, one
column per character, and only ``\\n`` ends a line.

Rewrite the fixture with ``PYTHONPATH=src python3 tests/test_parse_errors.py
--record``, and only when an error is meant to change.
"""

from __future__ import annotations

import functools
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from breakcalc import catalog
from breakcalc.parser import ParseError, SourceSpan, parse_term, parse_type
from breakcalc.printer import print_term, print_type
from breakcalc.sequent import nd_to_sequent, parse_derivation, print_derivation
from breakcalc.syntax import Atom
from termgen import random_type, random_typable_term

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "parse_errors.json"
SAMPLES = HERE.parent / "samples"
SEED = 20261018
MUTATIONS = 10  # of each kind, per input
INSERTED = "()<>[]{},:.\\@=*-|A x'_0\n\t\u00a0#\u00e9;"

A, B, C = Atom("A"), Atom("B"), Atom("C")
PARSERS = {"term": parse_term, "type": parse_type,
           "derivation": parse_derivation}


def catalog_terms():
    for axiom in catalog.AxiomId:
        yield f"axiom:{axiom.value}", catalog.axiom_term(axiom, A, B, C)
    yield "identity", catalog.identity_break(A)
    t, u = catalog.divisibility_terms(A, B)
    yield "divisibility-t", t
    yield "divisibility-u", u
    yield "axiom-l", catalog.axiom_L_term(A, B)
    yield "homomorphism", catalog.homomorphism_term(A, B, C)
    yield "break-free-split", catalog.break_free_split(A, B)


def inputs():
    """(name, parser kind, text) triples in a fixed order."""
    for path in sorted(SAMPLES.glob("*.bterm")):
        yield f"sample:{path.name}", "term", path.read_text(encoding="utf-8")
    terms = list(catalog_terms())
    for name, t in terms:
        yield f"catalog:{name}", "term", print_term(t)
    rng = random.Random(SEED)
    random_terms = [(f"random:{i}", random_typable_term(rng, max_size=25))
                    for i in range(16)]
    for name, t in random_terms:
        yield name, "term", print_term(t)
    for name, t in terms[6:] + random_terms[:4]:
        yield f"derivation:{name}", "derivation", \
            print_derivation(nd_to_sequent(t))
    for i in range(6):
        yield f"type:{i}", "type", print_type(random_type(rng, 3))


def mutations(text: str, rng: random.Random):
    """(description, mutated text) pairs: truncations, insertions, deletions."""
    for _ in range(MUTATIONS):
        k = rng.randrange(len(text))
        yield f"truncate {k}", text[:k]
    for _ in range(MUTATIONS):
        k = rng.randrange(len(text) + 1)
        c = rng.choice(INSERTED)
        yield f"insert {k} {c!r}", text[:k] + c + text[k:]
    for _ in range(MUTATIONS):
        k = rng.randrange(len(text))
        yield f"delete {k}", text[:k] + text[k + 1:]


def outcome(kind: str, text: str):
    try:
        PARSERS[kind](text)
    except ParseError as exc:
        return {"error": str(exc), "span": list(exc.span),
                "expected": exc.expected}
    except Exception as exc:  # recorded too: a parser may raise other errors
        return {"raised": f"{type(exc).__name__}: {exc}"}
    return "accepted"


def outcomes() -> dict[str, object]:
    rng = random.Random(SEED + 1)
    table = {}
    for name, kind, text in inputs():
        for what, mutated in mutations(text, rng):
            table[f"{name} | {what}"] = outcome(kind, mutated)
    return table


@functools.cache
def _fixture() -> dict[str, object]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_mutated_inputs_match_fixture():
    got, want = outcomes(), _fixture()
    assert list(got) == list(want)
    differ = [key for key in want if got[key] != want[key]]
    assert not differ, [(key, want[key], got[key]) for key in differ[:5]]


def test_fixture_has_errors_of_every_parser():
    prefixes = {key.split(":")[0] for key, v in _fixture().items()
                if isinstance(v, dict) and "error" in v}
    assert {"sample", "catalog", "random", "derivation", "type"} <= prefixes


def _error(parse, text: str) -> ParseError:
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value


@pytest.mark.parametrize("parse,text,message,span", [
    # a comment line is a line
    (parse_term, "-- identity\n\\x:A. y",
     "line 2, column 7: free variable 'y' needs a type ascription at first"
     " use, e.g. (y : A)", (18, 19, 2, 7)),
    # CRLF: the '\r' is the last column of its line
    (parse_term, "\\x:A.\r\n  x )\n",
     "line 2, column 5: trailing input ')' (expected one of: end of input)",
     (11, 12, 2, 5)),
    # a tab is one column
    (parse_type, "A ->\t\t)\n",
     "line 1, column 7: unexpected ')' in type (expected one of: identifier,"
     " '(')", (6, 7, 1, 7)),
    # a non-ASCII space is whitespace and one column
    (parse_type, "A\u00a0*\u00a0?",
     "line 1, column 5: unexpected character '?'", (4, 5, 1, 5)),
    (parse_derivation, "(ArrR [|- A -> A]\n  (Asm [A |- A]))",
     "line 2, column 4: unknown rule 'Asm' (expected one of: ASM, CUT, BRK,"
     " ArrR, ArrL, TensR, TensL)", (21, 24, 2, 4)),
])
def test_line_and_column(parse, text, message, span):
    err = _error(parse, text)
    assert str(err) == message
    assert err.span == SourceSpan(*span)


def test_span_at_end_after_one_character_punctuation():
    # end of input right after '(' is at offset 5, column 6
    err = _error(parse_type, "A * (")
    assert err.span == SourceSpan(5, 5, 1, 6)
    assert str(err) == ("line 1, column 6: unexpected '' in type (expected"
                        " one of: identifier, '(')")
    assert _error(parse_type, "A * ( ").span == SourceSpan(6, 6, 1, 7)
    err = _error(parse_derivation, "(ASM [A |- A]")
    assert err.span == SourceSpan(13, 13, 1, 14)
    assert str(err) == ("line 1, column 14: unexpected '' (expected one of:"
                        " ')')")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    table = outcomes()
    FIXTURE.write_text(json.dumps(table, indent=1, ensure_ascii=False) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(table)} items to {FIXTURE}")
