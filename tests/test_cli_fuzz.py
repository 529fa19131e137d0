"""The CLI's exit-code contract under mutated and random input.

Every run of `cli.main` must exit with a code in 0-4, print no traceback,
and print exactly one line on standard error when the code is not 0 (none
when it is).  Inputs are the samples and derivations of them with a few
characters truncated, inserted, deleted or duplicated, and random bytes.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from breakcalc.cli import main
from breakcalc.parser import parse_term
from breakcalc.sequent import eliminate_cuts, nd_to_sequent, print_derivation

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
TERMS = tuple(p.read_text(encoding="utf-8")
              for p in sorted(SAMPLES.glob("*.bterm")))
DERIVATIONS = tuple(
    print_derivation(d) + "\n"
    for nd in map(nd_to_sequent, map(parse_term, TERMS))
    for d in (nd, eliminate_cuts(nd)))

#: what a mutation inserts: every token of both grammars, some names, and
#: characters no token starts with
PIECES = ("\\", ":", ".", "(", ")", "<", ">", ",", "@", "*", "->", "|-", "=",
          "[", "]", "{", "}", "--", "let", "in", "break", "as", "x", "f",
          "A", "B", "ASM", "CUT", "BRK", "ArrL", " ", "\n", "\t", "é", "\0",
          "#", "1")

TERM_COMMANDS = (
    ["check"], ["infer"], ["translate"], ["sequent-fromterm"],
    ["normalize", "--trace"], ["normalize", "--strategy", "last"],
    ["normalize", "--experimental-blconv", "--max-steps", "3"],
)
DERIVATION_COMMANDS = (
    ["sequent-check"], ["sequent-cutelim"],
    ["sequent-cutelim", "--node-budget", "5"],
)

SETTINGS = hypothesis.settings(
    max_examples=250, deadline=None, derandomize=True, database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])


@st.composite
def mutants(draw, texts: tuple[str, ...]) -> str:
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("truncate", "insert", "delete",
                                   "duplicate")))
        if op == "truncate":
            text = text[:i]
        elif op == "insert":
            text = text[:i] + draw(st.sampled_from(PIECES)) + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 8)):]
        else:
            text = text[:i] + text[i:i + draw(st.integers(1, 12))] + text[i:]
    return text


def run_main(argv: list[str], stdin: bytes) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv: list[str], stdin: bytes) -> None:
    code, _, err = run_main(argv, stdin)
    assert code in range(5), (argv, stdin, code)
    assert "Traceback" not in err, (argv, stdin, err)
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, stdin, err)
    else:
        assert err == "", (argv, stdin, err)


@SETTINGS
@hypothesis.given(st.sampled_from(TERM_COMMANDS), mutants(TERMS))
def test_mutated_terms(command, text):
    assert_contract([*command, "-"], text.encode("utf-8"))


@SETTINGS
@hypothesis.given(st.sampled_from(DERIVATION_COMMANDS), mutants(DERIVATIONS))
def test_mutated_derivations(command, text):
    assert_contract([*command, "-"], text.encode("utf-8"))


@SETTINGS
@hypothesis.given(st.sampled_from(TERM_COMMANDS + DERIVATION_COMMANDS),
                  st.binary(max_size=64))
def test_random_bytes(command, data):
    assert_contract([*command, "-"], data)
