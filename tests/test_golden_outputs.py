"""Golden outputs: every printed result of the pipeline stays byte-identical.

For each item (the samples, the catalog terms and 200 seeded random terms)
the fixture ``golden_outputs.json`` holds the sha256 of its traces under both
strategies, its printed normal form, its printed one-step reducts, the
principal type of its erasure, the printed image of the translation and the
printed cut-free derivation.  Any change to naming, renaming or traversal
order shows up here as a differing digest.

Rewrite the fixture with ``PYTHONPATH=src python3 tests/test_golden_outputs.py
--record``, and only when an output is meant to change.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from breakcalc import catalog
from breakcalc.lambda_pair import star_translate
from breakcalc.parser import parse_term
from breakcalc.printer import print_lterm, print_term, print_type
from breakcalc.reduction import format_trace, normalize, reducts_one_step
from breakcalc.sequent import eliminate_cuts, nd_to_sequent, print_derivation
from breakcalc.syntax import Atom
from breakcalc.typecheck import erase, infer_principal
from termgen import random_typable_term

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "golden_outputs.json"
SAMPLES = HERE.parent / "samples"
RANDOM_SEED = 20261018
RANDOM_COUNT = 200

A, B, C = Atom("A"), Atom("B"), Atom("C")


def golden_items():
    """(name, term) pairs in a fixed order."""
    for path in sorted(SAMPLES.glob("*.bterm")):
        yield f"sample:{path.name}", parse_term(path.read_text(encoding="utf-8"))
    for axiom in catalog.AxiomId:
        yield f"axiom:{axiom.value}", catalog.axiom_term(axiom, A, B, C)
    yield "catalog:identity", catalog.identity_break(A)
    t, u = catalog.divisibility_terms(A, B)
    yield "catalog:divisibility-t", t
    yield "catalog:divisibility-u", u
    yield "catalog:axiom-l", catalog.axiom_L_term(A, B)
    yield "catalog:homomorphism", catalog.homomorphism_term(A, B, C)
    yield "catalog:break-free-split", catalog.break_free_split(A, B)
    rng = random.Random(RANDOM_SEED)
    for i in range(RANDOM_COUNT):
        yield f"random:{i}", random_typable_term(rng)


def outputs(t) -> dict[str, str]:
    """Every printed output of the pipeline for t."""
    nf, first = normalize(t, strategy="first")
    _, last = normalize(t, strategy="last")
    return {
        "trace_first": format_trace(first),
        "trace_last": format_trace(last),
        "normal": print_term(nf),
        "reducts": "\n".join(print_term(u) for u in reducts_one_step(t)),
        "principal": print_type(infer_principal(erase(t)).body),
        "lterm": print_lterm(star_translate(t)),
        "derivation": print_derivation(eliminate_cuts(nd_to_sequent(t))),
    }


def digests(t) -> dict[str, str]:
    return {k: hashlib.sha256(v.encode("utf-8")).hexdigest()
            for k, v in outputs(t).items()}


@functools.cache
def _fixture() -> dict[str, dict[str, str]]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


ITEMS = list(golden_items())


def test_fixture_covers_exactly_the_items():
    assert list(_fixture()) == [name for name, _ in ITEMS]


@pytest.mark.parametrize("name,term", ITEMS, ids=[n for n, _ in ITEMS])
def test_outputs_match_fixture(name, term):
    assert digests(term) == _fixture()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    table = {name: digests(t) for name, t in ITEMS}
    FIXTURE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} items to {FIXTURE}")
