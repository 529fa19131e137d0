"""The four workloads: their inputs, the pipeline one item runs, the checks on
its outputs and the counts a traced run records.

Every check runs outside the timed region.  A check raises CheckFailed; the
run loop counts that item as failed.  Workloads that compare rounds check a
later round's output against the summary of the first: strings and counts
only, so that the outputs themselves do not stay on the heap that every later
item's garbage collections walk.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from breakcalc import catalog
from breakcalc.lambda_pair import (
    l_alpha_eq, l_check, l_normalize, star_translate,
)
from breakcalc.parser import parse_term, tokenize
from breakcalc.printer import print_lterm, print_term
from breakcalc.reduction import format_trace, normalize, reducts_one_step
from breakcalc.sequent import (
    SRule, check_derivation, eliminate_cuts, nd_to_sequent, parse_derivation,
    print_derivation, sequent_to_term,
)
from breakcalc.syntax import (
    Arrow, Atom, Tensor, Term, TypeExpr, alpha_eq, free_vars, term_size,
)
from breakcalc.typecheck import check, erase, infer_principal

from . import gen
from .trace import Calls, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_CLI = HERE / "golden_cli.json"

#: attribute -> (span and metric name, library function)
CALLS = {
    "parse_term": ("parser.parse_term", parse_term),
    "tokenize": ("parser.tokenize", tokenize),
    "print_term": ("printer.print_term", print_term),
    "print_lterm": ("printer.print_lterm", print_lterm),
    "check": ("typecheck.check", check),
    "erase": ("typecheck.erase", erase),
    "infer_principal": ("typecheck.infer_principal", infer_principal),
    "normalize": ("reduction.normalize", normalize),
    "normalize_last": ("reduction.normalize_last",
                       functools.partial(normalize, strategy="last")),
    "reducts_one_step": ("reduction.reducts_one_step", reducts_one_step),
    "format_trace": ("reduction.format_trace", format_trace),
    "star_translate": ("lambda_pair.star_translate", star_translate),
    "l_check": ("lambda_pair.l_check", l_check),
    "l_normalize": ("lambda_pair.l_normalize", l_normalize),
    "nd_to_sequent": ("sequent.nd_to_sequent", nd_to_sequent),
    "eliminate_cuts": ("sequent.eliminate_cuts", eliminate_cuts),
    "print_derivation": ("sequent.print_derivation", print_derivation),
    "parse_derivation": ("sequent.parse_derivation", parse_derivation),
    "check_derivation": ("sequent.check_derivation", check_derivation),
    "sequent_to_term": ("sequent.sequent_to_term", sequent_to_term),
}

A, B, C = Atom("A"), Atom("B"), Atom("C")


class CheckFailed(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Item:
    """One input taken through a workload's whole pipeline."""

    id: str
    large: bool
    data: object
    expected: dict = field(default_factory=dict)


def _rule_histogram(steps) -> Counter:
    return Counter(str(s.rule) for s in steps)


def _count_rule(d, rule: SRule) -> int:
    return (d.rule is rule) + sum(_count_rule(p, rule) for p in d.premises)


def _brk_residues(d, safe_only: bool = False) -> Counter:
    """Residue types of the BRK nodes, or of those in safe positions only.

    A position is safe when the path to it from the root never enters the
    first premise of a CUT or of an ArrL: the premise that proves a formula
    for the rest of the derivation to consume.  Cut elimination can discard
    such a premise whole, when the formula it proves meets a weakened copy in
    an axiom (the sequent form of a beta step whose bound variable is unused).
    A BRK node in a safe position is never in a discarded premise.
    """
    out = Counter([d.data] if d.rule is SRule.BRK else [])
    for i, p in enumerate(d.premises):
        if safe_only and i == 0 and d.rule in (SRule.CUT, SRule.ArrL):
            continue
        out += _brk_residues(p, safe_only)
    return out


def _has_weakened_axiom(d) -> bool:
    if d.rule is SRule.ASM:
        return len(d.conclusion.antecedent) > 1
    return any(_has_weakened_axiom(p) for p in d.premises)


def check_breaks_kept(d, cut_free) -> None:
    """Break nodes are never removed, except inside a premise that cut
    elimination discards whole, and none is ever added.

    Without a weakened axiom nothing is discarded, so every BRK node of d must
    stay; with one, every BRK node in a safe position must (see _brk_residues).
    """
    before, after = _brk_residues(d), _brk_residues(cut_free)
    kept = before if not _has_weakened_axiom(d) \
        else _brk_residues(d, safe_only=True)
    expect(not kept - after and not after - before,
           f"BRK nodes not kept: {sum(before.values())} in, "
           f"{sum(kept.values())} that must stay, {sum(after.values())} out")


def _instance_of(pattern: TypeExpr, ty: TypeExpr, sub: dict) -> bool:
    """True if renaming pattern's atoms consistently (sub) yields ty."""
    if isinstance(pattern, Atom):
        return sub.setdefault(pattern.name, ty) == ty
    if type(pattern) is not type(ty):
        return False
    a1, b1 = (pattern.dom, pattern.cod) if isinstance(pattern, Arrow) \
        else (pattern.left, pattern.right)
    a2, b2 = (ty.dom, ty.cod) if isinstance(ty, Arrow) else (ty.left, ty.right)
    return _instance_of(a1, a2, sub) and _instance_of(b1, b2, sub)


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

CHAIN_SIZES = (10, 20, 40, 80)


def _tensor_tree(n: int) -> TypeExpr:
    if n == 1:
        return A
    return Tensor(_tensor_tree(n // 2), _tensor_tree(n - n // 2))


def _permuting_normal_form(ks: range) -> str:
    if len(ks) == 1:
        k = ks[0]
        return (f"let <u{k}:A, v{k}:A> = (p{k} : A * A) in "
                f"let <x{k}:A, y{k}:A> = (q{k} : A * A) in "
                f"(g{k} : A -> A) (d{k} : A)")
    mid = len(ks) // 2
    return (f"<{_permuting_normal_form(ks[:mid])}, "
            f"{_permuting_normal_form(ks[mid:])}>")


class Chains:
    """Scaling families in closed form; the step count grows with n.

    Why: normalize and trace printing take nearly all of the time, each step
    walks the whole term, and the sequent layer never runs.
    """

    name = "chains"
    compare_rounds = False

    def setup(self, seed: int) -> list[Item]:
        items = []
        for n in CHAIN_SIZES:
            items.append(Item(f"identity-{n}", n == CHAIN_SIZES[-1],
                              gen.identity_chain(n),
                              {"type": A, "normal": "(w : A)", "steps": n,
                               "rules": Counter({"beta": n})}))
            items.append(Item(f"break-{n}", n == CHAIN_SIZES[-1],
                              gen.break_chain(n),
                              {"type": Arrow(A, A), "normal": r"\w:A. w",
                               "steps": 4 * n,
                               "rules": Counter({"beta": 3 * n, "b-conv": n})}))
            items.append(Item(f"permuting-{n}", n == CHAIN_SIZES[-1],
                              gen.permuting_chain(n),
                              {"type": _tensor_tree(n),
                               "normal": _permuting_normal_form(range(n)),
                               "steps": 4 * n,
                               "rules": Counter({"ap-l-conv": n, "l-l-conv": n,
                                                 "ap-b-conv": n, "b-conv": n})}))
        return items

    def run(self, calls: Calls, item: Item, traced: bool) -> dict:
        text = calls.print_term(item.data)
        if traced:
            calls.tokenize(text)
        term = calls.parse_term(text)
        ty = calls.check(term)
        nf, steps = calls.normalize(term)
        trace = calls.format_trace(steps)
        return {"type": ty, "normal": nf, "steps": steps, "trace": trace,
                "text": calls.print_term(nf)}

    def check(self, item: Item, out: dict, first: tuple | None) -> None:
        exp = item.expected
        expect(out["type"] == exp["type"], "type")
        expect(out["text"] == exp["normal"], "normal form")
        expect(len(out["steps"]) == exp["steps"], "step count")
        expect(_rule_histogram(out["steps"]) == exp["rules"], "rule histogram")
        lines = out["trace"].split("\n")
        expect(len(lines) == exp["steps"], "trace length")
        expect(Counter(line.split(" ", 2)[1] for line in lines) == exp["rules"],
               "trace rules")
        expect(lines[-1].endswith(" " + exp["normal"]), "trace end")

    def count(self, tracer: Tracer, item: Item, out: dict) -> None:
        _count_steps(tracer, out["steps"])
        tracer.counts["reduction.trace_bytes"] += len(out["trace"])
        tracer.counts["syntax.nodes_in"] += term_size(item.data)
        tracer.counts["syntax.nodes_out"] += term_size(out["normal"])

    def replay_steps(self, out: dict):
        return out["steps"]


def _count_steps(tracer: Tracer, steps) -> None:
    tracer.counts["reduction.steps"] += len(steps)
    for rule, n in _rule_histogram(steps).items():
        tracer.counts[f"reduction.rule.{rule}"] += n


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------

class Explore:
    """Random typable terms of about 100 and 1,000 nodes.

    Why: it uses the reduction layer through the full redex enumeration
    behind the last strategy and the one-step reducts, so a speed-up of the
    first strategy alone should leave it unchanged.
    """

    name = "explore"
    compare_rounds = True
    small, large = 24, 4

    def setup(self, seed: int) -> list[Item]:
        small, large = gen.random_terms(2 * seed, self.small, self.large)
        return ([Item(f"small-{i}", False, t) for i, t in enumerate(small)]
                + [Item(f"large-{i}", True, t) for i, t in enumerate(large)])

    def run(self, calls: Calls, item: Item, traced: bool) -> dict:
        t = item.data
        nf, steps = calls.normalize_last(t)
        reducts = calls.reducts_one_step(t)
        image = calls.star_translate(t)
        image_nf = calls.l_normalize(image)
        return {"normal": nf, "steps": steps, "reducts": reducts,
                "image": image, "image_nf": image_nf,
                "image_text": calls.print_lterm(image_nf)}

    def summary(self, out: dict) -> tuple:
        return (print_term(out["normal"]), out["image_text"],
                len(out["reducts"]))

    def check(self, item: Item, out: dict, first: tuple | None) -> None:
        if first is not None:
            expect(self.summary(out) == first,
                   "output differs from the first round")
            return
        t = item.data
        nf_first, _ = normalize(t)
        expect(alpha_eq(nf_first, out["normal"]),
               "first and last normal forms differ")
        expect(check(t) == check(out["normal"]), "type changed by reduction")
        expect(l_alpha_eq(out["image_nf"],
                          l_normalize(star_translate(out["normal"]))),
               "translation of the normal form differs")
        expect(bool(out["reducts"]) == bool(out["steps"]), "reducts")

    def count(self, tracer: Tracer, item: Item, out: dict) -> None:
        _count_steps(tracer, out["steps"])
        tracer.counts["lambda_pair.image_nodes"] += gen.l_size(out["image"])
        tracer.counts["syntax.nodes_in"] += term_size(item.data)
        tracer.counts["syntax.nodes_out"] += term_size(out["normal"])

    def replay_steps(self, out: dict):
        return out["steps"]


# ---------------------------------------------------------------------------
# proofs
# ---------------------------------------------------------------------------

def catalog_terms() -> list[tuple[str, Term]]:
    return [("identity", catalog.identity_break(A)),
            ("divisibility-t", catalog.divisibility_terms(A, B)[0]),
            ("divisibility-u", catalog.divisibility_terms(A, B)[1]),
            ("axiom-l", catalog.axiom_L_term(A, B)),
            ("homomorphism", catalog.homomorphism_term(A, B, C)),
            ("break-free-split", catalog.break_free_split(A, B))]


class Proofs:
    """The explore generator under another seed, plus the catalog terms.

    Why: the sequent layer and derivation parsing take most of the time and
    reduction is never called.

    Every generated term has a binder it does not use, so cut elimination
    discards some premises whole, with the BRK nodes in them;
    check_breaks_kept allows for that, and sequent.breaks_dropped counts them.
    A run makes one round.  There are fewer large terms than the ten samples
    item_ms_tail leaves beyond it, so the tail falls among the small terms
    and not in the gap between the two sizes.
    """

    name = "proofs"
    compare_rounds = True
    small, large = 200, 8

    def setup(self, seed: int) -> list[Item]:
        small, large = gen.random_terms(2 * seed + 1, self.small, self.large)
        return ([Item(f"small-{i}", False, t) for i, t in enumerate(small)]
                + [Item(f"large-{i}", True, t) for i, t in enumerate(large)]
                + [Item(f"catalog-{name}", False, t)
                   for name, t in catalog_terms()])

    def run(self, calls: Calls, item: Item, traced: bool) -> dict:
        t = item.data
        ty = calls.check(t)
        scheme = calls.infer_principal(calls.erase(t))
        image = calls.star_translate(t)
        image_ty = calls.l_check(image, free_vars(t))
        d = calls.nd_to_sequent(t)
        cut_free = calls.eliminate_cuts(d)
        text = calls.print_derivation(cut_free)
        if traced:
            calls.tokenize(text)
        parsed = calls.parse_derivation(text)
        end = calls.check_derivation(parsed)
        extracted = calls.sequent_to_term(parsed)
        return {"type": ty, "scheme": scheme, "image": image,
                "image_type": image_ty, "derivation": d, "cut_free": cut_free,
                "text": text, "parsed": parsed, "end": end,
                "extracted": extracted, "extracted_type": calls.check(extracted)}

    def summary(self, out: dict) -> tuple:
        return out["text"], print_term(out["extracted"])

    def check(self, item: Item, out: dict, first: tuple | None) -> None:
        if first is not None:
            expect(self.summary(out) == first,
                   "output differs from the first round")
            return
        ty, d, cf = out["type"], out["derivation"], out["cut_free"]
        expect(_instance_of(out["scheme"].body, ty, {}),
               "checked type is not an instance of the principal type")
        expect(out["image_type"] == ty, "translation changes the type")
        expect(d.conclusion.succedent == ty, "derivation proves another type")
        expect(_count_rule(cf, SRule.CUT) == 0, "cut left behind")
        expect(cf.conclusion == d.conclusion and out["end"] == d.conclusion,
               "end sequent changed")
        expect(out["parsed"] == cf, "derivation does not round-trip")
        expect(out["extracted_type"] == ty, "extracted term has another type")
        check_breaks_kept(d, cf)

    def count(self, tracer: Tracer, item: Item, out: dict) -> None:
        d, cf = out["derivation"], out["cut_free"]
        tracer.counts["lambda_pair.image_nodes"] += gen.l_size(out["image"])
        tracer.counts["sequent.nodes_in"] += d.node_count()
        tracer.counts["sequent.cuts_in"] += _count_rule(d, SRule.CUT)
        tracer.counts["sequent.nodes_out"] += cf.node_count()
        tracer.counts["sequent.breaks_kept"] += _count_rule(cf, SRule.BRK)
        tracer.counts["sequent.breaks_dropped"] += sum(
            (_brk_residues(d) - _brk_residues(cf)).values())
        tracer.counts["sequent.derivation_bytes"] += len(out["text"])
        tracer.counts["syntax.nodes_in"] += term_size(item.data)
        tracer.counts["syntax.nodes_out"] += term_size(out["extracted"])

    def replay_steps(self, out: dict):
        return []


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    stdin: str = ""

    @property
    def key(self) -> str:
        digest = hashlib.sha256(self.stdin.encode()).hexdigest()[:12]
        return " ".join(self.argv) + (f" <{digest}" if self.stdin else "")


def cli_invocations() -> list[tuple[Invocation, bool]]:
    """Every invocation of the cli workload, with whether it is large.

    Inputs are fixed, not seeded, so that each has a recorded exit code and
    stdout digest.  Together they run all nine subcommands on the samples,
    on catalog terms and on derivations that sequent-fromterm prints.  The
    large ones read a 100-node generated term, its derivation, or the break
    chain at n = 20.
    """
    out = [(Invocation(argv), False) for argv in (
        ("check", "samples/b1.bterm"),
        ("infer", "samples/b1.bterm"),
        ("normalize", "--trace", "samples/divisibility_u.bterm"),
        ("normalize", "--strategy", "last", "samples/identity_applied.bterm"),
        ("normalize", "--experimental-blconv", "samples/nonconfluent.bterm"),
        ("translate", "samples/divisibility_u.bterm"),
        ("sequent-fromterm", "samples/identity_applied.bterm"),
        ("axioms", "B4", "--A", "A", "--B", "B"),
        ("axioms", "B5b", "--A", "A", "--B", "B", "--C", "C"),
        ("catalog", "divisibility-u", "--A", "A", "--B", "A -> B"),
        ("catalog", "homomorphism", "--A", "A", "--B", "B", "--C", "C"),
    )]
    for name, t in catalog_terms():
        if name in ("divisibility-t", "homomorphism"):
            text = print_derivation(nd_to_sequent(t))
            out.append((Invocation(("sequent-check", "-"), text), False))
            out.append((Invocation(("sequent-cutelim", "-"), text), False))

    (generated,), _ = gen.random_terms(0, 1, 0)
    big = print_term(generated)
    derivation = print_derivation(nd_to_sequent(generated))
    for argv in (("check", "-"), ("infer", "-"), ("normalize", "--trace", "-"),
                 ("translate", "-"), ("sequent-fromterm", "-")):
        out.append((Invocation(argv, big), True))
    for argv in (("sequent-check", "-"), ("sequent-cutelim", "-")):
        out.append((Invocation(argv, derivation), True))
    out.append((Invocation(("normalize", "--trace", "-"),
                           print_term(gen.break_chain(20))), True))

    # expected error exits: 1 type error, 2 syntax error, 3 budget, 4 usage
    out += [(Invocation(("check", "-"), r"(f : A -> B) (a : B)"), False),
            (Invocation(("sequent-check", "-"), "(NOPE [|- A])"), False),
            (Invocation(("normalize", "--max-steps", "1",
                         "samples/divisibility_u.bterm")), False),
            (Invocation(("sequent-cutelim", "--node-budget", "1", "-"),
                        derivation), False),
            (Invocation(("axioms", "B1", "--A", "A")), False),
            (Invocation(("check", "samples/missing.bterm")), False)]
    return out


def python(*args: str, stdin: str = "") -> subprocess.CompletedProcess:
    """Run the interpreter on args, with breakcalc importable from ./src."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], input=stdin, text=True,
                          capture_output=True, cwd=ROOT, env=env, timeout=60,
                          check=False)


def run_cli(inv: Invocation) -> subprocess.CompletedProcess:
    return python("-m", "breakcalc.cli", *inv.argv, stdin=inv.stdin)


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Cli:
    """python -m breakcalc.cli as one subprocess at a time.

    Why: only here do interpreter start-up and package import dominate; a
    bare interpreter is a large share of every invocation.
    """

    name = "cli"
    compare_rounds = False

    def setup(self, seed: int) -> list[Item]:
        golden = json.loads(GOLDEN_CLI.read_text())["invocations"]
        return [Item(inv.key, large, inv, golden.get(inv.key, {}))
                for inv, large in cli_invocations()]

    def run(self, calls: Calls, item: Item, traced: bool) -> dict:
        proc = run_cli(item.data)
        return {"code": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr}

    def check(self, item: Item, out: dict, first: tuple | None) -> None:
        expect(bool(item.expected), "no recorded output")
        expect(out["code"] == item.expected["code"], "exit code")
        expect(stdout_digest(out["stdout"]) == item.expected["stdout_sha256"],
               "stdout digest")
        expect("Traceback" not in out["stderr"], "traceback on stderr")

    def count(self, tracer: Tracer, item: Item, out: dict) -> None:
        pass

    def replay_steps(self, out: dict):
        return []


WORKLOADS = {w.name: w for w in (Chains(), Explore(), Proofs(), Cli())}


def shuffled(items: list[Item], seed: int, round_no: int) -> list[Item]:
    order = list(items)
    random.Random(seed * 1_000_003 + round_no).shuffle(order)
    return order
