"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from breakcalc.parser import parse_term  # noqa: E402
from breakcalc.reduction import find_redexes, normalize  # noqa: E402
from breakcalc.catalog import identity_break  # noqa: E402
from breakcalc.sequent import eliminate_cuts, nd_to_sequent  # noqa: E402
from breakcalc.syntax import children, term_size  # noqa: E402
from breakcalc.typecheck import check  # noqa: E402

from perfbench import gen, run, workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _item(workload: str, item_id: str):
    w = wl.WORKLOADS[workload]
    items = w.setup(1)
    return w, next(i for i in items if i.id == item_id)


def _run(w, item):
    out = w.run(wl.Calls(wl.CALLS), item, False)
    w.check(item, out, None)
    return out


def test_generator_is_deterministic_for_a_seed():
    first = gen.random_terms(7, 2, 1)
    assert gen.random_terms(7, 2, 1) == first
    assert gen.random_terms(8, 2, 1) != first


def _constructors(t) -> set[type]:
    return {type(t)}.union(*(_constructors(c) for c in children(t)))


def test_generated_terms_are_typable_sized_and_cover_every_rule():
    (small,), (large,) = gen.random_terms(3, 1, 1)
    for t, (low, high) in ((small, (90, 115)), (large, (900, 1_200))):
        check(t)
        assert low <= term_size(t) <= high
        assert len(_constructors(t)) == 6
        _, steps = normalize(t)
        rules = {r.rule for r in find_redexes(t)} | {s.rule for s in steps}
        assert rules == set(gen.RULES)


def test_chains_check_rejects_a_wrong_normal_form():
    w, item = _item("chains", "break-10")
    out = _run(w, item)
    with pytest.raises(wl.CheckFailed):
        w.check(item, {**out, "text": r"\v:A. v"}, None)
    with pytest.raises(wl.CheckFailed):
        w.check(item, {**out, "steps": out["steps"][:-1]}, None)


def test_explore_check_rejects_a_wrong_normal_form():
    w, item = _item("explore", "small-0")
    out = _run(w, item)
    with pytest.raises(wl.CheckFailed):
        w.check(item, {**out, "normal": item.data}, None)


def test_proofs_check_rejects_a_dropped_brk_node():
    w, item = _item("proofs", "catalog-identity")
    out = _run(w, item)
    # same end sequent |- A -> A, but without the BRK node
    no_break = nd_to_sequent(parse_term(r"\x:A. x"))
    assert no_break.conclusion == out["cut_free"].conclusion
    with pytest.raises(wl.CheckFailed, match="BRK"):
        w.check(item, {**out, "cut_free": no_break, "parsed": no_break}, None)


def test_breaks_kept_allows_only_discarded_premises():
    # a generated term: its unused binders put weakened axioms in the
    # derivation, and two of its BRK nodes sit in safe positions
    (t,), _ = gen.random_terms(2, 1, 0)
    d = nd_to_sequent(t)
    assert wl._has_weakened_axiom(d)
    assert sum(wl._brk_residues(d, safe_only=True).values()) == 2
    wl.check_breaks_kept(d, eliminate_cuts(d))
    no_break = nd_to_sequent(parse_term(r"\x:A. x"))
    with pytest.raises(wl.CheckFailed, match="BRK"):
        wl.check_breaks_kept(d, no_break)
    # nor may a BRK node appear
    with pytest.raises(wl.CheckFailed, match="BRK"):
        wl.check_breaks_kept(no_break, nd_to_sequent(identity_break(wl.A)))


def test_cli_check_rejects_a_wrong_stdout():
    w, item = _item("cli", "check samples/b1.bterm")
    out = _run(w, item)
    with pytest.raises(wl.CheckFailed):
        w.check(item, {**out, "stdout": out["stdout"] + " "}, None)
    with pytest.raises(wl.CheckFailed):
        w.check(item, {**out, "code": 1}, None)


def test_metric_definitions_match_benchmark_json():
    for key, defined in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert listed == defined


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "proofs",
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    *_, report, result = proc.stdout.strip().splitlines()
    result, report = json.loads(result), json.loads(report)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK[key])
    assert result["correct"] and result["failed"] == 0, report["failures"]


def test_import_total_covers_every_module():
    stderr = wl.python("-X", "importtime", "-c", "import breakcalc.cli").stderr
    total, self_ms = run.import_table(stderr)
    assert set(self_ms) == set(run.MODULES)
    assert total >= sum(self_ms.values())


def test_a_failed_first_round_fails_every_round():
    loop = run.Loop(wl, "chains", wl.WORKLOADS["chains"].setup(1)[:2], 1, False)
    loop.w = FailingFirst(loop.w)
    loop._round(False)
    loop._round(False)
    assert loop.failed == 2 * 2 and set(loop.failures) == {i.id for i in loop.items}


class FailingFirst:
    """A workload that fails each item's first check and compares later
    rounds with the first."""

    compare_rounds = True

    def __init__(self, w):
        self.w = w

    def run(self, calls, item, traced):
        return self.w.run(calls, item, traced)

    def summary(self, out):
        return out["text"]

    def check(self, item, out, first):
        if first is None:
            raise wl.CheckFailed("wrong")


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chains",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
