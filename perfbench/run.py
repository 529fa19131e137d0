"""Benchmark for breakcalc: one workload per run, end-to-end metrics untraced,
per-layer metrics traced.

    python3 perfbench/run.py --workload chains --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports breakcalc from ./src and
fails (exit 2, no result line) when that is missing.  The run:

1. sets up the workload three times (a clean import of breakcalc, the inputs
   from --seed, a warm-up) and reports the median as setup_s;
2. runs whole rounds over the inputs, one item at a time in a seeded order
   (a closed loop with one client), for about --seconds seconds and at least
   the workload's TAIL_ROUNDS rounds;
3. checks every output outside the timed region; an item whose output equals
   a failed first-round output fails again;
4. prints a report, writes it with the spans to perfbench/out/, and prints
   one JSON object as its last line.

Every end-to-end time is host-speed corrected: it is the wall time scaled by
K_REF_MS over the time of a fixed reference kernel run next to it (see
kernel_ms), so it reads as milliseconds on an unloaded host.  The report also
gives the uncorrected wall-clock figures; baseline.json sets their spreads
beside the corrected ones.  Per-layer times are wall time.

With --trace 1 the rounds alternate untraced and traced; the traced ones give
the per-layer self times and counts (per pass over the inputs), and the pair
gives the tracing overhead.  Workloads, and why each was chosen, are in
workloads.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUPS = 3
# Untraced rounds a run makes at least (see tail).  One proofs round already
# takes longer than a run's --seconds (see workloads.Proofs).
TAIL_ROUNDS = {"chains": 4, "explore": 4, "proofs": 1, "cli": 4}
WARM_ITEMS = {"chains": 6, "explore": 6, "proofs": 6, "cli": 2}
CLI_REPEATS = 3
KERNEL_ROUNDS = 40
# kernel_ms() on an unloaded host of the kind the baseline was recorded on
K_REF_MS = 2.0

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "large_ms_p50": "ms",
    "pass_share": "ratio",
    "peak_rss_mb": "MB",
}

RULES = ("beta", "l-conv", "b-conv", "ap-l-conv", "l-l-conv", "ap-b-conv",
         "l-b-conv", "b-l-conv")
MODULES = ("breakcalc", "breakcalc.syntax", "breakcalc.parser",
           "breakcalc.printer", "breakcalc.typecheck", "breakcalc.reduction",
           "breakcalc.lambda_pair", "breakcalc.catalog", "breakcalc.sequent",
           "breakcalc.cli")
SUBCOMMANDS = ("check", "infer", "normalize", "translate", "axioms", "catalog",
               "sequent-check", "sequent-cutelim", "sequent-fromterm")
SPAN_LAYERS = (
    "parser.parse_term", "parser.tokenize", "printer.print_term",
    "printer.print_lterm", "reduction.format_trace", "typecheck.check",
    "typecheck.erase", "typecheck.infer_principal", "reduction.normalize",
    "reduction.normalize_last", "reduction.reducts_one_step",
    "lambda_pair.star_translate", "lambda_pair.l_check",
    "lambda_pair.l_normalize", "sequent.nd_to_sequent",
    "sequent.eliminate_cuts", "sequent.print_derivation",
    "sequent.parse_derivation", "sequent.check_derivation",
    "sequent.sequent_to_term",
)
COUNTS = (
    "reduction.trace_bytes", "reduction.steps", "lambda_pair.image_nodes",
    "sequent.nodes_in", "sequent.cuts_in", "sequent.nodes_out",
    "sequent.breaks_kept", "sequent.breaks_dropped",
    "sequent.derivation_bytes", "syntax.nodes_in",
    "syntax.nodes_out",
)
PER_LAYER = {
    **{f"{name}_ms": "ms" for name in SPAN_LAYERS},
    **{name: "count" for name in COUNTS},
    **{f"reduction.rule.{rule}": "count" for rule in RULES},
    "reduction.find_redexes_us_per_step": "us",
    "reduction.apply_step_us_per_step": "us",
    "reduction.redex_use_ratio": "ratio",
    "cli.import_ms": "ms",
    **{f"cli.import_ms.{m}": "ms" for m in MODULES},
    "cli.interpreter_ms": "ms",
    **{f"cli.main_ms.{c}": "ms" for c in SUBCOMMANDS},
    "cli.startup_ms": "ms",
    "trace.untraced_items_per_s": "items/s",
    "trace.traced_items_per_s": "items/s",
    "trace.overhead_ratio": "ratio",
}


def _kernel_tree(n: int):
    return None if n == 0 else (n, _kernel_tree(n - 1), {"k": n})


def kernel_ms() -> float:
    """Time of one run of a fixed pure-Python reference kernel, in ms.

    The shared host this benchmark was built on swings in speed by up to 2x
    for tens of seconds at a time.  The kernel, run between items, slows with
    the items around it, so an item's wall time times K_REF_MS over the
    kernel's time varies less from run to run than the wall time does;
    baseline.json records both spreads over the same runs.
    """
    gc.disable()  # a collection would time the workload's heap, not the host
    try:
        t0 = time.perf_counter()
        acc = 0
        for _ in range(KERNEL_ROUNDS):
            node = _kernel_tree(200)
            while node is not None:
                acc += node[0] + len(node[2])
                node = node[1]
        return (time.perf_counter() - t0) * 1000.0
    finally:
        gc.enable()


class SetupError(Exception):
    pass


def _fresh_import():
    """Import breakcalc and the workloads from a clean module table."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("breakcalc", "perfbench"):
            del sys.modules[name]
    wl = importlib.import_module("perfbench.workloads")
    breakcalc = sys.modules["breakcalc"]
    if Path(breakcalc.__file__).resolve().parent != SRC / "breakcalc":
        raise SetupError(f"breakcalc imported from {breakcalc.__file__}")
    return wl


def setup(workload: str, seed: int):
    """One set-up: import, inputs, warm-up.

    Returns (scaled seconds, wall seconds, workloads module, items); the
    time is scaled by the reference kernel like every other time (see Loop).
    """
    k_before = kernel_ms()
    t0 = time.perf_counter()
    wl = _fresh_import()
    w = wl.WORKLOADS[workload]
    items = w.setup(seed)
    calls = wl.Calls(wl.CALLS)
    for item in [i for i in items if not i.large][:WARM_ITEMS[workload]]:
        w.run(calls, item, False)
    seconds = time.perf_counter() - t0
    return (seconds * 2 * K_REF_MS / (k_before + kernel_ms()), seconds, wl,
            items)


def tail(latencies: list[float], per_round: int,
         rounds: int) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it in a run of
    `rounds` rounds, read off all of this run's samples.

    Every run of a workload makes at least its TAIL_ROUNDS rounds of the same
    items, so this is the same percentile of the same mix in every run.
    Returns (value, percentile, samples beyond it here).
    """
    ordered = sorted(latencies)
    share = 10 / (per_round * rounds)
    beyond = round(share * len(ordered))
    return ordered[-1 - beyond], 100.0 * (1 - share), beyond


class Loop:
    """Rounds over the items; untraced, or alternating untraced and traced.

    A fixed reference kernel runs between items.  Each item's time is scaled
    by K_REF_MS over the mean kernel time just before and just after it, which
    removes most of the host's speed swings (see kernel_ms).
    """

    def __init__(self, wl, workload: str, items, seed: int, traced: bool):
        self.wl, self.w, self.items = wl, wl.WORKLOADS[workload], items
        self.seed, self.traced = seed, traced
        # (item id, round, wall ms, scaled ms, large) of untraced items
        self.samples: list[tuple[str, int, float, float, bool]] = []
        self.attempted = self.failed = 0
        # item id -> why it failed, the first time it did
        self.failures: dict[str, str] = {}
        # item id -> (summary of the first-round output, why its check
        # failed or None)
        self.first: dict[str, tuple[tuple, str | None]] = {}
        # items completed per scaled busy second, one entry per round
        self.rates: dict[bool, list[float]] = {False: [], True: []}
        # the same per wall-clock busy second, untraced rounds only
        self.wall_rates: list[float] = []
        self.tracer = wl.Tracer()
        self.traced_passes = 0
        self.replay = {"steps": 0, "redexes": 0, "find_s": 0.0, "apply_s": 0.0}
        self.rounds = 0
        self.tail_rounds = TAIL_ROUNDS[workload]
        self.min_rounds = 1 if traced else self.tail_rounds

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            traced = self.traced and self.rounds % 2 == 1
            t0 = time.perf_counter()
            self._round(traced)
            last = time.perf_counter() - t0
            self.rounds += 1
            elapsed = time.perf_counter() - start
            untraced = len(self.rates[False])
            if elapsed + last > seconds and untraced >= self.min_rounds \
                    and (self.rates[True] or not self.traced):
                break

    def _round(self, traced: bool) -> None:
        wl, w = self.wl, self.w
        tracer = self.tracer if traced else None
        calls = wl.Calls(wl.CALLS, tracer)
        run_item = w.run if tracer is None else tracer.span("item", w.run)
        replay = traced and self.traced_passes == 0
        busy = wall_busy = 0.0
        done = 0
        k_before = kernel_ms()
        for index, item in enumerate(wl.shuffled(self.items, self.seed, self.rounds)):
            self.attempted += 1
            self.tracer.item = index
            first_span = len(self.tracer.spans)
            t0 = time.perf_counter()
            try:
                out = run_item(calls, item, traced)
            except Exception as exc:  # a raising item is a failed item
                out = None
                self._fail(item, f"raised {exc!r}")
            wall = time.perf_counter() - t0
            # the traced rounds' extra tokenize calls are work, not overhead
            wall -= sum(s.end - s.start for s in self.tracer.spans[first_span:]
                        if s.name == "parser.tokenize")
            k_after = kernel_ms()
            scaled = wall * 2 * K_REF_MS / (k_before + k_after)
            k_before = k_after
            busy += scaled
            wall_busy += wall
            if out is None:
                continue
            done += 1
            if not traced:
                self.samples.append((item.id, self.rounds, wall * 1000.0,
                                     scaled * 1000.0, item.large))
            first = self.first.get(item.id)
            why = None
            try:
                w.check(item, out, first and first[0])
                if first is not None and first[1] is not None:
                    raise wl.CheckFailed(first[1])
            except wl.CheckFailed as exc:
                why = str(exc)
                self._fail(item, why)
            if w.compare_rounds and first is None:
                self.first[item.id] = (w.summary(out), why)
            if traced:
                w.count(self.tracer, item, out)
                if replay:
                    self._replay(w.replay_steps(out))
        if traced:
            self.traced_passes += 1
        else:
            self.wall_rates.append(done / wall_busy)
        self.rates[traced].append(done / busy)

    def _fail(self, item, why: str) -> None:
        self.failed += 1
        self.failures.setdefault(item.id, why)

    def _replay(self, steps) -> None:
        """Time find_redexes and apply_step on each step's `before` term."""
        from breakcalc.reduction import Redex, apply_step, find_redexes

        r = self.replay
        for s in steps:
            t0 = time.perf_counter()
            redexes = find_redexes(s.before)
            t1 = time.perf_counter()
            apply_step(s.before, Redex(s.position, s.rule))
            t2 = time.perf_counter()
            r["steps"] += 1
            r["redexes"] += len(redexes)
            r["find_s"] += t1 - t0
            r["apply_s"] += t2 - t1

    def latency(self, column: int) -> dict:
        """Latency metrics over one column of the samples."""
        lat = [s[column] for s in self.samples]
        tail_ms, percentile, beyond = tail(lat, len(self.items),
                                          self.tail_rounds)
        return {"item_ms_p50": statistics.median(lat), "item_ms_tail": tail_ms,
                "large_ms_p50": statistics.median(s[column] for s in self.samples
                                                  if s[4]),
                "samples": len(lat), "tail_percentile": percentile,
                "tail_samples_beyond": beyond}

    def end_to_end(self, setup_s: float, setup_wall_s: float,
                   workload: str) -> tuple[dict, dict]:
        usage = resource.RUSAGE_CHILDREN if workload == "cli" \
            else resource.RUSAGE_SELF
        scaled = self.latency(3)
        metrics = {
            "setup_s": setup_s,
            "items_per_s": statistics.median(self.rates[False]),
            "item_ms_p50": scaled.pop("item_ms_p50"),
            "item_ms_tail": scaled.pop("item_ms_tail"),
            "large_ms_p50": scaled.pop("large_ms_p50"),
            "pass_share": 1.0 - self.failed / self.attempted,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        }
        wall_clock = {"setup_s": setup_wall_s,
                      "items_per_s": statistics.median(self.wall_rates),
                      **self.latency(2)}
        return metrics, {**scaled, "rounds": self.rounds,
                         "wall_clock": wall_clock}

    def per_layer(self) -> dict:
        passes = self.traced_passes
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        for name, ms in self.tracer.self_ms().items():
            if name != "item":
                metrics[f"{name}_ms"] = ms / passes
        for name, n in self.tracer.counts.items():
            metrics[name] = n / passes
        r = self.replay
        if r["steps"]:
            metrics["reduction.find_redexes_us_per_step"] = \
                r["find_s"] * 1e6 / r["steps"]
            metrics["reduction.apply_step_us_per_step"] = \
                r["apply_s"] * 1e6 / r["steps"]
            metrics["reduction.redex_use_ratio"] = r["steps"] / r["redexes"]
        untraced = statistics.median(self.rates[False])
        traced = statistics.median(self.rates[True])
        metrics["trace.untraced_items_per_s"] = untraced
        metrics["trace.traced_items_per_s"] = traced
        metrics["trace.overhead_ratio"] = untraced / traced
        return metrics


# ---------------------------------------------------------------------------
# cli layers: import table, bare interpreter, in-process main
# ---------------------------------------------------------------------------

def _timed(fn, *args, **kwargs):
    """(seconds, result) of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def import_table(stderr: str) -> tuple[float, dict[str, float]]:
    """cli.import_ms and the self time of each breakcalc module, from the
    output of python -X importtime -c "import breakcalc.cli".

    cli.import_ms is the cumulative time of the breakcalc modules imported at
    the top level: the package (with every submodule its __init__ imports)
    and then breakcalc.cli itself.
    """
    total, self_ms = 0.0, {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, column = line[len("import time:"):].split("|")
        name = column.strip()
        if name in MODULES:
            self_ms[name] = int(own) / 1000.0
            if not column[1:].startswith(" "):  # not nested in another import
                total += int(cumulative) / 1000.0
    return total, self_ms


def cli_layers(wl, items) -> dict:
    metrics: dict[str, float] = {}
    metrics["cli.interpreter_ms"] = 1000.0 * statistics.median(
        _timed(wl.python, "-c", "pass")[0] for _ in range(CLI_REPEATS))
    tables = [import_table(wl.python("-X", "importtime", "-c",
                                     "import breakcalc.cli").stderr)
              for _ in range(CLI_REPEATS)]
    metrics["cli.import_ms"] = statistics.median(t for t, _ in tables)
    for m in MODULES:
        metrics[f"cli.import_ms.{m}"] = statistics.median(
            table.get(m, 0.0) for _, table in tables)

    from breakcalc import cli

    startup = []
    for sub in SUBCOMMANDS:
        inv = next(i.data for i in items
                   if i.data.argv[0] == sub and i.expected.get("code") == 0)
        inproc = []
        for _ in range(CLI_REPEATS):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                saved, sys.stdin = sys.stdin, io.StringIO(inv.stdin)
                try:
                    inproc.append(_timed(cli.main, list(inv.argv))[0])
                finally:
                    sys.stdin = saved
        main_ms = 1000.0 * statistics.median(inproc)
        metrics[f"cli.main_ms.{sub}"] = main_ms
        sub_ms = 1000.0 * statistics.median(
            _timed(wl.run_cli, inv)[0] for _ in range(CLI_REPEATS))
        startup.append(sub_ms - main_ms)
    metrics["cli.startup_ms"] = statistics.median(startup)
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("chains", "explore", "proofs", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "breakcalc" / "__init__.py").is_file():
        print(f"no breakcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.chdir(ROOT)
    times = []
    try:
        for _ in range(SETUPS):
            wl = items = None  # the previous set-up's inputs go first
            scaled, wall, wl, items = setup(args.workload, args.seed)
            times.append((scaled, wall))
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    setup_s = statistics.median(s for s, _ in times)
    setup_wall_s = statistics.median(s for _, s in times)

    loop = Loop(wl, args.workload, items, args.seed, bool(args.trace))
    loop.run(args.seconds)
    if args.trace:
        metrics = loop.per_layer()
        if args.workload == "cli":
            metrics.update(cli_layers(wl, items))
        units, detail = PER_LAYER, {"traced_passes": loop.traced_passes}
    else:
        metrics, detail = loop.end_to_end(setup_s, setup_wall_s,
                                          args.workload)
        units = END_TO_END

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "items": len(items), "detail": detail, "failures": loop.failures,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**report, "samples": loop.samples,
         "spans": loop.tracer.records()}))
    for name, m in report["metrics"].items():
        print(f"{name:42s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
