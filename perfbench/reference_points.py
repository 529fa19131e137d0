"""Measure the reference points that the benchmark's baseline records beside
the ROADMAP's figures, and print them as JSON.

    python3 perfbench/reference_points.py

Run from the root of a checkout.  Each time is the median of REPEATS runs of
raw wall time; kernel_ms shows how fast the host was meanwhile.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from breakcalc.parser import parse_term, tokenize  # noqa: E402
from breakcalc.printer import print_term  # noqa: E402
from breakcalc.reduction import normalize  # noqa: E402
from breakcalc.sequent import nd_to_sequent  # noqa: E402
from breakcalc.typecheck import check  # noqa: E402

from perfbench import gen  # noqa: E402
from perfbench.run import K_REF_MS, kernel_ms  # noqa: E402
from perfbench.workloads import python  # noqa: E402

REPEATS = 5


def median_s(fn, *args) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    _, (large,) = gen.random_terms(0, 0, 1)
    texts = [print_term(t) for t in (gen.break_chain(160),
                                     gen.permuting_chain(160), large)]
    tokenize_s = sum(median_s(tokenize, s) for s in texts)
    parse_s = sum(median_s(parse_term, s) for s in texts)
    normalize_cli = median_s(python, "-m", "breakcalc.cli", "normalize",
                             "samples/divisibility_u.bterm")
    interpreter = median_s(python, "-c", "pass")
    kernel = statistics.median(kernel_ms() for _ in range(20))
    print(json.dumps({
        "break_chain_160_normalize_s": median_s(normalize, gen.break_chain(160)),
        "identity_chain_160_normalize_s": median_s(normalize,
                                                   gen.identity_chain(160)),
        "tokenize_share_of_parse": tokenize_s / parse_s,
        "nd_to_sequent_over_check_1000_nodes":
            median_s(nd_to_sequent, large) / median_s(check, large),
        "cli_normalize_sample_ms": 1000 * normalize_cli,
        "bare_interpreter_ms": 1000 * interpreter,
        "python": sys.version.split()[0],
        # this run's host speed: kernel_ms() against its unloaded K_REF_MS
        "kernel_ms": kernel, "kernel_ref_ms": K_REF_MS,
    }, indent=1))


if __name__ == "__main__":
    main()
