"""Command-line front end.

Exit codes: 0 success, 1 type or derivation error, 2 syntax error, 3 step or
node budget exceeded, or input nested too deeply for Python's recursion limit,
4 usage error (a negative step or node budget among them).  Every error is
one line on standard error.  Reads from standard input when the file argument
is ``-``.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog
from .lambda_pair import l_check, star_translate
from .parser import ParseError, parse_term, parse_type
from .printer import print_lterm, print_term, print_type
from .reduction import StepBudgetExceeded, format_trace, normalize
from .sequent import (
    BudgetExceeded, InvalidRule, PreconditionViolation, check_derivation,
    eliminate_cuts, nd_to_sequent, parse_derivation, print_derivation,
)
from .syntax import IllFormedTermError, free_vars
from .typecheck import TypeCheckError, check, erase, infer_principal

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_SYNTAX_ERROR = 2
EXIT_BUDGET = 3
EXIT_USAGE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _build_parser() -> _Parser:
    ap = _Parser(prog="breakcalc",
                 description="Affine lambda calculus with a break construct: "
                             "type checking, inference, normalization, "
                             "translation, and a sequent calculus.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="type-check a term file")
    p.add_argument("file")

    p = sub.add_parser("infer", help="principal type of the erased term")
    p.add_argument("file")

    p = sub.add_parser("normalize", help="reduce a term to normal form")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true",
                   help="print one line per reduction step")
    p.add_argument("--max-steps", type=int, default=100_000)
    p.add_argument("--experimental-blconv", action="store_true",
                   help="enable the confluence-breaking break/let rule")
    p.add_argument("--strategy", choices=("first", "last"), default="first")

    p = sub.add_parser("translate",
                       help="translate into the lambda calculus with pairs")
    p.add_argument("file")

    p = sub.add_parser("axioms", help="emit an axiom inhabitant")
    p.add_argument("id", choices=[a.value for a in catalog.AXIOMS])
    q = sub.add_parser("catalog", help="emit a named catalog term")
    q.add_argument("name", choices=tuple(catalog.NAMED))
    for p in (p, q):
        for atom in "ABC":
            p.add_argument("--" + atom, metavar="TYPE")

    p = sub.add_parser("sequent-check", help="check a derivation file")
    p.add_argument("file")

    p = sub.add_parser("sequent-cutelim",
                       help="eliminate cuts from a derivation file")
    p.add_argument("file")
    p.add_argument("--node-budget", type=int, default=1_000_000)

    p = sub.add_parser("sequent-fromterm",
                       help="derivation for a term file")
    p.add_argument("file")
    return ap


def _require_types(args, *names: str) -> list:
    out = []
    for n in names:
        raw = getattr(args, n)
        if raw is None:
            raise UsageError(f"missing --{n}")
        out.append(parse_type(raw))
    return out


def _run(args) -> str:
    """The subcommand's standard output, without its final newline."""
    match args.command:
        case "check":
            return print_type(check(parse_term(_read(args.file))))
        case "infer":
            term = parse_term(_read(args.file))
            return print_type(infer_principal(erase(term)).body)
        case "normalize":
            term = parse_term(_read(args.file))
            check(term)
            nf, steps = normalize(term, max_steps=args.max_steps,
                                  strategy=args.strategy,
                                  experimental=args.experimental_blconv)
            if args.trace and steps:
                return format_trace(steps) + "\n" + print_term(nf)
            return print_term(nf)
        case "translate":
            term = parse_term(_read(args.file))
            check(term)
            image = star_translate(term)
            l_check(image, free_vars(term))
            return print_lterm(image)
        case "axioms" | "catalog":
            entry = (catalog.AXIOMS[args.id] if args.command == "axioms"
                     else catalog.NAMED[args.name])
            types = _require_types(args, *entry[0])
            return print_term(catalog.instance(entry, *types))
        case "sequent-check":
            return str(check_derivation(parse_derivation(_read(args.file))))
        case "sequent-cutelim":
            d = parse_derivation(_read(args.file))
            check_derivation(d)
            return print_derivation(eliminate_cuts(d, args.node_budget))
        case "sequent-fromterm":
            term = parse_term(_read(args.file))
            return print_derivation(nd_to_sequent(term))


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        print(_run(ap.parse_args(argv)))
        return EXIT_OK
    except (UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX_ERROR
    except (TypeCheckError, IllFormedTermError, InvalidRule,
            PreconditionViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TYPE_ERROR
    except (StepBudgetExceeded, BudgetExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        # parsing and typing, inference, free names, substitution, alpha keys,
        # term printing, the translations, check_derivation and
        # eliminate_cuts recurse per level; the limit is left as is
        print("budget exceeded: input nested too deeply", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
