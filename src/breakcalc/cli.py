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
from .typecheck import TypeCheckError, TypeScheme, check, erase, infer_principal

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_SYNTAX_ERROR = 2
EXIT_BUDGET = 3
EXIT_USAGE = 4


#: Each catalog name's term builder and the type options it takes, in order.
_CATALOG = {
    "identity": (catalog.identity_break, ("A",)),
    "divisibility-t": (lambda a, b: catalog.divisibility_terms(a, b)[0],
                       ("A", "B")),
    "divisibility-u": (lambda a, b: catalog.divisibility_terms(a, b)[1],
                       ("A", "B")),
    "axiom-l": (catalog.axiom_L_term, ("A", "B")),
    "homomorphism": (catalog.homomorphism_term, ("A", "B", "C")),
    "break-free-split": (catalog.break_free_split, ("A", "B")),
}


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
    p.add_argument("id", choices=[a.value for a in catalog.AxiomId])
    p.add_argument("--A", required=True, metavar="TYPE")
    p.add_argument("--B", required=True, metavar="TYPE")
    p.add_argument("--C", metavar="TYPE")

    p = sub.add_parser("catalog", help="emit a named catalog term")
    p.add_argument("name", choices=tuple(_CATALOG))
    p.add_argument("--A", metavar="TYPE")
    p.add_argument("--B", metavar="TYPE")
    p.add_argument("--C", metavar="TYPE")

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


def _run(args) -> int:
    out = sys.stdout
    if args.command == "check":
        term = parse_term(_read(args.file))
        print(print_type(check(term)), file=out)
    elif args.command == "infer":
        term = parse_term(_read(args.file))
        scheme: TypeScheme = infer_principal(erase(term))
        print(print_type(scheme.body), file=out)
    elif args.command == "normalize":
        term = parse_term(_read(args.file))
        check(term)
        nf, steps = normalize(term, max_steps=args.max_steps,
                              strategy=args.strategy,
                              experimental=args.experimental_blconv)
        if args.trace and steps:
            print(format_trace(steps), file=out)
        print(print_term(nf), file=out)
    elif args.command == "translate":
        term = parse_term(_read(args.file))
        check(term)
        image = star_translate(term)
        l_check(image, free_vars(term))
        print(print_lterm(image), file=out)
    elif args.command == "axioms":
        types = _require_types(args, "A", "B")
        c = parse_type(args.C) if args.C is not None else None
        term = catalog.axiom_term(catalog.AxiomId(args.id), *types, c)
        print(print_term(term), file=out)
    elif args.command == "catalog":
        build, names = _CATALOG[args.name]
        print(print_term(build(*_require_types(args, *names))), file=out)
    elif args.command == "sequent-check":
        d = parse_derivation(_read(args.file))
        print(str(check_derivation(d)), file=out)
    elif args.command == "sequent-cutelim":
        d = parse_derivation(_read(args.file))
        check_derivation(d)
        print(print_derivation(eliminate_cuts(d, args.node_budget)), file=out)
    elif args.command == "sequent-fromterm":
        term = parse_term(_read(args.file))
        print(print_derivation(nd_to_sequent(term)), file=out)
    else:  # pragma: no cover - argparse enforces the choices
        raise UsageError(f"unknown command {args.command!r}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        return _run(args)
    except (UsageError, ValueError) as exc:
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
        # every walk over terms and types recurses; the limit is left as is
        print("budget exceeded: input nested too deeply", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
