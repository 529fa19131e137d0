"""Affine lambda calculus with pairs plus a break construct: the term calculus
of minimal Lukasiewicz logic, with type checking, principal type inference,
normalization, a verified translation into the lambda calculus with pairs, and
a sequent calculus with cut elimination.
"""

from .syntax import (
    App, Arrow, Atom, Break, IllFormedTermError, Lam, Let, Pair, Tensor, Term,
    TypeExpr, Var, affine_check, alpha_eq, canonicalize, free_vars, ks_types,
    substitute, term_size, type_size,
)
from .parser import ParseError, SourceSpan, parse_term, parse_type
from .printer import print_lterm, print_term, print_type
from .typecheck import (
    AffinityViolation, OccursCheck, TypeCheckError, TypeMismatch, TypeScheme,
    UnificationFailure, UntypedTerm, check, erase, infer_principal,
)
from .reduction import (
    InvalidRedex, Measure, Redex, RuleName, StepBudgetExceeded, TraceStep,
    apply_step, find_redexes, format_trace, is_silent, measure, normalize,
    reducts_one_step,
)
from .lambda_pair import (
    LApp, LLam, LPair, LProj0, LProj1, LTerm, LVar, MappingFailure,
    check_step_mapping, check_substitution_lemma, l_normalize, l_step,
    star_translate,
)
from .catalog import (
    AxiomId, axiom_L_term, axiom_term, break_free_split, divisibility_terms,
    homomorphism_term, identity_break,
)
from .sequent import (
    BudgetExceeded, InvalidRule, PreconditionViolation, SDerivation, SRule,
    Sequent, brk_via_cut_empty, brk_via_cut_superfluous, check_derivation,
    eliminate_cuts, nd_to_sequent, parse_derivation, print_derivation,
    prove_bounded, sequent_to_term,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
