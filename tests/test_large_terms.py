"""The paper's reduction properties on terms of 100 to 1,000 nodes:
Church-Rosser (both strategies reach one normal form), subject reduction for
every one-step reduct, the translation of a term and of its normal form
reaching one normal form, the termination measure dropping on every silent
and permuting step, and every step mapping through the translation."""

import functools
import random

import pytest

from breakcalc.lambda_pair import (
    check_step_mapping, l_alpha_eq, l_normalize, star_translate,
)
from breakcalc.reduction import (
    PERMUTING_RULES, Redex, RuleName, is_silent, measure, normalize,
    reducts_one_step,
)
from breakcalc.syntax import alpha_eq, term_size
from breakcalc.typecheck import check
from termgen import random_large_term

# (minimum size, number of terms); the 1,000-node terms take most of the time
SIZES = [(100, 20), (300, 6), (1000, 3)]


@functools.cache
def large_terms(min_size: int, count: int):
    """(term, leftmost-outermost normal form) pairs."""
    rng = random.Random(7000 + min_size)
    terms = [random_large_term(rng, min_size) for _ in range(count)]
    return [(t, normalize(t)[0]) for t in terms]


sizes = pytest.mark.parametrize("min_size, count", SIZES,
                                ids=[f"{n}-nodes" for n, _ in SIZES])


@sizes
def test_terms_have_the_asked_size(min_size, count):
    for t, _ in large_terms(min_size, count):
        assert min_size <= term_size(t) < 2 * min_size


@sizes
def test_first_and_last_normal_forms_are_alpha_equal(min_size, count):
    for t, nf in large_terms(min_size, count):
        assert alpha_eq(normalize(t, strategy="last")[0], nf)


@sizes
def test_every_one_step_reduct_keeps_the_type(min_size, count):
    for t, _ in large_terms(min_size, count):
        ty = check(t)
        reducts = reducts_one_step(t)
        assert reducts
        for u in reducts:
            assert check(u) == ty


@sizes
def test_translation_of_the_normal_form_has_the_same_normal_form(
        min_size, count):
    for t, nf in large_terms(min_size, count):
        assert l_alpha_eq(l_normalize(star_translate(t)),
                          l_normalize(star_translate(nf)))


@sizes
def test_measure_drops_on_silent_and_permuting_steps(min_size, count):
    seen = 0
    for t, _ in large_terms(min_size, count):
        for strategy in ("first", "last"):
            for step in normalize(t, strategy=strategy)[1]:
                r = Redex(step.position, step.rule)
                if step.rule in PERMUTING_RULES or (
                        step.rule in (RuleName.L_CONV, RuleName.B_CONV)
                        and is_silent(step.before, r)):
                    assert measure(step.after) < measure(step.before)
                    seen += 1
    assert seen


@pytest.mark.parametrize("min_size, count", SIZES[:2],
                         ids=[f"{n}-nodes" for n, _ in SIZES[:2]])
def test_every_step_of_the_last_trace_maps_through_the_translation(
        min_size, count):
    seen = 0
    for t, _ in large_terms(min_size, count):
        for step in normalize(t, strategy="last")[1]:
            # MappingFailure if the step does not map as its clause says
            check_step_mapping(step.before, Redex(step.position, step.rule))
            seen += 1
    assert seen
