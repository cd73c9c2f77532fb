"""Rule and program semantics: classical models, reducts, SE-models, answer sets.

A rule is read as the classical implication  or(head) <- and(body)  where an
empty disjunction is falsity and an empty conjunction is truth. <I,J> is an
SE-model of r when J classically satisfies r and I satisfies the reduct of r
under J. `is_c_model`, `reduct` and `is_se_model` state that definition pair
by pair; `se_models` instead removes the rule's two countermodel products
(see the lattice module) from the full SE-set, a few integer operations
with no walk over the pairs.
"""
from __future__ import annotations

from .canonical import secan
from .core import (EPSILON, Alphabet, Interpretation, Program, Rule, SEInterpretation,
                   SESet, all_interpretations)

Masks = tuple[int, int, int, int]


def _masks(rule: Rule, alphabet: Alphabet) -> Masks:
    return (alphabet.mask_of(rule.head_pos), alphabet.mask_of(rule.head_neg),
            alphabet.mask_of(rule.body_pos), alphabet.mask_of(rule.body_neg))


def _c_sat(masks: Masks, bits: int) -> bool:
    hp, hn, bp, bn = masks
    body_holds = (bp & bits) == bp and (bn & bits) == 0
    head_holds = (hp & bits) != 0 or (hn & ~bits) != 0
    return head_holds or not body_holds


def is_c_model(rule: Rule, interpretation: Interpretation) -> bool:
    """Classical satisfaction of the rule's implication reading."""
    if rule.is_epsilon:
        return True
    return _c_sat(_masks(rule, interpretation.alphabet), interpretation.bits)


def c_models(rule: Rule, alphabet: Alphabet, cap: int | None = None) -> frozenset[Interpretation]:
    interps = all_interpretations(alphabet, cap)
    if rule.is_epsilon:
        return frozenset(interps)
    masks = _masks(rule, alphabet)
    return frozenset(j for j in interps if _c_sat(masks, j.bits))


def reduct(rule: Rule, there: Interpretation) -> Rule:
    """Positive part left after fixing the negative literals under `there`.

    The result is the canonical tautology when some negative-head atom is
    false under `there` or some negative-body atom is true; atoms outside
    the alphabet of `there` count as false.
    """
    if rule.is_epsilon:
        return EPSILON
    if any(a not in there for a in rule.head_neg) or any(a in there for a in rule.body_neg):
        return EPSILON
    return Rule(head_pos=rule.head_pos, body_pos=rule.body_pos)


def is_se_model(rule: Rule, se: SEInterpretation) -> bool:
    return is_c_model(rule, se.there) and is_c_model(reduct(rule, se.there), se.here)


def _intervals(rule: Rule, alphabet: Alphabet) -> tuple[tuple[int, int], tuple[int, int]]:
    """(bottom, top) masks of a proper rule's countermodel intervals
    L1 = [B+, L \\ H+] and L2 = [H- u B+, L \\ B-]."""
    hp, hn, bp, bn = _masks(rule, alphabet)
    full = alphabet.full_mask
    return (bp, full & ~hp), (hn | bp, full & ~bn)


def _countermodels(alphabet: Alphabet, l1: tuple[int, int], l2: tuple[int, int],
                   cap: int | None) -> SESet:
    """Pairs <I,J> with J in l2 and I or J in l1, each interval a (bottom, top) mask pair."""
    (bot1, top1), (bot2, top2) = l1, l2
    return (SESet.where(alphabet, l1, l2, cap)
            | SESet.where(alphabet, (0, alphabet.full_mask), (bot1 | bot2, top1 & top2), cap))


def se_models(rule: Rule, alphabet: Alphabet, cap: int | None = None) -> SESet:
    """All SE-models of a single rule over the alphabet."""
    full = SESet.full(alphabet, cap)
    if rule.is_epsilon:
        return full
    return full - _countermodels(alphabet, *_intervals(rule, alphabet), cap)


def se_models_program(program: Program, alphabet: Alphabet, cap: int | None = None) -> SESet:
    """Intersection of the rules' SE-model sets; everything for the empty program."""
    models = SESet.full(alphabet, cap)
    for rule in program:
        models &= se_models(rule, alphabet, cap)
    return models


def _canonical(rule: Rule, alphabet: Alphabet) -> Rule:
    """secan(rule), the name of its SE-class, once its atoms are known to be in scope."""
    _masks(rule, alphabet)
    return secan(rule)


def is_se_tautology(rule: Rule, alphabet: Alphabet, cap: int | None = None) -> bool:
    """Every SE-interpretation is a model, decided from the canonical form; `cap` is unused."""
    return _canonical(rule, alphabet) == EPSILON


def is_well_defined(se_set: SESet) -> bool:
    """True when <J,J> is present for every member <I,J>."""
    return se_set.totals() <= se_set


def answer_sets(program: Program, alphabet: Alphabet, cap: int | None = None) -> frozenset[Interpretation]:
    """Total SE-models <J,J> of the program with no proper <I,J> below them."""
    s = se_models_program(program, alphabet, cap)
    totals = s.totals()
    answers = totals - (s - totals).totals()
    return frozenset(Interpretation(alphabet, there) for _, there in answers.index_masks())
