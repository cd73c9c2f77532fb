"""Rule and program semantics: classical models, reducts, SE-models, answer sets.

A rule is read as the classical implication  or(head) <- and(body)  where an
empty disjunction is falsity and an empty conjunction is truth. <I,J> is an
SE-model of r when J classically satisfies r and I satisfies the reduct of r
under J. `is_c_model`, `reduct` and `is_se_model` state that definition pair
by pair. `se_models` instead computes the SE-set from the rule's four
(H+, H-, B+, B-) masks in one kernel call, `SESet.excluding`: the full set
minus the rule's two countermodel products (see the lattice module), a few
integer operations with no walk over the pairs. A program's SE-set is one
such call over the products of all its rules.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from .canonical import secan
from .core import (EPSILON, Alphabet, Interpretation, Program, Rule, SEInterpretation,
                   SESet, all_interpretations)

Masks = tuple[int, int, int, int]
Product = tuple[tuple[int, int], tuple[int, int]]  # (here, there) intervals of (bottom, top) masks


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


def _products_of(masks: Masks) -> tuple[Product, Product]:
    """The countermodel products L1 x L2 and all x (L1 n L2) of the proper rule with
    (H+, H-, B+, B-) masks `masks`, where L1 = [B+, L \\ H+] and L2 = [H- u B+, L \\ B-].
    A top may set bits above the alphabet; no pair reads them."""
    hp, hn, bp, bn = masks
    return ((bp, ~hp), (hn | bp, ~bn)), ((0, -1), (hn | bp, ~(hp | bn)))


def _rule_products(rules: Iterable[Rule], alphabet: Alphabet) -> Iterator[Product]:
    """The countermodel products of the proper rules, computed as they are read, so
    that the cap is checked before any rule's scope."""
    for rule in rules:
        if not rule.is_epsilon:
            yield from _products_of(_masks(rule, alphabet))


def se_models(rule: Rule, alphabet: Alphabet, cap: int | None = None) -> SESet:
    """All SE-models of a single rule over the alphabet."""
    return SESet.excluding(alphabet, _rule_products((rule,), alphabet), cap)


def se_models_program(program: Program, alphabet: Alphabet, cap: int | None = None) -> SESet:
    """Intersection of the rules' SE-model sets; everything for the empty program."""
    return SESet.excluding(alphabet, _rule_products(program, alphabet), cap)


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
    return frozenset(Interpretation(alphabet, there) for _, there in answers.masks())
