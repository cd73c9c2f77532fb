"""Canonical rule forms and the purely syntactic canonicalization map.

A rule is canonical when it is the canonical tautology, or its head atoms
(positive and negative together) are disjoint from each body part, the two
body parts are disjoint from each other, and a negative head only appears
alongside a positive one. Every rule canonicalizes to the unique canonical
rule with the same SE-models, without ever enumerating interpretations.
"""
from __future__ import annotations

from .core import EPSILON, Rule


def is_canonical(rule: Rule) -> bool:
    if rule.is_epsilon:
        return True
    head = rule.head_pos | rule.head_neg
    if head & rule.body_pos or head & rule.body_neg or rule.body_pos & rule.body_neg:
        return False
    if rule.head_neg and not rule.head_pos:
        return False
    return True


def secan(rule: Rule) -> Rule:
    """Canonical form of a rule, computed from its syntax alone.

    Rules whose positive head meets the positive body, whose negative head
    meets the negative body, or whose body parts overlap are tautologies.
    Otherwise positive head atoms also negated in the body drop out; if no
    positive head survives, negative head atoms move into the positive body.
    """
    if rule.is_epsilon:
        return EPSILON
    if (rule.head_pos & rule.body_pos or rule.head_neg & rule.body_neg
            or rule.body_pos & rule.body_neg):
        return EPSILON
    head_pos = rule.head_pos - rule.body_neg
    if head_pos:
        head_neg = rule.head_neg - rule.body_pos
        body_pos = rule.body_pos
    else:
        head_neg = frozenset()
        body_pos = rule.body_pos | rule.head_neg
    return Rule._of(head_pos, head_neg, body_pos, rule.body_neg)
