"""Reconstructing a rule from a set of SE-interpretations.

Each atom of the alphabet is sorted into at most one head or body slot by
four membership conditions, quantified over every SE-interpretation <I,J>
of the alphabet (not just the members of S):

    negative body:  every pair with the atom in J lies in S
    positive head:  not negative-body, and every pair with the atom in I lies in S
    positive body:  every pair with the atom outside J lies in S, and every
                    pair with the atom outside I whose J meets the positive
                    head lies in S
    negative head:  not positive-body, and every pair with the atom outside
                    J lies in S

Each condition tests that one product set of pairs misses every pair S
lacks. The induced rule for the full set is the canonical tautology;
otherwise it is built from the classification. Its SE-model set is always
a subset of S, with equality exactly when some rule has S as its SE-models.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import EPSILON, Rule, SESet


@dataclass(frozen=True)
class AtomClassification:
    neg_body: frozenset[str]
    pos_head: frozenset[str]
    pos_body: frozenset[str]
    neg_head: frozenset[str]

    def __post_init__(self) -> None:
        if self.neg_body & self.pos_head or self.pos_body & self.neg_head:
            raise ValueError("classification slots overlap")


def classify_atoms(s: SESet, cap: int | None = None) -> AtomClassification:
    alphabet = s.alphabet
    full = alphabet.full_mask
    missing = s.complement(cap)
    # a condition holds when its product set of pairs misses every pair S lacks
    neg_body: set[str] = set()
    pos_head: set[str] = set()
    neg_head_ok: set[str] = set()
    for atom in alphabet:
        bit = 1 << alphabet.index(atom)
        if not SESet.where(alphabet, (0, full), (bit, full), cap) & missing:
            neg_body.add(atom)
        elif not SESet.where(alphabet, (bit, full), (0, full), cap) & missing:
            pos_head.add(atom)
        if not SESet.where(alphabet, (0, full), (0, full & ~bit), cap) & missing:
            neg_head_ok.add(atom)

    pos_body: set[str] = set()
    for atom in neg_head_ok:
        bit = 1 << alphabet.index(atom)
        if all(not SESet.where(alphabet, (0, full & ~bit), (1 << alphabet.index(head), full), cap)
               & missing for head in pos_head):
            pos_body.add(atom)

    return AtomClassification(frozenset(neg_body), frozenset(pos_head),
                              frozenset(pos_body), frozenset(neg_head_ok - pos_body))


def induce_rule(s: SESet, cap: int | None = None) -> Rule:
    """The one rule a set of SE-interpretations can stand for."""
    if s.is_full():
        return EPSILON
    c = classify_atoms(s, cap)
    return Rule(head_pos=c.pos_head, head_neg=c.neg_head,
                body_pos=c.pos_body, body_neg=c.neg_body)
