"""Reconstructing a rule from a set of SE-interpretations.

Each atom of the alphabet is sorted into at most one head or body slot by
four conditions on the pairs S lacks, its complement within all SE-pairs of
the alphabet. An atom's ternary digit in a pair <I,J> is 0 when it is outside
J, 1 when it is in J but not in I, and 2 when it is in I:

    negative body:  no missing pair gives the atom digit 1 or 2
    positive head:  some missing pair gives the atom digit 1, none digit 2
    positive body:  no missing pair gives the atom digit 0, and no missing
                    pair whose J meets the positive head gives it digit 1
    negative head:  not positive-body, and no missing pair gives the atom
                    digit 0

So the classification reads the digit masks of the missing pairs, and of
those whose J meets the positive head: the missing pairs minus one cube.
The induced rule for the full set is the canonical tautology; otherwise it is
built from the classification. Its SE-model set is always a subset of S, with
equality exactly when some rule has S as its SE-models.
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
    zero, one, two = missing.digits()
    pos_head, neg_head_ok = one & ~two, full & ~zero
    pos_body = neg_head_ok
    if pos_head:  # the missing pairs whose J meets the positive head
        head_in_j = missing & SESet.excluding(alphabet, [(full, full & ~pos_head, full & ~pos_head)], cap)
        pos_body &= ~head_in_j.digits()[1]
    return AtomClassification(alphabet.atoms_of(full & ~(one | two)), alphabet.atoms_of(pos_head),
                              alphabet.atoms_of(pos_body), alphabet.atoms_of(neg_head_ok & ~pos_body))


def induce_rule(s: SESet, cap: int | None = None) -> Rule:
    """The one rule a set of SE-interpretations can stand for."""
    if s.is_full():
        return EPSILON
    c = classify_atoms(s, cap)
    return Rule._of(c.pos_head, c.neg_head, c.pos_body, c.neg_body)
