"""Exhaustive small-alphabet sweeps: rule enumeration, class counting, closure scans.

Everything here is brute force on purpose; the point is to cross-check the structural machinery
against raw enumeration at desk scale. Rule enumeration is capped separately (default 3 atoms, 16^n
rules) from interpretation enumeration. `enumerate_rules` walks all 16^n rules. The sweeps are
exhaustive over the 7^n letter words instead, which cover every rule's SE-set. They hold each set as
its bits, and a word's two countermodel products extend its prefix's by one product step each (see
`_classes`). A rule is built only where one is returned or named.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .canonical import secan
from .core import Alphabet, EnumerationCapError, Rule, SESet, _product_step
from .semantics import Masks, _products_of

DEFAULT_RULE_ENUMERATION_CAP = 3


# An atom's letter is its (zero, one, two) triple in the first cube of `_products_of` (the
# second's "one" equals its "two"). Of the 8 triples, (1, 0, 1) cannot occur: digit 0 keeps
# an atom out of B+, so barring digit 1 puts it in B-, which bars digit 2. Per letter, its
# first (H+, H-, B+, B-) pattern in enumeration order (lexicographic on the masks): absent,
# B-, B+, tautological (B+ with B-, among others), H-, H+, H+ with H-.
_LETTERS = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0),
            (1, 1, 0, 0))
# Per letter, the digits (zero, one, two) that each of the two cubes allows the atom.
_DIGITS = tuple(tuple(tuple(m & 1 for m in cube) for cube in _products_of(p)) for p in _LETTERS)


def _rule_cap_checked(alphabet: Alphabet, cap: int | None) -> int:
    """The alphabet's size, once it is known to be within the rule cap."""
    limit = DEFAULT_RULE_ENUMERATION_CAP if cap is None else cap
    if len(alphabet) > limit:
        raise EnumerationCapError(
            f"alphabet has {len(alphabet)} atoms, exceeding the rule enumeration cap of {limit}")
    return len(alphabet)


def enumerate_rules(alphabet: Alphabet, cap: int | None = None) -> tuple[Rule, ...]:
    """All 16^n proper rules over the alphabet, in a fixed order.

    Each atom lands independently in any subset of the four rule parts. The
    canonical tautology is not included.
    """
    subsets = [alphabet.atoms_of(bits) for bits in range(1 << _rule_cap_checked(alphabet, cap))]
    return tuple(Rule(*(subsets[m] for m in masks)) for masks in product(range(len(subsets)), repeat=4))


def _classes(alphabet: Alphabet, cap: int | None, rule_cap: int | None) -> dict[int, Masks]:
    """Each representable SE-model set's bits, mapped to the masks of the first rule in enumeration
    order that has it. No rule and no SE-set is built: a word of k + 1 atoms takes its prefix's two
    countermodel products one product step further. A word's masks give each atom its letter's
    first pattern, so the sorted words meet every class first at its first rule."""
    n, full = _rule_cap_checked(alphabet, rule_cap), SESet.full(alphabet, cap)._bits  # rule cap first
    words = [((0, 0, 0, 0), 1, 1)]  # no atoms: empty masks, and each product the one pair
    for k in range(n):
        step, grown = 3 ** k, [(tuple(b << k for b in p), *d) for p, d in zip(_LETTERS, _DIGITS)]
        words = [((hp | a, hn | b, bp | c, bn | d), _product_step(p1, step, z1, o1, t1),
                  _product_step(p2, step, z2, o2, t2)) for (hp, hn, bp, bn), p1, p2 in words
                 for (a, b, c, d), (z1, o1, t1), (z2, o2, t2) in grown]  # a starred call costs double
    classes: dict[int, Masks] = {}
    for masks, p1, p2 in sorted(words):
        classes.setdefault(full ^ (p1 | p2), masks)
    return classes


_se_index = lru_cache(maxsize=32)(_classes)


def brute_representable(s: SESet, cap: int | None = None,
                        rule_cap: int | None = None) -> Rule | None:
    """First enumerated rule whose SE-models are exactly S, if any."""
    masks = _se_index(s.alphabet, cap, rule_cap).get(s._bits)
    return None if masks is None else Rule(*map(s.alphabet.atoms_of, masks))


def count_se_classes(alphabet: Alphabet, cap: int | None = None,
                     rule_cap: int | None = None) -> int:
    """Number of distinct SE-model sets over the alphabet, tautology class included."""
    return len(_classes(alphabet, cap, rule_cap).keys() | {SESet.full(alphabet, cap)._bits})


@dataclass(frozen=True)
class ClosureCounterexample:
    """Canonical rules standing for two representable sets whose combination is not."""

    left: Rule
    right: Rule


@dataclass(frozen=True)
class ClosureReport:
    op: str
    alphabet: Alphabet
    set_count: int
    pair_count: int
    counterexamples: tuple[ClosureCounterexample, ...]

    @property
    def closed(self) -> bool:
        return not self.counterexamples


def closure_experiment(alphabet: Alphabet, op: str, cap: int | None = None,
                       rule_cap: int | None = None) -> ClosureReport:
    """Scan all unordered pairs of representable sets for closure under union or intersection."""
    if op not in ("union", "intersection"):
        raise ValueError(f"unknown closure operation {op!r} (expected union or intersection)")
    table = _se_index(alphabet, cap, rule_cap)  # every representable set's bits over the alphabet
    representable = sorted(table, key=lambda bits: SESet._of(alphabet, bits).sort_key())
    unclosed = [(a, b) for a, b in combinations_with_replacement(representable, 2)
                if (a | b if op == "union" else a & b) not in table]
    names = {s: secan(Rule(*map(alphabet.atoms_of, table[s])))  # only the sets shown are named
             for s in {s for pair in unclosed for s in pair}}
    counterexamples = tuple(ClosureCounterexample(names[a], names[b]) for a, b in unclosed)
    k = len(representable)  # k * (k + 1) / 2 unordered pairs, each set with itself included
    return ClosureReport(op, alphabet, k, k * (k + 1) // 2, counterexamples)
