"""Exhaustive small-alphabet sweeps: rule enumeration, class counting, closure scans.

Everything here is brute force on purpose; the point is to cross-check the structural machinery
against raw enumeration at desk scale. Rule enumeration is capped separately (default 3 atoms, 16^n
rules) from interpretation enumeration. `enumerate_rules` walks all 16^n rules; the sweeps walk the
7^n letter words, which cover every rule's SE-set. `_words` lists each word as one packed mask
integer and its two countermodel products' bits, which the census counts and `_classes` tables.
Both closure sweeps read one cached table, sorted once. Rules are built only to be returned or named.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .canonical import secan
from .core import Alphabet, EnumerationCapError, Rule, SESet, _check_enumerable, _product_step
from .semantics import Masks, _products_of

DEFAULT_RULE_ENUMERATION_CAP = 3


# An atom's letter is its (zero, one, two) triple in the first cube of `_products_of` (the
# second's "one" equals its "two"). Of the 8 triples, (1, 0, 1) cannot occur: digit 0 keeps
# an atom out of B+, so barring digit 1 puts it in B-, which bars digit 2. Per letter, its
# first (H+, H-, B+, B-) pattern in enumeration order (lexicographic on the masks): absent,
# B-, B+, tautological (B+ with B-, among others), H-, H+, H+ with H-.
_LETTERS = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0),
            (1, 1, 0, 0))
# Per letter, the digits (zero, one, two) that the first cube allows the atom, then the second's.
_DIGITS = tuple(tuple(m & 1 for cube in _products_of(p) for m in cube) for p in _LETTERS)


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
    return tuple(Rule._of(*(subsets[m] for m in masks)) for masks in product(range(len(subsets)), repeat=4))


def _words(n: int) -> list[tuple[int, int, int]]:
    """Every letter word over n atoms as (packed, p1, p2): its masks packed as hp << 3n | hn << 2n |
    bp << n | bn, each field below 2^n so that packed words compare as the mask tuples, and the bits
    of its two countermodel products, one product step past its prefix's."""
    words = [(0, 1, 1)]  # no atoms: empty masks, and each product the one pair
    letters = [hp << 3 * n | hn << 2 * n | bp << n | bn for hp, hn, bp, bn in _LETTERS]
    for k in range(n):
        step, grown = 3 ** k, [(a << k, *d) for a, d in zip(letters, _DIGITS)]
        words = [(w | a, _product_step(p1, step, z1, o1, t1), _product_step(p2, step, z2, o2, t2))
                 for w, p1, p2 in words for a, z1, o1, t1, z2, o2, t2 in grown]  # a starred call costs double
    return words


def _classes(alphabet: Alphabet, cap: int | None, rule_cap: int | None) -> dict[int, Masks]:
    """Each representable SE-model set's bits, mapped to the masks of the first rule in enumeration
    order that has it; no rule and no SE-set is built. It reads the census's word list, `_words`: a
    word's set is the full set minus its products, and its masks give each atom its letter's first
    pattern, so the words in packed order meet every class first at its first rule. Only the words
    kept are unpacked. The closure sweeps read it through `_se_index`, sorted once per alphabet."""
    n, full = _rule_cap_checked(alphabet, rule_cap), SESet.full(alphabet, cap)._bits  # rule cap first
    first: dict[int, int] = {}
    for packed, p1, p2 in sorted(_words(n)):
        first.setdefault(p1 | p2, packed)
    f = (1 << n) - 1
    return {full ^ out: (w >> 3 * n, w >> 2 * n & f, w >> n & f, w & f) for out, w in first.items()}


# The class table, and a list that the first closure sweep over it fills with its keys in order
_se_index = lru_cache(maxsize=32)(lambda alphabet, cap, rule_cap: (_classes(alphabet, cap, rule_cap), []))


def brute_representable(s: SESet, cap: int | None = None,
                        rule_cap: int | None = None) -> Rule | None:
    """First enumerated rule whose SE-models are exactly S, if any."""
    masks = _se_index(s.alphabet, cap, rule_cap)[0].get(s._bits)
    return None if masks is None else Rule._of(*map(s.alphabet.atoms_of, masks))


def count_se_classes(alphabet: Alphabet, cap: int | None = None,
                     rule_cap: int | None = None) -> int:
    """Number of distinct SE-model sets over the alphabet, tautology class included."""
    n = _rule_cap_checked(alphabet, rule_cap)
    _check_enumerable(alphabet, cap)  # the pair cap too, before any product step
    return len({p1 | p2 for _, p1, p2 in _words(n)})  # a tautological letter's words lack no pair


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
    table, order = _se_index(alphabet, cap, rule_cap)  # every representable set's bits
    if not order:  # the first sweep over the table sorts it once for every later one
        order += sorted(table, key=lambda bits: SESet._of(alphabet, bits).sort_key())
    combine = operator.or_ if op == "union" else operator.and_
    unclosed = [(a, b) for a, b in combinations_with_replacement(order, 2) if combine(a, b) not in table]
    subsets = [alphabet.atoms_of(m) for m in range(1 << len(alphabet))]
    names = {s: secan(Rule._of(*(subsets[m] for m in table[s])))  # only the sets shown are named
             for s in {s for pair in unclosed for s in pair}}
    counterexamples = tuple(ClosureCounterexample(names[a], names[b]) for a, b in unclosed)
    k = len(order)  # k * (k + 1) / 2 unordered pairs, each set with itself included
    return ClosureReport(op, alphabet, k, k * (k + 1) // 2, counterexamples)
