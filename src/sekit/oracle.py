"""Exhaustive small-alphabet sweeps: rule enumeration, class counting, closure scans.

Everything here is brute force on purpose; the point is to cross-check the
structural machinery against raw enumeration at desk scale. Rule enumeration
is capped separately (default 3 atoms, 16^n rules) from interpretation
enumeration. `enumerate_rules` walks all 16^n rules. The sweeps are exhaustive
over the 7^n letter words instead, which cover every rule's SE-set (see
`_classes`), and build a rule only where one is returned or named.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .canonical import secan
from .core import Alphabet, EnumerationCapError, Rule, SESet
from .semantics import Masks, _products_of

DEFAULT_RULE_ENUMERATION_CAP = 3


# An atom's letter is its (zero, one, two) triple in the first cube of `_products_of` (the
# second's "one" equals its "two"). Of the 8 triples, (1, 0, 1) cannot occur: digit 0 keeps
# an atom out of B+, so barring digit 1 puts it in B-, which bars digit 2. Per letter, its
# first (H+, H-, B+, B-) pattern in enumeration order (lexicographic on the masks): absent,
# B-, B+, tautological (B+ with B-, among others), H-, H+, H+ with H-.
_LETTERS = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0),
            (1, 1, 0, 0))


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


def _classes(alphabet: Alphabet, cap: int | None, rule_cap: int | None) -> dict[SESet, Masks]:
    """Each representable SE-model set, mapped to the masks of the first rule in
    enumeration order that has it. No rule is built, and one SE-set per letter word:
    a word's masks give each atom its letter's first pattern, so they are the least
    among the word's rules, and the sorted words meet every class first at its first rule."""
    words = [(0, 0, 0, 0)]
    for k in range(_rule_cap_checked(alphabet, rule_cap)):
        words = [tuple(m | b << k for m, b in zip(masks, p)) for masks in words for p in _LETTERS]
    classes: dict[SESet, Masks] = {}
    for masks in sorted(words):
        classes.setdefault(SESet.excluding(alphabet, _products_of(masks), cap), masks)
    return classes


_se_index = lru_cache(maxsize=32)(_classes)


def brute_representable(s: SESet, cap: int | None = None,
                        rule_cap: int | None = None) -> Rule | None:
    """First enumerated rule whose SE-models are exactly S, if any."""
    masks = _se_index(s.alphabet, cap, rule_cap).get(s)
    return None if masks is None else Rule(*map(s.alphabet.atoms_of, masks))


def count_se_classes(alphabet: Alphabet, cap: int | None = None,
                     rule_cap: int | None = None) -> int:
    """Number of distinct SE-model sets over the alphabet, tautology class included."""
    return len(_classes(alphabet, cap, rule_cap).keys() | {SESet.full(alphabet, cap)})


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
    table = _se_index(alphabet, cap, rule_cap)  # every representable set over the alphabet
    representable = sorted(table, key=SESet.sort_key)
    unclosed = []
    for s1, s2 in combinations_with_replacement(representable, 2):
        merged = s1 | s2 if op == "union" else s1 & s2
        if merged not in table:
            unclosed.append((s1, s2))
    names = {s: secan(Rule(*map(alphabet.atoms_of, table[s])))  # only the sets shown are named
             for s in {s for pair in unclosed for s in pair}}
    counterexamples = tuple(ClosureCounterexample(names[s1], names[s2]) for s1, s2 in unclosed)
    k = len(representable)  # k * (k + 1) / 2 unordered pairs, each set with itself included
    return ClosureReport(op, alphabet, k, k * (k + 1) // 2, counterexamples)
