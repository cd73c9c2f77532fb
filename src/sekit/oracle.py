"""Exhaustive small-alphabet sweeps: rule enumeration, class counting, closure scans.

Everything here is brute force on purpose; the point is to cross-check the
structural machinery against raw enumeration at desk scale. Rule enumeration
is capped separately (default 3 atoms, 16^n rules) from interpretation
enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .canonical import secan
from .core import Alphabet, EnumerationCapError, Rule, SESet
from .semantics import se_models

DEFAULT_RULE_ENUMERATION_CAP = 3


def enumerate_rules(alphabet: Alphabet, cap: int | None = None) -> tuple[Rule, ...]:
    """All 16^n proper rules over the alphabet, in a fixed order.

    Each atom lands independently in any subset of the four rule parts. The
    canonical tautology is not included.
    """
    n = len(alphabet)
    limit = DEFAULT_RULE_ENUMERATION_CAP if cap is None else cap
    if n > limit:
        raise EnumerationCapError(
            f"alphabet has {n} atoms, exceeding the rule enumeration cap of {limit}")
    subsets = [alphabet.atoms_of(bits) for bits in range(1 << n)]
    return tuple(Rule(head_pos=hp, head_neg=hn, body_pos=bp, body_neg=bn)
                 for hp, hn, bp, bn in product(subsets, repeat=4))


@lru_cache(maxsize=32)
def _se_index(alphabet: Alphabet, cap: int | None, rule_cap: int | None) -> dict:
    """First rule in enumeration order for each representable SE-model set."""
    index: dict = {}
    for rule in enumerate_rules(alphabet, rule_cap):
        index.setdefault(se_models(rule, alphabet, cap), rule)
    return index


def brute_representable(s: SESet, cap: int | None = None,
                        rule_cap: int | None = None) -> Rule | None:
    """First enumerated rule whose SE-models are exactly S, if any."""
    return _se_index(s.alphabet, cap, rule_cap).get(s)


def count_se_classes(alphabet: Alphabet, cap: int | None = None,
                     rule_cap: int | None = None) -> int:
    """Number of distinct SE-model sets over the alphabet, tautology class included."""
    distinct = {se_models(rule, alphabet, cap) for rule in enumerate_rules(alphabet, rule_cap)}
    distinct.add(SESet.full(alphabet, cap))
    return len(distinct)


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
    names = {se_models(rule, alphabet, cap): secan(rule) for rule in enumerate_rules(alphabet, rule_cap)}
    representable = sorted(names, key=SESet.sort_key)
    counterexamples = []
    pair_count = 0
    for s1, s2 in combinations_with_replacement(representable, 2):
        pair_count += 1
        merged = s1 | s2 if op == "union" else s1 & s2
        if merged not in names:  # names holds every representable set over the alphabet
            counterexamples.append(ClosureCounterexample(names[s1], names[s2]))
    return ClosureReport(op, alphabet, len(representable), pair_count, tuple(counterexamples))
