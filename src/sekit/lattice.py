"""Interval view of a rule's SE-countermodels, and rule representability.

For a proper rule the pairs that fail to be SE-models are exactly

    { <I,J> : I in L1 and J in L2 }  union  { <I,J> : J in L1 and J in L2 }

where L1 = [B+, L \\ H+] and L2 = [H- u B+, L \\ B-] are convex sublattices
of the powerset of the alphabet (elsewhere sekit holds each product as a
cube; see `SESet.excluding`). Inverting that shape answers whether an
arbitrary set of SE-interpretations is the SE-model set of any single rule.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (EPSILON, Alphabet, Interpretation, Rule, SEInterpretation, SESet,
                   all_interpretations)
from .oracle import brute_representable
from .reconstruct import induce_rule
from .semantics import _masks, _products_of, se_models


@dataclass(frozen=True)
class Interval:
    """Convex sublattice [bot, top] of the powerset; empty when bot is not below top."""

    bot: Interpretation
    top: Interpretation

    def __post_init__(self) -> None:
        if self.bot.alphabet != self.top.alphabet:
            raise ValueError("interval endpoints over different alphabets")

    @property
    def alphabet(self) -> Alphabet:
        return self.bot.alphabet

    def is_empty(self) -> bool:
        return bool(self.bot.bits & ~self.top.bits)

    def __contains__(self, x: object) -> bool:
        if not isinstance(x, Interpretation):
            return False
        return self._holds(x.bits)

    def _holds(self, bits: int) -> bool:
        return self.bot.bits & ~bits == 0 and bits & ~self.top.bits == 0

    def members(self, cap: int | None = None) -> tuple[Interpretation, ...]:
        return tuple(x for x in all_interpretations(self.alphabet, cap) if self._holds(x.bits))

    @classmethod
    def empty(cls, alphabet: Alphabet) -> "Interval":
        return cls(Interpretation(alphabet, alphabet.full_mask), Interpretation(alphabet, 0))


def rule_to_countermodel_intervals(rule: Rule, alphabet: Alphabet) -> tuple[Interval, Interval]:
    """The two intervals carving out the rule's SE-countermodels; empty pair for the tautology."""
    if rule.is_epsilon:
        return Interval.empty(alphabet), Interval.empty(alphabet)
    hp, hn, bp, bn = _masks(rule, alphabet)
    side = lambda bits: Interpretation(alphabet, bits & alphabet.full_mask)
    return Interval(side(bp), side(~hp)), Interval(side(hn | bp), side(~bn))


def interval_countermodels(l1: Interval, l2: Interval, cap: int | None = None) -> frozenset[SEInterpretation]:
    """SE-pairs excluded by the interval pair, read as rule masks; an empty interval gives empty cubes."""
    if l1.alphabet != l2.alphabet:
        raise ValueError("intervals over different alphabets")
    cubes = _products_of((~l1.top.bits, l2.bot.bits, l1.bot.bits, ~l2.top.bits))
    return frozenset(SESet.excluding(l1.alphabet, cubes, cap).complement(cap))


def intervals_to_rule(l1: Interval, l2: Interval, alphabet: Alphabet) -> Rule:
    """Rule whose SE-countermodels are carved out by the interval pair.

    Either interval being empty excludes nothing, so the result is the
    canonical tautology.
    """
    if l1.alphabet != alphabet or l2.alphabet != alphabet:
        raise ValueError("intervals do not match the alphabet")
    if l1.is_empty() or l2.is_empty():
        return EPSILON
    full = alphabet.full_mask
    return Rule._of(alphabet.atoms_of(full & ~l1.top.bits), alphabet.atoms_of(l2.bot.bits),
                    alphabet.atoms_of(l1.bot.bits), alphabet.atoms_of(full & ~l2.top.bits))


def is_rule_representable(s: SESet, method: str = "induced",
                          cap: int | None = None,
                          rule_cap: int | None = None) -> tuple[bool, Rule | None]:
    """Whether some single rule has exactly S as its SE-models, with a witness.

    induced: the induced rule's SE-models never exceed S, so S is
        representable exactly when they cover it.
    lattice: check that the countermodel intervals of the induced rule carve
        out exactly the complement of S; the witness is rebuilt from the
        intervals.
    brute:   scan every rule over the alphabet for one with SE-models S.

    All three agree on the verdict; witnesses may differ syntactically.
    """
    if method not in ("induced", "lattice", "brute"):
        raise ValueError(f"unknown method {method!r} (expected induced, lattice or brute)")
    if s.is_full():
        return True, EPSILON
    if method == "brute":
        witness = brute_representable(s, cap=cap, rule_cap=rule_cap)
        return witness is not None, witness
    rule = induce_rule(s, cap)
    if method == "induced":
        ok = s <= se_models(rule, s.alphabet, cap)
        return ok, (rule if ok else None)
    ok = se_models(rule, s.alphabet, cap) == s
    return ok, (intervals_to_rule(*rule_to_countermodel_intervals(rule, s.alphabet), s.alphabet)
                if ok else None)
