"""Program equivalence notions of increasing strength, with witnesses.

Four notions over a fixed alphabet, from weakest to strongest:

    s    strong equivalence: the programs have the same SE-models
    smr  the subset-minimal rule SE-model sets coincide
    sr   the families of rule SE-model sets coincide (tautology adjoined)
    su   the symmetric difference contains only SE-tautological rules

Each stronger notion implies the ones below it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Mapping

from .core import (EPSILON, Alphabet, Interpretation, Program, Rule, SEInterpretation, SESet,
                   rule_key)
from .semantics import _canonical, se_models


class EquivalenceNotion(Enum):
    S = "s"
    SR = "sr"
    SMR = "smr"
    SU = "su"


def se_equivalent_rules(r1: Rule, r2: Rule, alphabet: Alphabet, cap: int | None = None) -> bool:
    """Single-rule SE-equivalence, decided by equal canonical forms; `cap` is unused."""
    return _canonical(r1, alphabet) == _canonical(r2, alphabet)


def _syntax(p1: Program, p2: Program, alphabet: Alphabet) -> tuple:
    """Each rule's canonical form (the name of its SE-class), every rule's scope checked; per
    program the canonical forms of the rule family (tautology adjoined); and the rules of the
    symmetric difference that are no SE-tautology. sr and su read these alone."""
    canon = {rule: _canonical(rule, alphabet) for rule in {EPSILON} | p1.rules | p2.rules}
    families = [frozenset(canon[r] for r in p.rules | {EPSILON}) for p in (p1, p2)]
    return canon, families, [r for r in p1.rules ^ p2.rules if canon[r] != EPSILON]


def _compare(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None) -> tuple:
    """The four verdicts and, for the witnesses, the output of `_syntax` with per program
    the SE-models and the minimal members of the rule family."""
    canon, families, untaut = _syntax(p1, p2, alphabet)
    sets = {c: se_models(c, alphabet, cap) for c in set(canon.values())}  # read by s and smr only
    models = [reduce(SESet.__and__, (sets[c] for c in f)) for f in families]
    minimal = [frozenset(c for c in f if not any(sets[d] < sets[c] for d in f)) for f in families]
    verdicts = {EquivalenceNotion.S: models[0] == models[1],
                EquivalenceNotion.SR: families[0] == families[1],
                EquivalenceNotion.SMR: minimal[0] == minimal[1], EquivalenceNotion.SU: not untaut}
    return verdicts, canon, models, families, minimal, untaut


def strongly_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    return _compare(p1, p2, alphabet, cap)[0][EquivalenceNotion.S]


def sr_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    """Equal rule families, by canonical forms; `cap` is unused."""
    families = _syntax(p1, p2, alphabet)[1]
    return families[0] == families[1]


def smr_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    return _compare(p1, p2, alphabet, cap)[0][EquivalenceNotion.SMR]


def su_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    """Only SE-tautologies in the symmetric difference, by canonical forms; `cap` is unused."""
    return not _syntax(p1, p2, alphabet)[2]


@dataclass(frozen=True)
class SEModelWitness:
    """SE-interpretation satisfying one program only."""

    se: SEInterpretation
    side: str


@dataclass(frozen=True)
class FamilyWitness:
    """Rule whose SE-model set has no counterpart in the other program's family."""

    rule: Rule
    side: str


@dataclass(frozen=True)
class TautologyWitness:
    """Symmetric-difference rule that is not SE-tautological."""

    rule: Rule
    side: str


@dataclass(frozen=True)
class EquivalenceReport:
    left: Program
    right: Program
    alphabet: Alphabet
    verdicts: Mapping[EquivalenceNotion, bool]
    witnesses: Mapping[EquivalenceNotion, object]

    def equivalent(self, notions: tuple[EquivalenceNotion, ...] | None = None) -> bool:
        wanted = notions if notions is not None else tuple(EquivalenceNotion)
        return all(self.verdicts[n] for n in wanted)


def _family_witness(fam1: frozenset[Rule], fam2: frozenset[Rule], p1: Program, p2: Program,
                    canon: Mapping[Rule, Rule]) -> FamilyWitness:
    """The first rule, in rule order, whose canonical form the other family lacks."""
    left = [FamilyWitness(r, "left") for r in p1.rules | {EPSILON} if canon[r] in fam1 - fam2]
    right = [FamilyWitness(r, "right") for r in p2.rules | {EPSILON} if canon[r] in fam2 - fam1]
    return min(left + right, key=lambda witness: rule_key(witness.rule))


def equivalence_report(p1: Program, p2: Program, alphabet: Alphabet,
                       cap: int | None = None) -> EquivalenceReport:
    """All four verdicts plus a distinguishing witness for every failure."""
    verdicts, canon, (m1, m2), families, minimal, untaut = _compare(p1, p2, alphabet, cap)
    witnesses: dict[EquivalenceNotion, object] = {}
    if not verdicts[EquivalenceNotion.S]:
        here, there = next((m1 ^ m2).masks())  # the first in (there, here) order
        se = SEInterpretation(Interpretation(alphabet, here), Interpretation(alphabet, there))
        witnesses[EquivalenceNotion.S] = SEModelWitness(se, "left" if se in m1 else "right")
    if not verdicts[EquivalenceNotion.SR]:
        witnesses[EquivalenceNotion.SR] = _family_witness(*families, p1, p2, canon)
    if not verdicts[EquivalenceNotion.SMR]:
        witnesses[EquivalenceNotion.SMR] = _family_witness(*minimal, p1, p2, canon)
    if untaut:
        bad = min(untaut, key=rule_key)
        side = "left" if bad in p1.rules else "right"
        witnesses[EquivalenceNotion.SU] = TautologyWitness(bad, side)
    return EquivalenceReport(p1, p2, alphabet, verdicts, witnesses)
