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
from .semantics import se_models


class EquivalenceNotion(Enum):
    S = "s"
    SR = "sr"
    SMR = "smr"
    SU = "su"


def se_equivalent_rules(r1: Rule, r2: Rule, alphabet: Alphabet, cap: int | None = None) -> bool:
    """Single-rule SE-equivalence: the two rules have the same SE-models."""
    return se_models(r1, alphabet, cap) == se_models(r2, alphabet, cap)


def _compare(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None) -> tuple:
    """The four verdicts and, per program, the sets behind them: SE-models, rule family
    (tautology adjoined), its minimal members; then the rules that are no SE-tautology.
    Each rule's SE-model set is computed once."""
    sets = {rule: se_models(rule, alphabet, cap) for rule in {EPSILON} | p1.rules | p2.rules}
    models = [reduce(SESet.__and__, (sets[r] for r in p.rules), sets[EPSILON]) for p in (p1, p2)]
    families = [frozenset(sets[r] for r in p.rules | {EPSILON}) for p in (p1, p2)]
    minimal = [frozenset(s for s in f if not any(t < s for t in f)) for f in families]
    untaut = [r for r in p1.rules ^ p2.rules if not sets[r].is_full()]
    verdicts = {EquivalenceNotion.S: models[0] == models[1],
                EquivalenceNotion.SR: families[0] == families[1],
                EquivalenceNotion.SMR: minimal[0] == minimal[1], EquivalenceNotion.SU: not untaut}
    return verdicts, sets, models, families, minimal, untaut


def strongly_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    return _compare(p1, p2, alphabet, cap)[0][EquivalenceNotion.S]


def sr_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    return _compare(p1, p2, alphabet, cap)[0][EquivalenceNotion.SR]


def smr_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    return _compare(p1, p2, alphabet, cap)[0][EquivalenceNotion.SMR]


def su_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    return _compare(p1, p2, alphabet, cap)[0][EquivalenceNotion.SU]


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


def _family_witness(fam1: frozenset[SESet], fam2: frozenset[SESet], p1: Program, p2: Program,
                    sets: Mapping[Rule, SESet]) -> FamilyWitness:
    """The first rule, in rule order, behind the unmatched set that comes first in SESet order."""
    s, side, program = min([(s, "left", p1) for s in fam1 - fam2]
                           + [(s, "right", p2) for s in fam2 - fam1],
                           key=lambda candidate: candidate[0].sort_key())
    rule = min((r for r in program.rules | {EPSILON} if sets[r] == s), key=rule_key)
    return FamilyWitness(rule, side)


def equivalence_report(p1: Program, p2: Program, alphabet: Alphabet,
                       cap: int | None = None) -> EquivalenceReport:
    """All four verdicts plus a distinguishing witness for every failure."""
    verdicts, sets, (m1, m2), families, minimal, untaut = _compare(p1, p2, alphabet, cap)
    witnesses: dict[EquivalenceNotion, object] = {}
    if not verdicts[EquivalenceNotion.S]:
        here, there = next((m1 - m2 | m2 - m1).masks())  # the first in (there, here) order
        se = SEInterpretation(Interpretation(alphabet, here), Interpretation(alphabet, there))
        witnesses[EquivalenceNotion.S] = SEModelWitness(se, "left" if se in m1 else "right")
    if not verdicts[EquivalenceNotion.SR]:
        witnesses[EquivalenceNotion.SR] = _family_witness(*families, p1, p2, sets)
    if not verdicts[EquivalenceNotion.SMR]:
        witnesses[EquivalenceNotion.SMR] = _family_witness(*minimal, p1, p2, sets)
    if untaut:
        bad = min(untaut, key=rule_key)
        side = "left" if bad in p1.rules else "right"
        witnesses[EquivalenceNotion.SU] = TautologyWitness(bad, side)
    return EquivalenceReport(p1, p2, alphabet, verdicts, witnesses)
