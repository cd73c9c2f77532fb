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
from typing import Mapping

from .core import EPSILON, Alphabet, Program, Rule, SEInterpretation, SESet, rule_key
from .semantics import is_se_tautology, se_models, se_models_program


class EquivalenceNotion(Enum):
    S = "s"
    SR = "sr"
    SMR = "smr"
    SU = "su"


def se_equivalent_rules(r1: Rule, r2: Rule, alphabet: Alphabet, cap: int | None = None) -> bool:
    """Single-rule SE-equivalence: the two rules have the same SE-models."""
    return se_models(r1, alphabet, cap) == se_models(r2, alphabet, cap)


def strongly_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    return se_models_program(p1, alphabet, cap) == se_models_program(p2, alphabet, cap)


def _family(program: Program, alphabet: Alphabet, cap: int | None) -> frozenset[SESet]:
    """Rule SE-model sets of the program with the tautology's full set adjoined."""
    sets = {se_models(rule, alphabet, cap) for rule in program}
    sets.add(SESet.full(alphabet, cap))
    return frozenset(sets)


def _minimal(family: frozenset[SESet]) -> frozenset[SESet]:
    return frozenset(s for s in family if not any(t < s for t in family))


def sr_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    return _family(p1, alphabet, cap) == _family(p2, alphabet, cap)


def smr_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    return _minimal(_family(p1, alphabet, cap)) == _minimal(_family(p2, alphabet, cap))


def su_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    return all(is_se_tautology(rule, alphabet, cap) for rule in p1.rules ^ p2.rules)


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


def _family_witness(fam1: frozenset[SESet], fam2: frozenset[SESet],
                    p1: Program, p2: Program, alphabet: Alphabet,
                    cap: int | None) -> FamilyWitness:
    candidates = []
    for side, only, program in (("left", fam1 - fam2, p1), ("right", fam2 - fam1, p2)):
        for s in only:
            rule = min((r for r in (set(program.rules) | {EPSILON})
                        if se_models(r, alphabet, cap) == s), key=rule_key)
            candidates.append((s.sort_key(), side, rule))
    key, side, rule = min(candidates)
    return FamilyWitness(rule, side)


def equivalence_report(p1: Program, p2: Program, alphabet: Alphabet,
                       cap: int | None = None) -> EquivalenceReport:
    """All four verdicts plus a distinguishing witness for every failure."""
    s = strongly_equivalent(p1, p2, alphabet, cap)
    sr = sr_equivalent(p1, p2, alphabet, cap)
    smr = smr_equivalent(p1, p2, alphabet, cap)
    su = su_equivalent(p1, p2, alphabet, cap)

    witnesses: dict[EquivalenceNotion, object] = {}
    if not s:
        m1 = se_models_program(p1, alphabet, cap)
        m2 = se_models_program(p2, alphabet, cap)
        candidates = ([(se.sort_key(), "left", se) for se in m1 - m2]
                      + [(se.sort_key(), "right", se) for se in m2 - m1])
        _, side, se = min(candidates)
        witnesses[EquivalenceNotion.S] = SEModelWitness(se, side)
    fam1 = _family(p1, alphabet, cap)
    fam2 = _family(p2, alphabet, cap)
    if not sr:
        witnesses[EquivalenceNotion.SR] = _family_witness(fam1, fam2, p1, p2, alphabet, cap)
    if not smr:
        witnesses[EquivalenceNotion.SMR] = _family_witness(
            _minimal(fam1), _minimal(fam2), p1, p2, alphabet, cap)
    if not su:
        bad = min((r for r in p1.rules ^ p2.rules if not is_se_tautology(r, alphabet, cap)),
                  key=rule_key)
        side = "left" if bad in p1.rules else "right"
        witnesses[EquivalenceNotion.SU] = TautologyWitness(bad, side)

    verdicts = {EquivalenceNotion.S: s, EquivalenceNotion.SR: sr,
                EquivalenceNotion.SMR: smr, EquivalenceNotion.SU: su}
    return EquivalenceReport(p1, p2, alphabet, verdicts, witnesses)
