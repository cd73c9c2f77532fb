"""Program equivalence notions of increasing strength, with witnesses.

Four notions over a fixed alphabet, from weakest to strongest:

    s    strong equivalence: the programs have the same SE-models
    smr  the subset-minimal rule SE-model sets coincide
    sr   the families of rule SE-model sets coincide (tautology adjoined)
    su   the symmetric difference contains only SE-tautological rules

Each stronger notion implies the ones below it, and s is decided on that ladder: equal families
(sr) have equal minimal members (smr), and a program's SE-set is the intersection of its family's
minimal members, so smr settles s. Only when smr fails does s build SE-sets and obey the cap; for
smr, sr and su, which read canonical forms and countermodel cubes alone, `cap` is unused.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .canonical import secan
from .core import EPSILON, Alphabet, Interpretation, Program, Rule, SEInterpretation, SESet, rule_key
from .semantics import _covered, _masks, _products_of


class EquivalenceNotion(Enum):
    S = "s"
    SR = "sr"
    SMR = "smr"
    SU = "su"


def se_equivalent_rules(r1: Rule, r2: Rule, alphabet: Alphabet, cap: int | None = None) -> bool:
    """Single-rule SE-equivalence, decided by equal canonical forms; `cap` is unused."""
    _masks(r1, alphabet), _masks(r2, alphabet)  # both rules' scope
    return secan(r1) == secan(r2)


def _syntax(p1: Program, p2: Program, alphabet: Alphabet) -> tuple:
    """Each rule's canonical form (the name of its SE-class), every rule's scope checked; per form
    the countermodel cubes of one of its rules (none for the tautology); per program the forms of
    the rule family (tautology adjoined); and the rules of the symmetric difference that are no
    SE-tautology. sr and su read these alone."""
    masks = {rule: _masks(rule, alphabet) for rule in {EPSILON} | p1.rules | p2.rules}  # once each
    canon = {rule: secan(rule) for rule in masks}
    cubes = {canon[r]: () if canon[r].is_epsilon else _products_of(m) for r, m in masks.items()}
    families = [frozenset(canon[r] for r in p.rules | {EPSILON}) for p in (p1, p2)]
    return canon, cubes, families, [r for r in p1.rules ^ p2.rules if canon[r] != EPSILON]


def _minimal(families: list[frozenset[Rule]], cubes: Mapping[Rule, tuple]) -> list[frozenset[Rule]]:
    """Per family, the members whose SE-set holds no other member's: SE(d) lies in SE(c) when
    d's two cubes cover each of c's. The tautology has no cubes, so it is minimal only alone.
    Distinct forms have distinct SE-sets, and each form's cubes are one tuple, told by `is`."""
    minimal = []
    for family in families:
        own = {c: cubes[c] for c in family}
        proper = [y for y in own.values() if y]
        minimal.append(frozenset(c for c, x in own.items() if not any(
            y is not x and (not x or _covered(x[0], *y) and _covered(x[1], *y)) for y in proper)))
    return minimal


def _se_sets(alphabet: Alphabet, cubes: Mapping[Rule, tuple], families: list, cap: int | None) -> list[SESet]:
    """Per family of `_syntax`, its program's SE-set: the full set minus the cubes of its forms."""
    return [SESet.excluding(alphabet, (c for f in fam for c in cubes[f]), cap) for fam in families]


def strongly_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    _, cubes, families, _ = _syntax(p1, p2, alphabet)  # every rule's scope, checked before the cap
    minimal = families if families[0] == families[1] else _minimal(families, cubes)
    sets = minimal if minimal[0] == minimal[1] else _se_sets(alphabet, cubes, families, cap)  # smr settles s
    return sets[0] == sets[1]


def sr_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    """Equal rule families, by canonical forms; `cap` is unused."""
    families = _syntax(p1, p2, alphabet)[2]
    return families[0] == families[1]


def smr_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    """Equal minimal members of the rule families, by cube cover; `cap` is unused."""
    _, cubes, families, _ = _syntax(p1, p2, alphabet)
    minimal = families if families[0] == families[1] else _minimal(families, cubes)
    return minimal[0] == minimal[1]


def su_equivalent(p1: Program, p2: Program, alphabet: Alphabet, cap: int | None = None) -> bool:
    """Only SE-tautologies in the symmetric difference, by canonical forms; `cap` is unused."""
    return not _syntax(p1, p2, alphabet)[3]


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
    """All four verdicts plus a distinguishing witness for every failure, strongest notion first:
    minimal members only when sr fails, SE-sets only when smr fails."""
    canon, cubes, families, untaut = _syntax(p1, p2, alphabet)
    sr = families[0] == families[1]
    minimal = families if sr else _minimal(families, cubes)  # equal families have equal minima
    smr = minimal[0] == minimal[1]
    m1, m2 = (None, None) if smr else _se_sets(alphabet, cubes, families, cap)
    verdicts = {EquivalenceNotion.S: smr or m1 == m2, EquivalenceNotion.SR: sr,
                EquivalenceNotion.SMR: smr, EquivalenceNotion.SU: not untaut}
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
