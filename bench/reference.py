"""Reference SE-model evaluator on frozensets, independent of sekit's internals.

Interpretations are frozensets of atom names and an SE-interpretation is a
pair (I, J) of them with I a subset of J. A rule is a tuple
(head_pos, head_neg, body_pos, body_neg) of frozensets, or TAUT for the
canonical tautology. Everything follows the textbook definitions: <I,J> is an
SE-model of r when J satisfies r classically and I satisfies the reduct r^J;
an answer set is a classical model J with no proper subset satisfying P^J.
The only sekit names used are public fields (Rule.head_pos, ...,
Interpretation.atoms() and .bits, SESet.models), to read sekit's outputs.
"""
from __future__ import annotations

from itertools import combinations, product

TAUT = "taut"
EMPTY = frozenset()


def _c_sat(rule, j) -> bool:
    hp, hn, bp, bn = rule
    return not (bp <= j and not bn & j) or bool(hp & j) or not hn <= j


def _reduct_sat(rule, i, j) -> bool:
    hp, hn, bp, bn = rule
    if not hn <= j or bn & j:
        return True  # the reduct under J drops the rule
    return bool(hp & i) or not bp <= i


class Evaluator:
    """SE-sets, program semantics and a rule-class table over one alphabet."""

    def __init__(self, atoms):
        self.atoms = tuple(sorted(atoms))
        self.interps = [frozenset(c) for k in range(len(self.atoms) + 1)
                        for c in combinations(self.atoms, k)]
        self.pairs = [(i, j) for j in self.interps for i in self.interps if i <= j]
        self.full = frozenset(self.pairs)
        self._se: dict = {}
        self._names: dict = {}

    def se(self, rule) -> frozenset:
        """SE-models of one rule, memoised per rule while the evaluator lives."""
        if rule == TAUT:
            return self.full
        out = self._se.get(rule)
        if out is None:
            out = self._se[rule] = frozenset(
                (i, j) for i, j in self.pairs if _c_sat(rule, j) and _reduct_sat(rule, i, j))
        return out

    def forget(self) -> None:
        self._se.clear()

    def se_program(self, rules) -> frozenset:
        out = self.full
        for rule in rules:
            out = out & self.se(rule)
        return out

    def family(self, rules) -> frozenset:
        return frozenset({self.se(r) for r in rules} | {self.full})

    @staticmethod
    def minimal(family) -> frozenset:
        return frozenset(s for s in family if not any(t < s for t in family))

    def verdicts(self, p1, p2) -> dict:
        """The four equivalence notions for programs given as sets of rules."""
        f1, f2 = self.family(p1), self.family(p2)
        return {"s": self.se_program(p1) == self.se_program(p2),
                "sr": f1 == f2,
                "smr": self.minimal(f1) == self.minimal(f2),
                "su": all(self.se(r) == self.full for r in p1 ^ p2)}

    def answer_sets(self, rules) -> frozenset:
        """Classical models J of the program with no proper subset satisfying P^J."""
        out = []
        for j in self.interps:
            if not all(_c_sat(r, j) for r in rules if r != TAUT):
                continue
            reduct = [r for r in rules if r != TAUT and r[1] <= j and not r[3] & j]
            if not any(all(_reduct_sat(r, i, j) for r in reduct)
                       for i in self.interps if i < j):
                out.append(j)
        return frozenset(out)

    def class_table(self) -> frozenset:
        """SE-sets of every rule over the alphabet (each atom in any subset of
        the four parts), with the full set for the tautology."""
        parts = [frozenset(a for a, bit in zip(self.atoms, bits) if bit)
                 for bits in product((0, 1), repeat=len(self.atoms))]
        return frozenset({self.se(rule) for rule in product(parts, repeat=4)} | {self.full})

    def name(self, interpretation) -> frozenset:
        """A sekit Interpretation over this alphabet as a frozenset of atom
        names, memoised by its bit mask."""
        out = self._names.get(interpretation.bits)
        if out is None:
            out = self._names[interpretation.bits] = frozenset(interpretation.atoms())
        return out

    def of_seset(self, s) -> frozenset:
        """A sekit SESet as a frozenset of (I, J) pairs."""
        if tuple(s.alphabet.atoms) != self.atoms:
            raise ValueError(f"SE-set over {s.alphabet.atoms}, expected {self.atoms}")
        return frozenset((self.name(m.here), self.name(m.there)) for m in s.models)


def of_rule(rule):
    """A sekit Rule in the evaluator's form."""
    if rule.is_epsilon:
        return TAUT
    return (frozenset(rule.head_pos), frozenset(rule.head_neg),
            frozenset(rule.body_pos), frozenset(rule.body_neg))


def rule_text(rule) -> str:
    """Surface syntax of an evaluator rule, in sekit's grammar."""
    if rule == TAUT:
        return "#taut."
    hp, hn, bp, bn = rule
    head = "; ".join(sorted(hp) + ["not " + a for a in sorted(hn)])
    body = ", ".join(sorted(bp) + ["not " + a for a in sorted(bn)])
    if head and body:
        return f"{head} :- {body}."
    if head:
        return f"{head}."
    return f":- {body}." if body else ":-."
