"""Atom classification and rule reconstruction from SE-interpretation sets."""
from __future__ import annotations

from itertools import combinations

import pytest

from sekit import (EPSILON, Alphabet, AtomClassification, Interpretation, Rule,
                   SEInterpretation, SESet, all_se_interpretations, classify_atoms,
                   induce_rule, is_canonical, parse_rule, print_rule, se_models, secan)
from sekit.oracle import enumerate_rules

L1 = Alphabet(("p",))
L2 = Alphabet(("p", "q"))
L3 = Alphabet(("p", "q", "r"))


def subset_of_pairs(alphabet, picks):
    pairs = all_se_interpretations(alphabet)
    return SESet(alphabet, frozenset(pairs[i] for i in picks))


def all_se_subsets(alphabet):
    pairs = all_se_interpretations(alphabet)
    for size in range(len(pairs) + 1):
        for combo in combinations(range(len(pairs)), size):
            yield SESet(alphabet, frozenset(pairs[i] for i in combo))


def test_classification_of_a_fact():
    c = classify_atoms(se_models(parse_rule("p."), L1))
    assert c == AtomClassification(frozenset(), frozenset({"p"}), frozenset(), frozenset())


def test_classification_of_a_constraint():
    c = classify_atoms(se_models(parse_rule(":- p."), L1))
    assert c == AtomClassification(frozenset(), frozenset(), frozenset({"p"}), frozenset())


def test_classification_of_the_empty_set():
    c = classify_atoms(SESet(L2))
    assert c == AtomClassification(frozenset(), frozenset(), frozenset(), frozenset())


def test_classification_slots_must_be_disjoint():
    with pytest.raises(ValueError):
        AtomClassification(frozenset({"p"}), frozenset({"p"}), frozenset(), frozenset())


def test_induced_rule_of_the_full_set_is_epsilon():
    assert induce_rule(SESet.full(L2)) == EPSILON


def test_induced_rule_of_a_fact():
    assert induce_rule(se_models(parse_rule("p."), L1)) == Rule(head_pos={"p"})


def test_induced_rule_of_a_lonely_total_pair():
    both = Interpretation.of(L2, ["p", "q"])
    s = SESet(L2, {SEInterpretation(both, both)})
    assert print_rule(induce_rule(s)) == ":-."


def test_reconstruction_recovers_the_canonical_form():
    for alphabet in (L2, L3):
        for rule in enumerate_rules(alphabet):
            assert induce_rule(se_models(rule, alphabet)) == secan(rule), rule
    assert induce_rule(se_models(EPSILON, L2)) == EPSILON


def test_induced_rules_are_always_canonical():
    for s in all_se_subsets(L2):
        assert is_canonical(induce_rule(s))


def test_induced_se_models_never_exceed_the_input():
    for s in all_se_subsets(L2):
        assert se_models(induce_rule(s), L2).models <= s.models
