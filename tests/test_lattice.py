"""Countermodel intervals and rule representability."""
from __future__ import annotations

from itertools import product

import pytest

import sekit.lattice
from sekit import (EPSILON, Alphabet, Interpretation, Interval, Rule, SEInterpretation, SESet,
                   interval_countermodels, intervals_to_rule, is_rule_representable,
                   is_well_defined, parse_rule, rule_to_countermodel_intervals,
                   se_equivalent_rules, se_models)
from sekit.oracle import enumerate_rules
from test_reconstruct import all_se_subsets, subset_of_pairs

L2 = Alphabet(("p", "q"))


def iv(alphabet, bot, top):
    return Interval(Interpretation.of(alphabet, bot), Interpretation.of(alphabet, top))


def test_interval_membership_and_members():
    box = iv(L2, ["p"], ["p", "q"])
    assert Interpretation.of(L2, ["p"]) in box
    assert Interpretation.of(L2, []) not in box
    assert [x.atoms() for x in box.members()] == [("p",), ("p", "q")]
    assert not box.is_empty()


def test_empty_interval():
    assert Interval.empty(L2).is_empty()
    assert iv(L2, ["p"], ["q"]).is_empty()
    assert Interval.empty(L2).members() == ()


def test_intervals_of_a_positive_rule():
    l1, l2 = rule_to_countermodel_intervals(parse_rule("p :- q."), L2)
    assert (l1.bot.atoms(), l1.top.atoms()) == (("q",), ("q",))
    assert (l2.bot.atoms(), l2.top.atoms()) == (("q",), ("p", "q"))


def test_intervals_of_epsilon_are_empty():
    l1, l2 = rule_to_countermodel_intervals(EPSILON, L2)
    assert l1.is_empty() and l2.is_empty()
    assert interval_countermodels(l1, l2) == frozenset()


def test_countermodel_equation_for_every_rule():
    for rule in enumerate_rules(L2):
        l1, l2 = rule_to_countermodel_intervals(rule, L2)
        assert interval_countermodels(l1, l2) == se_models(rule, L2).complement().models, rule


def test_interval_countermodels_read_the_intervals_alone(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("interval_countermodels went through a rule")

    monkeypatch.setattr(sekit.lattice, "se_models", refuse)
    monkeypatch.setattr(sekit.lattice, "intervals_to_rule", refuse)
    sides = [Interpretation(L2, bits) for bits in range(4)]
    pairs = [SEInterpretation(i, j) for j in sides for i in sides if i <= j]
    intervals = [Interval(bot, top) for bot in sides for top in sides]  # 7 of the 16 are empty
    for l1, l2 in product(intervals, repeat=2):
        naive = {m for m in pairs if m.here in l1 and m.there in l2 or m.there in l1 and m.there in l2}
        assert interval_countermodels(l1, l2) == naive, (l1, l2)


def test_intervals_to_rule_inverts_the_construction():
    l1 = iv(L2, ["q"], ["q"])
    l2 = iv(L2, ["q"], ["p", "q"])
    rebuilt = intervals_to_rule(l1, l2, L2)
    assert rebuilt == Rule(head_pos={"p"}, head_neg={"q"}, body_pos={"q"})
    assert se_equivalent_rules(rebuilt, parse_rule("p :- q."), L2)


def test_intervals_to_rule_on_empty_input_is_epsilon():
    assert intervals_to_rule(Interval.empty(L2), iv(L2, [], ["p"]), L2) == EPSILON
    assert intervals_to_rule(iv(L2, [], ["p"]), Interval.empty(L2), L2) == EPSILON


def test_interval_round_trip_is_se_equivalent_for_canonical_rules():
    from sekit import is_canonical
    for rule in enumerate_rules(L2):
        if not is_canonical(rule):
            continue
        l1, l2 = rule_to_countermodel_intervals(rule, L2)
        assert se_equivalent_rules(intervals_to_rule(l1, l2, L2), rule, L2), rule


def test_representability_examples():
    full = SESet.full(Alphabet(("p",)))
    for method in ("induced", "lattice", "brute"):
        ok, witness = is_rule_representable(full, method)
        assert ok and witness == EPSILON
    lonely = subset_of_pairs(L2, (8,))  # just <{p,q},{p,q}>
    for method in ("induced", "lattice", "brute"):
        ok, witness = is_rule_representable(lonely, method)
        assert not ok and witness is None


def test_rule_se_sets_are_representable_with_exact_witnesses():
    for rule in list(enumerate_rules(L2))[::5]:
        s = se_models(rule, L2)
        for method in ("induced", "lattice", "brute"):
            ok, witness = is_rule_representable(s, method)
            assert ok
            assert se_models(witness, L2) == s, (rule, method)


def test_three_way_agreement_on_all_subsets():
    for s in all_se_subsets(L2):
        verdicts = {method: is_rule_representable(s, method)[0]
                    for method in ("induced", "lattice", "brute")}
        assert len(set(verdicts.values())) == 1, (s.sort_key(), verdicts)


def test_representable_sets_are_well_defined():
    for s in all_se_subsets(L2):
        if is_rule_representable(s)[0]:
            assert is_well_defined(s)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        is_rule_representable(SESet.full(L2), "magic")
