"""C-models, reducts, SE-models, program semantics, answer sets."""
from __future__ import annotations

import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given

import naive
import strategies
from sekit import (EPSILON, Alphabet, Interpretation, Program, Rule, ScopeError,
                   SEInterpretation, SESet, answer_sets, c_models, is_c_model,
                   is_se_model, is_se_tautology, is_well_defined, parse_program,
                   parse_rule, reduct, se_models, se_models_program)
from sekit.oracle import enumerate_rules

L1 = Alphabet(("p",))
L2 = Alphabet(("p", "q"))
L3 = Alphabet(("p", "q", "r"))


def interp(alphabet, names):
    return Interpretation.of(alphabet, names)


def model_names(se_set):
    return {(frozenset(m.here.atoms()), frozenset(m.there.atoms())) for m in se_set.models}


def test_c_models_of_a_fact():
    got = {frozenset(j.atoms()) for j in c_models(parse_rule("p."), L2)}
    assert got == {frozenset({"p"}), frozenset({"p", "q"})}


def test_c_models_of_a_constraint():
    got = {frozenset(j.atoms()) for j in c_models(parse_rule(":- p, q."), L2)}
    assert got == {frozenset(), frozenset({"p"}), frozenset({"q"})}


def test_c_models_of_epsilon_is_everything():
    assert len(c_models(EPSILON, L2)) == 4


def test_c_models_agree_with_naive_truth_tables():
    for rule in enumerate_rules(L2):
        fast = {frozenset(j.atoms()) for j in c_models(rule, L2)}
        slow = {j for j in naive.powerset(("p", "q")) if naive.c_sat(rule, j)}
        assert fast == slow, rule


def test_c_models_scope_error():
    with pytest.raises(ScopeError, match="'z'"):
        c_models(parse_rule("z."), L2)


def test_reduct_examples():
    assert reduct(parse_rule("p :- not q."), interp(L2, ["q"])) == EPSILON
    assert reduct(parse_rule("p; not q :- r."), interp(Alphabet(("p", "q", "r")), [])) == EPSILON
    assert (reduct(parse_rule("p; not q :- r."), interp(Alphabet(("p", "q", "r")), ["q", "r"]))
            == Rule(head_pos={"p"}, body_pos={"r"}))
    assert reduct(EPSILON, interp(L1, [])) == EPSILON


def test_reduct_treats_unknown_atoms_as_false():
    j = interp(L1, ["p"])
    assert reduct(parse_rule("not z."), j) == EPSILON
    assert reduct(parse_rule("p :- not z."), j) == Rule(head_pos={"p"})


def test_se_models_of_negative_body_rule():
    got = model_names(se_models(parse_rule("p :- not q."), L2))
    f = frozenset
    assert got == {(f({"p"}), f({"p"})), (f(), f({"q"})), (f({"q"}), f({"q"})),
                   (f(), f({"p", "q"})), (f({"p"}), f({"p", "q"})),
                   (f({"q"}), f({"p", "q"})), (f({"p", "q"}), f({"p", "q"}))}


def test_se_models_of_head_contradiction_rule():
    got = model_names(se_models(parse_rule("p; not p :-."), L1))
    assert got == {(frozenset(), frozenset()), (frozenset({"p"}), frozenset({"p"}))}


def test_se_models_of_epsilon_is_full():
    assert se_models(EPSILON, L2).is_full()


def test_se_models_agree_with_naive_oracle_for_every_rule():
    for alphabet in (L2, L3):
        for rule in enumerate_rules(alphabet):
            assert model_names(se_models(rule, alphabet)) == naive.se_models(rule, alphabet.atoms), rule


def test_se_models_keeps_no_results_alive():
    alphabet = Alphabet(tuple("abcdefgh"))
    rng = random.Random(8)
    rules: set = set()
    while len(rules) < 200:
        rules.add(strategies.random_rule(rng, alphabet.atoms))
    calls = [(rule, alphabet) for rule in rules]
    # one 15-atom SE-set takes 1.8 MB, so keeping any set or table of that size fails
    calls.append((parse_rule("a ; not b :- c, not d."), Alphabet(tuple("abcdefghijklmno"))))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for rule, a in calls:
            se_models(rule, a)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 1 << 20, f"{growth} bytes still held after {len(calls)} se_models calls"


def test_se_models_agree_with_pairwise_tests():
    from sekit import all_se_interpretations
    for rule in list(enumerate_rules(L2))[::7] + [EPSILON]:
        direct = frozenset(se for se in all_se_interpretations(L2) if is_se_model(rule, se))
        assert direct == se_models(rule, L2).models


def test_program_se_models_is_the_intersection():
    program, _ = parse_program("p. q.")
    got = model_names(se_models_program(program, L2))
    assert got == {(frozenset({"p", "q"}), frozenset({"p", "q"}))}


def test_empty_program_has_all_se_models():
    assert se_models_program(Program(), L2).is_full()


@given(strategies.programs())
def test_program_se_models_within_each_rule(program):
    L3 = Alphabet(("p", "q", "r"))
    s = se_models_program(program, L3)
    for rule in program:
        assert s.models <= se_models(rule, L3).models


def test_se_tautology_examples():
    assert is_se_tautology(parse_rule("p :- p."), L1)
    assert is_se_tautology(EPSILON, L2)
    assert not is_se_tautology(parse_rule("p."), L1)
    assert is_se_tautology(parse_rule("p :- q, not q."), L2)


def _subsets():
    return [frozenset(), frozenset({"p"}), frozenset({"q"}), frozenset({"p", "q"})]


def _literal_sets():
    """All splits of {p,q} literals into positive and negative parts, overlaps included."""
    return [(pos, neg) for pos in _subsets() for neg in _subsets()]


def test_tautology_forms_are_se_tautological():
    for (hp, hn), (bp, bn) in product(_literal_sets(), repeat=2):
        with_head_atom = Rule(head_pos=hp | {"p"}, head_neg=hn, body_pos=bp | {"p"}, body_neg=bn)
        with_neg_head = Rule(head_pos=hp, head_neg=hn | {"p"}, body_pos=bp, body_neg=bn | {"p"})
        with_body_clash = Rule(head_pos=hp, head_neg=hn, body_pos=bp | {"p"}, body_neg=bn | {"p"})
        for rule in (with_head_atom, with_neg_head, with_body_clash):
            assert is_se_tautology(rule, L2), rule


def test_repeated_head_literal_drops():
    for (hp, hn), (bp, bn) in product(_literal_sets(), repeat=2):
        base = Rule(head_pos=hp, head_neg=hn, body_pos=bp | {"p"}, body_neg=bn)
        doubled = Rule(head_pos=hp, head_neg=hn | {"p"}, body_pos=bp | {"p"}, body_neg=bn)
        assert se_models(doubled, L2) == se_models(base, L2)
        base = Rule(head_pos=hp, head_neg=hn, body_pos=bp, body_neg=bn | {"p"})
        doubled = Rule(head_pos=hp | {"p"}, head_neg=hn, body_pos=bp, body_neg=bn | {"p"})
        assert se_models(doubled, L2) == se_models(base, L2)


def test_negative_head_atom_moves_to_positive_body():
    for neg_head in (frozenset(), frozenset({"q"})):
        for (bp, bn) in _literal_sets():
            as_head = Rule(head_neg=neg_head | {"p"}, body_pos=bp, body_neg=bn)
            as_body = Rule(head_neg=neg_head, body_pos=bp | {"p"}, body_neg=bn)
            assert se_models(as_head, L2) == se_models(as_body, L2)


def test_rule_se_sets_are_well_defined():
    for rule in enumerate_rules(L2):
        assert is_well_defined(se_models(rule, L2))


def test_well_definedness_needs_the_total_pair():
    dangling = SESet(L1, {SEInterpretation(interp(L1, []), interp(L1, ["p"]))})
    assert not is_well_defined(dangling)
    assert is_well_defined(SESet(L1))


def test_answer_set_examples():
    fact, _ = parse_program("p.")
    assert {j.atoms() for j in answer_sets(fact, L1)} == {("p",)}
    odd, _ = parse_program("p :- not p.")
    assert answer_sets(odd, L1) == frozenset()
    assert {j.atoms() for j in answer_sets(Program(), L1)} == {()}
    disjunctive, _ = parse_program("p; q.")
    assert {frozenset(j.atoms()) for j in answer_sets(disjunctive, L2)} \
        == {frozenset({"p"}), frozenset({"q"})}


@given(strategies.programs())
def test_answer_sets_agree_with_reduct_oracle(program):
    L3 = Alphabet(("p", "q", "r"))
    fast = {frozenset(j.atoms()) for j in answer_sets(program, L3)}
    assert fast == naive.answer_sets(list(program), ("p", "q", "r"))
