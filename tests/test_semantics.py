"""C-models, reducts, SE-models, program semantics, answer sets."""
from __future__ import annotations

import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given

import naive
import strategies
from sekit import (EPSILON, Alphabet, EnumerationCapError, Interpretation, Program, Rule, ScopeError,
                   SEInterpretation, SESet, answer_sets, c_models, is_c_model,
                   is_se_model, is_se_tautology, is_well_defined, parse_program,
                   parse_rule, reduct, se_models, se_models_program)
from sekit.oracle import enumerate_rules
from sekit.semantics import _covered, _masks, _products_of

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


def _se_entails(r1, r2, alphabet):
    """SE(r1) within SE(r2) by cube cover: each of r2's countermodel cubes lies in r1's two.
    The tautology has no countermodel; it stands in as two empty cubes."""
    empty = (~1, ~1, ~1)  # atom 0 takes no digit, as in both cubes of ":- p, not p."
    cubes = [(empty, empty) if r.is_epsilon else _products_of(_masks(r, alphabet)) for r in (r1, r2)]
    return all(_covered(c, *cubes[0]) for c in cubes[1])


def test_cube_cover_decides_rule_entailment_over_one_and_two_atoms():
    for alphabet in (L1, L2):  # 66,049 pairs at two atoms, with rules like "p ; not p." of no cube
        rules = (EPSILON,) + enumerate_rules(alphabet)
        sets = {r: se_models(r, alphabet) for r in rules}
        for r1, r2 in product(rules, repeat=2):
            assert _se_entails(r1, r2, alphabet) == (sets[r1] <= sets[r2]), (r1, r2)


def test_cube_cover_matches_the_bitsets_for_every_cube_triple_over_two_atoms():
    for alphabet in (L1, L2):
        full = alphabet.full_mask
        # every cube: per digit any set of atoms, as the negative ints `_products_of` gives
        cubes = [tuple(~(full & ~m) for m in masks) for masks in product(range(full + 1), repeat=3)]
        sets = {c: SESet.excluding(alphabet, [c]) for c in cubes}  # the complement of the cube
        for a, b in product(cubes, repeat=2):
            union = SESet.excluding(alphabet, [a, b])
            for c in cubes:
                assert _covered(c, a, b) == (union <= sets[c]), (c, a, b)


def _sparse_rule(rng, atoms):
    """Each atom in at most one rule part, mostly in one: seldom an SE-tautology."""
    parts = [set(), set(), set(), set()]
    for a in atoms:
        k = rng.randrange(6)
        if k < 4:
            parts[k].add(a)
    return Rule(*parts)


def _weakened(rng, rule, atoms):
    """`rule` with atoms added to its parts: both countermodel cubes shrink, so SE-models grow."""
    if rule.is_epsilon:
        return rule
    parts = (rule.head_pos, rule.head_neg, rule.body_pos, rule.body_neg)
    return Rule(*(part | {a for a in atoms if rng.random() < 0.15} for part in parts))


def test_cube_cover_agrees_with_the_naive_entailment_over_three_to_five_atoms():
    rng = random.Random(2001)
    for atoms in ("pqr", "pqrs", "pqrst"):
        alphabet, held = Alphabet(tuple(atoms)), 0
        for _ in range(150):
            r1 = EPSILON if rng.random() < 0.05 else _sparse_rule(rng, atoms)
            r2 = _weakened(rng, r1, atoms) if rng.random() < 0.5 else _sparse_rule(rng, atoms)
            entails = naive.se_entails(r1, r2, atoms)
            assert _se_entails(r1, r2, alphabet) == entails, (r1, r2)
            held += entails
        assert 40 < held < 120, held  # both answers are exercised


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


def test_program_se_models_match_the_intersection_of_rule_se_models():
    rng = random.Random(17)
    for _ in range(100):
        atoms = "pqrs"[:rng.randint(1, 4)]
        program, alphabet = strategies.random_program(rng, atoms), Alphabet(tuple(atoms))
        expected = SESet.full(alphabet)
        for rule in program:
            expected &= se_models(rule, alphabet)
        assert se_models_program(program, alphabet) == expected, program
    assert se_models_program(Program(), L3) == SESet.full(L3)
    assert se_models_program(Program({EPSILON}), L3) == SESet.full(L3)


def test_se_models_check_the_cap_before_the_scope():
    outside = parse_rule("z.")
    for compute in (lambda a, cap: se_models(outside, a, cap),
                    lambda a, cap: se_models_program(Program({EPSILON, outside}), a, cap)):
        with pytest.raises(ValueError, match="nonempty alphabet"):
            compute(Alphabet(()), None)
        with pytest.raises(EnumerationCapError, match="cap of 2"):
            compute(L3, 2)
        with pytest.raises(ScopeError, match="'z'"):
            compute(L3, None)


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


def test_se_tautology_matches_the_full_se_set():
    for alphabet in (L2, L3):
        for rule in (EPSILON, *enumerate_rules(alphabet)):
            assert is_se_tautology(rule, alphabet) == se_models(rule, alphabet).is_full(), rule


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


def test_sets_built_under_a_cap_keep_it(monkeypatch):
    import sekit.core
    program, _ = parse_program("p :- not q. q :- not p. r :- p.")
    expected = answer_sets(program, L3)
    monkeypatch.setattr(sekit.core, "DEFAULT_ENUMERATION_CAP", 2)
    assert is_well_defined(se_models_program(program, L3, cap=3))
    assert answer_sets(program, L3, cap=3) == expected
    with pytest.raises(EnumerationCapError, match="cap of 2"):  # before a 3^n-bit member
        SESet(L3, [SEInterpretation(interp(L3, []), interp(L3, ["p"]))])
    assert len(SESet(L3)) == 0


@given(strategies.programs())
def test_answer_sets_agree_with_reduct_oracle(program):
    L3 = Alphabet(("p", "q", "r"))
    fast = {frozenset(j.atoms()) for j in answer_sets(program, L3)}
    assert fast == naive.answer_sets(list(program), ("p", "q", "r"))



def test_answer_sets_agree_with_reduct_oracle_over_four_and_five_atoms():
    rng = random.Random(41)
    for atoms in ("pqrs", "pqrst"):
        for _ in range(60):
            rules = []
            for _ in range(rng.randint(1, 6)):
                head, body = rng.sample(atoms, rng.randint(0, 2)), rng.sample(atoms, rng.randint(0, 3))
                cut = rng.randint(0, len(body))
                rules.append(Rule(head_pos=head, head_neg=rng.sample(atoms, rng.random() < 0.2),
                                  body_pos=body[:cut], body_neg=body[cut:]))
            fast = {frozenset(j.atoms()) for j in answer_sets(Program(rules), Alphabet(tuple(atoms)))}
            assert fast == naive.answer_sets(rules, tuple(atoms))
