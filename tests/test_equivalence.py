"""The four equivalence notions, their ladder, and witnesses."""
from __future__ import annotations

import random

import pytest
from hypothesis import given

import strategies
from sekit import (EPSILON, Alphabet, EquivalenceNotion, FamilyWitness, Program, ScopeError,
                   SEModelWitness, TautologyWitness, equivalence_report, is_se_tautology,
                   parse_program, parse_rule, se_equivalent_rules, se_models,
                   se_models_program, secan, smr_equivalent, sr_equivalent,
                   strongly_equivalent, su_equivalent)

L1 = Alphabet(("p",))
L2 = Alphabet(("p", "q"))
L3 = Alphabet(("p", "q", "r"))


def prog(text):
    program, _ = parse_program(text)
    return program


def test_se_equivalent_rules_examples():
    assert se_equivalent_rules(parse_rule("p :- q, not q."), EPSILON, L2)
    assert se_equivalent_rules(parse_rule("not p."), parse_rule(":- p."), L1)
    assert not se_equivalent_rules(parse_rule("p."), parse_rule("q."), L2)


@given(strategies.rules(), strategies.rules())
def test_se_equivalence_paths_agree(r1, r2):
    assert se_equivalent_rules(r1, r2, L3) == (se_models(r1, L3) == se_models(r2, L3))


def test_strong_equivalence_examples():
    assert strongly_equivalent(prog("p. q."), prog("p :- q. q."), L2)
    assert not strongly_equivalent(prog("p."), prog("q."), L2)
    assert strongly_equivalent(Program(), prog("p :- p."), L1)


def test_sr_ignores_added_tautologies():
    assert sr_equivalent(prog("q."), prog("q. p :- p."), L2)
    assert sr_equivalent(prog("q."), prog("q. #taut."), L2)


def test_ladder_witness_pairs():
    first = equivalence_report(prog("p. q."), prog("p :- q. q."), L2)
    assert first.verdicts[EquivalenceNotion.S]
    assert not first.verdicts[EquivalenceNotion.SMR]

    second = equivalence_report(prog("p :- q."), prog("p :- q. p :- q, r."), L3)
    assert second.verdicts[EquivalenceNotion.SMR]
    assert not second.verdicts[EquivalenceNotion.SR]

    third = equivalence_report(prog("not p."), prog(":- p."), L1)
    assert third.verdicts[EquivalenceNotion.SR]
    assert not third.verdicts[EquivalenceNotion.SU]


def test_su_decided_by_symmetric_difference():
    assert su_equivalent(prog("q."), prog("q. p :- p."), L2)
    assert not su_equivalent(prog("not p."), prog(":- p."), L1)
    assert su_equivalent(prog("p. q."), prog("q. p."), L2)


@given(strategies.programs())
def test_every_program_is_equivalent_to_itself(program):
    report = equivalence_report(program, program, L3)
    assert all(report.verdicts.values())
    assert report.witnesses == {}


@given(strategies.programs(max_rules=3), strategies.programs(max_rules=3))
def test_ladder_on_random_pairs(p1, p2):
    report = equivalence_report(p1, p2, L3)
    v = report.verdicts
    assert not v[EquivalenceNotion.SU] or v[EquivalenceNotion.SR]
    assert not v[EquivalenceNotion.SR] or v[EquivalenceNotion.SMR]
    assert not v[EquivalenceNotion.SMR] or v[EquivalenceNotion.S]


@given(strategies.programs(atoms=("p", "q"), max_rules=3),
       strategies.programs(atoms=("p", "q"), max_rules=3))
def test_verdicts_survive_one_fresh_atom(p1, p2):
    extended = Alphabet(("p", "q", "z"))
    base = equivalence_report(p1, p2, L2).verdicts
    wider = equivalence_report(p1, p2, extended).verdicts
    assert base == wider


def test_strong_equivalence_witness_is_one_sided():
    report = equivalence_report(prog("p."), prog("q."), L2)
    witness = report.witnesses[EquivalenceNotion.S]
    assert isinstance(witness, SEModelWitness)
    m1 = se_models_program(prog("p."), L2).models
    m2 = se_models_program(prog("q."), L2).models
    assert (witness.se in m1) != (witness.se in m2)
    assert witness.side == ("left" if witness.se in m1 else "right")


def test_family_witness_names_an_unmatched_rule():
    left, right = prog("p :- q."), prog("p :- q. p :- q, r.")
    report = equivalence_report(left, right, L3)
    witness = report.witnesses[EquivalenceNotion.SR]
    assert isinstance(witness, FamilyWitness)
    assert witness.side == "right"
    target = se_models(witness.rule, L3)
    assert all(se_models(r, L3) != target for r in left) and not target.is_full()


def test_family_witness_can_be_epsilon_for_empty_program():
    report = equivalence_report(Program(), prog("p."), L2)
    witness = report.witnesses[EquivalenceNotion.SMR]
    assert isinstance(witness, FamilyWitness)
    assert witness.rule == EPSILON or witness.rule == parse_rule("p.")


def test_tautology_witness_is_not_tautological():
    report = equivalence_report(prog("not p."), prog(":- p."), L1)
    witness = report.witnesses[EquivalenceNotion.SU]
    assert isinstance(witness, TautologyWitness)
    assert witness.rule in {parse_rule("not p."), parse_rule(":- p.")}


def test_report_is_deterministic():
    rng = random.Random(7)
    for _ in range(25):
        p1 = strategies.random_program(rng, ("p", "q", "r"))
        p2 = strategies.random_program(rng, ("p", "q", "r"))
        assert equivalence_report(p1, p2, L3) == equivalence_report(p1, p2, L3)


def test_report_verdicts_match_the_public_functions_and_the_program_semantics():
    rng = random.Random(11)
    for _ in range(40):
        p1 = strategies.random_program(rng, ("p", "q", "r"))
        p2 = strategies.random_program(rng, ("p", "q", "r"))
        verdicts = equivalence_report(p1, p2, L3).verdicts
        assert verdicts == {EquivalenceNotion.S: strongly_equivalent(p1, p2, L3),
                            EquivalenceNotion.SR: sr_equivalent(p1, p2, L3),
                            EquivalenceNotion.SMR: smr_equivalent(p1, p2, L3),
                            EquivalenceNotion.SU: su_equivalent(p1, p2, L3)}
        assert verdicts[EquivalenceNotion.S] == (se_models_program(p1, L3)
                                                 == se_models_program(p2, L3))
        assert verdicts[EquivalenceNotion.SU] == all(se_models(r, L3).is_full()
                                                     for r in p1.rules ^ p2.rules)


def test_report_computes_each_rule_set_once(monkeypatch):
    import sekit.equivalence
    import sekit.semantics
    calls = []
    real = sekit.semantics.se_models

    def counting(rule, alphabet, cap=None):
        calls.append(rule)
        return real(rule, alphabet, cap)

    monkeypatch.setattr(sekit.equivalence, "se_models", counting)
    monkeypatch.setattr(sekit.semantics, "se_models", counting)
    p1 = prog("p :- q. q :- r. r ; s. :- p, s. p :- not s.")
    p2 = prog("p :- q. q :- r. r. s :- not p.")
    assert (len(p1), len(p2)) == (5, 4)
    report = equivalence_report(p1, p2, Alphabet(tuple("pqrs")))
    assert not any(report.verdicts.values())  # every witness is searched for
    variants = prog("p :- q. r :- s."), prog("p ; not q :- q. s.")  # SE-equal first rules
    for left, right in ((p1, p2), variants):
        calls.clear()
        equivalence_report(left, right, Alphabet(tuple("pqrs")))
        forms = {secan(r) for r in left.rules | right.rules} | {EPSILON}  # the tautology's full set
        assert len(calls) <= len(forms)


def test_rule_functions_check_scope_and_need_no_se_set():
    taut = parse_rule("z :- z.")  # secan drops z
    for call in (lambda: is_se_tautology(taut, L2), lambda: se_equivalent_rules(taut, EPSILON, L2),
                 lambda: equivalence_report(Program({taut}), Program(), L2),
                 lambda: sr_equivalent(Program({taut}), Program(), L2),
                 lambda: su_equivalent(Program(), Program({taut}), L2)):
        with pytest.raises(ScopeError, match="'z'"):
            call()
    wide = Alphabet(tuple("abcdefghijklmnopqrstuvwxyz"))  # 3^26 pairs, over the cap
    assert is_se_tautology(parse_rule("not a ; b :- not a."), wide)
    assert not is_se_tautology(parse_rule("a :- z."), wide)
    assert se_equivalent_rules(parse_rule("a ; not b :- b."), parse_rule("a :- b."), wide)
    assert not se_equivalent_rules(parse_rule("a :- b."), parse_rule("b :- a."), wide)
    left, right = prog("a :- b. c ; d :- not e. f :- g, not h."), prog("a :- b. c :- not e, not d.")
    assert not sr_equivalent(left, right, wide) and not su_equivalent(left, right, wide)
    variant = prog("a ; not b :- b. c ; d :- not e. f :- g, not h.")  # an SE-equal first rule
    assert sr_equivalent(left, variant, wide) and not su_equivalent(left, variant, wide)
    assert su_equivalent(left, prog("a :- b. z :- z. c ; d :- not e. f :- g, not h."), wide)


def test_family_witness_needs_no_se_set_order(monkeypatch):
    import sekit.core

    def refuse(self):
        raise AssertionError("SESet.sort_key called")

    monkeypatch.setattr(sekit.core.SESet, "sort_key", refuse)
    left = prog("a :- b. c ; d :- not e. f :- g, not h.")
    right = prog("a :- b. c :- not e, not d.")
    report = equivalence_report(left, right, Alphabet(tuple("abcdefgh")))
    witness = FamilyWitness(parse_rule("c :- not d, not e."), "right")
    assert report.witnesses[EquivalenceNotion.SR] == report.witnesses[EquivalenceNotion.SMR] == witness
