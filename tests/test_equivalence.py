"""The four equivalence notions, their ladder, and witnesses."""
from __future__ import annotations

import random

from hypothesis import given

import strategies
from sekit import (EPSILON, Alphabet, EquivalenceNotion, FamilyWitness, Program,
                   SEModelWitness, TautologyWitness, equivalence_report, parse_program,
                   parse_rule, se_equivalent_rules, se_models, se_models_program,
                   secan, smr_equivalent, sr_equivalent, strongly_equivalent, su_equivalent)

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
    assert se_equivalent_rules(r1, r2, L3) == (secan(r1) == secan(r2))


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
