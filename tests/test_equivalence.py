"""The four equivalence notions, their ladder, and witnesses."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given

import naive
import sekit
import strategies
from sekit import (EPSILON, Alphabet, EnumerationCapError, EquivalenceNotion, FamilyWitness,
                   Interpretation, Program, Rule, ScopeError, SEInterpretation, SEModelWitness,
                   SESet, TautologyWitness, enumerate_rules, equivalence_report, is_se_tautology,
                   parse_program, parse_rule, rule_key, se_equivalent_rules, se_models, secan,
                   se_models_program, smr_equivalent, sr_equivalent, strongly_equivalent,
                   su_equivalent)

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


def _naive_minimal(program, atoms):
    """The subset-minimal members of the program's family of rule SE-sets, tautology adjoined."""
    family = {frozenset(naive.se_models(r, atoms)) for r in program.rules | {EPSILON}}
    return {s for s in family if not any(t < s for t in family)}


def test_smr_matches_minimal_families_of_naive_se_sets():
    rng, agreed = random.Random(2004), 0
    for atoms in ("p", "pq", "pqr", "pqrs"):
        alphabet = Alphabet(tuple(atoms))
        for _ in range(100):
            p1 = strategies.random_program(rng, atoms)
            rules = sorted(p1.rules, key=rule_key)
            edit = rng.randrange(3)  # a fresh program, one rule weakened and added, or one dropped
            if edit == 0 or not rules:
                p2 = strategies.random_program(rng, atoms)
            elif edit == 1:
                r = rng.choice(rules)
                extra = frozenset(a for a in atoms if rng.random() < 0.3)
                p2 = Program(p1.rules | {Rule(r.head_pos, r.head_neg, r.body_pos | extra, r.body_neg)})
            else:
                p2 = Program(p1.rules - {rng.choice(rules)})
            minimal = _naive_minimal(p1, atoms), _naive_minimal(p2, atoms)
            report = equivalence_report(p1, p2, alphabet)
            verdict = report.verdicts[EquivalenceNotion.SMR]
            assert verdict == smr_equivalent(p1, p2, alphabet) == (minimal[0] == minimal[1])
            agreed += verdict
            witness = report.witnesses.get(EquivalenceNotion.SMR)
            if witness is not None:
                mine, other = minimal if witness.side == "left" else minimal[::-1]
                side = p1 if witness.side == "left" else p2
                assert witness.rule in side.rules | {EPSILON}
                found = frozenset(naive.se_models(witness.rule, atoms))
                assert found in mine and found not in other
    assert 100 < agreed < 300, agreed  # both verdicts are exercised


def test_report_builds_se_sets_for_s_alone(monkeypatch):
    import sekit.equivalence
    import sekit.semantics
    rule_sets, built, made = [], [], []
    real_se_models, real_excluding, real_of = se_models, SESet.excluding.__func__, SESet._of.__func__

    def counting_se_models(rule, alphabet, cap=None):
        rule_sets.append(rule)
        return real_se_models(rule, alphabet, cap)

    def counting_excluding(cls, alphabet, cubes, cap=None):
        built.append(alphabet)
        return real_excluding(cls, alphabet, cubes, cap)

    def counting_of(cls, alphabet, bits):
        made.append(alphabet)
        return real_of(cls, alphabet, bits)

    monkeypatch.setattr(sekit.semantics, "se_models", counting_se_models)
    monkeypatch.setattr(sekit.equivalence, "se_models", counting_se_models, raising=False)
    monkeypatch.setattr(SESet, "excluding", classmethod(counting_excluding))
    monkeypatch.setattr(SESet, "_of", classmethod(counting_of))
    p1 = prog("p :- q. q :- r. r ; s. :- p, s. p :- not s.")
    p2 = prog("p :- q. q :- r. r. s :- not p.")
    alphabet = Alphabet(tuple("pqrs"))
    report = equivalence_report(p1, p2, alphabet)
    assert not any(report.verdicts.values())  # every witness is searched for
    assert (rule_sets, len(built)) == ([], 2)  # one set per program, for s
    built.clear()
    made.clear()
    for notion in (smr_equivalent, sr_equivalent, su_equivalent):
        assert not notion(p1, p2, alphabet)
    assert (rule_sets, built, made) == ([], [], [])  # no SE-set at all

    minimal_calls = []
    real_minimal = sekit.equivalence._minimal
    monkeypatch.setattr(sekit.equivalence, "_minimal",
                        lambda *args: minimal_calls.append(args) or real_minimal(*args))
    left = prog("a :- b. c ; d :- not e. f :- g, not h.")
    subsumed = prog("a :- b. c ; d :- not e. f :- g, not h. f :- g, a, not h.")  # smr, not sr
    variant = prog("a ; not b :- b. c ; d :- not e. f :- g, not h.")  # sr: an SE-equal first rule
    alphabet = Alphabet(tuple("abcdefgh"))
    for right, sr in ((subsumed, False), (variant, True)):
        verdicts = equivalence_report(left, right, alphabet).verdicts
        assert verdicts[EquivalenceNotion.SR] == sr and verdicts[EquivalenceNotion.SMR]
        assert verdicts[EquivalenceNotion.S]
        assert strongly_equivalent(left, right, alphabet) and smr_equivalent(left, right, alphabet)
        assert (rule_sets, built, made) == ([], [], [])  # smr settles s
        assert len(minimal_calls) == (0 if sr else 3)  # equal families have equal minima
        minimal_calls.clear()


def test_rule_functions_check_scope_and_need_no_se_set():
    taut = parse_rule("z :- z.")  # secan drops z
    for call in (lambda: is_se_tautology(taut, L2), lambda: se_equivalent_rules(taut, EPSILON, L2),
                 lambda: equivalence_report(Program({taut}), Program(), L2),
                 lambda: sr_equivalent(Program({taut}), Program(), L2),
                 lambda: smr_equivalent(Program({taut}), Program(), L2),
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
    subsumed = prog("a :- b. c ; d :- not e. f :- g, not h. f :- g, z, not h.")  # one more body atom
    for cap in (None, 0):
        assert not smr_equivalent(left, right, wide, cap)
        assert smr_equivalent(left, variant, wide, cap) and smr_equivalent(left, subsumed, wide, cap)
    assert not sr_equivalent(left, subsumed, wide)
    for other in (variant, subsumed):  # smr settles s, above the cap too
        assert strongly_equivalent(left, other, wide)
        assert equivalence_report(left, other, wide).verdicts[EquivalenceNotion.S]
    for call in (strongly_equivalent, equivalence_report):  # smr fails: s needs the SE-sets
        with pytest.raises(EnumerationCapError):
            call(left, right, wide)


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


def test_report_computes_each_rules_masks_once(monkeypatch):
    import sekit.equivalence
    import sekit.semantics

    left = prog("a :- b. c ; d :- not e. f :- g, not h. b :- b.")  # with a tautology
    right = prog("a :- b. c :- not e, not d. a ; not b :- b.")  # with an SE-equal rule
    alphabet = Alphabet(tuple("abcdefgh"))
    expected = equivalence_report(left, right, alphabet)
    calls = []
    masks = sekit.equivalence._masks

    def counting(rule, alphabet):
        calls.append(rule)
        return masks(rule, alphabet)

    def refuse(*args):
        raise AssertionError("a rule's masks were computed again")

    monkeypatch.setattr(sekit.equivalence, "_masks", counting)
    monkeypatch.setattr(sekit.semantics, "_masks", refuse)  # se_models_program is not read
    assert equivalence_report(left, right, alphabet) == expected
    assert sorted(calls, key=rule_key) == sorted({EPSILON} | left.rules | right.rules, key=rule_key)
    outside = Program({parse_rule("z :- a.")})
    wide = Alphabet(tuple("abcdefghijklmnopqrstu"))  # 21 atoms, over the cap
    with pytest.raises(ScopeError, match="'z'"):  # the scope is checked before the cap
        equivalence_report(outside, left, wide)


def test_scope_errors_name_the_first_rule_in_rule_order_under_every_hash_seed():
    src = os.path.dirname(os.path.dirname(sekit.__file__))
    code = ("from sekit import *\n"
            "left = parse_program('a :- b. c :- d. e :- f. g :- h.')[0]\n"
            "right = parse_program('a :- b. x :- y. p :- q.')[0]\n"
            "for check in (equivalence_report, strongly_equivalent, sr_equivalent, smr_equivalent,\n"
            "              su_equivalent):\n"
            "    try:\n"
            "        check(left, right, Alphabet(('a', 'b')))\n"
            "    except ScopeError as exc:\n"
            "        print(check.__name__, exc)\n"
            "try:\n"
            "    answer_sets(left, Alphabet(('a', 'b')))\n"
            "except ScopeError as exc:\n"
            "    print('answer_sets', exc)\n")
    outputs = set()
    for seed in ("0", "1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.add(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                   env=env, check=True, timeout=60).stdout)
    assert len(outputs) == 1
    lines = outputs.pop().splitlines()
    assert len(lines) == 6 and all(line.endswith("atom 'c' is not in alphabet {a, b}") for line in lines)


def test_strong_equivalence_computes_each_rules_masks_once(monkeypatch):
    import sekit.equivalence
    import sekit.semantics

    left = prog("a :- b. c ; d :- not e. f :- g, not h.")
    right = prog("a :- b. c :- not e, not d.")
    alphabet = Alphabet(tuple("abcdefgh"))
    calls = []
    masks = sekit.equivalence._masks

    def counting(rule, alphabet):
        calls.append(rule)
        return masks(rule, alphabet)

    def refuse(*args):
        raise AssertionError("a rule's masks were computed again")

    monkeypatch.setattr(sekit.equivalence, "_masks", counting)
    monkeypatch.setattr(sekit.semantics, "_masks", refuse)  # se_models_program is not read
    assert not strongly_equivalent(left, right, alphabet)
    assert sorted(calls, key=rule_key) == sorted({EPSILON} | left.rules | right.rules, key=rule_key)
    calls.clear()
    assert strongly_equivalent(left, Program(left.rules | {parse_rule("b :- b.")}), alphabet)
    assert len(calls) == len(left.rules) + 2  # the tautology and EPSILON once each
    outside = Program({parse_rule("z :- a.")})
    wide = Alphabet(tuple("abcdefghijklmnopqrstu"))  # 21 atoms, over the cap
    with pytest.raises(ScopeError, match="'z'"):  # the scope is checked before the cap
        strongly_equivalent(left, outside, wide)


def _naive_report(p1, p2, alphabet):
    """The four verdicts and their witnesses, from naive SE-sets over every pair of the alphabet."""
    atoms = alphabet.atoms
    se = {r: frozenset(naive.se_models(r, atoms)) for r in p1.rules | p2.rules | {EPSILON}}
    models = [frozenset.intersection(frozenset(naive.se_pairs(atoms)), *(se[r] for r in p.rules))
              for p in (p1, p2)]
    families = [{se[r] for r in p.rules | {EPSILON}} for p in (p1, p2)]
    minimal = [{s for s in f if not any(t < s for t in f)} for f in families]
    untaut = [r for r in p1.rules ^ p2.rules if se[r] != se[EPSILON]]
    verdicts = {EquivalenceNotion.S: models[0] == models[1],
                EquivalenceNotion.SR: families[0] == families[1],
                EquivalenceNotion.SMR: minimal[0] == minimal[1], EquivalenceNotion.SU: not untaut}
    side = lambda p: "left" if p is p1 else "right"

    def family_witness(fams):
        unmatched = [(r, side(p)) for p, mine, other in ((p1, *fams), (p2, *fams[::-1]))
                     for r in p.rules | {EPSILON} if se[r] in mine and se[r] not in other]
        return FamilyWitness(*min(unmatched, key=lambda pair: rule_key(pair[0])))

    witnesses = {}
    if not verdicts[EquivalenceNotion.S]:
        here, there = min(models[0] ^ models[1],  # the first pair in (there, here) order
                          key=lambda pair: (alphabet.mask_of(pair[1]), alphabet.mask_of(pair[0])))
        se_pair = SEInterpretation(Interpretation.of(alphabet, here), Interpretation.of(alphabet, there))
        one_side = "left" if (here, there) in models[0] else "right"
        witnesses[EquivalenceNotion.S] = SEModelWitness(se_pair, one_side)
    if not verdicts[EquivalenceNotion.SR]:
        witnesses[EquivalenceNotion.SR] = family_witness(families)
    if not verdicts[EquivalenceNotion.SMR]:
        witnesses[EquivalenceNotion.SMR] = family_witness(minimal)
    if untaut:
        bad = min(untaut, key=rule_key)
        witnesses[EquivalenceNotion.SU] = TautologyWitness(bad, side(p1 if bad in p1.rules else p2))
    return verdicts, witnesses


def test_ladder_verdicts_and_witnesses_match_naive_semantics_up_to_three_atoms():
    from sweep_fixture import equiv_pairs
    one = Alphabet(("a",))
    rules = (EPSILON, *enumerate_rules(one))
    forms = sorted({secan(r) for r in rules}, key=rule_key)  # one rule per SE-class
    programs = {Program(frozenset(c)) for k in range(3) for c in combinations(forms, k)}
    programs |= {Program({r}) for r in rules}
    pairs = [(one, p1, p2) for p1 in programs for p2 in programs]  # every rung, s alone included
    pairs += [(Alphabet(tuple(atoms)), p1, p2) for atoms, p1, p2 in equiv_pairs() if len(atoms) <= 3]
    for alphabet, p1, p2 in pairs:
        verdicts, witnesses = _naive_report(p1, p2, alphabet)
        report = equivalence_report(p1, p2, alphabet)
        assert (report.verdicts, report.witnesses) == (verdicts, witnesses), (p1, p2)
        assert verdicts == {EquivalenceNotion.S: strongly_equivalent(p1, p2, alphabet),
                            EquivalenceNotion.SR: sr_equivalent(p1, p2, alphabet),
                            EquivalenceNotion.SMR: smr_equivalent(p1, p2, alphabet),
                            EquivalenceNotion.SU: su_equivalent(p1, p2, alphabet)}
    assert len(pairs) > 1000
