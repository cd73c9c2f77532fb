"""Acceptance gate: exhaustive small-scope checks with stated runtime budgets.

Each test prints one pass/fail line; run with -s (or read captured output)
to see the summary.
"""
from __future__ import annotations

import random
import time
from itertools import product

import strategies
from sekit import (EPSILON, Alphabet, EquivalenceNotion, Interpretation, Rule, SEInterpretation,
                   SESet, answer_sets, c_models, equivalence_report, induce_rule, is_canonical,
                   is_rule_representable, is_se_tautology, is_well_defined,
                   parse_program, parse_rule, print_rule, se_models,
                   se_models_program, secan, smr_equivalent, count_se_classes)
from sekit.oracle import enumerate_rules
from test_reconstruct import all_se_subsets

L1 = Alphabet(("p",))
L2 = Alphabet(("p", "q"))
L3 = Alphabet(("p", "q", "r"))

SEED = 20260814


def _report(index: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance] {index} {label}: {verdict} ({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, label
    assert elapsed < budget, f"{label} took {elapsed:.2f}s, budget {budget:g}s"


def test_criterion_1_canonicalization_soundness():
    start = time.perf_counter()
    ok = all(se_models(secan(r), L2) == se_models(r, L2) for r in enumerate_rules(L2))
    _report(1, "canonicalization soundness", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_reconstruction():
    start = time.perf_counter()
    ok = all(induce_rule(se_models(r, L2)) == secan(r) for r in enumerate_rules(L2))
    _report(2, "reconstruction", ok, time.perf_counter() - start, 1.0)


def test_criterion_3_class_census():
    start = time.perf_counter()
    ok = True
    for n, alphabet in ((1, L1), (2, L2), (3, L3)):
        expected = 6 ** n - 4 ** n + 3 ** n + 1
        ok = ok and count_se_classes(alphabet) == expected
    ok = ok and count_se_classes(L1) == 6 and count_se_classes(L2) == 30 \
        and count_se_classes(L3) == 180
    seen: dict = {}
    for rule in enumerate_rules(L3):
        if is_canonical(rule):
            key = se_models(rule, L3).models
            ok = ok and key not in seen
            seen[key] = rule
    _report(3, "class census", ok, time.perf_counter() - start, 10.0)


def test_criterion_4_representability_three_ways():
    start = time.perf_counter()
    ok = True
    for s in all_se_subsets(L2):
        induced, _ = is_rule_representable(s, "induced")
        lattice, _ = is_rule_representable(s, "lattice")
        brute, _ = is_rule_representable(s, "brute")
        ok = ok and induced == lattice == brute
        ok = ok and se_models(induce_rule(s), L2).models <= s.models
    _report(4, "representability three-way agreement", ok, time.perf_counter() - start, 5.0)


def test_criterion_5_worked_example_regression():
    start = time.perf_counter()
    two = se_models(parse_rule("p; not p :-."), L1)
    ok = {(m.here.atoms(), m.there.atoms()) for m in two.models} \
        == {((), ()), (("p",), ("p",))}
    ok = ok and len(c_models(EPSILON, L1)) == 2 and se_models(EPSILON, L1).is_full()
    subsets = [frozenset(), frozenset({"p"}), frozenset({"q"}), frozenset({"p", "q"})]
    splits = [(pos, neg) for pos in subsets for neg in subsets]
    for (hp, hn), (bp, bn) in product(splits, repeat=2):
        forms = (Rule(head_pos=hp | {"p"}, head_neg=hn, body_pos=bp | {"p"}, body_neg=bn),
                 Rule(head_pos=hp, head_neg=hn | {"p"}, body_pos=bp, body_neg=bn | {"p"}),
                 Rule(head_pos=hp, head_neg=hn, body_pos=bp | {"p"}, body_neg=bn | {"p"}))
        ok = ok and all(is_se_tautology(rule, L2) for rule in forms)
    _report(5, "worked example regression", ok, time.perf_counter() - start, 5.0)


def test_criterion_6_equivalence_ladder():
    start = time.perf_counter()

    def prog(text):
        program, _ = parse_program(text)
        return program

    first = equivalence_report(prog("p. q."), prog("p :- q. q."), L2).verdicts
    second = equivalence_report(prog("p :- q."), prog("p :- q. p :- q, r."), L3).verdicts
    third = equivalence_report(prog("not p."), prog(":- p."), L1).verdicts
    ok = (first[EquivalenceNotion.S] and not first[EquivalenceNotion.SMR]
          and second[EquivalenceNotion.SMR] and not second[EquivalenceNotion.SR]
          and third[EquivalenceNotion.SR] and not third[EquivalenceNotion.SU])

    rng = random.Random(SEED)
    alphabets = (L1, L2, L3)
    for _ in range(1000):
        alphabet = alphabets[rng.randrange(3)]
        p1 = strategies.random_program(rng, alphabet.atoms)
        p2 = strategies.random_program(rng, alphabet.atoms)
        v = equivalence_report(p1, p2, alphabet).verdicts
        ok = ok and (not v[EquivalenceNotion.SU] or v[EquivalenceNotion.SR])
        ok = ok and (not v[EquivalenceNotion.SR] or v[EquivalenceNotion.SMR])
        ok = ok and (not v[EquivalenceNotion.SMR] or v[EquivalenceNotion.S])
    _report(6, "equivalence ladder", ok, time.perf_counter() - start, 10.0)


def test_criterion_7_well_definedness():
    start = time.perf_counter()
    rng = random.Random(SEED + 1)
    alphabets = (L1, L2, L3)
    ok = True
    for _ in range(1000):
        alphabet = alphabets[rng.randrange(3)]
        program = strategies.random_program(rng, alphabet.atoms)
        ok = ok and is_well_defined(se_models_program(program, alphabet))
    _report(7, "well-definedness", ok, time.perf_counter() - start, 10.0)


def test_criterion_8_parser_round_trip():
    start = time.perf_counter()
    ok = all(parse_rule(print_rule(r)) == r for r in enumerate_rules(L2))
    ok = ok and parse_rule(print_rule(EPSILON)) == EPSILON
    _report(8, "parser round trip", ok, time.perf_counter() - start, 5.0)


def test_criterion_9_report_at_twelve_atoms():
    start = time.perf_counter()
    left, _ = parse_program("a :- b. c ; d :- not e. f :- g, not h.")
    right, _ = parse_program("a :- b. c :- not e, not d.")
    report = equivalence_report(left, right, Alphabet(tuple("abcdefghijkl")))
    ok = not any(report.verdicts.values())
    _report(9, "equivalence report at 12 atoms", ok, time.perf_counter() - start, 1.0)


def test_criterion_10_answer_sets_at_sixteen_atoms():
    start = time.perf_counter()
    program, _ = parse_program("a :- b. c ; d :- not e. f :- g, not h.")
    answers = answer_sets(program, Alphabet(tuple("abcdefghijklmnop")))
    ok = {frozenset(j.atoms()) for j in answers} == {frozenset("c"), frozenset("d")}
    _report(10, "answer sets at 16 atoms", ok, time.perf_counter() - start, 0.8)


def test_criterion_11_reconstruction_at_sixteen_atoms():
    start = time.perf_counter()
    rule = parse_rule("a ; not b :- c, not d.")
    s = se_models(rule, Alphabet(tuple("abcdefghijklmnop")))
    ok = (induce_rule(s) == rule and is_rule_representable(s, "induced") == (True, rule)
          and is_rule_representable(s, "lattice")[0])  # its witness may differ syntactically
    _report(11, "reconstruction at 16 atoms", ok, time.perf_counter() - start, 1.0)


def test_criterion_12_census_at_five_atoms():
    start = time.perf_counter()
    ok = count_se_classes(Alphabet(tuple("abcde")), rule_cap=5) == 6996
    _report(12, "class census at 5 atoms", ok, time.perf_counter() - start, 1.0)


def test_criterion_13_sparse_readout():
    left, _ = parse_program("a :- b. c ; d :- not e. f :- g, not h.")
    right, _ = parse_program("a :- b. c :- not e, not d.")
    alphabet = Alphabet(tuple("abcdefghijklmnop"))
    m1, m2 = se_models_program(left, alphabet), se_models_program(right, alphabet)
    fourteen = Alphabet(tuple("abcdefghijklmn"))
    top = Interpretation(fourteen, fourteen.full_mask)
    one = SESet(fourteen, [SEInterpretation(top, top)])
    first_s = key_s = float("inf")
    for _ in range(3):  # best of three: the 3^16-bit set algebra's time varies with the allocator
        start = time.perf_counter()
        first = next((m1 - m2 | m2 - m1).masks())  # the s witness <{},{d}> of the report
        first_s = min(first_s, time.perf_counter() - start)
        start = time.perf_counter()
        key = one.sort_key()
        key_s = min(key_s, time.perf_counter() - start)
    ok = first == (0, 1 << alphabet.index("d")) and key == ((top.bits, top.bits),)
    _report(13, "first member at 16 atoms, one-member sort key at 14", ok, max(first_s, key_s), 0.05)


def test_criterion_14_dense_document_build():
    alphabet = Alphabet(tuple("abcdefghijkl"))
    s = se_models(parse_rule("a ; not b :- c, not d."), alphabet)
    pairs = list(s.masks())  # 492,075 members, listed outside the timer
    build_s, ok = float("inf"), True
    for _ in range(2):  # best of two
        start = time.perf_counter()
        built = SESet.from_masks(alphabet, pairs)
        build_s = min(build_s, time.perf_counter() - start)
        ok = ok and built == s
    _report(14, "document of 492,075 members read back at 12 atoms", ok and len(pairs) == 492075,
            build_s, 0.75)


def test_criterion_15_smr_from_syntax():
    left, _ = parse_program("a :- b. c ; d :- not e. f :- g, not h.")
    right, _ = parse_program("a :- b. c :- not e, not d.")
    wide = Alphabet(tuple("abcdefghijklmnopqrstuvwxyz"))  # 3^26 pairs, over the cap
    smr_s, ok = float("inf"), True
    for _ in range(3):  # best of three
        start = time.perf_counter()
        verdict = smr_equivalent(left, right, wide)
        smr_s = min(smr_s, time.perf_counter() - start)
        ok = ok and not verdict
    _report(15, "smr of an 8-atom program pair over 26 atoms", ok, smr_s, 0.05)


def test_criterion_16_census_at_six_atoms():
    start = time.perf_counter()
    ok = count_se_classes(Alphabet(tuple("abcdef")), cap=6, rule_cap=6) == 43290
    _report(16, "class census at 6 atoms", ok, time.perf_counter() - start, 0.5)
