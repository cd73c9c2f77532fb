"""Exhaustive sweeps: rule enumeration, class census, closure scans."""
from __future__ import annotations

from itertools import combinations_with_replacement, product

import pytest

import sekit.core
import sekit.oracle
from sekit import (Alphabet, ClosureCounterexample, ClosureReport, EnumerationCapError, Rule,
                   SESet, brute_representable, closure_experiment, count_se_classes,
                   enumerate_rules, is_canonical, parse_rule, print_rule, se_models, secan)
from sekit.semantics import _products_of
from test_reconstruct import all_se_subsets, subset_of_pairs

L1 = Alphabet(("p",))
L2 = Alphabet(("p", "q"))
L3 = Alphabet(("p", "q", "r"))
L4 = Alphabet(("p", "q", "r", "s"))
L5 = Alphabet(("p", "q", "r", "s", "t"))


# Rule-path references: the sweeps as they read when every rule was built and
# passed through se_models.

def reference_census(alphabet):
    return len({se_models(rule, alphabet) for rule in enumerate_rules(alphabet)}
               | {SESet.full(alphabet)})


def reference_witnesses(alphabet):
    first = {}
    for rule in enumerate_rules(alphabet):
        first.setdefault(se_models(rule, alphabet), rule)
    return first


def reference_closure(alphabet, op):
    names = {se_models(rule, alphabet): secan(rule) for rule in enumerate_rules(alphabet)}
    representable = sorted(names, key=SESet.sort_key)
    pairs = list(combinations_with_replacement(representable, 2))
    counterexamples = tuple(ClosureCounterexample(names[s1], names[s2]) for s1, s2 in pairs
                            if (s1 | s2 if op == "union" else s1 & s2) not in names)
    return ClosureReport(op, alphabet, len(representable), len(pairs), counterexamples)


def test_enumerate_rules_counts():
    assert len(enumerate_rules(L1)) == 16
    assert len(set(enumerate_rules(L1))) == 16
    assert len(enumerate_rules(L2)) == 256
    assert enumerate_rules(Alphabet(())) == (Rule(),)


def test_enumerate_rules_is_deterministic():
    first = enumerate_rules(L2)
    assert first == enumerate_rules(L2)
    assert first[0] == Rule()


def test_enumerate_rules_cap():
    wide = Alphabet(("a", "b", "c", "d"))
    with pytest.raises(EnumerationCapError, match="cap of 3"):
        enumerate_rules(wide)
    assert len(enumerate_rules(Alphabet(("a",)), cap=1)) == 16


def test_class_census_small_alphabets():
    assert count_se_classes(L1) == 6
    assert count_se_classes(L2) == 30


def test_class_census_matches_independent_state_count():
    # an atom of a canonical rule sits in one of six slots: absent, B+, B-,
    # H+, H-, or both H+ and H-; a lone negative head is not canonical
    for alphabet, n in ((L1, 1), (L2, 2)):
        closed_form = 6 ** n - 4 ** n + 3 ** n + 1
        assert count_se_classes(alphabet) == closed_form
        canonical = sum(1 for r in enumerate_rules(alphabet) if is_canonical(r))
        assert count_se_classes(alphabet) == canonical + 1


def test_single_atom_class_representatives():
    reps = {"#taut.", ":-.", ":- p.", ":- not p.", "p.", "p; not p :-."}
    classes = {se_models(parse_rule(text), L1).sort_key() for text in reps}
    assert len(classes) == 6 == count_se_classes(L1)


def test_brute_representable_examples():
    s = se_models(parse_rule("p."), L1)
    witness = brute_representable(s)
    assert witness is not None and se_models(witness, L1) == s
    assert brute_representable(SESet(L1)) == Rule()  # ":-." comes first in order
    assert brute_representable(subset_of_pairs(L2, (8,))) is None


def test_intersection_closure_fails_at_two_atoms():
    report = closure_experiment(L2, "intersection")
    assert not report.closed
    assert report.set_count == 30
    assert report.pair_count == 30 * 31 // 2
    pairs = {(print_rule(c.left), print_rule(c.right)) for c in report.counterexamples}
    assert ("p.", "q.") in pairs or ("q.", "p.") in pairs


def test_closure_counterexamples_are_never_diagonal():
    report = closure_experiment(L2, "intersection")
    assert all(c.left != c.right for c in report.counterexamples)


def test_union_closure_verdicts_recorded_from_the_scan():
    # empirical result, frozen as a regression: no counterexample at this scale
    assert closure_experiment(L1, "union").closed
    assert closure_experiment(L2, "union").closed
    assert closure_experiment(L1, "intersection").closed


def test_closure_reports_are_deterministic():
    a = closure_experiment(L2, "intersection")
    b = closure_experiment(L2, "intersection")
    assert a == b


def test_closure_rejects_unknown_op():
    with pytest.raises(ValueError):
        closure_experiment(L1, "xor")


def test_sweeps_match_the_rule_path_reference():
    for alphabet in (L1, L2, L3):
        assert count_se_classes(alphabet) == reference_census(alphabet)
    for alphabet in (L1, L2):
        for op in ("union", "intersection"):
            assert closure_experiment(alphabet, op) == reference_closure(alphabet, op)


def test_brute_witness_is_the_first_rule_in_enumeration_order():
    first = reference_witnesses(L2)
    for s in all_se_subsets(L2):
        assert brute_representable(s) == first.get(s), s
    assert brute_representable(SESet.full(L1)) == parse_rule(":- p, not p.")


def test_census_over_four_atoms():
    assert count_se_classes(L4, rule_cap=4) == 6 ** 4 - 4 ** 4 + 3 ** 4 + 1 == 1122


def test_census_over_five_atoms():
    assert count_se_classes(L5, rule_cap=5) == 6 ** 5 - 4 ** 5 + 3 ** 5 + 1 == 6996


def test_letters_are_the_first_patterns_of_the_seven_product_groups():
    # an atom's letter: the digits each of the rule's two countermodel products allows it
    groups = {}
    for pattern in product(range(2), repeat=4):
        letter = tuple(sekit.core._product(1, *p) for p in _products_of(pattern))
        groups.setdefault(letter, []).append(pattern)
    assert len(groups) == 7
    assert sekit.oracle._LETTERS == tuple(patterns[0] for patterns in groups.values())


def test_letter_words_give_the_map_of_all_quadruples():
    for alphabet in (L1, L2, L3):
        first = {}
        for masks in product(range(1 << len(alphabet)), repeat=4):
            first.setdefault(SESet.excluding(alphabet, _products_of(masks))._bits, masks)
        assert list(sekit.oracle._classes(alphabet, None, None).items()) == list(first.items())


def _count_excluding(monkeypatch):
    calls = []
    excluding = SESet.excluding.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return excluding(cls, *args, **kwargs)

    monkeypatch.setattr(SESet, "excluding", classmethod(counting))
    return calls


def test_census_builds_no_se_set(monkeypatch):
    calls = _count_excluding(monkeypatch)
    assert count_se_classes(L3) == 180
    assert calls == []  # not one per letter word, 7 ** 3, nor one per rule, 16 ** 3


def test_closure_sweeps_share_one_class_table(monkeypatch):
    calls = _count_excluding(monkeypatch)
    sekit.oracle._se_index.cache_clear()
    union, intersection = (closure_experiment(L2, op) for op in ("union", "intersection"))
    assert (union.set_count, intersection.set_count) == (30, 30)
    assert calls == []
    info = sekit.oracle._se_index.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # one table for both sweeps, not one per sweep


def test_closure_sweeps_name_only_the_sets_a_counterexample_shows(monkeypatch):
    calls = []

    def counting(rule):
        calls.append(rule)
        return secan(rule)

    monkeypatch.setattr(sekit.oracle, "secan", counting)
    fresh = Alphabet(("closure_p", "closure_q"))  # no table built for it yet
    union, intersection = (closure_experiment(fresh, op) for op in ("union", "intersection"))
    assert not union.counterexamples and len(intersection.counterexamples) == 211
    assert len(calls) <= 30  # 28, the sets the counterexamples show, not all 30 classes per sweep
    shown = {name for c in intersection.counterexamples for name in (c.left, c.right)}
    assert shown == {secan(rule) for rule in calls}


def test_census_builds_no_rule(monkeypatch):
    built = []
    post_init = Rule.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    def refuse(*args, **kwargs):
        raise AssertionError("the census called se_models")

    monkeypatch.setattr(Rule, "__post_init__", counting)
    monkeypatch.setattr(sekit.oracle, "se_models", refuse, raising=False)
    assert count_se_classes(L3) == 180
    assert built == []
    closure_experiment(L2, "intersection")
    assert len(built) <= 2 * 30  # per class, the rule that names it and its canonical form


def test_sweeps_check_their_caps_before_any_pair_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a product step was taken")

    monkeypatch.setattr(sekit.core, "_product_step", refuse)  # the step `_product` takes too
    monkeypatch.setattr(sekit.oracle, "_product_step", refuse)
    for sweep in (count_se_classes, lambda a: closure_experiment(a, "union"),
                  lambda a: brute_representable(SESet(a))):
        with pytest.raises(EnumerationCapError, match="cap of 3"):
            sweep(L4)
        with pytest.raises(ValueError, match="nonempty alphabet"):
            sweep(Alphabet(()))
