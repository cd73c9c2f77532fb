"""Base types and deterministic enumeration."""
from __future__ import annotations

import random

import pytest

import naive
from sekit import (EPSILON, Alphabet, EnumerationCapError, Interpretation, Program,
                   Rule, ScopeError, SEInterpretation, SESet, all_interpretations,
                   all_se_interpretations, rule_key)


def test_alphabet_sorts_and_dedupes():
    a = Alphabet(("q", "p", "q"))
    assert a.atoms == ("p", "q")
    assert a.index("q") == 1
    assert "p" in a and "z" not in a


def test_alphabet_rejects_bad_lexemes():
    for bad in ("P", "1x", "", "p q", "Not"):
        with pytest.raises(ValueError):
            Alphabet((bad,))


def test_interpretation_membership_and_subset():
    a = Alphabet(("p", "q"))
    i = Interpretation.of(a, ["q"])
    assert "q" in i and "p" not in i and "z" not in i
    assert i.atoms() == ("q",)
    assert Interpretation.of(a, []) <= i <= Interpretation.of(a, ["p", "q"])
    assert not Interpretation.of(a, ["p"]) <= i


def test_scope_error_names_the_atom():
    a = Alphabet(("p",))
    with pytest.raises(ScopeError, match="'z'"):
        Interpretation.of(a, ["z"])


def test_all_interpretations_binary_counting_order():
    a = Alphabet(("p", "q"))
    assert [i.atoms() for i in all_interpretations(a)] == [(), ("p",), ("q",), ("p", "q")]


def test_all_se_interpretations_single_atom_order():
    a = Alphabet(("p",))
    got = [(m.here.atoms(), m.there.atoms()) for m in all_se_interpretations(a)]
    assert got == [((), ()), ((), ("p",)), (("p",), ("p",))]


@pytest.mark.parametrize("n", range(1, 11))
def test_se_enumeration_count_matches_naive_double_loop(n):
    atoms = tuple(f"a{i}" for i in range(n))
    fast = all_se_interpretations(Alphabet(atoms))
    assert len(fast) == 3 ** n
    subs = naive.powerset(atoms)
    assert len(fast) == sum(1 for j in subs for i in subs if i <= j)
    keys = [m.sort_key() for m in fast]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_se_enumeration_members_match_naive_pairs():
    atoms = ("a", "b", "c", "d")
    fast = {(frozenset(m.here.atoms()), frozenset(m.there.atoms()))
            for m in all_se_interpretations(Alphabet(atoms))}
    assert fast == set(naive.se_pairs(atoms))


def test_enumeration_cap_error_names_the_cap():
    wide = Alphabet(tuple(f"a{i:02d}" for i in range(21)))
    with pytest.raises(EnumerationCapError, match="cap of 20"):
        all_interpretations(wide)
    with pytest.raises(EnumerationCapError, match="cap of 5"):
        all_se_interpretations(Alphabet(tuple("abcdef")), cap=5)
    assert len(all_interpretations(Alphabet(("a", "b")), cap=2)) == 4


def test_empty_alphabet_is_not_enumerable():
    with pytest.raises(ValueError, match="nonempty"):
        all_interpretations(Alphabet(()))


def test_se_interpretation_accepts_exactly_the_subset_pairs():
    a = Alphabet(("a", "b", "c", "d"))
    accepted = 0
    for i in all_interpretations(a):
        for j in all_interpretations(a):
            if i.bits & ~j.bits == 0:
                SEInterpretation(i, j)
                accepted += 1
            else:
                with pytest.raises(ValueError):
                    SEInterpretation(i, j)
    assert accepted == 3 ** 4


def test_rule_parts_collapse_to_sets():
    r1 = Rule(head_pos=["p", "p", "q"], body_neg=("r",))
    r2 = Rule(head_pos={"q", "p"}, body_neg=frozenset({"r"}))
    assert r1 == r2
    assert r1.atoms == {"p", "q", "r"}


def test_rule_rejects_bad_atoms():
    with pytest.raises(ValueError):
        Rule(head_pos={"Q"})


def test_epsilon_carries_no_atoms():
    assert EPSILON.is_epsilon and EPSILON.atoms == frozenset()
    with pytest.raises(ValueError):
        Rule(head_pos={"p"}, is_epsilon=True)


def test_program_iterates_in_rule_key_order():
    p = Program({Rule(head_pos={"q"}), Rule(head_pos={"p"}), EPSILON})
    assert len(p) == 3
    assert [rule_key(r) for r in p] == sorted(rule_key(r) for r in p)
    assert Rule(head_pos={"p"}) in p
    assert p.atoms == {"p", "q"}


def test_se_set_rejects_foreign_models():
    a, b = Alphabet(("p",)), Alphabet(("p", "q"))
    stray = all_se_interpretations(a)[1]
    with pytest.raises(ValueError):
        SESet(b, {stray})


def test_se_set_ordering_full_and_complement():
    a = Alphabet(("p", "q"))
    s = SESet.full(a)
    assert s.is_full() and len(s) == 9
    keys = [m.sort_key() for m in s.sorted_models()]
    assert keys == sorted(keys)
    assert s.complement().models == frozenset()
    half = SESet(a, frozenset(list(s.sorted_models())[:4]))
    assert (half | half.complement()) == s
    assert len(half & s) == 4


def test_se_set_algebra_matches_frozensets():
    a = Alphabet(("p", "q", "r"))
    pairs = all_se_interpretations(a)
    rng = random.Random(27)
    for _ in range(200):
        x = frozenset(rng.sample(pairs, rng.randint(0, 27)))
        y = frozenset(rng.sample(pairs, rng.randint(0, 27)))
        if rng.random() < 0.5:
            y |= x
        sx, sy = SESet(a, x), SESet(a, y)
        assert (sx | sy).models == x | y
        assert (sx & sy).models == x & y
        assert sx.complement().models == frozenset(pairs) - x
        assert len(sx) == len(x)
        assert all((m in sx) == (m in x) for m in pairs)
        assert (sx <= sy) == (x <= y) and (sx < sy) == (x < y)
        assert sx.sorted_models() == sorted(x, key=SEInterpretation.sort_key)
        assert (sx == sy) == (x == y)
