"""Base types and deterministic enumeration."""
from __future__ import annotations

import random

import pytest

import naive
import sekit.core
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
    with pytest.raises(ScopeError, match="'y'"):  # the smallest missing atom, whatever the order
        a.mask_of(["z", "y"])


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
        assert (sx ^ sy).models == x ^ y
        assert sx.complement().models == frozenset(pairs) - x
        assert len(sx) == len(x)
        assert all((m in sx) == (m in x) for m in pairs)
        assert (sx <= sy) == (x <= y) and (sx < sy) == (x < y)
        assert sx.sorted_models() == sorted(x, key=SEInterpretation.sort_key)
        masks = [(m.here.bits, m.there.bits) for m in sx.sorted_models()]
        assert list(sx.masks()) == masks
        assert SESet.from_masks(a, masks[::-1] + masks) == sx
        assert (sx == sy) == (x == y)
    with pytest.raises(ValueError, match="different alphabets"):
        sx ^ SESet(Alphabet(("p", "q")))


def test_totals_matches_its_definition():
    def by_definition(s):
        return SESet(s.alphabet, {SEInterpretation(m.there, m.there) for m in s.models})

    pairs = all_se_interpretations(Alphabet(("p", "q")))
    for bits in range(1 << len(pairs)):
        s = SESet(Alphabet(("p", "q")), (m for k, m in enumerate(pairs) if bits >> k & 1))
        assert s.totals() == by_definition(s)
    rng = random.Random(31)
    for n in (3, 4, 5):
        a = Alphabet(tuple("pqrst"[:n]))
        pairs = all_se_interpretations(a)
        for _ in range(40):
            s = SESet(a, rng.sample(pairs, rng.randint(0, len(pairs) // 4)))
            assert s.totals() == by_definition(s)


def test_digits_match_the_members_digits():
    def by_members(s):
        out = [0, 0, 0]
        for m in s.models:
            for k in range(len(s.alphabet)):
                out[(m.there.bits >> k & 1) + (m.here.bits >> k & 1)] |= 1 << k
        return tuple(out)

    rng = random.Random(37)
    for n in range(1, 6):
        a = Alphabet(tuple("pqrst"[:n]))
        pairs = all_se_interpretations(a)
        for _ in range(40):
            s = SESet(a, rng.sample(pairs, rng.randint(0, min(len(pairs), 6))))
            assert s.digits() == by_members(s)
        assert SESet(a).digits() == (0, 0, 0)
        assert SESet.full(a).digits() == (a.full_mask,) * 3


def test_excluding_matches_the_digit_definition_of_cubes():
    def in_cube(m, cube):  # every atom's digit d has it in the d-th mask
        return all(cube[(m.there.bits >> k & 1) + (m.here.bits >> k & 1)] >> k & 1
                   for k in range(len(m.alphabet)))

    rng = random.Random(43)
    for n in range(1, 4):
        a = Alphabet(tuple("pqr"[:n]))
        pairs = all_se_interpretations(a)
        for _ in range(200):
            # masks over n + 2 bits, so some cubes set bits above the alphabet; about one
            # cube in four leaves some atom no digit, and holds no pair
            cubes = [tuple(rng.getrandbits(n + 2) for _ in range(3)) for _ in range(rng.randint(0, 3))]
            cubes += [(-1, -1, -1)] * (rng.random() < 0.1)  # every bit set, above the alphabet too
            expected = {m for m in pairs if not any(in_cube(m, c) for c in cubes)}
            assert SESet.excluding(a, cubes).models == expected, cubes
        assert SESet.excluding(a, [(0, 0, 0)]) == SESet.full(a)  # an empty cube
        assert SESet.excluding(a, [(a.full_mask, 0, 0)]).models == set(pairs[1:])  # <{},{}> alone


def test_masks_run_in_there_here_order():
    rng = random.Random(33)
    for n in range(6):
        a = Alphabet(tuple("pqrst"[:n]))
        sides = [Interpretation(a, x) for x in range(1 << n)]
        pairs = [SEInterpretation(i, j) for j in sides for i in sides if i <= j]
        top = sides[-1]  # L, the whole alphabet; for n = 0, <{},{}> is the one pair
        cases = [[], pairs, [SEInterpretation(top, top)]]
        cases += [rng.sample(pairs, rng.randint(1, min(len(pairs), 6))) for _ in range(25)]
        cases += [rng.sample(pairs, rng.randint(1, len(pairs))) for _ in range(25)]
        for x in cases:
            expected = [(m.here.bits, m.there.bits) for m in sorted(x, key=SEInterpretation.sort_key)]
            assert list(SESet(a, x).masks()) == expected


def test_from_masks_checks_pairs_and_cap():
    a = Alphabet(("p", "q"))
    with pytest.raises(ValueError, match=r"here \{p\} is not a subset of there \{q\}"):
        SESet.from_masks(a, [(0b01, 0b10)])
    with pytest.raises(ValueError, match="out of range"):
        SESet.from_masks(a, [(0, 0b100)])
    with pytest.raises(EnumerationCapError):
        SESet.from_masks(a, iter(()), cap=1)
    # the object constructor takes no cap: empty and large alphabets stay allowed
    assert len(SESet(Alphabet(()))) == len(SESet(Alphabet(tuple(f"a{k}" for k in range(21))))) == 0


def test_object_constructor_reads_each_side_once(monkeypatch):
    a = Alphabet(("p", "q", "r"))
    members = random.Random(7).sample(all_se_interpretations(a), 12)
    calls = []
    ternary = sekit.core._ternary

    def counting(bits):
        calls.append(bits)
        return ternary(bits)

    monkeypatch.setattr(sekit.core, "_ternary", counting)
    s = SESet(a, members)
    assert sorted(calls) == sorted({m.here.bits for m in members} | {m.there.bits for m in members})
    assert set(s.sorted_models()) == set(members)
    empty = Alphabet(())
    assert SESet(empty, [SEInterpretation(Interpretation(empty, 0), Interpretation(empty, 0))])._bits == 1

def test_program_sorts_its_rules_once(monkeypatch):
    calls = []

    def counting(rule):
        calls.append(rule)
        return rule_key(rule)

    monkeypatch.setattr(sekit.core, "rule_key", counting)
    rules = {Rule(head_pos={"q"}), Rule(head_pos={"p"}, body_neg={"q"}), EPSILON}
    p = Program(rules)
    assert list(p) == list(p) == sorted(rules, key=rule_key)
    assert len(calls) == len(rules)
    assert p == Program(rules) and hash(p) == hash(Program(rules)) and "_order" not in repr(p)


def test_complement_matches_full_minus_the_set():
    rng = random.Random(41)
    for n in range(1, 6):
        a = Alphabet(tuple("pqrst"[:n]))
        pairs = all_se_interpretations(a)
        full = SESet.full(a)
        for s in [SESet(a), full] + [SESet(a, rng.sample(pairs, rng.randint(0, len(pairs))))
                                     for _ in range(20)]:
            assert s.complement() == full - s
    with pytest.raises(EnumerationCapError, match="alphabet has 2 atoms, exceeding the enumeration cap of 1"):
        SESet(Alphabet(("p", "q"))).complement(cap=1)
    with pytest.raises(ValueError, match="enumeration requires a nonempty alphabet"):
        SESet(Alphabet(())).complement()


def test_equal_se_sets_hash_equal_and_alphabets_still_tell_sets_apart():
    a = Alphabet(("p", "q"))
    pairs = all_se_interpretations(a)
    x = SESet(a, pairs[1:5])
    assert x == SESet.from_masks(Alphabet(("q", "p")), x.masks()) and hash(x) == hash(SESet(a, pairs[1:5]))
    p_full, q_full = SESet.full(Alphabet(("p",))), SESet.full(Alphabet(("q",)))
    assert p_full != q_full and len({p_full, q_full, SESet.full(Alphabet(("p",)))}) == 2
    with pytest.raises(ValueError, match="different alphabets"):
        p_full | q_full
