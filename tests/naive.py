"""Slow reference implementations over plain name sets.

Everything here recomputes semantics with frozensets and itertools instead
of bit masks, so the package's fast paths can be checked against an
independent formulation.
"""
from __future__ import annotations

from itertools import combinations

from sekit import Rule


def powerset(atoms) -> list[frozenset[str]]:
    items = sorted(atoms)
    return [frozenset(combo) for size in range(len(items) + 1)
            for combo in combinations(items, size)]


def se_pairs(atoms) -> list[tuple[frozenset[str], frozenset[str]]]:
    subs = powerset(atoms)
    return [(i, j) for j in subs for i in subs if i <= j]


def c_sat(rule: Rule, j: frozenset[str]) -> bool:
    if rule.is_epsilon:
        return True
    body = rule.body_pos <= j and not (rule.body_neg & j)
    head = bool(rule.head_pos & j) or bool(rule.head_neg - j)
    return head or not body


def se_models(rule: Rule, atoms) -> set[tuple[frozenset[str], frozenset[str]]]:
    if rule.is_epsilon:
        return set(se_pairs(atoms))
    out = set()
    for i, j in se_pairs(atoms):
        if not c_sat(rule, j):
            continue
        if rule.head_neg - j or rule.body_neg & j:
            out.add((i, j))
            continue
        if c_sat(Rule(head_pos=rule.head_pos, body_pos=rule.body_pos), i):
            out.add((i, j))
    return out


def se_entails(r1: Rule, r2: Rule, atoms) -> bool:
    """SE(r1) is a subset of SE(r2): every SE-model of r1 is one of r2."""
    return frozenset(se_models(r1, atoms)) <= frozenset(se_models(r2, atoms))


def answer_sets(rules, atoms) -> set[frozenset[str]]:
    """Subset-minimal classical models of the program's reduct, per candidate."""
    subs = powerset(atoms)
    out = set()
    for j in subs:
        red = []
        for r in rules:
            if r.is_epsilon or r.head_neg - j or r.body_neg & j:
                continue
            red.append((r.head_pos, r.body_pos))

        def sat(m: frozenset[str]) -> bool:
            return all(not bp <= m or bool(hp & m) for hp, bp in red)

        if sat(j) and not any(sat(i) for i in subs if i < j):
            out.add(j)
    return out


def classify_atoms(s, atoms) -> tuple[set[str], set[str], set[str], set[str]]:
    """(neg_body, pos_head, pos_body, neg_head) of a set `s` of (here, there) name-set
    pairs, by the slot conditions quantified over every SE-pair of the atoms."""
    pairs = se_pairs(atoms)

    def all_in(holds) -> bool:
        return all((i, j) in s for i, j in pairs if holds(i, j))

    neg_body = {a for a in atoms if all_in(lambda i, j: a in j)}
    pos_head = {a for a in atoms if a not in neg_body and all_in(lambda i, j: a in i)}
    head_ok = {a for a in atoms if all_in(lambda i, j: a not in j)}
    pos_body = {a for a in head_ok if all_in(lambda i, j: a not in i and j & pos_head)}
    return neg_body, pos_head, pos_body, head_ok - pos_body
