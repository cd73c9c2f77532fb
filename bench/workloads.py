"""The benchmark's three workloads: seeded inputs, one op, and its checks.

Each workload yields rounds of op inputs (`round`), runs one op through
sekit's public functions (`run`, the only timed call), and checks the op's
outputs against the reference evaluator or a property of the method
(`check`, raising CheckFailed). Input generation and checks stay outside
the timer. sekit is reached through module attributes at call time, so the
traced mode's rebinding applies.
"""
from __future__ import annotations

import json
import random
from itertools import combinations_with_replacement

import sekit
from sekit import cli
from reference import EMPTY, TAUT, Evaluator, of_rule, rule_text

ATOMS8 = tuple("abcdefgh")
# Inputs come from one fixed stream of rules over ATOMS8, renamed by a
# permutation of ATOMS8 drawn from --seed. Every seed thus runs the same ops
# up to renaming, and costs do not depend on the seed.
STREAM_SEED = 2011


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def doc_out(s) -> str:
    """The CLI's SE-set document for S, as JSON text."""
    return json.dumps(cli.se_set_document(s))


def doc_in(text: str):
    return cli.parse_se_set_document(json.loads(text))


def renaming(seed: int):
    """The seed's permutation of ATOMS8, applied to an evaluator rule."""
    target = list(ATOMS8)
    random.Random(seed).shuffle(target)
    table = dict(zip(ATOMS8, target))
    return lambda rule: tuple(frozenset(table[a] for a in part) for part in rule)


def random_rule(rng: random.Random, atoms, shape):
    """Canonical, non-tautological rule: `shape` gives the sizes of
    (head_pos, head_neg, body_pos, body_neg), filled with distinct atoms."""
    picked = rng.sample(atoms, sum(shape))
    parts, start = [], 0
    for size in shape:
        parts.append(frozenset(picked[start:start + size]))
        start += size
    return tuple(parts)


def program_text(rules) -> str:
    return "\n".join(sorted(rule_text(r) for r in rules))


class RuleRoundtrip:
    """Rule -> SE-models -> JSON document -> SE-set -> rule, on 8 atoms.

    Every rule has the shape `p ; not q :- r, not s` (6,075 of the 6,561
    SE-pairs), so every op does the same amount of work. No rule repeats
    within a batch, so se_models always computes rather than hits its cache.
    """

    name = "rule-roundtrip"
    setup_atoms = ATOMS8
    batch_ops = 12
    shape = (1, 1, 1, 1)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(STREAM_SEED)
        self.rename = renaming(seed)
        self.alphabet = sekit.Alphabet(ATOMS8)
        self.ref = Evaluator(ATOMS8)
        self.used: set = set()
        first = self._fresh()
        self.prev = sekit.se_models(sekit.parse_rule(rule_text(first)), self.alphabet)
        self.prev_ref = self.ref.se(first)

    def _fresh(self):
        while True:
            rule = random_rule(self.rng, ATOMS8, self.shape)
            if rule not in self.used:
                self.used.add(rule)
                return self.rename(rule)

    def round(self):
        self.ref.forget()
        rule = self._fresh()
        return [(rule, rule_text(rule))]

    def run(self, op):
        sk = sekit
        parsed = sk.parse_rule(op[1])
        s = sk.se_models(parsed, self.alphabet)
        text = doc_out(s)
        back = doc_in(text)
        induced = sk.induce_rule(back)
        lattice = sk.is_rule_representable(back, "lattice")
        t = back & self.prev
        verdict = sk.is_rule_representable(t, "induced")
        self.prev = back
        return parsed, s, back, induced, lattice, t, verdict

    def check(self, op, out) -> None:
        rule = op[0]
        parsed, s, back, induced, lattice, t, verdict = out
        ref = self.ref
        want = ref.se(rule)
        want_t = want & self.prev_ref
        self.prev_ref = want
        expect(of_rule(parsed) == rule, f"parse_rule read {parsed!r} for {rule_text(rule)}")
        expect(ref.of_seset(s) == want, f"se_models differs from the evaluator on {rule_text(rule)}")
        expect(ref.of_seset(back) == want, "the SE-set document did not round-trip")
        expect(ref.se(of_rule(induced)) == want, f"SE(induce_rule(S)) != S for {rule_text(rule)}")
        ok, witness = lattice
        expect(ok and witness is not None and ref.se(of_rule(witness)) == want,
               f"lattice check rejected the representable SE-set of {rule_text(rule)}")
        expect(ref.of_seset(t) == want_t, "SESet intersection differs from the evaluator")
        induced_t = ref.se(of_rule(sekit.induce_rule(t)))
        expect(induced_t <= want_t, "SE(induce_rule(T)) is not a subset of T")
        ok, witness = verdict
        expect(ok == (induced_t == want_t), "induced verdict on T disagrees with SE(induced) = T")
        expect(not ok or ref.se(of_rule(witness)) == want_t, "induced witness on T is wrong")


class ProgramEdit:
    """Equivalence report and answer sets for a program and one edit of it.

    The base program has five canonical rules over 8 atoms, one of each
    shape in SHAPES; it is fresh for every op. The edits cycle through
    EDITS, and each is drawn until the evaluator confirms its ladder rung,
    so every round hits every rung in the same order.
    """

    name = "program-edit"
    setup_atoms = ATOMS8
    batch_ops = 15
    SHAPES = ((1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 1, 1), (2, 0, 1, 0), (1, 0, 2, 1))
    # edit -> the notions that hold afterwards (s, sr, smr, su)
    EDITS = {
        "add-tautology": (True, True, True, True),
        "swap-variant": (True, True, True, False),
        "add-subsumed": (True, False, True, False),
        "drop-rule": (False, False, False, False),
        "replace-rule": (False, False, False, False),
    }

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(STREAM_SEED)
        self.rename = renaming(seed)
        self.alphabet = sekit.Alphabet(ATOMS8)
        self.ref = Evaluator(ATOMS8)

    def _base(self):
        return frozenset(random_rule(self.rng, ATOMS8, shape) for shape in self.SHAPES)

    def _edit(self, kind: str, base):
        rng = self.rng
        rules = sorted(base, key=rule_text)
        r = rng.choice(rules)
        hp, hn, bp, bn = r
        if kind == "add-tautology":
            x, y = rng.sample(ATOMS8, 2)
            return base | {(frozenset({x}), EMPTY, frozenset({x, y}), EMPTY)}
        if kind == "swap-variant":
            # a body atom repeated under negation in the head: secan drops it again
            x = rng.choice(sorted(bp))
            return (base - {r}) | {(hp, hn | {x}, bp, bn)}
        if kind == "add-subsumed":
            # one more positive body atom: fewer countermodels, a superset of SE(r)
            x = rng.choice([a for a in ATOMS8 if a not in hp | hn | bp | bn])
            return base | {(hp, hn, bp | {x}, bn)}
        if kind == "drop-rule":
            return base - {r}
        shape = tuple(len(part) for part in r)
        return (base - {r}) | {random_rule(rng, ATOMS8, shape)}

    def round(self):
        """The five edits in order, each drawn just before its op runs."""
        for kind, rung in self.EDITS.items():
            self.ref.forget()
            while True:
                base = self._base()
                edited = frozenset(map(self.rename, self._edit(kind, base)))
                base = frozenset(map(self.rename, base))
                verdicts = self.ref.verdicts(base, edited)
                if (verdicts["s"], verdicts["sr"], verdicts["smr"], verdicts["su"]) == rung:
                    break
            yield kind, base, edited, verdicts, program_text(base), program_text(edited)

    def run(self, op):
        sk = sekit
        p1, _ = sk.parse_program(op[4])
        p2, _ = sk.parse_program(op[5])
        report = sk.equivalence_report(p1, p2, self.alphabet)
        return p1, p2, report, sk.answer_sets(p2, self.alphabet)

    def check(self, op, out) -> None:
        kind, base, edited, want = op[:4]
        p1, p2, report, answers = out
        ref = self.ref
        expect({of_rule(r) for r in p1.rules} == base, f"{kind}: parse_program misread the base")
        expect({of_rule(r) for r in p2.rules} == edited, f"{kind}: parse_program misread the edit")
        got = {n.value: v for n, v in report.verdicts.items()}
        expect(got == want, f"{kind}: verdicts {got} != evaluator {want}")
        expect((not got["su"] or got["sr"]) and (not got["sr"] or got["smr"])
               and (not got["smr"] or got["s"]), f"{kind}: ladder su => sr => smr => s broken")
        witnesses = {n.value: w for n, w in report.witnesses.items()}
        expect(set(witnesses) == {n for n, v in got.items() if not v},
               f"{kind}: witnesses {sorted(witnesses)} do not match the failed notions")
        sides = {"left": (base, edited), "right": (edited, base)}
        for notion, w in witnesses.items():
            expect(w.side in sides, f"{kind}: {notion} witness names side {w.side!r}")
            mine, other = sides[w.side]
            if notion == "s":
                pair = (ref.name(w.se.here), ref.name(w.se.there))
                expect(pair in ref.se_program(mine) and pair not in ref.se_program(other),
                       f"{kind}: s witness {w.se!r} does not separate the programs")
                continue
            rule = of_rule(w.rule)
            if notion == "su":
                expect(rule in mine - other and ref.se(rule) != ref.full,
                       f"{kind}: su witness {rule_text(rule)} is wrong")
                continue
            expect(rule in mine | {TAUT}, f"{kind}: {notion} witness is not a rule of its side")
            mine_f, other_f = ref.family(mine), ref.family(other)
            if notion == "smr":
                mine_f, other_f = ref.minimal(mine_f), ref.minimal(other_f)
            expect(ref.se(rule) in mine_f and ref.se(rule) not in other_f,
                   f"{kind}: {notion} witness {rule_text(rule)} has a counterpart")
        expect({ref.name(j) for j in answers} == ref.answer_sets(edited),
               f"{kind}: answer_sets differ from the evaluator's minimal models")


class ClassSweep:
    """One census and two closure scans per op, on alphabets new to the process.

    count_se_classes on 3 atoms, then closure_experiment union and
    intersection on 2 atoms. Atom names carry the op's number behind a
    seeded stem, so no op can be served from results of an earlier one.
    """

    name = "class-sweep"
    setup_atoms = ()
    batch_ops = 10

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.stem = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))
        self.count = 0

    def round(self):
        self.count += 1
        tag = f"{self.stem}{self.count}"
        three = sekit.Alphabet(tuple(f"{tag}{c}" for c in "abc"))
        two = sekit.Alphabet(tuple(f"{tag}{c}" for c in "pq"))
        return [(three, two)]

    def run(self, op):
        three, two = op
        sk = sekit
        return (sk.count_se_classes(three), sk.closure_experiment(two, "union"),
                sk.closure_experiment(two, "intersection"))

    def check(self, op, out) -> None:
        three, two = op
        classes, union, inter = out
        expect(classes == 6 ** 3 - 4 ** 3 + 3 ** 3 + 1, f"{classes} classes on 3 atoms, not 180")
        for report in (union, inter):
            expect((report.set_count, report.pair_count) == (30, 465),
                   f"{report.op}: {report.set_count} sets, {report.pair_count} pairs, not 30 and 465")
        expect(union.closed, "a union of two representable sets was reported unrepresentable")
        ref = Evaluator(two.atoms)
        table = ref.class_table()
        absent = {frozenset((a, b)) for a, b in combinations_with_replacement(table, 2)
                  if a & b not in table}
        found = set()
        for ce in inter.counterexamples:
            left, right = ref.se(of_rule(ce.left)), ref.se(of_rule(ce.right))
            expect(left & right not in table,
                   f"intersection counterexample {ce!r} is representable")
            found.add(frozenset((left, right)))
        expect(found == absent, f"{len(found)} intersection counterexamples, evaluator finds {len(absent)}")


WORKLOADS = {w.name: w for w in (RuleRoundtrip, ProgramEdit, ClassSweep)}
