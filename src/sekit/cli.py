"""Command line front end.

    sekit models  RULE | --program PATH   SE-models of a rule or program
    sekit canon   RULE                    canonical form of a rule
    sekit induce  PATH                    rule induced by an SE-set document
    sekit equiv   P1 P2 --notion ...      program equivalence with witnesses
    sekit explore classes|closure ...     exhaustive sweeps

Exit codes: 0 yes/success, 1 no (decision commands), 2 error. The
SEKIT_ENUM_CAP environment variable overrides both enumeration caps.
SE-set documents are JSON objects {"alphabet": [...], "models": [[I, J], ...]}
with each model a pair of sorted atom lists, models sorted by (J, I).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Iterable

from .canonical import secan
from .core import Alphabet, ScopeError, SESet, _check_enumerable, _indices, _ternary
from .equivalence import EquivalenceNotion, FamilyWitness, SEModelWitness, equivalence_report
from .oracle import ClosureReport, closure_experiment, count_se_classes
from .parser import SourceProgram, parse_program, parse_rule, print_rule
from .reconstruct import induce_rule
from .semantics import se_models, se_models_program

ATOM_POOL = "abcdefghijklmnopqrstuvwxyz"


def _cap() -> int | None:
    raw = os.environ.get("SEKIT_ENUM_CAP")
    try:
        return None if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"SEKIT_ENUM_CAP must be an integer, got {raw!r}") from None


def _read_input(path: str) -> tuple[str, str]:
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read(), path


def _resolve_alphabet(flag: str | None, occurring: frozenset[str]) -> Alphabet:
    if flag is not None:
        names = [part.strip() for part in flag.split(",") if part.strip()]
        alphabet = Alphabet(tuple(names))
        missing = sorted(occurring - set(alphabet.atoms))
        if missing:
            raise ScopeError(f"atom '{missing[0]}' occurs in the input but not in --alphabet")
        return alphabet
    if not occurring:
        raise ValueError("input mentions no atoms; supply --alphabet")
    return Alphabet(tuple(occurring))


def _pair_text(here: Iterable[str], there: Iterable[str]) -> str:
    return f"([{', '.join(here)}], [{', '.join(there)}])"


class _SideNames(dict):
    """The sorted atom names of each side mask, given those of the empty and one-atom masks. Each
    list is built once, as the lowest atom's list followed by the list of the rest: alphabet atoms
    are sorted, so bit order is name order."""

    def __missing__(self, mask: int) -> list[str]:
        low = mask & -mask
        names = self[mask] = self[low] + self[mask ^ low]
        return names


def se_set_document(s: SESet) -> dict[str, Any]:
    """The JSON document of S; members with equal sides share one atom-name list."""
    names = _SideNames({0: [], **{1 << k: [a] for k, a in enumerate(s.alphabet.atoms)}})
    return {"alphabet": list(s.alphabet.atoms),
            "models": [[names[i], names[j]] for i, j in s.masks()]}


def parse_se_set_document(doc: Any) -> SESet:
    if not isinstance(doc, dict) or "alphabet" not in doc or "models" not in doc:
        raise ValueError("SE-set document must be an object with 'alphabet' and 'models'")
    atoms = doc["alphabet"]
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise ValueError("'alphabet' must be a list of atom names")
    alphabet = Alphabet(tuple(atoms))
    # the cap is checked before the models are read: one member near the top of a
    # large alphabet takes 3^n bits
    _check_enumerable(alphabet, _cap())
    if not isinstance(doc["models"], list):
        raise ValueError("'models' must be a list of [I, J] pairs")
    seen: dict[tuple[Any, ...], tuple[int, int]] = {}  # each side checked once: mask and index
    buf, last = bytearray(), None  # the bits, filled in place as `_bits_at` does; the last J list
    for entry in doc["models"]:
        if (not isinstance(entry, list) or len(entry) != 2
                or not isinstance(entry[0], list) or not isinstance(entry[1], list)):
            raise ValueError(f"malformed model entry {entry!r}; expected [I, J]")
        names, there_names = entry
        try:
            here, i = seen[tuple(names)]
            if there_names != last:  # a sorted document repeats each J in a run
                there, j = seen[tuple(there_names)]
                last = there_names
        except (KeyError, TypeError):  # a side not seen before, or an unhashable atom
            if not all(isinstance(a, str) for side in entry for a in side):
                raise ValueError(f"malformed model entry {entry!r}; "
                                 "atom names must be strings") from None
            for side in map(tuple, entry):
                if side not in seen:
                    seen[side] = (m := alphabet.mask_of(side), _ternary(m))
            (here, i), (there, j), last = seen[tuple(names)], seen[tuple(there_names)], there_names
        if here & ~there:  # _indices names the fault
            next(_indices(alphabet, [(here, there)]))
        k = i + j
        byte = k >> 3
        if byte >= len(buf):
            buf += bytes(byte + 1 - len(buf))
        buf[byte] |= 1 << (k & 7)
    return SESet._of(alphabet, int.from_bytes(buf, "little"))


def _emit(args: argparse.Namespace, text: str, document: dict[str, Any]) -> None:
    if args.format == "json":
        print(json.dumps(document, indent=2))
    else:
        print(text)


def cmd_models(args: argparse.Namespace) -> int:
    cap = _cap()
    if args.program is not None:
        text, origin = _read_input(args.program)
        program, inferred = parse_program(SourceProgram(text, origin))
        alphabet = _resolve_alphabet(args.alphabet, program.atoms)
        result = se_models_program(program, alphabet, cap)
    else:
        rule = parse_rule(args.rule)
        alphabet = _resolve_alphabet(args.alphabet, rule.atoms)
        result = se_models(rule, alphabet, cap)
    document = se_set_document(result)
    _emit(args, " ".join(_pair_text(i, j) for i, j in document["models"]), document)
    return 0


def cmd_canon(args: argparse.Namespace) -> int:
    rule = parse_rule(args.rule)
    canonical = secan(rule)
    _emit(args, print_rule(canonical), {"rule": print_rule(canonical)})
    return 0


def cmd_induce(args: argparse.Namespace) -> int:
    cap = _cap()
    text, origin = _read_input(args.path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{origin}: not valid JSON: {exc}") from None
    s = parse_se_set_document(doc)
    rule = induce_rule(s, cap)
    # the induced rule's SE-models never exceed S, so S is representable when they cover it
    representable = s <= se_models(rule, s.alphabet, cap)
    verdict = "yes" if representable else "no"
    _emit(args, f"rule: {print_rule(rule)}\nrepresentable: {verdict}",
          {"rule": print_rule(rule), "representable": representable})
    return 0 if representable else 1


_WITNESS_TEXT = {
    EquivalenceNotion.S: "SE-interpretation {0} is a model of the {1} program only",
    EquivalenceNotion.SR: 'rule "{0}" ({1}) has an SE-model set with no counterpart',
    EquivalenceNotion.SMR: 'rule "{0}" ({1}) has a minimal SE-model set with no counterpart',
    EquivalenceNotion.SU: 'rule "{0}" ({1}) is in the symmetric difference and not SE-tautological',
}


def _witness_payload(notion: EquivalenceNotion, witness: object) -> tuple[str, dict[str, Any]]:
    if isinstance(witness, SEModelWitness):
        here, there = list(witness.se.here.atoms()), list(witness.se.there.atoms())
        text = _WITNESS_TEXT[notion].format(_pair_text(here, there), witness.side)
        doc = {"kind": "se-model", "side": witness.side, "here": here, "there": there}
        return text, doc
    rule_text = print_rule(witness.rule)
    text = _WITNESS_TEXT[notion].format(rule_text, witness.side)
    kind = "rule-se-set" if isinstance(witness, FamilyWitness) else "non-tautological-rule"
    return text, {"kind": kind, "side": witness.side, "rule": rule_text}


def cmd_equiv(args: argparse.Namespace) -> int:
    cap = _cap()
    if args.left == "-" and args.right == "-":
        raise ValueError("only one of the two programs can come from stdin")
    text1, origin1 = _read_input(args.left)
    text2, origin2 = _read_input(args.right)
    p1, _ = parse_program(SourceProgram(text1, origin1))
    p2, _ = parse_program(SourceProgram(text2, origin2))
    alphabet = _resolve_alphabet(args.alphabet, p1.atoms | p2.atoms)
    report = equivalence_report(p1, p2, alphabet, cap)
    requested = (tuple(EquivalenceNotion) if args.notion == "all"
                 else (EquivalenceNotion(args.notion),))

    lines = []
    notions_doc: dict[str, Any] = {}
    for notion in requested:
        verdict = report.verdicts[notion]
        lines.append(f"{notion.value}: {'equivalent' if verdict else 'not equivalent'}")
        entry: dict[str, Any] = {"equivalent": verdict}
        if not verdict:
            text, doc = _witness_payload(notion, report.witnesses[notion])
            lines.append(f"  witness: {text}")
            entry["witness"] = doc
        notions_doc[notion.value] = entry
    overall = report.equivalent(requested)
    _emit(args, "\n".join(lines),
          {"alphabet": list(alphabet.atoms), "notions": notions_doc, "equivalent": overall})
    return 0 if overall else 1


def _closure_text(report: ClosureReport) -> str:
    lines = [f"op: {report.op}",
             f"atoms: {len(report.alphabet)}",
             f"representable sets: {report.set_count}",
             f"pairs checked: {report.pair_count}",
             f"closed: {'yes' if report.closed else 'no'}"]
    for ce in report.counterexamples:
        lines.append(f'  counterexample: "{print_rule(ce.left)}" with "{print_rule(ce.right)}"')
    return "\n".join(lines)


def cmd_explore(args: argparse.Namespace) -> int:
    cap = _cap()
    if args.size < 1:
        raise ValueError("size must be at least 1")
    if args.size > len(ATOM_POOL):
        raise ValueError(f"size must be at most {len(ATOM_POOL)}")
    alphabet = Alphabet(tuple(ATOM_POOL[:args.size]))
    if args.what == "classes":
        count = count_se_classes(alphabet, cap, cap)
        _emit(args, str(count), {"atoms": args.size, "classes": count})
        return 0
    report = closure_experiment(alphabet, args.op, cap, cap)
    document = {"op": report.op, "atoms": args.size, "sets": report.set_count,
                "pairs": report.pair_count, "closed": report.closed,
                "counterexamples": [[print_rule(ce.left), print_rule(ce.right)]
                                    for ce in report.counterexamples]}
    _emit(args, _closure_text(report), document)
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sekit",
                                     description="SE-model toolkit for logic-program rules")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output serialization (default text)")

    p_models = sub.add_parser("models", help="SE-models of a rule or program")
    group = p_models.add_mutually_exclusive_group(required=True)
    group.add_argument("rule", nargs="?", help="a single rule, inline")
    group.add_argument("--program", metavar="PATH", help="program file, or - for stdin")
    p_models.add_argument("--alphabet", help="comma separated atoms; must cover the input")
    add_format(p_models)
    p_models.set_defaults(func=cmd_models)

    p_canon = sub.add_parser("canon", help="canonical form of a rule")
    p_canon.add_argument("rule", help="a single rule, inline")
    add_format(p_canon)
    p_canon.set_defaults(func=cmd_canon)

    p_induce = sub.add_parser("induce", help="rule induced by an SE-set document")
    p_induce.add_argument("path", help="JSON SE-set document, or - for stdin")
    add_format(p_induce)
    p_induce.set_defaults(func=cmd_induce)

    p_equiv = sub.add_parser("equiv", help="program equivalence")
    p_equiv.add_argument("left", help="first program file, or - for stdin")
    p_equiv.add_argument("right", help="second program file, or - for stdin")
    p_equiv.add_argument("--notion", choices=("s", "sr", "smr", "su", "all"), default="all",
                         help="equivalence notion to decide (default all)")
    p_equiv.add_argument("--alphabet", help="comma separated atoms; must cover both programs")
    add_format(p_equiv)
    p_equiv.set_defaults(func=cmd_equiv)

    p_explore = sub.add_parser("explore", help="exhaustive sweeps over small alphabets")
    explore_sub = p_explore.add_subparsers(dest="what", required=True)
    p_classes = explore_sub.add_parser("classes", help="count distinct SE-model classes")
    p_classes.add_argument("-n", "--size", type=int, required=True, help="alphabet size")
    add_format(p_classes)
    p_classes.set_defaults(func=cmd_explore)
    p_closure = explore_sub.add_parser("closure", help="closure of representable sets under an operation")
    p_closure.add_argument("-n", "--size", type=int, required=True, help="alphabet size")
    p_closure.add_argument("--op", choices=("union", "intersection"), required=True)
    add_format(p_closure)
    p_closure.set_defaults(func=cmd_explore)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError, ScopeError, EnumerationCapError among them
        print(f"sekit: error: {exc}", file=sys.stderr)
        return 2


def cli() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli()
