"""The `sekit explore`, `sekit equiv` and `sekit models|canon|induce` outputs as diffable text
lines: stdout, stderr and exit code per run.

`tests/sweep_fixture.txt` holds the sweep lines, `tests/equiv_fixture.txt` the equivalence lines
and `tests/cli_fixture.txt` the lines of the other commands, as committed; `test_sweep_fixture.py`
regenerates them in-process and compares line by line, so a change to any output shows as the
lines that moved. Regenerate a file, when an output is meant to change, with

    PYTHONPATH=src python tests/sweep_fixture.py > tests/sweep_fixture.txt
    PYTHONPATH=src python tests/sweep_fixture.py equiv > tests/equiv_fixture.txt
    PYTHONPATH=src python tests/sweep_fixture.py cli > tests/cli_fixture.txt
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shlex
import sys
import tempfile

from sekit import Program, Rule, print_rule, rule_key
from sekit.cli import main
from naive import se_models as naive_se_models, se_pairs
from strategies import random_program, random_rule

FIXTURE = os.path.join(os.path.dirname(__file__), "sweep_fixture.txt")
EQUIV_FIXTURE = os.path.join(os.path.dirname(__file__), "equiv_fixture.txt")
CLI_FIXTURE = os.path.join(os.path.dirname(__file__), "cli_fixture.txt")

# (SEKIT_ENUM_CAP or None, explore arguments); each runs in text and in JSON
CASES = ([(None, ("classes", "-n", str(n))) for n in range(1, 5)]
         + [("5", ("classes", "-n", "5"))]
         + [(None, ("closure", "--op", op, "-n", str(n)))
            for op in ("union", "intersection") for n in (1, 2, 4)])


def _run(env_cap: str | None, argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    saved, saved_stdin = os.environ.pop("SEKIT_ENUM_CAP", None), sys.stdin
    if env_cap is not None:
        os.environ["SEKIT_ENUM_CAP"] = env_cap
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved_stdin
        os.environ.pop("SEKIT_ENUM_CAP", None)
        if saved is not None:
            os.environ["SEKIT_ENUM_CAP"] = saved
    return code, out.getvalue(), err.getvalue()


def lines() -> list[str]:
    """One header line per run, then its exit code and its output lines, each tagged."""
    result = []
    for env_cap, args in CASES:
        for fmt in ("text", "json"):
            argv = ["explore", *args, "--format", fmt]
            code, out, err = _run(env_cap, argv)
            env = "" if env_cap is None else f"SEKIT_ENUM_CAP={env_cap} "
            result.append(f"$ {env}sekit {' '.join(argv)}")
            result.append(f"exit {code}")
            result += [f"out| {line}" for line in out.splitlines()]
            result += [f"err| {line}" for line in err.splitlines()]
    return result


EQUIV_PAIRS = 300
NOTIONS = ("all", "s", "sr", "smr", "su")


def equiv_pairs() -> list[tuple[str, Program, Program]]:
    """Seeded program pairs over the first 1-5 letters: 40% the left program with a rule added or
    swapped, 30% with a weakening of one of its rules added (atoms added to its parts, so its
    SE-set grows), 30% a fresh right program."""
    rng, pairs = random.Random(2011), []
    for _ in range(EQUIV_PAIRS):
        atoms = "abcde"[:rng.randint(1, 5)]
        left = random_program(rng, atoms)
        rules = sorted(left.rules, key=rule_key)
        draw = rng.random()
        if draw < 0.4 and rules:
            kept = left.rules if rng.random() < 0.5 else left.rules - {rng.choice(rules)}
            right = Program(kept | {random_rule(rng, atoms)})
        elif draw < 0.7 and rules:
            r = rng.choice(rules)
            grown = [part | {a for a in atoms if rng.random() < 0.2}
                     for part in (r.head_pos, r.head_neg, r.body_pos, r.body_neg)]
            right = Program(left.rules | {Rule(*grown)})
        else:
            right = random_program(rng, atoms)
        pairs.append((atoms, left, right))
    return pairs


def equiv_lines() -> list[str]:
    """Per pair one `sekit equiv` run: the notions and formats in turn, every third run over an
    --alphabet with one unused atom, every seventh under SEKIT_ENUM_CAP=2. The header line is
    followed by the two program texts, then the exit code and the output lines, each tagged."""
    result = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("left.lp", "right.lp")]
        for k, (atoms, left, right) in enumerate(equiv_pairs()):
            texts = [" ".join(print_rule(r) for r in p) for p in (left, right)]
            for path, text in zip(paths, texts):
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text)
            args = ["--notion", NOTIONS[k % 5]]
            if k % 3 == 1:
                args += ["--alphabet", ",".join(atoms + "z")]
            args += ["--format", "json" if k // 5 % 2 else "text"]
            env_cap = "2" if k % 7 == 3 else None
            code, out, err = _run(env_cap, ["equiv", *paths, *args])
            env = "" if env_cap is None else f"SEKIT_ENUM_CAP={env_cap} "
            result.append(f"$ {env}sekit equiv LEFT RIGHT {' '.join(args)}")
            result += [f"left| {texts[0]}", f"right| {texts[1]}", f"exit {code}"]
            result += [f"out| {line}" for line in out.splitlines()]
            result += [f"err| {line}" for line in err.splitlines()]
    return result


# Rule texts that fail to parse, one per kind of `ParseError`: a bad word, directive and
# character, a missing atom, '.' and literal, the end of input inside and before a rule,
# trailing input, a non-ASCII letter, and the end of input after a trailing comment.
BAD_RULES = ("p :- Q.", "p ; _q.", "#foo.", "p :- 1.", "not .", "p :- not", "p q.", ", p.",
             "#taut p.", "p :- q", "", "% only a comment", "p. q.", "\u00e9.", "p :- q % no dot")

# SE-set documents that `induce` refuses, one per malformation the README lists and more
MALFORMED = ('[["p"], ["p"]]', '{"alphabet": ["p"]}', '{"models": []}',
             '{"alphabet": "p", "models": []}', '{"alphabet": ["P"], "models": []}',
             '{"alphabet": ["p"], "models": {}}', '{"alphabet": ["p"], "models": [[[], []], 3]}',
             '{"alphabet": ["p"], "models": [[["p"]]]}',
             '{"alphabet": ["p"], "models": [[["p"], ["p"], []]]}',
             '{"alphabet": ["p"], "models": [["p", ["p"]]]}',
             '{"alphabet": ["p"], "models": [[[1], ["p"]]]}',
             '{"alphabet": ["p"], "models": [[[["p"]], ["p"]]]}',
             '{"alphabet": ["p"], "models": [[[], ["q"]]]}',
             '{"alphabet": ["p", "q"], "models": [[["p"], ["q"]]]}',
             '{"alphabet": ["a", "b", "c"], "models": [[[], []]]}')


def rule_text(rng: random.Random, atoms: str) -> str:
    """Seeded rule text: literals under zero to three `not`s, loose and tight spacing, and now and
    then `#taut.` or `:-.`."""
    draw = rng.random()
    if draw < 0.06:
        return "#taut."
    if draw < 0.12:
        return ":-."

    def literals(count: int, separator: str) -> str:
        return separator.join("not " * rng.choice((0, 0, 0, 1, 1, 2, 3)) + rng.choice(atoms)
                              for _ in range(count))

    head = literals(rng.randint(0, 2), rng.choice(("; ", ";", " ; ")))
    body = literals(rng.randint(0, 3), rng.choice((", ", ",")))
    arrow = rng.choice((" :- ", ":-"))
    if not head:
        return f":- {body}." if body else ":-."
    return f"{head}{arrow}{body}." if body else f"{head}."


def program_text(rng: random.Random, atoms: str, newline: str) -> str:
    """Several rules over several lines, with comment lines, trailing comments and blank lines."""
    lines = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            lines.append("% " + rng.choice(("facts", "a comment", "")))
        lines.append(rule_text(rng, atoms) + rng.choice(("", "", "  % why", "   ")))
        if rng.random() < 0.2:
            lines.append("")
    return newline.join(lines) + rng.choice(("", newline))


def document(rng: random.Random, atoms: str) -> str:
    """An SE-set document over `atoms`: a rule's SE-models, computed naively (representable), a
    union of two rules' SE-models or a random subset of the pairs (mostly not); members shuffled
    and sides sometimes unsorted or repeated."""
    draw = rng.random()
    if draw < 0.3:
        members = naive_se_models(random_rule(rng, atoms), atoms)
    elif draw < 0.55:
        members = (naive_se_models(random_rule(rng, atoms), atoms)
                   | naive_se_models(random_rule(rng, atoms), atoms))
    else:
        members = {pair for pair in se_pairs(atoms) if rng.random() < 0.5}
    models = [[sorted(i), sorted(j)] for i, j in members]
    models.sort(key=lambda m: (m[1], m[0]))
    if rng.random() < 0.3:
        rng.shuffle(models)
        models = [[side[::-1] + side[:1] if rng.random() < 0.3 else side for side in m]
                  for m in models + models[:2]]
    return json.dumps({"alphabet": list(atoms), "models": models})


def cli_runs() -> list[tuple[str | None, list[str], dict[str, str], str]]:
    """(SEKIT_ENUM_CAP or None, argv, files to write, stdin) per `models`, `canon` and `induce`
    run; an argv entry naming a file is its name, relative to where the files are written."""
    rng, runs = random.Random(2011), []
    formats = ("text", "json")
    for k in range(60):  # canon of seeded rules over 1-4 atoms
        runs.append((None, ["canon", rule_text(rng, "abcd"[:k % 4 + 1]), "--format", formats[k % 2]],
                     {}, ""))
    for k in range(60):  # models of inline rules, JSON over at most two atoms
        atoms = "abc"[:k % 3 + 1]
        args = ["models", rule_text(rng, atoms)]
        if k % 5 == 1:
            args += ["--alphabet", ",".join(atoms + "z")]
        elif k % 5 == 3:
            args += ["--alphabet", ",".join(atoms[1:]) or "z"]
        args += ["--format", "json" if k % 3 < 2 and k % 2 else "text"]
        runs.append(("2" if k % 11 == 5 else "x" if k % 13 == 7 else None, args, {}, ""))
    for k in range(30):  # models of program files: comments, CRLF, several lines
        atoms = "abc"[:k % 3 + 1]
        text = program_text(rng, atoms, "\r\n" if k % 2 else "\n")
        args = ["models", "--program", "-" if k % 10 == 9 else "prog.lp"]
        if k % 4 == 1:
            args += ["--alphabet", ",".join(atoms + "z")]
        elif k % 4 == 3:
            args += ["--alphabet", ",".join(atoms[1:]) or "z"]
        args += ["--format", "json" if k % 6 == 0 else "text"]
        files = {} if k % 10 == 9 else {"prog.lp": text}
        runs.append(("2" if k % 7 == 4 else None, args, files, text if k % 10 == 9 else ""))
    for k, bad in enumerate(BAD_RULES):  # each parse error inline, then in a program's rule 3
        runs.append((None, ["canon" if k % 2 else "models", bad], {}, ""))
        text = "a.\r\n% the second rule\nb :- a,\n  not c.\n" + bad
        runs.append((None, ["models", "--program", "prog.lp"], {"prog.lp": text}, ""))
    for k in range(60):  # induce of seeded documents over 1-3 atoms
        doc = document(rng, "abc"[:k % 3 + 1])
        runs.append(("2" if k % 17 == 8 else "x" if k % 19 == 10 else None,
                     ["induce", "doc.json", "--format", formats[k // 2 % 2]], {"doc.json": doc}, ""))
    runs.append((None, ["induce", "-"], {}, '{"alphabet": ["p"], "models": [[["p"], ["p"]]]}'))
    for k, bad in enumerate(("{", "[1, 2", "") + MALFORMED):  # invalid JSON, malformed documents
        runs.append((None, ["induce", "doc.json", "--format", formats[k % 2]], {"doc.json": bad}, ""))
    runs += [(cap, ["canon", "p :- not q.", "--format", fmt], {}, "")
             for cap in ("x", "2") for fmt in formats]
    return runs


def cli_lines() -> list[str]:
    """Per run a header line, then its input files and stdin, its exit code and its output lines,
    each tagged; file paths print as given, relative to the directory that holds the files."""
    result = []
    with tempfile.TemporaryDirectory() as tmp:
        for env_cap, argv, files, stdin in cli_runs():
            for name, text in files.items():
                with open(os.path.join(tmp, name), "w", encoding="utf-8", newline="") as f:
                    f.write(text)
            code, out, err = _run(env_cap, [os.path.join(tmp, a) if a in files else a
                                            for a in argv], stdin)
            env = "" if env_cap is None else f"SEKIT_ENUM_CAP={env_cap} "
            result.append(f"$ {env}sekit {shlex.join(argv)}")
            result += [f"file {name}| {text!r}" for name, text in files.items()]
            result += [f"stdin| {stdin!r}"] if stdin else []
            result.append(f"exit {code}")
            result += [f"out| {line}" for line in out.replace(tmp + os.sep, "").splitlines()]
            result += [f"err| {line}" for line in err.replace(tmp + os.sep, "").splitlines()]
    return result


if __name__ == "__main__":
    modes = {"equiv": equiv_lines, "cli": cli_lines}
    chosen = modes[sys.argv[1]]() if sys.argv[1:] else lines()
    sys.stdout.write("".join(line + "\n" for line in chosen))
