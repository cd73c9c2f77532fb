"""The `sekit explore` and `sekit equiv` outputs as diffable text lines: stdout, stderr and exit
code per run.

`tests/sweep_fixture.txt` holds the sweep lines and `tests/equiv_fixture.txt` the equivalence
lines, as committed; `test_sweep_fixture.py` regenerates them in-process and compares line by
line, so a change to any output shows as the lines that moved. Regenerate a file, when an output
is meant to change, with

    PYTHONPATH=src python tests/sweep_fixture.py > tests/sweep_fixture.txt
    PYTHONPATH=src python tests/sweep_fixture.py equiv > tests/equiv_fixture.txt
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import tempfile

from sekit import Program, Rule, print_rule, rule_key
from sekit.cli import main
from strategies import random_program, random_rule

FIXTURE = os.path.join(os.path.dirname(__file__), "sweep_fixture.txt")
EQUIV_FIXTURE = os.path.join(os.path.dirname(__file__), "equiv_fixture.txt")

# (SEKIT_ENUM_CAP or None, explore arguments); each runs in text and in JSON
CASES = ([(None, ("classes", "-n", str(n))) for n in range(1, 5)]
         + [("5", ("classes", "-n", "5"))]
         + [(None, ("closure", "--op", op, "-n", str(n)))
            for op in ("union", "intersection") for n in (1, 2, 4)])


def _run(env_cap: str | None, argv: list[str]) -> tuple[int, str, str]:
    saved = os.environ.pop("SEKIT_ENUM_CAP", None)
    if env_cap is not None:
        os.environ["SEKIT_ENUM_CAP"] = env_cap
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
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


if __name__ == "__main__":
    chosen = equiv_lines() if sys.argv[1:] == ["equiv"] else lines()
    sys.stdout.write("".join(line + "\n" for line in chosen))
