"""The `sekit explore` sweep outputs as diffable text lines: stdout, stderr and exit code per run.

`tests/sweep_fixture.txt` holds these lines as committed; `test_sweep_fixture.py` regenerates
them in-process and compares line by line, so a change to any sweep output shows as the lines
that moved. Regenerate the file, when an output is meant to change, with

    PYTHONPATH=src python tests/sweep_fixture.py > tests/sweep_fixture.txt
"""
from __future__ import annotations

import contextlib
import io
import os
import sys

from sekit.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "sweep_fixture.txt")

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


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in lines()))
