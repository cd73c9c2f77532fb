"""The committed fixtures match the outputs of every `sekit` command line by line."""
from __future__ import annotations

import os

from sweep_fixture import (CASES, CLI_FIXTURE, EQUIV_FIXTURE, EQUIV_PAIRS, FIXTURE, NOTIONS,
                           cli_lines, cli_runs, equiv_lines, lines)


def _assert_unmoved(path: str, fresh: list[str]) -> None:
    with open(path, encoding="utf-8") as f:
        committed = f.read().splitlines()
    moved = [(k, old, new) for k, (old, new) in enumerate(zip(committed, fresh), 1) if old != new]
    assert not moved, f"first moved line {moved[0][0]}: {moved[0][1]!r} -> {moved[0][2]!r}"
    assert len(fresh) == len(committed)


def test_sweep_outputs_match_the_committed_fixture():
    _assert_unmoved(FIXTURE, lines())


def test_sweep_fixture_is_small_and_prints_no_set_repr():
    assert os.path.getsize(FIXTURE) < 100_000
    with open(FIXTURE, encoding="utf-8") as f:
        text = f.read()
    assert "frozenset" not in text
    assert sum(line.startswith("exit ") for line in text.splitlines()) == 2 * len(CASES)  # text, JSON


def test_equiv_outputs_match_the_committed_fixture():
    _assert_unmoved(EQUIV_FIXTURE, equiv_lines())


def test_equiv_fixture_is_small_covers_every_option_and_prints_no_set_repr():
    assert os.path.getsize(EQUIV_FIXTURE) <= 1_000_000
    with open(EQUIV_FIXTURE, encoding="utf-8") as f:
        text = f.read()
    assert "frozenset" not in text
    runs = [line for line in text.splitlines() if line.startswith("$ ")]
    assert len(runs) == EQUIV_PAIRS
    for notion in NOTIONS:
        assert any(f"--notion {notion} " in run for run in runs)
    for option in ("--format text", "--format json", "--alphabet ", "SEKIT_ENUM_CAP=2 "):
        assert any(option in run for run in runs)
    codes = {line for line in text.splitlines() if line.startswith("exit ")}
    assert codes == {"exit 0", "exit 1", "exit 2"}


def test_cli_outputs_match_the_committed_fixture():
    _assert_unmoved(CLI_FIXTURE, cli_lines())


def test_cli_fixture_is_small_covers_every_command_and_prints_no_set_repr():
    assert os.path.getsize(CLI_FIXTURE) < 200_000
    with open(CLI_FIXTURE, encoding="utf-8") as f:
        text = f.read()
    assert "frozenset" not in text
    runs, codes = [], {}
    for line in text.splitlines():
        if line.startswith("$ "):
            runs.append(line)
        elif line.startswith("exit "):
            codes.setdefault(runs[-1].split(" sekit ")[1].split()[0], set()).add(line)
    assert len(runs) == len(cli_runs())
    assert codes == {"models": {"exit 0", "exit 2"}, "canon": {"exit 0", "exit 2"},
                     "induce": {"exit 0", "exit 1", "exit 2"}}
    for option in ("--program", "--alphabet", "SEKIT_ENUM_CAP=2 ", "SEKIT_ENUM_CAP=x ",
                   "--format json"):
        assert any(option in run for run in runs)
    assert "\\r\\n" in text and "rule 3: " in text  # CRLF files; a later rule's parse error
