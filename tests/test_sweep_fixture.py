"""The committed sweep fixture matches the `sekit explore` outputs line by line."""
from __future__ import annotations

import os

from sweep_fixture import CASES, FIXTURE, lines


def test_sweep_outputs_match_the_committed_fixture():
    with open(FIXTURE, encoding="utf-8") as f:
        committed = f.read().splitlines()
    fresh = lines()
    moved = [(k, old, new) for k, (old, new) in enumerate(zip(committed, fresh), 1) if old != new]
    assert not moved, f"first moved line {moved[0][0]}: {moved[0][1]!r} -> {moved[0][2]!r}"
    assert len(fresh) == len(committed)


def test_sweep_fixture_is_small_and_prints_no_set_repr():
    assert os.path.getsize(FIXTURE) < 100_000
    with open(FIXTURE, encoding="utf-8") as f:
        text = f.read()
    assert "frozenset" not in text
    assert sum(line.startswith("exit ") for line in text.splitlines()) == 2 * len(CASES)  # text, JSON
