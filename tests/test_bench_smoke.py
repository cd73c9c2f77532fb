"""The benchmark's rule-roundtrip, program-edit and class-sweep batches run against this
checkout with every op correct."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["rule-roundtrip", "program-edit", "class-sweep"])
def test_batch_has_no_failed_or_wrong_op(workload):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), workload,
                           "1", "0", "0"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["wrong"] == 0, proc.stderr
