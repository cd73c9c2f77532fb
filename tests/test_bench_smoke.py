"""The benchmark's rule-roundtrip batch runs against this checkout with every op correct."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_rule_roundtrip_batch_has_no_failed_or_wrong_op():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), "rule-roundtrip",
                           "1", "0", "0"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["wrong"] == 0, proc.stderr
