"""Benchmark of sekit: one closed-loop caller, one op at a time.

    python3 bench/run.py --workload rule-roundtrip|program-edit|class-sweep
                         [--seed N] [--seconds S] [--trace 0|1]

A run is a sequence of batches. Each batch is a fresh interpreter
(bench/worker.py) that sets sekit up and then does the workload's fixed
number of ops; batches run one after another, never two at once, and the
run ends within half a batch of S seconds. Every op is timed alone and its
outputs are checked outside the timer. The run prints one summary line with every metric by
name and unit, then the JSON result as the last line, which it also writes
under bench/out/. With --trace 1, batches alternate between untraced and
traced, and the result holds the per-layer metrics of the traced ops.
See bench/README.md for the workloads, metrics and reference figures.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
WORKLOADS = ("rule-roundtrip", "program-edit", "class-sweep")
BATCH_TIMEOUT_S = 150


def fail(message: str) -> None:
    print(f"bench: error: {message}", file=sys.stderr)
    sys.exit(2)


def worker(*args: str) -> dict:
    """Run one worker to its end and return its JSON line."""
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              stdout=subprocess.PIPE, text=True, timeout=BATCH_TIMEOUT_S,
                              cwd=HERE.parent)
    except subprocess.TimeoutExpired:
        fail(f"worker {' '.join(args)} ran past {BATCH_TIMEOUT_S} s")
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"worker {' '.join(args)} exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def per_layer(traced: list[dict], times: list[float], traced_times: list[float]) -> dict:
    """Medians per op over the traced batches, plus the tracing overhead."""
    metrics = {}
    for name in traced[0]["layers"]:
        values = [v for batch in traced for v in batch["layers"][name]]
        unit = "ms" if name.endswith("_ms") else "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (median(values), unit)
    untraced, with_trace = median(times), median(traced_times)
    metrics["trace.op_ms.p50_traced"] = (with_trace, "ms")
    metrics["trace.op_ms.p50_untraced"] = (untraced, "ms")
    metrics["trace.overhead_pct"] = (100 * (with_trace / untraced - 1), "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # writes bytecode caches, so no batch's set-up pays for compiling
    worker(args.workload, "--setup-only")

    batches: list[tuple[bool, dict]] = []
    start = time.perf_counter()
    # another batch only while half a mean batch of time remains, so a run
    # ends within half a batch of the deadline
    while not batches or (time.perf_counter() - start) * (1 + 0.5 / len(batches)) < args.seconds:
        traced = bool(args.trace) and len(batches) % 2 == 1
        batches.append((traced, worker(args.workload, str(args.seed), str(int(traced)),
                                       str(len(batches)))))
    if args.trace and len(batches) < 2:
        batches.append((True, worker(args.workload, str(args.seed), "1", "1")))

    plain = [b for is_traced, b in batches if not is_traced]
    traced_batches = [b for is_traced, b in batches if is_traced]
    times = [t for b in plain for t in b["times"]]
    traced_times = [t for b in traced_batches for t in b["times"]]
    attempted = sum(b["attempted"] for _, b in batches)
    failed = sum(b["failed"] for _, b in batches)
    wrong = sum(b["wrong"] for _, b in batches)
    if not times or (args.trace and not traced_times):
        fail(f"no op of {args.workload} succeeded")

    if args.trace:
        metrics = per_layer(traced_batches, times, traced_times)
    else:
        metrics = {
            "op_ms.p50": (median(times), "ms"),
            "ops_per_s": (1000 * len(times) / sum(times), "1/s"),
            "peak_rss_mb": (median(b["rss_mb"] for b in plain), "MB"),
            "setup_s": (median(b["setup_s"] for b in plain), "s"),
        }

    summary = " ".join(f"{name}={value:.6g}{unit}" for name, (value, unit) in metrics.items())
    p90 = f" op_ms.p90={sorted(times)[int(0.9 * len(times))]:.6g}ms" if len(times) >= 100 else ""
    print(f"{args.workload} seed={args.seed} batches={len(batches)} ops_attempted={attempted} "
          f"ops_failed={failed} ops_timed={len(times) + len(traced_times)}{p90} {summary}")
    line = json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
