"""One batch of a workload in a fresh interpreter; bench/run.py starts these.

    python3 bench/worker.py WORKLOAD SEED TRACE BATCH
    python3 bench/worker.py WORKLOAD --setup-only

Times the set-up first (`import sekit` plus the workload's SE-pair table),
then runs the workload's fixed batch of ops, each timed alone and checked
outside the timer, and prints one JSON line: set-up seconds, op times in
ms, counts of attempted, failed and wrong ops, peak RSS after the batch,
and with TRACE=1 the per-layer values of every op. A traced batch also
writes its spans under bench/out/.
"""
import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
import sekit  # noqa: E402

IMPORT_S = time.perf_counter() - START

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> None:
    if Path(sekit.__file__).resolve().parent != HERE.parent / "src" / "sekit":
        sys.exit(f"bench: sekit was imported from {sekit.__file__}, not from this checkout")
    kind = workloads.WORKLOADS[sys.argv[1]]
    start = time.perf_counter()
    if kind.setup_atoms:
        sekit.all_se_interpretations(sekit.Alphabet(kind.setup_atoms))
    setup_s = IMPORT_S + time.perf_counter() - start
    if sys.argv[2] == "--setup-only":
        print(json.dumps({"setup_s": setup_s}))
        return

    seed, batch = int(sys.argv[2]), sys.argv[4]
    workload = kind(seed)
    tracer = Tracer() if sys.argv[3] == "1" else None
    times, attempted, failed, wrong = [], 0, 0, 0
    while attempted < kind.batch_ops:
        for op in workload.round():
            attempted += 1
            if tracer is not None:
                tracer.begin_op()
                tracer.install()
            try:
                t0 = time.perf_counter()
                out = workload.run(op)
                elapsed = time.perf_counter() - t0
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            finally:
                if tracer is not None:
                    tracer.uninstall()
            try:
                workload.check(op, out)
            except Exception as exc:  # any fault in an output fails its check
                failed += 1
                wrong += 1
                if not isinstance(exc, workloads.CheckFailed):
                    traceback.print_exc()
                print(f"bench: {kind.name} seed {seed}: check failed: {exc}", file=sys.stderr)
                continue
            times.append(1000 * elapsed)
    result = {"setup_s": setup_s, "times": times, "attempted": attempted, "failed": failed,
              "wrong": wrong, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result["layers"] = tracer.per_op()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{kind.name}-seed{seed}-batch{batch}.json.gz")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
