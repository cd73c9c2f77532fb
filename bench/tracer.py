"""Traced mode: spans around sekit's public functions, kept in memory.

`Tracer.install` rebinds each target name in every module that holds the
original function (for example `sekit.lattice.se_models` as well as
`sekit.semantics.se_models`), so calls between sekit's own modules are seen
too. `uninstall` puts the originals back. No file under src/ changes.

A span is (name, start, end, parent, op): parent is the index of the
enclosing span, or -1 for a call the op makes directly, and op numbers the
traced ops of the batch. Self time is a span's duration minus the durations
of its direct children (one thread, so children never overlap).
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from functools import wraps

# (module holding the function, attribute, span name)
TARGETS = (
    ("sekit.parser", "parse_rule", "parser.parse"),
    ("sekit.parser", "parse_program", "parser.parse"),
    ("sekit.core", "all_se_interpretations", "core.pair_table"),
    ("sekit.semantics", "se_models", "semantics.se_models"),
    ("sekit.semantics", "se_models_program", "semantics.se_models_program"),
    ("sekit.semantics", "answer_sets", "semantics.answer_sets"),
    ("sekit.canonical", "secan", "canonical.secan"),
    ("sekit.reconstruct", "induce_rule", "reconstruct.induce_rule"),
    ("sekit.reconstruct", "classify_atoms", "reconstruct.classify_atoms"),
    ("sekit.lattice", "is_rule_representable", "lattice.is_rule_representable"),
    ("sekit.lattice", "interval_countermodels", "lattice.interval_countermodels"),
    ("sekit.equivalence", "equivalence_report", "equivalence.report"),
    ("sekit.equivalence", "strongly_equivalent", "equivalence.strong"),
    ("sekit.equivalence", "sr_equivalent", "equivalence.sr"),
    ("sekit.equivalence", "smr_equivalent", "equivalence.smr"),
    ("sekit.equivalence", "su_equivalent", "equivalence.su"),
    ("sekit.oracle", "enumerate_rules", "oracle.enumerate_rules"),
    ("sekit.oracle", "count_se_classes", "oracle.count_se_classes"),
    ("sekit.oracle", "closure_experiment", "oracle.closure_experiment"),
    # the benchmark's own document steps: cli function plus the JSON text
    ("workloads", "doc_out", "cli.doc_out"),
    ("workloads", "doc_in", "cli.doc_in"),
)

# per-layer metric -> (span name, "total" or "self")
TIMES = {
    "parser.parse_ms": ("parser.parse", "total"),
    "core.pair_table_ms": ("core.pair_table", "total"),
    "semantics.se_models_ms": ("semantics.se_models", "total"),
    "semantics.se_models_program_ms": ("semantics.se_models_program", "total"),
    "semantics.answer_sets_ms": ("semantics.answer_sets", "total"),
    "canonical.secan_ms": ("canonical.secan", "total"),
    "reconstruct.induce_rule_ms": ("reconstruct.induce_rule", "total"),
    "reconstruct.classify_atoms_ms": ("reconstruct.classify_atoms", "total"),
    "lattice.is_rule_representable_ms": ("lattice.is_rule_representable", "self"),
    "lattice.interval_countermodels_ms": ("lattice.interval_countermodels", "total"),
    "cli.doc_out_ms": ("cli.doc_out", "total"),
    "cli.doc_in_ms": ("cli.doc_in", "total"),
    "equivalence.report_ms": ("equivalence.report", "total"),
    "equivalence.strong_ms": ("equivalence.strong", "total"),
    "equivalence.sr_ms": ("equivalence.sr", "total"),
    "equivalence.smr_ms": ("equivalence.smr", "total"),
    "equivalence.su_ms": ("equivalence.su", "total"),
    "equivalence.witness_ms": ("equivalence.report", "self"),
    "oracle.enumerate_rules_ms": ("oracle.enumerate_rules", "total"),
    "oracle.count_se_classes_ms": ("oracle.count_se_classes", "total"),
    "oracle.closure_experiment_ms": ("oracle.closure_experiment", "total"),
}

COUNTS = ("semantics.se_models.calls", "semantics.se_models.pairs_out",
          "semantics.se_models.repeat_calls", "canonical.secan.calls", "cli.doc_bytes")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: list[dict[str, int]] = []  # one dict per traced op
        self._stack: list[int] = []
        self._op = -1
        self._seen: set = set()  # (rule, alphabet) keys se_models was called with
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sekit" or name.startswith("sekit.")
                                         or name == "workloads")]
        for owner, attr, span in TARGETS:
            original = getattr(sys.modules[owner], attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, span: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = {"semantics.se_models": self._observe_se_models,
                   "canonical.secan": self._observe_secan,
                   "cli.doc_out": self._observe_doc_out}.get(span)

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span, start, end, parent, self._op)
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def _count(self, key: str, amount: int = 1) -> None:
        counts = self.counts[-1]
        counts[key] = counts.get(key, 0) + amount

    def _observe_se_models(self, args, result) -> None:
        self._count("semantics.se_models.calls")
        self._count("semantics.se_models.pairs_out", len(result))
        key = (args[0], args[1])
        if key in self._seen:
            self._count("semantics.se_models.repeat_calls")
        self._seen.add(key)

    def _observe_secan(self, args, result) -> None:
        self._count("canonical.secan.calls")

    def _observe_doc_out(self, args, result) -> None:
        self._count("cli.doc_bytes", len(result.encode()))

    def begin_op(self) -> None:
        self._op += 1
        self.counts.append({})

    def per_op(self) -> dict[str, list[float]]:
        """Per-layer values of every traced op: ms for times, raw counts."""
        n_ops = self._op + 1
        values = {}
        total = [dict() for _ in range(n_ops)]
        own = [dict() for _ in range(n_ops)]
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            duration = end - start
            if not self._nested_in_same(index):
                total[op][name] = total[op].get(name, 0.0) + duration
            own[op][name] = own[op].get(name, 0.0) + duration - child_time[index]
        for metric, (span, kind) in TIMES.items():
            source = total if kind == "total" else own
            values[metric] = [1000.0 * source[op].get(span, 0.0) for op in range(n_ops)]
        for key in COUNTS:
            values[key] = [float(c.get(key, 0)) for c in self.counts]
        return values

    def _nested_in_same(self, index: int) -> bool:
        name, _, _, parent, _ = self.spans[index]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": self.counts}, handle)
