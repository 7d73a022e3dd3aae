"""Per-layer tracing from outside the package.

Wrappers replace a function under the name its caller looks it up by
(for example ``somrough.pipeline.reducts``, which ``back_analyze`` calls),
so no file of the package changes. A span wrapper times the call and
charges its duration to the enclosing span as child time, which gives
each span a self time; a counter wrapper only counts. Spans live in
memory and are summarised when the traced call ends.

The tracer is installed in the forked child that runs one CLI call and
removed again before that child reports back.
"""

from __future__ import annotations

import json
import types
from time import perf_counter

import somrough.cli
import somrough.pipeline
import somrough.rough
import somrough.rules
import somrough.som
import somrough.table


def _train_counts(counters, args, kwargs, _result):
    data, config = args[0], args[1]
    counters["som.train_calls"] += 1
    if kwargs.get("init_weights", args[2] if len(args) > 2 else None) is not None:
        counters["som.fallbacks"] += 1
    counters["som.presentations"] += config.epochs * len(data)


def _validate_counts(counters, args, _kwargs, _result):
    table = args[0]
    counters["table.validated_cells"] += len(table.rows) * len(table.specs)


def _induce_counts(counters, _args, _kwargs, result):
    counters["rules.induce_calls"] += 1
    counters["rules.rules_induced"] += len(result.rules)


def _disc_matrix_counts(counters, args, _kwargs, result):
    table = args[0]
    entries = result.entries
    counters["rough.pairs"] += len(entries)
    counters["rough.useful_pairs"] += sum(1 for e in entries.values() if e)
    cond = [table.col_index(a) for a in table.condition_names]
    counters["rough.distinct_vectors"] += len({tuple(r[j] for j in cond) for r in table.rows})


def _disc_function_counts(counters, _args, _kwargs, result):
    counters["rough.clauses"] += len(result.cnf)
    counters["rough.implicants"] += len(result.dnf)


def _count(key):
    def on_result(counters, _args, _kwargs, _result):
        counters[key] += 1

    return on_result


# (owner, attribute, span name or None for a counter-only wrapper, counting hook)
WRAPPED = (
    (somrough.cli, "_load_inputs", "cli.load", None),
    (somrough.cli, "_read", "cli.read", None),
    (somrough.cli, "_write", "cli.report_io", None),
    (somrough.cli, "report_to_json", "cli.report_io", None),
    (somrough.cli, "render_rules", "cli.report_io", None),
    (somrough.cli, "estimate_to_json", "cli.report_io", None),
    (somrough.cli, "report_rules_from_json", "cli.report_io", None),
    (somrough.cli, "granular_from_json", "cli.report_io", None),
    (somrough.cli, "close_open", "pipeline.close_open", None),
    (somrough.cli, "back_analyze", "pipeline.back_analyze", None),
    (somrough.pipeline, "granulate", "pipeline.granulate", None),
    (somrough.pipeline, "fit_table_discretizer", "som.fit", _count("som.fits")),
    (somrough.som, "train", None, _train_counts),
    (somrough.pipeline, "split_random", "table.split", _count("table.splits")),
    (somrough.table.GranularTable, "__post_init__", "table.validate", _validate_counts),
    (somrough.pipeline, "induce_cover", "rules.induce", _induce_counts),
    (somrough.pipeline, "accuracy", "rules.accuracy", None),
    (somrough.rules, "classify", None, _count("rules.classify_calls")),
    (somrough.pipeline, "reducts", "rough.reducts", None),
    (somrough.rough, "disc_matrix", "rough.disc_matrix", _disc_matrix_counts),
    (somrough.rough, "disc_function", "rough.disc_function", _disc_function_counts),
    (somrough.rough, "partition_by", "rough.partition", None),
)

COUNTERS = (
    "som.fits",
    "som.train_calls",
    "som.fallbacks",
    "som.presentations",
    "table.splits",
    "table.validated_cells",
    "rules.induce_calls",
    "rules.rules_induced",
    "rules.classify_calls",
    "rough.pairs",
    "rough.useful_pairs",
    "rough.distinct_vectors",
    "rough.clauses",
    "rough.implicants",
)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.counters = dict.fromkeys(COUNTERS, 0)
        # (span name, enclosing span name) -> [calls, inclusive s, self s]
        self.spans: dict[tuple, list] = {}
        self._stack: list[list] = []  # [name, child seconds] per open span
        self._saved: list[tuple] = []

    def _span(self, name, fn, hook):
        def wrapped(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self._stack.pop()
                rec = self.spans.setdefault((name, parent and parent[0]), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            t1 = perf_counter()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            if parent is not None:
                # Counting is tracer work: keep it out of the parent's self time.
                parent[1] += elapsed + (perf_counter() - t1)
            return result

        wrapped.traced = True
        return wrapped

    def _counter(self, fn, hook):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self.counters, args, kwargs, result)
            return result

        wrapped.traced = True
        return wrapped

    def install(self):
        for owner, attr, name, hook in WRAPPED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if name is None:
                setattr(owner, attr, self._counter(original, hook))
            else:
                setattr(owner, attr, self._span(name, original, hook))
        # cmd_backanalyze parses the report with json.loads: wrap it through
        # the module name cli looks up, leaving the json module itself alone.
        self._saved.append((somrough.cli, "json", somrough.cli.json))
        somrough.cli.json = types.SimpleNamespace(
            loads=self._span("cli.report_io", json.loads, None)
        )

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        return {
            "counters": dict(self.counters),
            "spans": [[name, parent, *rec] for (name, parent), rec in self.spans.items()],
        }


def installed() -> bool:
    """True while any wrapper is in place."""
    return somrough.cli.json is not json or any(
        getattr(getattr(owner, attr), "traced", False) for owner, attr, _, _ in WRAPPED
    )


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metric values from the summaries of several traced calls."""
    counters = dict.fromkeys(COUNTERS, 0)
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    read_outside_load = 0.0
    for s in summaries:
        for key, value in s["counters"].items():
            counters[key] += value
        for name, parent, _calls, inclusive, self_time in s["spans"]:
            self_s[name] = self_s.get(name, 0.0) + self_time
            incl_s[name] = incl_s.get(name, 0.0) + inclusive
            if name == "cli.read" and parent != "cli.load":
                read_outside_load += self_time
    c = counters
    return {
        "cli.load_s": incl_s.get("cli.load", 0.0),
        "cli.report_io_s": self_s.get("cli.report_io", 0.0) + read_outside_load,
        "pipeline.close_open_self_s": self_s.get("pipeline.close_open", 0.0),
        "pipeline.granulate_s": self_s.get("pipeline.granulate", 0.0),
        "pipeline.back_analyze_self_s": self_s.get("pipeline.back_analyze", 0.0),
        "som.fit_s": self_s.get("som.fit", 0.0),
        "som.fits": c["som.fits"],
        "som.train_calls": c["som.train_calls"],
        "som.fallbacks": c["som.fallbacks"],
        "som.fit_yield": c["som.fits"] / c["som.train_calls"] if c["som.train_calls"] else 0.0,
        "som.presentations": c["som.presentations"],
        "table.split_s": self_s.get("table.split", 0.0),
        "table.splits": c["table.splits"],
        "table.validate_s": self_s.get("table.validate", 0.0),
        "table.validated_cells": c["table.validated_cells"],
        "rules.induce_s": self_s.get("rules.induce", 0.0),
        "rules.induce_calls": c["rules.induce_calls"],
        "rules.rules_induced": c["rules.rules_induced"],
        "rules.accuracy_s": self_s.get("rules.accuracy", 0.0),
        "rules.classify_calls": c["rules.classify_calls"],
        "rough.reducts_s": self_s.get("rough.reducts", 0.0),
        "rough.disc_matrix_s": self_s.get("rough.disc_matrix", 0.0),
        "rough.disc_function_s": self_s.get("rough.disc_function", 0.0),
        "rough.partition_s": self_s.get("rough.partition", 0.0),
        "rough.pairs": c["rough.pairs"],
        "rough.useful_pair_frac": c["rough.useful_pairs"] / c["rough.pairs"]
        if c["rough.pairs"]
        else 0.0,
        "rough.distinct_vectors": c["rough.distinct_vectors"],
        "rough.clauses": c["rough.clauses"],
        "rough.implicants": c["rough.implicants"],
    }
