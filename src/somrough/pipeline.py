"""The close-open iteration and observation-to-parameter back analysis.

One run granulates the whole table once, then alternates closed-world
trials (fresh random train/test splits, rules induced under the current
rule budget) with open-world budget moves: a budget that reaches the
held-out accuracy bar is rewarded with a tighter budget, a budget that
fails the bar on k consecutive splits is relaxed by one. The loop settles
on the smallest workable budget, or reports best-so-far with a not-met
flag when the bar is out of reach.

Back analysis inverts a monitored observation: granulate it with the
decision attribute's quantizer, pick the rules whose decision band covers
that granule, and hand back their condition sides as alternative raw-unit
parameter bundles, with a reduct-based sensitivity ranking.
"""

from __future__ import annotations

import marshal
import math
import os
import sys

from . import _pcg
from ._record import SCALARS, Record, fields, from_json, replace
from .errors import DataError, UsageError
from .rough import core
# Not called here: perfbench/tracer.py wraps ``somrough.pipeline.reducts``
# by name, so the name stays importable from this module.
from .rough import reducts  # noqa: F401
from .rules import (
    Condition,
    Rule,
    RuleConstraints,
    RuleSet,
    accuracy,
    induce_cover,
    render_rules,
)
from .som import FIT_EPOCHS, fit_table_discretizer
from .table import AttributeSpec, DecisionTable, Discretizer, GranularTable, assign_granule
from .table import json_record, json_text, split_random, split_train_size

# Fit presentations (rows x FIT_EPOCHS x columns) below which a forked
# helper costs more than it saves. On a 2-core VM a fork round trip took
# about 1.7 ms in a child forked like perfbench's; the 12-row, ten-column
# corpus (24,000) fitted in 6.1 ms serially against 7.2 ms split, and a
# 500-row surrogate table (600,000) in 100 ms against 58 ms.
_FORK_MIN_PRESENTATIONS = 60_000


class PipelineConfig(RuleConstraints):
    """A run's settings, the rule constraints first (``max_rules`` bounds
    the budget): the CLI's config keys and flags, in ``report.json``'s order."""

    runs: int = 1  # independent outer runs, each with derived seed
    max_closed: int = 2  # splits tried per budget level before relaxing
    el: float = 0.80  # held-out accuracy bar
    train_fraction: float = 0.7
    granules: int = 3
    max_open_steps: int = 10  # budget adjustments allowed per run
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.runs < 1 or self.max_closed < 1:
            raise UsageError("runs and max_closed must be >= 1")
        if not 0.0 <= self.el <= 1.0:
            raise UsageError("el must be in [0, 1]")
        if self.granules < 2:
            raise UsageError("granules must be >= 2")
        if self.max_open_steps < 0:
            raise UsageError("max_open_steps must be >= 0")
        if not 0.0 < self.train_fraction <= 1.0:
            raise UsageError("train_fraction must be in (0, 1]")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")

    @property
    def max_iterations(self) -> int:
        """Hard cap on closed-open iterations per run."""
        return 1 + self.max_closed * self.max_open_steps


# Each setting's type, in field order.
SETTING_TYPES = {f.name: SCALARS[f.type] for f in fields(PipelineConfig)}


def config_from_settings(settings: dict) -> PipelineConfig:
    """A ``PipelineConfig`` from flat settings. Keys that are not fields are
    ignored; a missing one is a KeyError, and the record rejects a value
    not of its field's type (UsageError)."""
    return PipelineConfig(**{f.name: settings[f.name] for f in fields(PipelineConfig)})


class Iteration(Record):
    run: int
    index: int  # 1-based within the run
    split_seed: int
    budget: int
    n_rules: int
    accuracy: float
    accepted: bool


class RunReport(Record):
    """Every iteration of a close-open call, and the best one with its rule
    set and its run's granulated table. ``best_accuracy`` and ``el_met``
    are read off ``best_iteration``."""

    config: PipelineConfig
    decision: str
    iterations: tuple[Iteration, ...]
    best_rules: RuleSet
    best_iteration: Iteration
    granular: GranularTable  # of the best run, with its quantizers
    stop_reason: str

    @property
    def best_accuracy(self) -> float:
        return self.best_iteration.accuracy

    @property
    def el_met(self) -> bool:  # some iteration reached the bar exactly when the best did
        return self.best_iteration.accepted

    @property
    def total_iterations(self) -> int:
        return len(self.iterations)


class ParameterEstimate(Record):
    """Back-analysis output: alternative condition bundles, one per
    matched rule, plus a sensitivity ranking of the condition attributes.
    ``no_match`` holds when no rule matched."""

    decision: str
    observed_granule: int
    matched_rules: tuple[Rule, ...]
    sensitivity: tuple[tuple[str, bool, int], ...]  # (attribute, in_core, frequency)

    @property
    def no_match(self) -> bool:
        return not self.matched_rules

    @property
    def bundles(self) -> tuple[tuple[Condition, ...], ...]:
        """One bundle of raw-unit conditions per matched rule."""
        return tuple(r.conditions for r in self.matched_rules)


def granulate(table: DecisionTable, granules: int = 3, seed: int = 0) -> GranularTable:
    """Quantize every column; label 1 is always the highest value band.

    Discretizers are fitted per attribute with seeds derived from the base
    seed. The table holds names, roles, labels and quantizers, no more, so
    the table a report embeds reads back equal (``granular_from_json``).
    """
    discretizers = _fit_all(table, granules, seed)
    columns = [discretizers[name] for name in table.names]
    rows = tuple(
        tuple(assign_granule(d, v) for d, v in zip(columns, row)) for row in table.rows
    )
    specs = tuple(AttributeSpec(s.name, s.role) for s in table.specs)
    return GranularTable(specs=specs, rows=rows, discretizers=discretizers)


def _fit_all(table: DecisionTable, granules: int, seed: int) -> dict:
    """Fit every attribute's discretizer, in table order.

    Fits are pure functions of (table, name, granules, seed), so when the
    work pays for a fork a helper process fits the odd-indexed attributes
    while this process fits the even ones, and the merged result equals
    the serial one bit for bit. Errors are raised as the serial loop
    raises them: unless both sides deliver every fit, all attributes are
    refitted here, in table order.
    """
    jobs = [(name, seed + 7919 * idx) for idx, name in enumerate(table.names)]
    fitted = _fit_split(table, granules, jobs) if _fork_pays(table) else None
    if fitted is None:
        fitted = [fit_table_discretizer(table, name, granules, s) for name, s in jobs]
    return dict(zip(table.names, fitted))


def _fork_pays(table: DecisionTable) -> bool:
    """Whether a helper process would shorten the fits: enough work, a
    second CPU, and no other thread (fork is unsafe with threads). A process
    that never imported ``threading`` cannot be running a ``Thread``."""
    work = len(table) * FIT_EPOCHS * len(table.names)
    if work < _FORK_MIN_PRESENTATIONS or not hasattr(os, "fork"):
        return False
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    threading = sys.modules.get("threading")
    return len(cpus) >= 2 and (threading is None or threading.active_count() == 1)


def _fit_split(table: DecisionTable, granules: int, jobs: list) -> list | None:
    """Fit ``jobs[0::2]`` here and ``jobs[1::2]`` in a forked helper.

    Returns every job's discretizer in job order, or None when the fork is
    refused, a fit raises on either side, or the helper's payload is short
    (the helper died or failed before sending it all). The helper never
    outlives the call.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(r)
        os.close(w)
        return None
    if pid == 0:  # helper: inherits the table, writes only to the pipe, never returns
        try:
            os.close(r)
            payload = marshal.dumps(
                [json_record(fit_table_discretizer(table, n, granules, s)) for n, s in jobs[1::2]]
            )
            while payload:
                payload = payload[os.write(w, payload) :]
        finally:
            os._exit(0)  # an error leaves the payload short, which the caller sees
    os.close(w)
    import signal  # here, not at the top: it costs every CLI call about 1 ms

    fitted = [None] * len(jobs)
    try:
        with os.fdopen(r, "rb") as pipe:
            fitted[0::2] = [fit_table_discretizer(table, n, granules, s) for n, s in jobs[0::2]]
            # A short payload fails to load, or to fill the helper's slots.
            fitted[1::2] = [from_json(Discretizer, d) for d in marshal.loads(pipe.read())]
    except Exception:  # the caller refits every attribute, raising the serial error
        return None
    finally:
        os.kill(pid, signal.SIGKILL)  # a no-op once the helper has exited
        os.waitpid(pid, 0)
    return fitted


def close_open(table: DecisionTable, decision: str, cfg: PipelineConfig) -> RunReport:
    """Balance rule-budget simplicity against held-out accuracy.

    ``decision`` goes through ``DecisionTable.decision`` before any fit, so
    None names the table's only decision attribute. Runs are independent;
    the reported best is the iteration with the highest accuracy (ties:
    fewer rules, then smaller total length, then earlier), so it reached
    the bar when any iteration did.
    """
    decision = table.decision(decision)
    if len(table) == 0:
        raise DataError("cannot run the pipeline on an empty table")
    if split_train_size(len(table), cfg.train_fraction) == len(table):
        # Accuracy over an empty test split is vacuous, not earned.
        raise DataError(
            f"train_fraction {cfg.train_fraction} leaves no test objects "
            f"out of {len(table)}"
        )

    iterations: list[Iteration] = []
    best = None  # (sort key, iteration, rule set, granulated table)
    stop_reasons = []

    for run in range(cfg.runs):
        run_seed = cfg.seed + run
        gtable = granulate(table, cfg.granules, seed=run_seed)
        rng = _pcg.Stream(run_seed)

        budget = 1
        fails_here = 0
        tightening = False  # reached this budget by coming down from a hit
        open_steps = 0
        stop = "iteration cap"
        for index in range(1, cfg.max_iterations + 1):
            split_seed = rng.integers(2**31 - 1)
            train, test = split_random(gtable, cfg.train_fraction, split_seed)
            cons = replace(cfg, max_rules=budget)
            rs = induce_cover(gtable, decision, cons, train)
            acc = accuracy(rs, gtable, decision, test)
            accepted = acc >= cfg.el
            it = Iteration(
                run=run,
                index=index,
                split_seed=split_seed,
                budget=budget,
                n_rules=len(rs.rules),
                accuracy=acc,
                accepted=accepted,
            )
            iterations.append(it)
            # An accepted iteration outranks every other, as its accuracy is higher.
            key = (-acc, len(rs.rules), sum(r.length for r in rs.rules), len(iterations))
            if best is None or key < best[0]:
                best = (key, it, rs, gtable)

            fails_here = 0 if accepted else fails_here + 1
            if 0 < fails_here < cfg.max_closed:
                continue  # another split at this budget
            if accepted and budget <= 1:
                stop = "stable success at minimal budget"
            elif not accepted and tightening:
                stop = "stable success above this budget"
            elif not accepted and budget >= cfg.max_rules:
                stop = "budget bound reached"
            elif open_steps >= cfg.max_open_steps:
                stop = "budget-adjustment cap"
            else:  # one open step: tighten after a hit, relax after a round of misses
                budget += -1 if accepted else 1
                open_steps += 1
                fails_here = 0
                tightening = tightening or accepted
                continue
            break
        stop_reasons.append(f"run {run}: {stop}")

    _, best_it, best_rs, gtable = best
    return RunReport(
        config=cfg,
        decision=decision,
        iterations=tuple(iterations),
        best_rules=best_rs,
        best_iteration=best_it,
        granular=gtable,
        stop_reason="; ".join(stop_reasons),
    )


def granulate_observation(disc: Discretizer, measured: float) -> int:
    """Granule of a monitored value; out-of-range values take the nearest
    extreme band. A log10 quantizer, like its column's fit, takes values > 0."""
    if measured is None or not math.isfinite(measured):
        raise UsageError("measured value must be finite")
    if disc.scale == "log10" and measured <= 0:
        raise UsageError(f"{disc.name!r} has a log10 scale: measured value {measured!r} is not > 0")
    return assign_granule(disc, measured)


def back_analyze(
    rs: RuleSet,
    observed: tuple[str, int],
    granular: GranularTable | None = None,
) -> ParameterEstimate:
    """Invert an observed decision granule into parameter bundles.

    Every rule whose decision band covers the observed granule contributes
    one bundle of raw-unit conditions; bundles are alternative (disjunctive)
    explanations. When the granulated table is available, reduct cores mark
    which attributes the sensitivity ranking flags first.
    """
    if not rs.rules:
        raise UsageError("cannot back-analyze with an empty rule set")
    attr, label = observed
    matched = tuple(
        r for r in rs.rules if r.decision.attribute == attr and r.decision.covers(label)
    )
    freq = {}  # a plain dict: Counter's first use costs a cold call an ABC walk
    for r in matched:
        for c in r.conditions:
            freq[c.attribute] = freq.get(c.attribute, 0) + 1
    core_attrs = frozenset()
    attrs = set(freq)
    if granular is not None:
        core_attrs = core(granular, decision=attr)
        attrs |= set(granular.condition_names)
    # (attribute, in core, frequency): core first, then by falling
    # frequency, then by name.
    entries = ((a, a in core_attrs, freq.get(a, 0)) for a in attrs)
    return ParameterEstimate(
        decision=attr,
        observed_granule=label,
        matched_rules=matched,
        sensitivity=tuple(sorted(entries, key=lambda e: (not e[1], -e[2], e[0]))),
    )


# --- JSON serialization ----------------------------------------------------


def report_to_json(report: RunReport) -> str:
    doc = {
        "config": report.config,
        "decision": report.decision,
        "el_met": report.el_met,
        "stop_reason": report.stop_reason,
        "iterations": report.iterations,
        "best": {
            "accuracy": report.best_accuracy,
            "run": report.best_iteration.run,
            "split_seed": report.best_iteration.split_seed,
            "budget": report.best_iteration.budget,
            "uncovered": list(report.best_rules.uncovered),
            "rules": report.best_rules.rules,
            "rules_text": render_rules(report.best_rules).splitlines(),
        },
        "discretizers": dict(sorted(report.granular.discretizers.items())),
        "granular": {
            "attributes": report.granular.names,
            "roles": [s.role for s in report.granular.specs],
            "rows": [list(row) for row in report.granular.rows],
        },
    }
    return json_text(doc) + "\n"


def report_rules_from_json(doc: dict) -> RuleSet:
    """The best rule set of a report. A ``best.semantics``, which older
    reports carry, is not read."""
    return from_json(RuleSet, doc["best"])


def granular_from_json(doc: dict) -> GranularTable:
    """The granulated table a report embeds, quantizers and all: equal to
    the table the report was written from."""
    g, discs = doc["granular"], doc.get("discretizers", {})
    if len(g["attributes"]) != len(g["roles"]):
        raise ValueError("granular attributes and roles differ in length")
    specs = [{"name": name, "role": role} for name, role in zip(g["attributes"], g["roles"])]
    return from_json(GranularTable, {"specs": specs, "rows": g["rows"], "discretizers": discs})


def estimate_to_json(est: ParameterEstimate) -> str:
    doc = {
        "decision": est.decision,
        "observed_granule": est.observed_granule,
        "no_match": est.no_match,
        "bundles": [
            [{"attribute": c.attribute, "lo": c.lo, "hi": c.hi} for c in bundle]
            for bundle in est.bundles
        ],
        "matched_rules": est.matched_rules,
        "sensitivity": [
            {"attribute": a, "core": c, "frequency": f} for a, c, f in est.sensitivity
        ],
    }
    return json_text(doc) + "\n"

