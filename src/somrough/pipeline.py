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

import json
import marshal
import math
import os
import threading
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace

from . import _pcg
from .errors import DataError, UsageError
from .rough import core
# Not called here: perfbench/tracer.py wraps ``somrough.pipeline.reducts``
# by name, so the name stays importable from this module.
from .rough import reducts  # noqa: F401
from .rules import (
    Condition,
    DecisionPart,
    Rule,
    RuleConstraints,
    RuleSet,
    accuracy,
    induce_cover,
    render_rule,
)
from .som import FIT_EPOCHS, Discretizer, assign_granule, fit_table_discretizer
from .table import DecisionTable, GranularTable, split_random, split_train_size

# Documented reconstruction notes echoed into every report.
POLICY_NOTES = (
    "budget loop: start at one rule, k fresh splits per budget level, "
    "relax budget by one after k misses, tighten by one after a hit, stop "
    "at the smallest workable budget or at the adjustment cap",
    "quantizers are fitted once per run on the full table, so train and "
    "test splits share one granule vocabulary",
)

# Fit presentations (rows x FIT_EPOCHS x columns) below which a forked
# helper costs more than it saves. Forking cost about 5 ms on a 2-core VM,
# so the fits broke even near 48,000 presentations (a 40-row, six-column
# table); the 12-row, ten-column corpus (24,000) stays serial.
_FORK_MIN_PRESENTATIONS = 60_000


@dataclass(frozen=True)
class PipelineConfig:
    runs: int = 1  # independent outer runs, each with derived seed
    max_closed: int = 2  # splits tried per budget level before relaxing
    el: float = 0.80  # held-out accuracy bar
    constraints: RuleConstraints = field(default_factory=RuleConstraints)
    train_fraction: float = 0.7
    granules: int = 3
    max_open_steps: int = 10  # budget adjustments allowed per run
    seed: int = 0
    semantics: str = "cumulative"

    def __post_init__(self):
        if self.runs < 1 or self.max_closed < 1:
            raise UsageError("runs and max_closed must be >= 1")
        if not 0.0 <= self.el <= 1.0:
            raise UsageError("el must be in [0, 1]")
        if self.granules < 2:
            raise UsageError("granules must be >= 2")
        if self.max_open_steps < 0:
            raise UsageError("max_open_steps must be >= 0")

    @property
    def max_iterations(self) -> int:
        """Hard cap on closed-open iterations per run."""
        return 1 + self.max_closed * self.max_open_steps


def config_settings(cfg) -> dict:
    """The run settings of a ``PipelineConfig`` as flat ``key: value``
    pairs, in field order, with the ``RuleConstraints`` fields where
    ``constraints`` sits. These keys are the config-file keys and flags of
    the CLI, and ``report.json`` echoes them in this order."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "constraints":
            out.update(config_settings(value))
        else:
            out[f.name] = value
    return out


def config_from_settings(settings: dict, cls=PipelineConfig):
    """Inverse of ``config_settings``: a ``PipelineConfig`` (or, with
    ``cls=RuleConstraints``, only the constraints) from flat settings.
    Keys of neither dataclass are ignored; a missing one is a KeyError."""
    return cls(**{
        f.name: settings[f.name] if f.name != "constraints"
        else config_from_settings(settings, RuleConstraints)
        for f in fields(cls)
    })


@dataclass(frozen=True)
class Iteration:
    run: int
    index: int  # 1-based within the run
    split_seed: int
    budget: int
    n_rules: int
    accuracy: float
    accepted: bool


@dataclass(frozen=True)
class RunReport:
    config: PipelineConfig
    decision: str
    iterations: tuple[Iteration, ...]
    best_rules: RuleSet
    best_accuracy: float
    best_iteration: Iteration
    granular: GranularTable  # of the best run, with its quantizers
    el_met: bool
    stop_reason: str
    notes: tuple[str, ...] = POLICY_NOTES

    @property
    def total_iterations(self) -> int:
        return len(self.iterations)


@dataclass(frozen=True)
class ParameterEstimate:
    """Back-analysis output: alternative condition bundles, one per
    matched rule, plus a sensitivity ranking of the condition attributes."""

    decision: str
    observed_granule: int
    matched_rules: tuple[Rule, ...]
    sensitivity: tuple[tuple[str, bool, int], ...]  # (attribute, in_core, frequency)
    no_match: bool

    @property
    def bundles(self) -> tuple[tuple[Condition, ...], ...]:
        """One bundle of raw-unit conditions per matched rule."""
        return tuple(r.conditions for r in self.matched_rules)


def granulate(table: DecisionTable, granules: int = 3, seed: int = 0) -> GranularTable:
    """Quantize every column; label 1 is always the highest value band.

    Discretizers are fitted per attribute with seeds derived from the base
    seed.
    """
    discretizers = _fit_all(table, granules, seed)
    columns = [discretizers[name] for name in table.names]
    rows = tuple(
        tuple(assign_granule(d, v) for d, v in zip(columns, row)) for row in table.rows
    )
    return GranularTable(
        specs=table.specs,
        rows=rows,
        object_ids=table.object_ids,
        discretizers=discretizers,
    )


def _fit_all(table: DecisionTable, granules: int, seed: int) -> dict:
    """Fit every attribute's discretizer, in table order.

    Fits are pure functions of (table, name, granules, seed), so when the
    work pays for a fork a helper process fits the odd-indexed attributes
    while this process fits the even ones, and the merged dict equals the
    serial one bit for bit. Errors are raised as the serial loop raises
    them: any attribute without a result is refitted here, in table order.
    """
    jobs = [(name, seed + 7919 * idx) for idx, name in enumerate(table.names)]
    fitted = _fit_split(table, granules, jobs) if _fork_pays(table) else {}
    return {
        name: fitted[name] if name in fitted else fit_table_discretizer(table, name, granules, s)
        for name, s in jobs
    }


def _fork_pays(table: DecisionTable) -> bool:
    """Whether a helper process would shorten the fits: enough work, a
    second CPU, and no other thread (fork is unsafe with threads)."""
    work = len(table) * FIT_EPOCHS * len(table.names)
    if work < _FORK_MIN_PRESENTATIONS or not hasattr(os, "fork"):
        return False
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    return len(cpus) >= 2 and threading.active_count() == 1


def _fit_split(table: DecisionTable, granules: int, jobs: list) -> dict:
    """Fit ``jobs[0::2]`` here and ``jobs[1::2]`` in a forked helper.

    Each side stops at its first exception. Returns the discretizers that
    were fitted; a helper that failed in any way contributes nothing.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: every attribute is fitted here
        os.close(r)
        os.close(w)
        return {}
    if pid == 0:  # helper: inherits the table, writes only to the pipe, never returns
        status = 1
        try:
            os.close(r)
            out = []
            try:
                for name, s in jobs[1::2]:
                    out.append(_discretizer_dict(fit_table_discretizer(table, name, granules, s)))
            except Exception:
                pass  # the caller refits this attribute and raises its error
            payload = marshal.dumps(out)
            while payload:
                payload = payload[os.write(w, payload) :]
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    fitted = {}
    try:
        with os.fdopen(r, "rb") as pipe:
            try:
                for name, s in jobs[0::2]:
                    fitted[name] = fit_table_discretizer(table, name, granules, s)
            except Exception:
                pass  # refitted, and so raised, in table order by the caller
            payload = pipe.read()
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        return fitted
    try:
        for record in marshal.loads(payload):
            fitted[record["name"]] = discretizer_from_dict(record)
    except (EOFError, ValueError, TypeError):
        pass  # a short payload: the missing attributes are refitted
    return fitted


def close_open(table: DecisionTable, decision: str, cfg: PipelineConfig) -> RunReport:
    """Balance rule-budget simplicity against held-out accuracy.

    Runs are independent; the reported best is the accepted iteration with
    the highest accuracy (ties: fewer rules, then smaller total length,
    then earlier), falling back to best-so-far with el_met=False when no
    iteration reaches the bar.
    """
    if len(table) == 0:
        raise DataError("cannot run the pipeline on an empty table")
    if decision not in table.decision_names:
        raise UsageError(f"{decision!r} is not a decision attribute")
    if split_train_size(len(table), cfg.train_fraction) == len(table):
        # Accuracy over an empty test split is vacuous, not earned.
        raise DataError(
            f"train_fraction {cfg.train_fraction} leaves no test objects "
            f"out of {len(table)}"
        )

    iterations: list[Iteration] = []
    candidates = []  # (sort_key, accepted, iteration, ruleset, granulated table)
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
            cons = replace(cfg.constraints, max_rules=budget)
            rs = induce_cover(gtable, decision, cons, cfg.semantics, train)
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
            total_len = sum(r.length for r in rs.rules)
            candidates.append(
                ((-acc, len(rs.rules), total_len, len(iterations)), accepted, it, rs, gtable)
            )

            if accepted:
                if budget <= 1:
                    stop = "stable success at minimal budget"
                    break
                if open_steps >= cfg.max_open_steps:
                    stop = "budget-adjustment cap"
                    break
                budget -= 1
                open_steps += 1
                fails_here = 0
                tightening = True
            else:
                fails_here += 1
                if fails_here < cfg.max_closed:
                    continue
                if tightening:
                    stop = "stable success above this budget"
                    break
                if budget >= cfg.constraints.max_rules:
                    stop = "budget bound reached"
                    break
                if open_steps >= cfg.max_open_steps:
                    stop = "budget-adjustment cap"
                    break
                budget += 1
                open_steps += 1
                fails_here = 0
        stop_reasons.append(f"run {run}: {stop}")

    accepted_pool = [c for c in candidates if c[1]]
    pool = accepted_pool or candidates
    _, _, best_it, best_rs, gtable = min(pool, key=lambda c: c[0])
    return RunReport(
        config=cfg,
        decision=decision,
        iterations=tuple(iterations),
        best_rules=best_rs,
        best_accuracy=best_it.accuracy,
        best_iteration=best_it,
        granular=gtable,
        el_met=bool(accepted_pool),
        stop_reason="; ".join(stop_reasons),
    )


def granulate_observation(disc: Discretizer, measured: float) -> int:
    """Granule of a monitored value; out-of-range values take the nearest
    extreme band."""
    if measured is None or not math.isfinite(measured):
        raise UsageError("measured value must be finite")
    label = assign_granule(disc, measured)
    assert label is not None
    return label


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
    freq = Counter(c.attribute for r in matched for c in r.conditions)
    core_attrs = frozenset()
    attrs = set(freq)
    if granular is not None:
        core_attrs = core(granular, decision=attr)
        attrs |= set(granular.condition_names)
    # (attribute, in core, frequency): core first, then by falling
    # frequency, then by name.
    entries = ((a, a in core_attrs, freq[a]) for a in attrs)
    return ParameterEstimate(
        decision=attr,
        observed_granule=label,
        matched_rules=matched,
        sensitivity=tuple(sorted(entries, key=lambda e: (not e[1], -e[2], e[0]))),
        no_match=not matched,
    )


# --- JSON serialization ----------------------------------------------------


def _condition_dict(c: Condition) -> dict:
    return {
        "attribute": c.attribute,
        "lo": c.lo,
        "hi": c.hi,
        "labels": sorted(c.labels) if c.labels is not None else None,
    }


def _rule_dict(r: Rule) -> dict:
    return {
        "conditions": [_condition_dict(c) for c in r.conditions],
        "decision": {
            "attribute": r.decision.attribute,
            "kind": r.decision.kind,
            "granule": r.decision.granule,
        },
        "support": r.support,
        "strength": r.strength,
    }


def rule_from_dict(d: dict) -> Rule:
    conds = tuple(
        Condition(
            attribute=c["attribute"],
            lo=c["lo"],
            hi=c["hi"],
            labels=frozenset(c["labels"]) if c.get("labels") is not None else None,
        )
        for c in d["conditions"]
    )
    dec = d["decision"]
    return Rule(
        conditions=conds,
        decision=DecisionPart(dec["attribute"], dec["kind"], dec["granule"]),
        support=d.get("support", 0),
        strength=d.get("strength", 0.0),
    )


def _discretizer_dict(d: Discretizer) -> dict:
    return {"name": d.name, "scale": d.scale, "centers": list(d.centers), "cuts": list(d.cuts)}


def discretizer_from_dict(d: dict) -> Discretizer:
    """Inverse of ``_discretizer_dict``; centers and cuts must be JSON
    numbers, ints or finite floats (``ValueError`` otherwise)."""
    centers, cuts = tuple(d["centers"]), tuple(d["cuts"])
    for v in centers + cuts:
        if type(v) is not int and not (type(v) is float and math.isfinite(v)):
            raise ValueError(f"quantizer of {d['name']!r}: {v!r} is not a finite number")
    return Discretizer(name=d["name"], scale=d["scale"], centers=centers, cuts=cuts)


def report_to_json(report: RunReport) -> str:
    doc = {
        "config": config_settings(report.config),
        "decision": report.decision,
        "el_met": report.el_met,
        "stop_reason": report.stop_reason,
        "notes": list(report.notes),
        "iterations": [asdict(it) for it in report.iterations],
        "best": {
            "accuracy": report.best_accuracy,
            "run": report.best_iteration.run,
            "split_seed": report.best_iteration.split_seed,
            "budget": report.best_iteration.budget,
            "semantics": report.best_rules.semantics,
            "uncovered": list(report.best_rules.uncovered),
            "rules": [_rule_dict(r) for r in report.best_rules.rules],
            "rules_text": [
                render_rule(r, i) for i, r in enumerate(report.best_rules.rules, start=1)
            ],
        },
        "discretizers": {
            name: _discretizer_dict(d)
            for name, d in sorted(report.granular.discretizers.items())
        },
        "granular": {
            "attributes": report.granular.names,
            "roles": [s.role for s in report.granular.specs],
            "object_ids": list(report.granular.object_ids),
            "rows": [list(row) for row in report.granular.rows],
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def report_rules_from_json(doc: dict) -> RuleSet:
    best = doc["best"]
    return RuleSet(
        rules=tuple(rule_from_dict(r) for r in best["rules"]),
        constraints=config_from_settings(doc["config"], RuleConstraints),
        uncovered=tuple(best.get("uncovered", ())),
        semantics=best.get("semantics", "cumulative"),
    )


def granular_from_json(doc: dict) -> GranularTable:
    """Rebuild the granulated table (and quantizers) embedded in a report."""
    from .table import AttributeSpec

    discs = doc.get("discretizers", {})
    if not isinstance(discs, dict):
        raise TypeError("discretizers must be an object keyed by attribute")
    discs = {name: discretizer_from_dict(d) for name, d in discs.items()}
    g = doc["granular"]
    if not all(isinstance(name, str) for name in g["attributes"]):
        raise TypeError("granular attribute names must be strings")
    if not all(type(oid) is int for oid in g["object_ids"]):
        raise TypeError("granular object ids must be integers")
    specs = tuple(
        AttributeSpec(name, role) for name, role in zip(g["attributes"], g["roles"])
    )
    # Labels go in as read: GranularTable rejects anything but a positive int.
    rows = tuple(tuple(row) for row in g["rows"])
    return GranularTable(
        specs=specs,
        rows=rows,
        object_ids=tuple(g["object_ids"]),
        discretizers=discs,
    )


def estimate_to_json(est: ParameterEstimate) -> str:
    doc = {
        "decision": est.decision,
        "observed_granule": est.observed_granule,
        "no_match": est.no_match,
        "bundles": [
            [{"attribute": c.attribute, "lo": c.lo, "hi": c.hi} for c in bundle]
            for bundle in est.bundles
        ],
        "matched_rules": [_rule_dict(r) for r in est.matched_rules],
        "sensitivity": [
            {"attribute": a, "core": c, "frequency": f} for a, c, f in est.sensitivity
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
