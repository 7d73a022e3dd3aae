"""Tests for granulation, the close-open loop, and back analysis."""

import json
import os
import random
import threading

import pytest

from somrough import pipeline
from somrough.corpus import JEFFREY_OBSERVED_RATE_MS, jeffrey_table
from somrough.errors import DataError, UsageError
from somrough.pipeline import (
    PipelineConfig,
    back_analyze,
    close_open,
    estimate_to_json,
    granular_from_json,
    granulate,
    granulate_observation,
    report_rules_from_json,
    report_to_json,
)
from somrough.rules import Condition, RuleConstraints, RuleSet, accuracy, parse_rules
from somrough.som import Discretizer
from somrough.surrogate import generate_table
from somrough.table import AttributeSpec, DecisionTable, split_random


@pytest.fixture(scope="module")
def corpus_granular():
    return granulate(jeffrey_table(), granules=3, seed=0)


@pytest.fixture(scope="module")
def corpus_report():
    return close_open(jeffrey_table(), "mvv", PipelineConfig())


class TestGranulate:
    def test_labels_complete_and_bounded(self, corpus_granular):
        for name in corpus_granular.names:
            labels = corpus_granular.column(name)
            assert all(l in (1, 2, 3) for l in labels)

    def test_decision_partition(self, corpus_granular):
        labels = corpus_granular.column("mvv")
        assert sorted(i + 1 for i, l in enumerate(labels) if l == 1) == [1, 3, 6, 8, 10]


def _bits(discretizers: dict) -> list:
    """Discretizers in dict order, every float as ``float.hex``."""
    return [
        (name, d.name, d.scale, [c.hex() for c in d.centers], [c.hex() for c in d.cuts])
        for name, d in discretizers.items()
    ]


def _masked(table: DecisionTable, frac: float, seed: int) -> DecisionTable:
    rnd = random.Random(seed)
    rows = tuple(tuple(None if rnd.random() < frac else v for v in r) for r in table.rows)
    return DecisionTable(specs=table.specs, rows=rows)


def _quantizable(table: DecisionTable, granules: int) -> DecisionTable:
    """The columns with at least ``granules`` distinct present values."""
    keep = [
        j for j, n in enumerate(table.names)
        if len({v for v in table.column(n) if v is not None}) >= granules
    ]
    return DecisionTable(
        specs=tuple(table.specs[j] for j in keep),
        rows=tuple(tuple(row[j] for j in keep) for row in table.rows),
    )


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def fits_here(monkeypatch):
    """Names of the attributes fitted in this process, in call order."""
    names = []
    real = pipeline.fit_table_discretizer

    def spy(table, name, granules, seed):
        names.append(name)
        return real(table, name, granules, seed)

    monkeypatch.setattr(pipeline, "fit_table_discretizer", spy)
    return names


class TestTwoProcessFits:
    """Above the work threshold, with two CPUs and one thread, a forked
    helper fits the odd-indexed attributes. Nothing observable may differ
    from the serial loop except which process fitted what."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)

    @staticmethod
    def both_ways(monkeypatch, fit):
        monkeypatch.setattr(pipeline, "_FORK_MIN_PRESENTATIONS", float("inf"))
        serial = fit()
        monkeypatch.setattr(pipeline, "_FORK_MIN_PRESENTATIONS", 0)
        forked = fit()
        _no_child_left()
        return serial, forked

    @pytest.mark.parametrize(
        "table, granules",
        [(_quantizable(jeffrey_table(), g), g) for g in (2, 3, 4, 5)]
        + [
            (generate_table(count=60, seed=11), 2),
            (generate_table(count=200, seed=12), 3),
            (_masked(generate_table(count=80, seed=13), 0.05, seed=7), 2),
        ],
        ids=["corpus-2", "corpus-3", "corpus-4", "corpus-5", "surrogate60", "surrogate200",
             "masked80"],
    )
    def test_equals_serial(self, monkeypatch, fits_here, table, granules):
        serial, forked = self.both_ways(
            monkeypatch, lambda: granulate(table, granules, seed=5)
        )
        assert _bits(forked.discretizers) == _bits(serial.discretizers)
        assert forked.rows == serial.rows
        names = list(table.names)
        # The serial call fitted all; this process then fitted only the evens.
        assert fits_here == names + names[0::2]

    def test_small_table_stays_serial(self, fits_here):
        table = jeffrey_table()  # 12 rows x 200 epochs x 10 columns = 24,000
        assert len(table) * 200 * len(table.names) < pipeline._FORK_MIN_PRESENTATIONS
        granulate(table, 3, seed=0)
        assert fits_here == list(table.names)

    def test_one_cpu_stays_serial(self, monkeypatch, fits_here):
        monkeypatch.setattr(pipeline, "_FORK_MIN_PRESENTATIONS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
        table = jeffrey_table()
        granulate(table, 3, seed=0)
        assert fits_here == list(table.names)

    def test_live_thread_stays_serial(self, monkeypatch, fits_here):
        monkeypatch.setattr(pipeline, "_FORK_MIN_PRESENTATIONS", 0)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(30,))
        waiter.start()
        try:
            table = jeffrey_table()
            granulate(table, 3, seed=0)
        finally:
            release.set()
            waiter.join(30)
        assert not waiter.is_alive()
        assert fits_here == list(table.names)

    def test_first_error_in_table_order(self, monkeypatch):
        """Attribute 1 (the helper's) and attribute 2 (this process's) both
        fail; the serial loop raises attribute 1's error."""
        rows = [
            (float(i), float(i % 2), 1.0, float(i * i), float(i % 5)) for i in range(20)
        ]
        specs = tuple(AttributeSpec(n, "condition") for n in ("a", "b", "c", "e")) + (
            AttributeSpec("d", "decision"),
        )
        table = DecisionTable(specs=specs, rows=tuple(rows))
        messages = []
        for threshold in (float("inf"), 0):
            monkeypatch.setattr(pipeline, "_FORK_MIN_PRESENTATIONS", threshold)
            with pytest.raises(DataError) as err:
                granulate(table, 3, seed=0)
            messages.append(str(err.value))
            _no_child_left()
        assert messages[0] == messages[1] == "column has 2 distinct values, fewer than 3 granules"

    def test_helper_death_gives_serial_result(self, monkeypatch, fits_here):
        table = generate_table(count=60, seed=11)
        names = list(table.names)
        caller = os.getpid()
        spy = pipeline.fit_table_discretizer

        def dies_in_helper(t, name, granules, seed):
            if os.getpid() != caller and name == names[3]:
                os._exit(1)  # after fitting names[1], before sending anything
            return spy(t, name, granules, seed)

        monkeypatch.setattr(pipeline, "fit_table_discretizer", dies_in_helper)
        serial, forked = self.both_ways(monkeypatch, lambda: granulate(table, 2, seed=5))
        assert _bits(forked.discretizers) == _bits(serial.discretizers)
        # Evens fitted here, then the helper's whole share refitted in table order.
        assert fits_here == names + names[0::2] + names[1::2]

    def test_failed_fork_fits_here(self, monkeypatch, fits_here):
        def no_fork():
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        table = generate_table(count=60, seed=11)
        serial, forked = self.both_ways(monkeypatch, lambda: granulate(table, 2, seed=5))
        assert _bits(forked.discretizers) == _bits(serial.discretizers)
        assert fits_here == list(table.names) * 2

    def test_interrupt_reaps_helper(self, monkeypatch):
        table = generate_table(count=60, seed=11)
        spy = pipeline.fit_table_discretizer
        caller = os.getpid()

        def interrupted(t, name, granules, seed):
            if os.getpid() == caller and name == table.names[2]:
                raise KeyboardInterrupt
            return spy(t, name, granules, seed)

        monkeypatch.setattr(pipeline, "fit_table_discretizer", interrupted)
        monkeypatch.setattr(pipeline, "_FORK_MIN_PRESENTATIONS", 0)
        with pytest.raises(KeyboardInterrupt):
            granulate(table, 2, seed=5)
        _no_child_left()


class TestMissingValues:
    def test_missing_cells_survive_granulation(self):
        t = jeffrey_table()
        rows = [list(r) for r in t.rows]
        rows[2][t.col_index("csz")] = None
        holey = type(t)(specs=t.specs, rows=tuple(tuple(r) for r in rows))
        g = granulate(holey, granules=3, seed=0)
        assert g.rows[2][g.col_index("csz")] is None
        others = [v for i, v in enumerate(g.column("csz")) if i != 2]
        assert all(v in (1, 2, 3) for v in others)

    def test_pipeline_tolerates_missing(self):
        t = jeffrey_table()
        rows = [list(r) for r in t.rows]
        rows[0][t.col_index("phip")] = None
        rows[5][t.col_index("tb")] = None
        holey = type(t)(specs=t.specs, rows=tuple(tuple(r) for r in rows))
        rep = close_open(holey, "mvv", PipelineConfig(max_open_steps=3))
        assert rep.total_iterations >= 1


class TestCloseOpen:
    def test_vacuous_threshold_single_iteration(self):
        rep = close_open(jeffrey_table(), "mvv", PipelineConfig(el=0.0))
        assert rep.total_iterations == 1
        assert rep.el_met
        assert rep.best_iteration.budget == 1

    def test_empty_test_split_rejected(self):
        """A split with nothing held out would report a vacuous accuracy."""
        with pytest.raises(DataError, match="no test objects"):
            close_open(jeffrey_table(), "mvv", PipelineConfig(train_fraction=1.0, el=0.0))
        one_row = DecisionTable(specs=jeffrey_table().specs, rows=jeffrey_table().rows[:1])
        with pytest.raises(DataError, match="no test objects"):
            close_open(one_row, "mvv", PipelineConfig(el=0.0))

    def test_unattainable_threshold_flags_not_met(self):
        cfg = PipelineConfig(el=1.0, max_open_steps=2)
        rep = close_open(jeffrey_table(), "mvv", cfg)
        assert not rep.el_met
        assert rep.best_rules is not None

    def test_iteration_cap(self, corpus_report):
        cfg = corpus_report.config
        assert corpus_report.total_iterations <= cfg.runs * cfg.max_iterations

    def test_budget_trace_sane(self, corpus_report):
        """Budget stays in bounds and moves by at most one per change, with
        at most max_closed stays per level."""
        cfg = corpus_report.config
        budgets = [it.budget for it in corpus_report.iterations]
        assert all(1 <= b <= cfg.constraints.max_rules for b in budgets)
        stays = 1
        for prev, cur in zip(budgets, budgets[1:]):
            if cur == prev:
                stays += 1
                assert stays <= cfg.max_closed
            else:
                assert abs(cur - prev) == 1
                stays = 1

    def test_determinism(self, corpus_report):
        again = close_open(jeffrey_table(), "mvv", PipelineConfig())
        assert again.iterations == corpus_report.iterations
        assert again.best_rules == corpus_report.best_rules

    def test_best_accuracy_reproducible(self, corpus_report):
        """Re-running classification on the logged split reproduces the
        reported best accuracy."""
        it = corpus_report.best_iteration
        g = corpus_report.granular
        _, test = split_random(g, 0.7, it.split_seed)
        assert accuracy(corpus_report.best_rules, g, "mvv", test) == it.accuracy

    def test_empty_table_rejected(self):
        with pytest.raises(DataError):
            empty = DecisionTable(specs=jeffrey_table().specs, rows=())
            close_open(empty, "mvv", PipelineConfig())

    def test_non_decision_rejected(self):
        with pytest.raises(UsageError):
            close_open(jeffrey_table(), "cb", PipelineConfig())


class TestGranulateObservation:
    DISC = Discretizer(name="mvv", scale="log10", centers=(1e-13, 1e-15, 1e-21),
                       cuts=(1e-14, 1e-18))

    def test_monitored_rate_clamps_high(self):
        """The recorded slide rate (about 1500 m/month in m/s) tops every
        simulated velocity and lands in the highest band."""
        assert JEFFREY_OBSERVED_RATE_MS == pytest.approx(5.787e-4, rel=1e-3)
        assert granulate_observation(self.DISC, JEFFREY_OBSERVED_RATE_MS) == 1

    def test_boundary_goes_down(self):
        assert granulate_observation(self.DISC, 1e-14) == 2

    def test_smallest_value_clamps_low(self):
        assert granulate_observation(self.DISC, 1e-30) == 3

    def test_nonfinite_rejected(self):
        with pytest.raises(UsageError):
            granulate_observation(self.DISC, float("nan"))


class TestBackAnalyze:
    def test_golden_rule_set_bundles(self):
        """The four published-style rules observed at the top velocity band
        produce exactly four condition bundles."""
        from pathlib import Path

        text = (Path(__file__).parent / "data" / "jeffrey_rules_golden.txt").read_text()
        rs = parse_rules(text)
        est = back_analyze(rs, ("mvv", 1))
        assert not est.no_match
        got = [
            tuple((iv.attribute, iv.lo, iv.hi) for iv in bundle) for bundle in est.bundles
        ]
        assert got == [
            (("cb", None, 220000.0),),
            (("phib", None, 25.035),),
            (("csz", None, 999.79),),
            (("phisz", None, 5.0354), ("tb", None, 42844.0)),
        ]

    def test_no_match_flag(self):
        from pathlib import Path

        text = (Path(__file__).parent / "data" / "jeffrey_rules_golden.txt").read_text()
        rs = parse_rules(text)
        est = back_analyze(rs, ("mvv", 3))
        assert est.no_match and est.bundles == ()

    def test_single_rule_single_bundle(self, corpus_report):
        rules = corpus_report.best_rules
        rule = rules.rules[0]
        one = RuleSet(rules=(rule,), constraints=rules.constraints)
        est = back_analyze(one, (rule.decision.attribute, rule.decision.granule))
        assert len(est.bundles) == 1
        assert len(est.bundles[0]) == rule.length

    def test_empty_rule_set_rejected(self):
        with pytest.raises(UsageError):
            back_analyze(RuleSet(rules=(), constraints=RuleConstraints()), ("mvv", 1))

    def test_core_flags_with_table(self, corpus_report):
        est = back_analyze(corpus_report.best_rules, ("mvv", 1), corpus_report.granular)
        assert est.sensitivity, "expected a ranking over the condition attributes"
        core_flagged = [a for a, in_core, _ in est.sensitivity if in_core]
        ranked_names = [a for a, _, _ in est.sensitivity]
        # Core attributes come first in the ranking.
        assert ranked_names[: len(core_flagged)] == core_flagged


class TestReportJson:
    def test_roundtrip(self, corpus_report):
        doc = json.loads(report_to_json(corpus_report))
        assert doc["decision"] == "mvv"
        assert len(doc["iterations"]) == corpus_report.total_iterations
        rs = report_rules_from_json(doc)
        assert rs.rules == corpus_report.best_rules.rules
        g = granular_from_json(doc)
        assert g.rows == corpus_report.granular.rows
        assert g.discretizers == corpus_report.granular.discretizers
        assert [s.role for s in g.specs] == [s.role for s in corpus_report.granular.specs]

    def test_estimate_json_shape(self, corpus_report):
        est = back_analyze(corpus_report.best_rules, ("mvv", 1), corpus_report.granular)
        doc = json.loads(estimate_to_json(est))
        assert set(doc) == {
            "decision",
            "observed_granule",
            "no_match",
            "bundles",
            "matched_rules",
            "sensitivity",
        }
        for bundle in doc["bundles"]:
            for iv in bundle:
                assert set(iv) == {"attribute", "lo", "hi"}


class TestIntervals:
    def test_contains(self):
        c = Condition("x", 1.0, 2.0)
        assert c.matches_raw(1.0) and c.matches_raw(2.0) and c.matches_raw(1.5)
        assert not c.matches_raw(0.9) and not c.matches_raw(2.1)
        assert Condition("x", None, 5.0).matches_raw(-1e30)
        assert Condition("x", 5.0, None).matches_raw(1e30)
