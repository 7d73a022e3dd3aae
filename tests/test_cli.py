"""Exit-code contract and output shape of the command-line interface."""

import abc
import contextlib
import copy
import gc
import importlib.resources
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
import typing
import warnings
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from somrough import cli, pipeline
from somrough._record import fields, from_json
from somrough.cli import (
    COMMANDS,
    CONFIG_KEYS,
    DEFAULTS,
    _direct_parse,
    build_parser,
    main,
    parse_config_file,
)
from somrough.corpus import JEFFREY_OBSERVED_RATE_MS, jeffrey_table
from somrough.errors import DataError, UsageError
from somrough.pipeline import SETTING_TYPES, PipelineConfig, granulate
from somrough.rules import Rule, RuleConstraints, render_rule
from somrough.surrogate import DEFAULT_RANGES
from somrough.table import Discretizer, load_schema, load_table
from test_golden import _slope_files, slope_table

DATA_DIR = importlib.resources.files("somrough.data")
CORPUS = str(DATA_DIR.joinpath("jeffrey_runs.csv"))
SCHEMA = str(DATA_DIR.joinpath("jeffrey_schema.json"))


def _run(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert _run("pipeline", "--data", CORPUS) == 1  # missing required flags

    def test_unreadable_input_is_2(self, tmp_path):
        code = _run(
            "discretize", "--data", str(tmp_path / "nope.csv"), "--schema", SCHEMA,
            "--out", str(tmp_path),
        )
        assert code == 2

    def test_bad_csv_is_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("cp,phip\n1,2\n")  # header does not match schema
        code = _run("discretize", "--data", str(bad), "--schema", SCHEMA,
                    "--out", str(tmp_path / "o"))
        assert code == 2

    def test_empty_table_is_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        header = open(CORPUS).readline()
        empty.write_text(header)
        code = _run("discretize", "--data", str(empty), "--schema", SCHEMA,
                    "--out", str(tmp_path / "o"))
        assert code == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ("pipeline", "--decision", "mvv", "--out"),
            ("discretize", "--out"),
            ("rules", "--decision", "mvv", "--out"),
            ("reducts", "--out"),
            ("surrogate", "--out"),
        ],
    )
    def test_negative_seed_is_1(self, tmp_path, capsys, extra):
        """Seeds feed the random stream, which takes non-negative ints only
        (a ValueError traceback before)."""
        inputs = () if extra[0] == "surrogate" else ("--data", CORPUS, "--schema", SCHEMA)
        code = _run(*extra, str(tmp_path / "o"), *inputs, "--seed", "-1")
        err = capsys.readouterr().err
        assert code == 1
        assert "seed must be >= 0" in err and "Traceback" not in err

    def test_overflowing_steepness_is_1(self, tmp_path, capsys):
        """A steepness whose proxy overflows for a sampled row with FS < 1
        names the steepness (an OverflowError traceback before). The low
        cohesion puts every FS below 1, the first at about 0.46."""
        ranges = tmp_path / "ranges.json"
        ranges.write_text(json.dumps({"cohesion": [2, 3]}))
        code = _run("surrogate", "--count", "3", "--steepness", "1e308",
                    "--ranges", str(ranges), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert "steepness 1e+308 overflows" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_underflowing_steepness_is_1(self, tmp_path, capsys):
        """A steepness whose proxy underflows to zero for a sampled row with
        FS > 1 names the steepness (a column of zeros and exit 0 before)."""
        ranges = tmp_path / "ranges.json"
        ranges.write_text(json.dumps({"cohesion": [80, 90]}))
        code = _run("surrogate", "--count", "20", "--steepness", "1e4",
                    "--ranges", str(ranges), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert "steepness 10000.0 underflows" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_count_too_large_for_memory_is_2(self, tmp_path, capsys):
        """A count that numpy refuses to allocate (8 PB per column) is a data
        error naming the count, and nothing is written (a MemoryError
        traceback and exit 1 before)."""
        code = _run("surrogate", "--count", str(10**15), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"data error: count {10**15} is too large for memory")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_cell_is_2(self, tmp_path, capsys, cell):
        lines = Path(CORPUS).read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = cell
        lines[3] = ",".join(cells)
        data = tmp_path / "runs.csv"
        data.write_text("\n".join(lines) + "\n")
        code = _run("pipeline", "--data", str(data), "--schema", SCHEMA,
                    "--decision", "mvv", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "row 2" in capsys.readouterr().err

    def test_empty_test_split_is_2(self, tmp_path):
        code = _run("pipeline", "--data", CORPUS, "--schema", SCHEMA, "--decision", "mvv",
                    "--el", "0.0", "--train_fraction", "1.0", "--out", str(tmp_path / "a"))
        assert code == 2
        one_row = tmp_path / "one.csv"
        one_row.write_text("\n".join(Path(CORPUS).read_text().splitlines()[:2]) + "\n")
        code = _run("pipeline", "--data", str(one_row), "--schema", SCHEMA,
                    "--decision", "mvv", "--el", "0.0", "--out", str(tmp_path / "b"))
        assert code == 2
        assert not (tmp_path / "a" / "report.json").exists()

    def test_el_not_met_is_3(self, tmp_path):
        code = _run("pipeline", "--data", CORPUS, "--schema", SCHEMA,
                    "--decision", "mvv", "--out", str(tmp_path))
        assert code == 3
        assert (tmp_path / "report.json").exists()  # best-so-far still written
        assert (tmp_path / "rules.txt").exists()

    def test_el_zero_met_is_0(self, tmp_path):
        code = _run("pipeline", "--data", CORPUS, "--schema", SCHEMA,
                    "--decision", "mvv", "--el", "0.0", "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["el_met"] is True
        assert len(doc["iterations"]) == 1


def _binary_file(tmp_path):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00\x80cp,phip\n\xc3(\n")
    return str(path)


def _schema_file(tmp_path, records):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(records))
    return str(path)


def _corpus_schema_with(tmp_path, key, value):
    records = json.loads(Path(SCHEMA).read_text())
    records[0][key] = value
    return _schema_file(tmp_path, records)


def _report_with(tmp_path, doc, where, value):
    """A copy of a report with the value at one key path replaced."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _discretize(tmp_path, data=CORPUS, schema=SCHEMA):
    return ["discretize", "--data", data, "--schema", schema, "--out", str(tmp_path / "o")]


def _backanalyze(report):
    return ["backanalyze", "--report", report, "--observe", "5.787e-4"]


def _repeated_column(tmp_path):
    """The corpus with ``cp`` repeated as a last column, all 999."""
    lines = Path(CORPUS).read_text().splitlines()
    path = tmp_path / "runs.csv"
    path.write_text("".join(
        ln + (",cp" if i == 0 else ",999") + "\n" for i, ln in enumerate(lines)
    ))
    return str(path)


def _rule_with(tmp_path, doc, where, value):
    """A report whose first best rule has ``value`` at the key path ``where``."""
    return _backanalyze(_report_with(tmp_path, doc, ("best", "rules", 0) + where, value))


def _one_decision_report(tmp_path, doc, decision):
    """A copy of a report without the ``tmd`` column, so that ``mvv`` is its
    table's only decision attribute, naming ``decision`` as the decision."""
    doc = copy.deepcopy(doc)
    g = doc["granular"]
    j = g["attributes"].index("tmd")
    for cells in (g["attributes"], g["roles"], *g["rows"]):
        del cells[j]
    del doc["discretizers"]["tmd"]
    return _report_with(tmp_path, doc, ("decision",), decision)


def _overflow_column(tmp_path):
    """discretize on a log10 column whose centers near the largest float
    overflow in raw units at G = 3, seed 0."""
    data = tmp_path / "runs.csv"
    data.write_text("k,d\n" + "".join(
        f"{k!r},{d}\n" for d, k in enumerate([1.7976931348623157e308] * 3 + [1e300, 1e-300])
    ))
    schema = _schema_file(tmp_path, [
        {"name": "k", "role": "condition", "scale": "log10"}, {"name": "d", "role": "decision"}
    ])
    return _discretize(tmp_path, data=str(data), schema=schema) + ["--granules", "3", "--seed", "0"]


def _surrogate_ranges(tmp_path, ranges, text=None):
    path = tmp_path / "ranges.json"
    path.write_text(json.dumps(ranges) if text is None else text)
    return ["surrogate", "--count", "5", "--ranges", str(path), "--out", str(tmp_path / "o")]


def _text_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _pipeline(tmp_path, schema):
    return ["pipeline", "--data", CORPUS, "--schema", schema, "--decision", "mvv",
            "--out", str(tmp_path / "o")]


# JSON that json.loads cannot decode: nesting past the recursion limit (Python
# 3.13 decodes it, into no report, schema or ranges object), and an integer
# past the int-to-str digit limit.
DEEP_JSON = "[" * 2000 + "]" * 2000
LONG_INT_JSON = "[" + "9" * 5000 + "]"


def _rule0(doc):
    return doc["best"]["rules"][0]


def _label_1(doc, attr):
    """The condition "label 1" on ``attr``: its quantizer's first cut is the bound."""
    return {"attribute": attr, "lo": doc["discretizers"][attr]["cuts"][0], "hi": None,
            "labels": [1]}


def _unused(doc):
    """The condition attributes the first rule does not use."""
    used = {c["attribute"] for c in _rule0(doc)["conditions"]}
    g = doc["granular"]
    return [a for a, r in zip(g["attributes"], g["roles"]) if r == "condition" and a not in used]


def _edited(tmp_path, doc, edit, **settings):
    """A copy of a report changed by ``edit``, with ``settings`` in its
    config and ``best.rules_text`` rendered from the edited rules where
    they build and render (else the old text stays)."""
    doc = copy.deepcopy(doc)
    edit(doc)
    doc["config"].update(settings)
    with contextlib.suppress(UsageError):
        rules = [from_json(Rule, r) for r in doc["best"]["rules"]]
        doc["best"]["rules_text"] = [render_rule(r, i) for i, r in enumerate(rules, start=1)]
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _exact_bands(doc):
    """An "exactly" band on every rule, the band kind of exact semantics."""
    for rule in doc["best"]["rules"]:
        rule["decision"]["kind"] = "exactly"


# Edits of the corpus report (G = 3, cumulative, max_rules 5, max_length 2,
# min_strength 0.6, one rule of one condition) whose rules no run of its
# config could induce, each with the settings, if any, that admit it.
UNINDUCIBLE = {
    "band-at-most-3": (lambda doc: _rule0(doc)["decision"].update(kind="at_most", granule=3), {}),
    "band-at-least-1": (lambda doc: _rule0(doc)["decision"].update(kind="at_least", granule=1), {}),
    "band-exactly-2": (lambda doc: _rule0(doc)["decision"].update(kind="exactly", granule=2), {}),
    "semantics-exact": (lambda doc: doc["config"].update(semantics="exact"), {}),
    "condition-on-every-granule": (
        lambda doc: _rule0(doc)["conditions"][0].update(lo=None, hi=None, labels=[1, 2, 3]), {}
    ),
    "three-conditions": (
        lambda doc: _rule0(doc)["conditions"].extend(_label_1(doc, a) for a in _unused(doc)[:2]),
        {"max_length": 3},
    ),
    # The first rule (at most 2, support 6, strength 1.0) has 8 of the 12
    # objects in its band, and a training split of n of them scores a rule
    # support / n with support <= n <= 8: strength 0.1 needs n = 60.
    "strength-0.1": (lambda doc: _rule0(doc).update(strength=0.1), {}),
    "strength-0.7": (lambda doc: _rule0(doc).update(strength=0.7), {}),
    "support-99": (lambda doc: _rule0(doc).update(support=99), {}),
    "support-3-strength-0.375": (
        lambda doc: _rule0(doc).update(support=3, strength=0.375), {"min_strength": 0.3}
    ),
    "six-rules": (lambda doc: doc["best"].update(rules=[_rule0(doc)] * 6), {"max_rules": 6}),
}


# Each case builds the argv of one call on a bad input file.
BAD_INPUTS = {
    "binary-data": lambda tmp, _: _discretize(tmp, data=_binary_file(tmp)),
    "binary-schema": lambda tmp, _: _discretize(tmp, schema=_binary_file(tmp)),
    "binary-config": lambda tmp, _: _discretize(tmp) + ["--config", _binary_file(tmp)],
    "schema-of-numbers": lambda tmp, _: _discretize(tmp, schema=_schema_file(tmp, [1])),
    "schema-of-strings": lambda tmp, _: _discretize(tmp, schema=_schema_file(tmp, ["name"])),
    "schema-of-key-strings": lambda tmp, _: _discretize(
        tmp, schema=_schema_file(tmp, ["name,role"])
    ),
    "schema-list-name": lambda tmp, _: _discretize(
        tmp, schema=_corpus_schema_with(tmp, "name", ["cp"])
    ),
    "schema-bad-role": lambda tmp, _: _discretize(
        tmp, schema=_corpus_schema_with(tmp, "role", "bogus")
    ),
    "schema-scale-ln": lambda tmp, _: _discretize(
        tmp, schema=_corpus_schema_with(tmp, "scale", "ln")
    ),
    "schema-object": lambda tmp, _: _discretize(
        tmp, schema=_schema_file(tmp, {"name": "cp", "role": "condition"})
    ),
    "schema-no-condition": lambda tmp, _: _discretize(
        tmp, schema=_schema_file(tmp, [{"name": "mvv", "role": "decision"}])
    ),
    "data-empty": lambda tmp, _: _discretize(tmp, data=_text_file(tmp, "runs.csv", "")),
    "report-centers-not-decreasing": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("discretizers", "mvv", "centers"), [1.0, 2.0, 3.0])
    ),
    "report-unknown-decision-kind": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("best", "rules", 0, "decision", "kind"), "sometimes")
    ),
    "report-unknown-role": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("granular", "roles", 0), "bogus")
    ),
    "report-list-decision": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("decision",), ["mvv"])
    ),
    "report-decision-condition": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("decision",), "cb")
    ),
    # A one-decision report names its decision: no default stands in for it.
    "report-one-decision-null": lambda tmp, doc: _backanalyze(
        _one_decision_report(tmp, doc, None)
    ),
    "report-one-decision-number": lambda tmp, doc: _backanalyze(
        _one_decision_report(tmp, doc, 5)
    ),
    "report-one-decision-condition": lambda tmp, doc: _backanalyze(
        _one_decision_report(tmp, doc, "cb")
    ),
    "report-label-zero": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("granular", "rows", 0, 0), 0)
    ),
    "report-label-float": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("granular", "rows", 0, 0), 1.5)
    ),
    "report-label-string": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("granular", "rows", 0, 0), "1")
    ),
    "report-label-above-granules": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("granular", "rows", 0, 0), 4)
    ),
    "report-null-attribute": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("granular", "attributes", 0), None)
    ),
    "report-list-attribute": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("granular", "attributes", 0), ["cp"])
    ),
    "report-discretizers-list": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("discretizers",), [1, 2])
    ),
    "report-string-centers": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("discretizers", "mvv", "centers"), ["c", "b", "a"])
    ),
    "report-string-cuts": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("discretizers", "mvv", "cuts"), ["b", "a"])
    ),
    "report-granule-float": lambda tmp, doc: _rule_with(
        tmp, doc, ("decision", "granule"), 1.5
    ),
    "report-granule-bool": lambda tmp, doc: _rule_with(tmp, doc, ("decision", "granule"), True),
    "report-rule-decision-list": lambda tmp, doc: _rule_with(
        tmp, doc, ("decision", "attribute"), ["mvv"]
    ),
    "report-labels-empty": lambda tmp, doc: _rule_with(
        tmp, doc, ("conditions", 0, "labels"), []
    ),
    "report-labels-float": lambda tmp, doc: _rule_with(
        tmp, doc, ("conditions", 0, "labels"), [1.5]
    ),
    "report-strength-string": lambda tmp, doc: _rule_with(tmp, doc, ("strength",), "s"),
    "report-strength-above-1": lambda tmp, doc: _rule_with(tmp, doc, ("strength",), 7),
    "report-support-negative": lambda tmp, doc: _rule_with(tmp, doc, ("support",), -3),
    "report-support-null": lambda tmp, doc: _rule_with(tmp, doc, ("support",), None),
    "report-unknown-scale": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("discretizers", "mvv", "scale"), "weird")
    ),
    "report-quantizer-of-other-attribute": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("discretizers", "mvv", "name"), "cb")
    ),
    "report-extra-role": lambda tmp, doc: _backanalyze(_report_with(
        tmp, doc, ("granular", "roles"), doc["granular"]["roles"] + ["condition"]
    )),
    "report-missing-role": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("granular", "roles"), doc["granular"]["roles"][:-1])
    ),
    "report-quantizer-of-missing-attribute": lambda tmp, doc: _backanalyze(_report_with(
        tmp, doc, ("discretizers", "zzz"), dict(doc["discretizers"]["mvv"], name="zzz")
    )),
    "report-center-beyond-float-range": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("discretizers", "cb", "centers"), [10**400, 1.0, 0.5])
    ),
    "report-cut-outside-centers": lambda tmp, doc: _backanalyze(_report_with(
        tmp, doc, ("discretizers", "mvv", "cuts", 0), doc["discretizers"]["mvv"]["centers"][0] + 1
    )),
    # Config values that no pipeline run accepts.
    "report-seed-string": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("config", "seed"), "x")
    ),
    "report-train-fraction-above-1": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("config", "train_fraction"), 1.5)
    ),
    "report-train-fraction-negative": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("config", "train_fraction"), -0.2)
    ),
    "report-train-fraction-zero": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("config", "train_fraction"), 0)
    ),
    "report-seed-negative": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("config", "seed"), -1)
    ),
    # The flat config is read strictly: no key takes its default, and each
    # keeps its type.
    "report-config-missing-max_rules": lambda tmp, doc: _backanalyze(
        _edited(tmp, doc, lambda d: d["config"].pop("max_rules"))
    ),
    "report-config-missing-runs": lambda tmp, doc: _backanalyze(
        _edited(tmp, doc, lambda d: d["config"].pop("runs"))
    ),
    "report-config-min_strength-str": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("config", "min_strength"), "0.6")
    ),
    # Every quantizer of a run has config.granules centers (3 here).
    "report-config-granules-2": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("config", "granules"), 2)
    ),
    "report-config-granules-5": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("config", "granules"), 5)
    ),
    "report-number-semantics": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("config", "semantics"), 5)
    ),
    # Rule records that read well alone but contradict the report's table.
    "report-condition-unknown-attribute": lambda tmp, doc: _rule_with(
        tmp, doc, ("conditions", 0, "attribute"), "zzz"
    ),
    "report-condition-label-above-granules": lambda tmp, doc: _rule_with(
        tmp, doc, ("conditions", 0, "labels"), [7]
    ),
    "report-condition-bound-bool": lambda tmp, doc: _rule_with(
        tmp, doc, ("conditions", 0, "hi"), True
    ),
    "report-granule-above-granules": lambda tmp, doc: _rule_with(
        tmp, doc, ("decision", "granule"), 9
    ),
    "report-rule-decision-condition": lambda tmp, doc: _rule_with(
        tmp, doc, ("decision", "attribute"), "cp"
    ),
    "report-uncovered-past-last-row": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("best", "uncovered"), [12])
    ),
    "report-uncovered-negative": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("best", "uncovered"), [-1])
    ),
    "report-rules-exact-in-cumulative-run": lambda tmp, doc: _backanalyze(
        _edited(tmp, doc, _exact_bands)
    ),
    "report-condition-attribute-repeated": lambda tmp, doc: _backanalyze(_edited(
        tmp, doc, lambda d: _rule0(d)["conditions"].append(_rule0(d)["conditions"][0])
    )),
    "report-granule-zero": lambda tmp, doc: _rule_with(tmp, doc, ("decision", "granule"), 0),
    "report-condition-unbounded": lambda tmp, doc: _rule_with(
        tmp, doc, ("conditions", 0), {"attribute": "cb", "lo": None, "hi": None, "labels": None}
    ),
    "report-uncovered-string": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("best", "uncovered"), ["x"])
    ),
    "report-uncovered-not-a-list": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("best", "uncovered"), "12")
    ),
    # Lists of records given as another JSON type.
    "report-rules-string": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("best", "rules"), "rules")
    ),
    "report-rules-object": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("best", "rules"), {"a": 1})
    ),
    "report-conditions-object": lambda tmp, doc: _rule_with(
        tmp, doc, ("conditions",), {"attribute": "cb"}
    ),
    "report-conditions-string": lambda tmp, doc: _rule_with(tmp, doc, ("conditions",), "cb"),
    "report-decision-string": lambda tmp, doc: _rule_with(tmp, doc, ("decision",), "mvv"),
    "report-labels-object": lambda tmp, doc: _rule_with(
        tmp, doc, ("conditions", 0, "labels"), {"1": 1}
    ),
    # Empty values of another JSON type read as no rules or no rows.
    "report-rules-empty-object": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("best", "rules"), {})
    ),
    "report-rules-empty-string": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("best", "rules"), "")
    ),
    "report-rows-empty-object": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("granular", "rows"), {})
    ),
    # The rules must render to the report's own rule lines.
    "report-rules-empty-beside-text": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("best", "rules"), [])
    ),
    "report-rules-text-edited": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("best", "rules_text", 0), "Rule 1. x;")
    ),
    # Rules that fit the table but not the report's config.
    **{
        f"report-{name}": lambda tmp, doc, edit=edit: _backanalyze(_edited(tmp, doc, edit))
        for name, (edit, _) in UNINDUCIBLE.items()
    },
    "csv-repeated-column": lambda tmp, _: _discretize(tmp, data=_repeated_column(tmp)),
    "csv-log10-overflow": lambda tmp, _: _overflow_column(tmp),
    "ranges-list": lambda tmp, _: _surrogate_ranges(tmp, [1, 2]),
    "ranges-object-bounds": lambda tmp, _: _surrogate_ranges(tmp, {"cohesion": {"lo": 1}}),
    "report-nested-2000-deep": lambda tmp, _: _backanalyze(
        _text_file(tmp, "report.json", DEEP_JSON)
    ),
    "ranges-nested-2000-deep": lambda tmp, _: _surrogate_ranges(tmp, None, text=DEEP_JSON),
    "schema-nested-2000-deep": lambda tmp, _: _pipeline(
        tmp, _text_file(tmp, "schema.json", DEEP_JSON)
    ),
    "schema-5000-digit-int": lambda tmp, _: _pipeline(
        tmp, _text_file(tmp, "schema.json", LONG_INT_JSON)
    ),
}


@pytest.fixture(scope="module")
def corpus_report_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    _run("pipeline", "--data", CORPUS, "--schema", SCHEMA, "--decision", "mvv",
         "--out", str(out))
    doc = json.loads((out / "report.json").read_text())
    assert doc["best"]["rules"], "corrupting a rule needs a report with rules"
    return doc


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_file_is_2(case, tmp_path, capsys, corpus_report_doc):
    """Unreadable or malformed input files are data errors, never tracebacks,
    and write nothing to stdout (back analysis writes no estimate); every
    fault in a report is named as a malformed report file."""
    argv = BAD_INPUTS[case](tmp_path, corpus_report_doc)
    capsys.readouterr()
    assert _run(*argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("data error: ") and "Traceback" not in err
    if case.startswith("report-"):
        assert err.startswith("data error: malformed report file: ")
    assert out == ""


def test_one_decision_report_names_its_decision(tmp_path, capsys, corpus_report_doc):
    """The report the report-one-decision cases edit is read as it stands;
    with a null, a number or a condition as its decision it is malformed,
    though its table has one decision attribute that a default could name."""
    assert _run(*_backanalyze(_one_decision_report(tmp_path, corpus_report_doc, "mvv"))) == 0
    for decision in (None, 5, "cb"):
        capsys.readouterr()
        assert _run(*_backanalyze(_one_decision_report(tmp_path, corpus_report_doc, decision))) == 2
        assert capsys.readouterr().err.startswith("data error: malformed report file: ")


def test_keys_of_older_reports_are_ignored(tmp_path, corpus_report_doc):
    """Older reports also wrote ``notes`` and ``granular.object_ids``; no
    reader uses them, so a report with them, even with its ids reversed,
    gives the estimate of the report without them."""
    older = copy.deepcopy(corpus_report_doc)
    older["notes"] = ["budget loop", "quantizers"]
    older["granular"]["object_ids"] = list(range(len(older["granular"]["rows"])))[::-1]
    estimates = []
    for i, doc in enumerate((corpus_report_doc, older)):
        out = tmp_path / f"estimate{i}.json"
        assert _run(*_backanalyze(_text_file(tmp_path, f"r{i}.json", json.dumps(doc))),
                    "--out", str(out)) == 0
        estimates.append(out.read_bytes())
    assert estimates[0] == estimates[1]


@pytest.mark.parametrize("granules", [2, 5])
def test_config_granules_mismatch_is_malformed(granules, tmp_path, capsys, corpus_report_doc):
    """A report whose ``config.granules`` is not the granule count of its
    quantizers is malformed, though the config alone reads."""
    capsys.readouterr()
    assert _run(*BAD_INPUTS[f"report-config-granules-{granules}"](tmp_path, corpus_report_doc)) == 2
    assert capsys.readouterr().err == (
        "data error: malformed report file: "
        "a quantizer's granule count differs from config.granules\n"
    )


@pytest.mark.parametrize("case", [
    "report-rules-empty-object", "report-rules-empty-string", "report-rows-empty-object",
    "report-rules-empty-beside-text", "report-rules-text-edited",
])
def test_empty_or_unrendered_rules_are_malformed(case, tmp_path, capsys, corpus_report_doc):
    """No rules or no rows given as an empty object or string, and rules
    that do not render to ``best.rules_text``, are malformed reports (exit
    2), not an empty rule set (exit 1)."""
    capsys.readouterr()
    assert _run(*BAD_INPUTS[case](tmp_path, corpus_report_doc)) == 2
    assert capsys.readouterr().err.startswith("data error: malformed report file: ")


@pytest.mark.parametrize("case, message", [
    ("report-rules-exact-in-cumulative-run",
     "rule decision (mvv exactly 2) is not a cumulative band of 'mvv'"),
    ("report-uncovered-past-last-row", "uncovered objects must be rows of the table"),
    ("report-uncovered-negative", "uncovered objects must be rows of the table"),
    ("report-condition-attribute-repeated", "rule conditions must use distinct attributes"),
    ("report-granule-zero", "decision granule must be >= 1, got 0"),
    ("report-condition-unbounded", "condition needs a bound or a label set"),
])
def test_rule_faults_are_named(case, message, tmp_path, capsys, corpus_report_doc):
    """A report whose rules or uncovered objects no run could write is
    malformed, with the record's own message."""
    capsys.readouterr()
    assert _run(*BAD_INPUTS[case](tmp_path, corpus_report_doc)) == 2
    assert capsys.readouterr().err == f"data error: malformed report file: {message}\n"


def test_report_table_faults_are_malformed_reports(tmp_path, capsys, corpus_report_doc):
    """A fault that the granulated table finds in a report's rows carries
    the prefix every other report fault has (for a missing quantizer see
    ``test_report_without_a_quantizer_is_2``); a report that cannot be read
    stays a read error, not a malformed file."""
    capsys.readouterr()
    assert _run(*BAD_INPUTS["report-label-zero"](tmp_path, corpus_report_doc)) == 2
    assert capsys.readouterr().err == (
        "data error: malformed report file: "
        "row 0, attribute 'cp': granule label must be a positive int\n"
    )
    missing = str(tmp_path / "no-such-report.json")
    assert _run(*_backanalyze(missing)) == 2
    assert capsys.readouterr().err.startswith(f"data error: cannot read {missing}: ")


@pytest.mark.parametrize("case", sorted(UNINDUCIBLE))
def test_uninducible_rules_are_malformed(case, tmp_path, capsys, corpus_report_doc):
    """Rules that no run of the report's own config could induce make a
    malformed report, and no estimate is written; where other settings
    admit the edited rules, the report with those settings is read."""
    edit, admitting = UNINDUCIBLE[case]
    out = tmp_path / "estimate.json"
    capsys.readouterr()
    assert _run(*_backanalyze(_edited(tmp_path, corpus_report_doc, edit)), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: malformed report file: ") and "rules_text" not in err
    assert not out.exists()
    if admitting:
        report = _edited(tmp_path, corpus_report_doc, edit, **admitting)
        assert _run(*_backanalyze(report), "--out", str(out)) == 0


def test_report_without_rules_is_1(tmp_path, capsys, corpus_report_doc):
    """A report with no rules fits any config, and back analysis refuses
    its empty rule set as a usage error."""
    report = _edited(tmp_path, corpus_report_doc, lambda doc: doc["best"].update(rules=[]))
    capsys.readouterr()
    assert _run(*_backanalyze(report)) == 1
    assert capsys.readouterr().err == "usage error: cannot back-analyze with an empty rule set\n"


@pytest.mark.parametrize("drop", ["unused-condition", "decision", "all"])
def test_report_without_a_quantizer_is_2(drop, tmp_path, capsys, corpus_report_doc):
    """A report whose quantizers leave out an attribute of its table is a
    malformed report file naming each such attribute, whether or not a rule
    uses it; no estimate is written."""
    doc = copy.deepcopy(corpus_report_doc)
    g = doc["granular"]
    used = {c["attribute"] for r in doc["best"]["rules"] for c in r["conditions"]}
    unused = [a for a, r in zip(g["attributes"], g["roles"]) if r == "condition" and a not in used]
    assert unused, "the corpus report's rules use every condition attribute"
    if drop == "all":
        del doc["discretizers"]
        named = g["attributes"]
    else:
        named = [unused[0] if drop == "unused-condition" else doc["decision"]]
        del doc["discretizers"][named[0]]
    report, out = tmp_path / "report.json", tmp_path / "estimate.json"
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _run(*_backanalyze(str(report)), "--out", str(out)) == 2
    assert _run(*_backanalyze(str(report))) == 2
    captured = capsys.readouterr()
    message = (
        "data error: malformed report file: "
        f"no quantizer for attribute(s) {', '.join(map(repr, named))}\n"
    )
    assert captured.err == message * 2
    assert captured.out == "" and not out.exists()


# The argv of each command that writes to --out, short of --out; the
# report path feeds backanalyze.
_TABLE = ["--data", CORPUS, "--schema", SCHEMA]
OUT_COMMANDS = {
    "discretize": lambda report: ["discretize", *_TABLE],
    "rules": lambda report: ["rules", *_TABLE, "--decision", "mvv"],
    "pipeline": lambda report: ["pipeline", *_TABLE, "--decision", "mvv"],
    "backanalyze": _backanalyze,
    "surrogate": lambda report: ["surrogate", "--count", "5"],
    "reducts": lambda report: ["reducts", *_TABLE],
}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_unwritable_output_is_2(command, tmp_path, capsys, corpus_report_doc):
    """An output path under a regular file cannot be written: a data error
    naming the path, never a traceback."""
    report = tmp_path / "report.json"
    report.write_text(json.dumps(corpus_report_doc))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out.json")
    capsys.readouterr()
    assert _run(*OUT_COMMANDS[command](str(report)), "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write {out}") and "Traceback" not in err


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_output_under_missing_folders_is_written(command, tmp_path, corpus_report_doc):
    """Folders on the way to an --out path that do not exist yet are made."""
    report = tmp_path / "report.json"
    report.write_text(json.dumps(corpus_report_doc))
    out = tmp_path / "a" / "b" / "out"
    assert _run(*OUT_COMMANDS[command](str(report)), "--out", str(out)) in (0, 3)
    assert out.is_file() or any(out.iterdir())


def test_bad_utf8_byte_is_reported_at_its_offset(tmp_path, capsys):
    data = Path(CORPUS).read_bytes() + b"#" * 10_000
    bad = tmp_path / "runs.csv"
    bad.write_bytes(data + b"\xff\n")
    assert _run("reducts", "--data", str(bad), "--schema", SCHEMA) == 2
    assert f"can't decode byte 0xff in position {len(data)}:" in capsys.readouterr().err


def _one_column(tmp_path, scale, ks):
    """The ``discretize`` argv on a column ``k`` of that scale beside a
    decision ``d = 0..5``."""
    schema = [{"name": "k", "role": "condition", "scale": scale},
              {"name": "d", "role": "decision"}]
    data = tmp_path / "runs.csv"
    data.write_text("k,d\n" + "".join(f"{k!r},{d}\n" for d, k in enumerate(ks)))
    return _discretize(tmp_path, str(data), _schema_file(tmp_path, schema))


# A log10 column whose box-seeded starts meet in raw units, and a linear
# column of floats one ulp apart that no start separates.
LOG10_MOSTLY_ONES = [1.0, 1.0, 1.0, 30.0, 10000.0, 300.0]
ADJACENT_FLOATS = [1.0000000000000004e16, 1.0000000000000002e16, 1.0000000000000002e16,
                   1.0000000000000006e16, 1.0000000000000004e16, 1e16]


class TestDiscretize:
    def test_outputs_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run("discretize", "--data", CORPUS, "--schema", SCHEMA, "--out", str(a)) == 0
        assert _run("discretize", "--data", CORPUS, "--schema", SCHEMA, "--out", str(b)) == 0
        assert (a / "discretizers.json").read_bytes() == (b / "discretizers.json").read_bytes()
        assert (a / "granulated.csv").read_bytes() == (b / "granulated.csv").read_bytes()
        doc = json.loads((a / "discretizers.json").read_text())
        assert len(doc) == 10 and list(doc) == sorted(doc)
        gran = (a / "granulated.csv").read_text().splitlines()
        assert len(gran) == 13  # header + 12 rows

    @staticmethod
    def _quantizers(tmp_path, data, schema, decision, *flags):
        """The object ``discretize`` writes, after checking that it is the
        ``discretizers`` object of the report ``pipeline`` writes with the
        same flags, and the quantizers it reads back to."""
        d, p = tmp_path / "d", tmp_path / "p"
        inputs = ["--data", data, "--schema", schema]
        assert _run("discretize", *inputs, "--out", str(d), *flags) == 0
        code = _run("pipeline", *inputs, "--decision", decision, "--runs", "1",
                    "--out", str(p), *flags)
        assert code in (0, 3)
        doc = json.loads((d / "discretizers.json").read_text())
        assert doc == json.loads((p / "report.json").read_text())["discretizers"]
        return {name: from_json(Discretizer, q) for name, q in doc.items()}

    @pytest.mark.parametrize("granules", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_quantizers_are_the_reports(self, tmp_path, granules, seed):
        """``discretize`` writes the quantizers of ``report.json`` for the
        same seed and granule count, and they read back to the fitted ones
        exactly."""
        flags = ("--granules", str(granules), "--seed", str(seed))
        read = self._quantizers(tmp_path, CORPUS, SCHEMA, "mvv", *flags)
        assert read == granulate(jeffrey_table(), granules, seed).discretizers

    def test_forked_fits_are_the_reports(self, tmp_path):
        """A 500-row table fits its quantizers in two processes where a
        second CPU is free; the written quantizers are still the report's
        and the fitted ones."""
        assert _run("surrogate", "--count", "500", "--seed", "7", "--out", str(tmp_path)) == 0
        data, schema = str(tmp_path / "runs.csv"), str(tmp_path / "schema.json")
        read = self._quantizers(tmp_path, data, schema, "displacement", "--granules", "2")
        table = load_table(Path(data).read_text(), load_schema(Path(schema).read_text()))
        assert read == granulate(table, 2, 0).discretizers

    def test_log_column_of_mostly_ones_fits(self, tmp_path):
        """A start whose centers meet in raw units but not in log10 units
        fails like an empty granule, never as a usage error, and a later
        start gives each distinct value its own granule."""
        argv = _one_column(tmp_path, "log10", LOG10_MOSTLY_ONES)
        assert _run(*argv, "--granules", "4", "--seed", "0") == 0
        rows = (tmp_path / "o" / "granulated.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == [4, 4, 4, 3, 1, 2]

    def test_adjacent_float_column_is_a_data_error(self, tmp_path, capsys):
        """Four distinct floats, each one ulp above the next: every start's
        cuts collapse in raw units, so no start separates the column."""
        argv = _one_column(tmp_path, "linear", ADJACENT_FLOATS)
        capsys.readouterr()
        assert _run(*argv, "--granules", "3", "--seed", "137") == 2
        assert capsys.readouterr().err == (
            "data error: column 'k': could not separate 3 quantizer centers\n"
        )


# name: (column, row to edit or None for every row, new cell, message)
FIT_FAILURES = {
    "constant-mvv": ("mvv", None, "1e-13", "1 distinct values, fewer than 3 granules"),
    "missing-mvv": ("mvv", None, "?", "no present values to discretize"),
    "tmd-zero": ("tmd", 4, "0", "log10 scale requires strictly positive values, got 0.0"),
}


@pytest.mark.parametrize("case", sorted(FIT_FAILURES))
def test_fit_errors_name_their_column(case, tmp_path, capsys):
    """A quantizer fit that fails is a data error naming its column."""
    column, row, cell, message = FIT_FAILURES[case]
    lines = Path(CORPUS).read_text().splitlines()
    j = lines[0].split(",").index(column)
    for i in range(1, len(lines)):
        if row is None or i == row + 1:
            cells = lines[i].split(",")
            cells[j] = cell
            lines[i] = ",".join(cells)
    data = _text_file(tmp_path, "runs.csv", "\n".join(lines) + "\n")
    capsys.readouterr()
    assert _run("pipeline", "--data", data, "--schema", SCHEMA, "--decision", "mvv",
                "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"data error: column {column!r}: {message}\n"


class TestPipelineReport:
    def test_report_schema(self, tmp_path):
        _run("pipeline", "--data", CORPUS, "--schema", SCHEMA, "--decision", "mvv",
             "--out", str(tmp_path))
        doc = json.loads((tmp_path / "report.json").read_text())
        assert set(doc) == {
            "config", "decision", "el_met", "stop_reason",
            "iterations", "best", "discretizers", "granular",
        }
        assert set(doc["best"]) == {
            "accuracy", "run", "split_seed", "budget", "uncovered", "rules", "rules_text",
        }
        assert set(doc["granular"]) == {"attributes", "roles", "rows"}
        assert doc["config"]["el"] == 0.80
        assert doc["config"]["max_rules"] == 5
        for it in doc["iterations"]:
            assert set(it) == {
                "run", "index", "split_seed", "budget", "n_rules", "accuracy", "accepted",
            }

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("el = 0.0\ngranules = 3\nseed = 5\n")
        code = _run("pipeline", "--data", CORPUS, "--schema", SCHEMA, "--decision", "mvv",
                    "--config", str(cfg), "--out", str(tmp_path / "a"))
        assert code == 0
        doc = json.loads((tmp_path / "a" / "report.json").read_text())
        assert doc["config"]["seed"] == 5
        # flag beats config
        code = _run("pipeline", "--data", CORPUS, "--schema", SCHEMA, "--decision", "mvv",
                    "--config", str(cfg), "--seed", "9", "--out", str(tmp_path / "b"))
        assert code == 0
        doc = json.loads((tmp_path / "b" / "report.json").read_text())
        assert doc["config"]["seed"] == 9


def test_byte_order_mark_is_dropped(tmp_path):
    """The corpus CSV, its schema, a config file and a report, each saved
    with a UTF-8 byte-order mark, give the output bytes of their plain
    copies (a data error on the mark, before)."""
    plain = [CORPUS, SCHEMA, _text_file(tmp_path, "run.conf", "seed = 2\n")]
    marked = []
    for path in plain:
        marked.append(tmp_path / f"bom-{Path(path).name}")
        marked[-1].write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    runs = []
    for i, (data, schema, config) in enumerate((plain, marked)):
        out = tmp_path / f"o{i}"
        assert _run("pipeline", "--data", str(data), "--schema", str(schema), "--config",
                    str(config), "--decision", "mvv", "--out", str(out)) == 3
        report = out / "report.json"
        if i:
            report.write_bytes(b"\xef\xbb\xbf" + report.read_bytes())
        assert _run(*_backanalyze(str(report)), "--out", str(out / "estimate.json")) == 0
        runs.append({f.name: f.read_bytes().removeprefix(b"\xef\xbb\xbf")
                     for f in out.iterdir()})
    assert runs[0] == runs[1]


class TestBackanalyze:
    @pytest.fixture()
    def report_path(self, tmp_path):
        _run("pipeline", "--data", CORPUS, "--schema", SCHEMA, "--decision", "mvv",
             "--out", str(tmp_path))
        return tmp_path / "report.json"

    def test_estimate_written(self, report_path, tmp_path):
        out = tmp_path / "estimate.json"
        code = _run("backanalyze", "--report", str(report_path),
                    "--observe", "5.787e-4", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["observed_granule"] == 1
        assert doc["bundles"]

    def test_no_match_still_exit_0(self, report_path, tmp_path):
        # Tiny velocity lands in the lowest band, which no rule covers.
        out = tmp_path / "estimate.json"
        code = _run("backanalyze", "--report", str(report_path),
                    "--observe", "1e-30", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["no_match"] is True

    @pytest.mark.parametrize("observed", ["0", "-0.0", "-5"])
    def test_nonpositive_observation_on_log10_is_1(self, report_path, tmp_path, capsys, observed):
        """``mvv`` is on a log10 scale, as its fit is: a value <= 0 is a
        usage error naming it (the lowest band, exit 0, before)."""
        out = tmp_path / "estimate.json"
        capsys.readouterr()
        assert _run("backanalyze", "--report", str(report_path), "--observe", observed,
                    "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"usage error: 'mvv' has a log10 scale: measured value {float(observed)!r} is not > 0\n"
        )
        assert not out.exists()

    def test_least_positive_observation_on_log10_reads(self, report_path):
        assert _run("backanalyze", "--report", str(report_path), "--observe", "5e-324") == 0

    def test_zero_observation_on_linear_decision_reads(self, tmp_path, capsys, corpus_report_doc):
        """With its quantizer on a linear scale, ``mvv`` takes 0: the lowest band."""
        where = ("discretizers", "mvv", "scale")
        report = _report_with(tmp_path, corpus_report_doc, where, "linear")
        capsys.readouterr()
        assert _run("backanalyze", "--report", report, "--observe", "0") == 0
        assert json.loads(capsys.readouterr().out)["observed_granule"] == 3

    def test_malformed_report_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"decision\": \"mvv\"}")
        assert _run("backanalyze", "--report", str(bad), "--observe", "1.0") == 2

    @pytest.mark.parametrize("key, value", [("max_rules", None), ("el", 2), ("semantics", "fuzzy")])
    def test_impossible_config_is_2(self, report_path, tmp_path, capsys, key, value):
        """A report's config must be a PipelineConfig some run could have
        had: a missing setting (None here) or one out of its range is
        malformed."""
        doc = json.loads(report_path.read_text())
        if value is None:
            del doc["config"][key]
        else:
            doc["config"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "estimate.json"
        capsys.readouterr()
        code = _run("backanalyze", "--report", str(bad), "--observe", "5.787e-4",
                    "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: malformed report file: ")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        pytest.param(key, value, id=f"{key}-{type(value).__name__}")
        for key, kind in SETTING_TYPES.items()
        for value in ("x", True, None, [1], {"a": 1}, 2.5, 3)
        if type(value) is not kind and not (kind is float and type(value) is int)
    ])
    def test_mistyped_config_is_2(self, tmp_path, capsys, corpus_report_doc, key, value):
        """Each report config value must have its setting's type, as every
        pipeline run writes it: a bool is never a number, and a float is
        not an int."""
        bad = _report_with(tmp_path, corpus_report_doc, ("config", key), value)
        out = tmp_path / "estimate.json"
        capsys.readouterr()
        assert _run(*_backanalyze(bad), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("data error: malformed report file: ")
        assert not out.exists()

    @pytest.mark.parametrize("bound", ["lo", "hi"])
    def test_condition_without_bound(self, tmp_path, corpus_report_doc, bound):
        """A rule condition that omits ``lo`` or ``hi`` reads it as None, so
        the report is well formed exactly when the quantizer gives that
        bound as None too (a KeyError, read as malformed, before). The
        corpus report's first condition has ``lo`` None and ``hi`` a cut."""
        for i, rule in enumerate(corpus_report_doc["best"]["rules"]):
            for j, cond in enumerate(rule["conditions"]):
                doc = copy.deepcopy(corpus_report_doc)
                del doc["best"]["rules"][i]["conditions"][j][bound]
                path = tmp_path / f"report{i}-{j}.json"
                path.write_text(json.dumps(doc))
                code = _run(*_backanalyze(str(path)), "--out", str(tmp_path / "estimate.json"))
                assert code == (0 if cond[bound] is None else 2)

    def test_int_for_float_config_is_0(self, tmp_path, corpus_report_doc):
        """An int passes where a float is declared: ``json`` writes an API
        caller's ``el=1`` as ``1``. Both this report and the unmodified one
        exit 0 with the same estimate."""
        doc = copy.deepcopy(corpus_report_doc)
        doc["config"]["el"] = 1
        estimates = []
        for i, report in enumerate((corpus_report_doc, doc)):
            path = tmp_path / f"report{i}.json"
            path.write_text(json.dumps(report))
            out = tmp_path / f"estimate{i}.json"
            assert _run(*_backanalyze(str(path)), "--out", str(out)) == 0
            estimates.append(out.read_bytes())
        assert estimates[0] == estimates[1]


class TestSurrogate:
    def test_generates_loadable_corpus(self, tmp_path):
        code = _run("surrogate", "--count", "25", "--seed", "4", "--out", str(tmp_path))
        assert code == 0
        from somrough.table import load_schema, load_table

        schema = load_schema((tmp_path / "schema.json").read_text())
        table = load_table((tmp_path / "runs.csv").read_text(), schema)
        assert len(table) == 25

    def test_custom_ranges(self, tmp_path):
        ranges = tmp_path / "ranges.json"
        ranges.write_text(json.dumps({"cohesion": [10.0, 11.0]}))
        code = _run("surrogate", "--count", "10", "--ranges", str(ranges),
                    "--out", str(tmp_path))
        assert code == 0
        body = (tmp_path / "runs.csv").read_text().splitlines()[1:]
        for line in body:
            assert 10.0 <= float(line.split(",")[0]) <= 11.0

    @pytest.mark.parametrize("text", [
        '{"cohesion": [-1e308, 1e308]}',
        '{"cohesion": [-Infinity, 5]}',
        '{"friction": [1, 1e308]}',
    ])
    def test_overflowing_range_is_2(self, tmp_path, capsys, text):
        """A range whose bounds or (high - low) x count are not finite is a
        data error naming the parameter and the range, raised before any
        draw, so numpy warns of no overflow."""
        ranges = tmp_path / "ranges.json"
        ranges.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _run("surrogate", "--count", "5", "--ranges", str(ranges),
                        "--out", str(tmp_path / "o"))
        assert code == 2
        name, (lo, hi) = next(iter(json.loads(text).items()))
        assert f"range for {name} [{float(lo)!r}, {float(hi)!r}]" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "o").exists()

    def test_count_past_float_range_is_2(self, tmp_path, capsys):
        """A count that no float can hold is a data error naming the count,
        not an OverflowError from the range check."""
        count = "1" + "0" * 400
        code = _run("surrogate", "--count", count, "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"count {count} exceeds the float range" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_count_past_largest_size_is_2(self, tmp_path, capsys):
        """A count that fits a float but no table (above sys.maxsize) is a
        data error naming the count, not a ValueError from numpy."""
        count = str(10**20)
        code = _run("surrogate", "--count", count, "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"count {count} exceeds" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("entry", [
        "12", [1, 2, 3], [True, 5], [1], [None, 2], ["1", "2"], {"0": 1, "1": 2},
    ])
    def test_entry_not_a_pair_of_numbers_is_2(self, tmp_path, capsys, entry):
        """Each ranges entry is a JSON array of exactly two numbers; a
        string, a longer array or a bool was read as a range before."""
        ranges = tmp_path / "ranges.json"
        ranges.write_text(json.dumps({"cohesion": entry}))
        code = _run("surrogate", "--count", "5", "--ranges", str(ranges),
                    "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 2
        assert "range for 'cohesion' is not a [low, high] pair" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("steepness", ["nan", "inf"])
    def test_non_finite_steepness_is_1(self, tmp_path, capsys, steepness):
        code = _run("surrogate", "--count", "10", "--steepness", steepness,
                    "--out", str(tmp_path))
        assert code == 1
        assert "steepness" in capsys.readouterr().err
        assert not (tmp_path / "runs.csv").exists()

    def test_subnormal_weight_is_1(self, tmp_path, capsys):
        """A subnormal weight leaves a driving force above zero whose
        quotient overflows; the error names the forces, not the steepness
        (which no steepness could fix)."""
        ranges = tmp_path / "ranges.json"
        ranges.write_text(json.dumps({"weight": [5e-324, 1e-323]}))
        code = _run("surrogate", "--count", "5", "--ranges", str(ranges),
                    "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert "factor of safety overflows" in err and "over driving force 5e-324" in err
        assert "steepness" not in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_deterministic(self, tmp_path):
        _run("surrogate", "--count", "10", "--seed", "2", "--out", str(tmp_path / "a"))
        _run("surrogate", "--count", "10", "--seed", "2", "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "runs.csv").read_bytes() == (
            tmp_path / "b" / "runs.csv"
        ).read_bytes()


class TestReducts:
    def test_report_format(self, tmp_path):
        out = tmp_path / "reducts.txt"
        code = _run("reducts", "--data", CORPUS, "--schema", SCHEMA,
                    "--decision", "mvv", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[-1].startswith("CORE: ")
        assert len(lines) >= 2

    @pytest.mark.parametrize("n_cond, n_rows, seed, cell, fragment", [
        (22, 40, 5, lambda rng: f"{rng.uniform(1, 100):.6f}", "implicants"),
        (40, 400, 11, lambda rng: str(rng.randint(0, 50)), "implicants"),
        (60, 1000, 11, lambda rng: str(rng.randint(0, 50)), "compared cells"),
    ], ids=["22x40", "40x400", "60x1000"])
    def test_implicant_blowup_is_2(
        self, tmp_path, capsys, n_cond, n_rows, seed, cell, fragment
    ):
        """22 conditions over 40 random rows have over 10,000 reducts; the
        expansion stops at its bound with a data error instead of running on.
        40 conditions over 400 rows give over 50,000 distinct clauses, almost
        all minimal; absorbed inside the expansion, they reach the bound in
        seconds. 60 conditions over 1,000 rows would compare about 30 million
        cells to build the clauses; that bound stops them before the first."""
        rng = random.Random(seed)
        names = [f"c{i}" for i in range(n_cond)] + ["d"]
        schema = [{"name": n, "role": "condition"} for n in names[:-1]]
        schema.append({"name": "d", "role": "decision"})
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        rows = [",".join(cell(rng) for _ in names) for _ in range(n_rows)]
        (tmp_path / "runs.csv").write_text(",".join(names) + "\n" + "\n".join(rows) + "\n")
        t0 = time.monotonic()
        code = _run("reducts", "--data", str(tmp_path / "runs.csv"),
                    "--schema", str(tmp_path / "schema.json"))
        elapsed = time.monotonic() - t0
        assert code == 2
        err = capsys.readouterr().err
        assert fragment in err and "Traceback" not in err
        assert elapsed < 60.0, f"bounded expansion took {elapsed:.1f}s"


class TestRulesCommand:
    def test_writes_rule_file(self, tmp_path):
        code = _run("rules", "--data", CORPUS, "--schema", SCHEMA, "--decision", "mvv",
                    "--min_strength", "0.0", "--max_length", "3", "--max_rules", "8",
                    "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "rules.txt").exists()


@pytest.fixture()
def no_fit(monkeypatch):
    """Fail the test if any quantizer is fitted."""
    def fit(*args):
        raise AssertionError("a quantizer was fitted")

    monkeypatch.setattr(pipeline, "fit_table_discretizer", fit)


@pytest.mark.parametrize("command", ["pipeline", "rules"])
def test_unknown_semantics_is_1_before_any_fit(command, tmp_path, capsys, no_fit):
    """An unknown --semantics is rejected with the other settings, before
    a quantizer is fitted."""
    code = _run(command, "--data", CORPUS, "--schema", SCHEMA, "--decision", "mvv",
                "--semantics", "foo", "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 1
    assert "semantics must be one of" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# Config-file lines that no pipeline run accepts, with the message each
# gets.
BAD_CONFIG_LINES = {
    "el = 5": "el must be in [0, 1]",
    "runs = 0": "runs and max_closed must be >= 1",
    "train_fraction = 3": "train_fraction must be in (0, 1]",
    "semantics = bogus": "semantics must be one of ('cumulative', 'exact')",
    "granules = 1": "granules must be >= 2",
    "max_rules = 0": "max_length and max_rules must be positive",
    "min_strength = 1.5": "min_strength must be in [0, 1]",
    "max_open_steps = -1": "max_open_steps must be >= 0",
}


@pytest.mark.parametrize("line", sorted(BAD_CONFIG_LINES))
@pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"backanalyze"}))
def test_bad_config_file_is_1_before_any_read(command, line, tmp_path, capsys, no_fit):
    """Every command that takes --config refuses settings no pipeline run
    accepts with the pipeline's message, before it reads a table (the data
    path here does not exist) or fits a quantizer, and writes nothing."""
    cfg = _text_file(tmp_path, "run.cfg", line + "\n")
    out = tmp_path / "o"
    table = ["--data", str(tmp_path / "nope.csv"), "--schema", SCHEMA]
    argv = [command, *([] if command == "surrogate" else table), "--config", cfg, "--out", str(out)]
    capsys.readouterr()
    assert _run(*argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {BAD_CONFIG_LINES[line]}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["discretize", "reducts", "rules"])
def test_one_granule_flag_is_1_before_any_read(command, tmp_path, capsys, no_fit):
    """--granules 1 gets the pipeline's message before the table is read."""
    out = tmp_path / "o"
    argv = [command, "--data", str(tmp_path / "nope.csv"), "--schema", SCHEMA,
            "--granules", "1", "--out", str(out)]
    capsys.readouterr()
    assert _run(*argv) == 1
    assert capsys.readouterr().err == "usage error: granules must be >= 2\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["pipeline", "reducts", "rules"])
def test_condition_attribute_as_decision_is_1(command, tmp_path, capsys, no_fit):
    """A condition attribute given as --decision is refused before a
    quantizer is fitted, and nothing is written."""
    out = tmp_path / "o"
    code = _run(command, "--data", CORPUS, "--schema", SCHEMA, "--decision", "cb",
                "--out", str(out))
    assert code == 1
    assert "'cb' is not a decision attribute" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["c-b", "a b", "a,b", "", "(x)"])
def test_attribute_name_outside_the_rule_grammar_is_2(name, tmp_path, capsys, no_fit,
                                                     corpus_report_doc):
    """A rule file reads attribute names as ``\\w+``, so a schema name of
    other characters is a data error naming it, before any fit, and a
    report holding such a name is malformed."""
    records = json.loads(Path(SCHEMA).read_text())
    for rec in records:
        rec["name"] = name if rec["name"] == "cb" else rec["name"]
    lines = Path(CORPUS).read_text().split("\n", 1)
    data = _text_file(tmp_path, "runs.csv", lines[0].replace("cb", name) + "\n" + lines[1])
    out = tmp_path / "o"
    capsys.readouterr()
    assert _run("pipeline", "--data", data, "--schema", _schema_file(tmp_path, records),
                "--decision", "mvv", "--out", str(out)) == 2
    message = f"attribute {name!r}: name must be letters, digits and '_'\n"
    assert capsys.readouterr().err == "data error: " + message
    assert not out.exists()
    report = json.dumps(corpus_report_doc).replace('"cb"', json.dumps(name))
    assert _run(*_backanalyze(_text_file(tmp_path, "report.json", report))) == 2
    assert capsys.readouterr().err == "data error: malformed report file: " + message


class TestConfigParsing:
    def test_comments_and_blanks(self):
        got = parse_config_file("# a comment\n\nel = 0.5\nseed = 3  # trailing\n")
        assert got == {"el": 0.5, "seed": 3}

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError):
            parse_config_file("bogus = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(DataError):
            parse_config_file("seed = abc\n")


# A complete, valid argv per command, and every flag any command defines,
# plus one that none defines: for each command some of these are unknown.
VALID_ARGV = {
    "discretize": ["--data", "d.csv", "--schema", "s.json", "--out", "o"],
    "rules": ["--data", "d.csv", "--schema", "s.json", "--out", "o"],
    "pipeline": ["--data", "d.csv", "--schema", "s.json", "--out", "o"],
    "backanalyze": ["--report", "r.json", "--observe", "0.5"],
    "surrogate": ["--out", "o"],
    "reducts": ["--data", "d.csv", "--schema", "s.json"],
}
FLAGS = sorted(
    {"--data", "--schema", "--out", "--config", "--report", "--observe", "--count",
     "--ranges", "--steepness", "--mode", "--bogus"} | {f"--{k}" for k in CONFIG_KEYS}
)
# Typed values that parse as int, float or neither, choices, and empty.
VALUES = st.sampled_from(
    ["3", "-1", "0.5", "1e-3", "nan", "abc", "", "mvv", "plain", "decision_relative", "x"]
)


@st.composite
def _argv_tokens(draw):
    """One argument in one of the forms argparse accepts or rejects:
    ``--flag value``, ``--flag=value``, a prefix of a flag (unique,
    ambiguous or unknown for the command), a flag missing its value, or a
    stray positional."""
    flag = draw(st.sampled_from(FLAGS))
    value = draw(VALUES)
    form = draw(st.sampled_from(["pair", "equals", "prefix", "bare", "stray"]))
    if form == "pair":
        return [flag, value]
    if form == "equals":
        return [f"{flag}={value}"]
    if form == "prefix":
        return [flag[: draw(st.integers(3, len(flag)))], value]
    if form == "bare":
        return [flag]
    return [value or "x"]


def _parse_outcome(parser, argv):
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        return "usage error", str(exc)
    # repr, not ==: a "nan" value never equals itself.
    return "parsed", repr(sorted(vars(ns).items()))


class TestSingleCommandParser:
    @pytest.mark.parametrize("argv", [[], ["--help"], ["-h"]] + [
        [command, flag] for command in sorted(COMMANDS) for flag in ("--help", "-h")
    ])
    def test_help_matches_full_parser(self, argv, capsys):
        """``somrough --help`` and ``somrough <command> --help`` print the
        full parser's text and exit 0; empty argv is the full parser's usage
        error."""
        try:
            build_parser().parse_args(argv)
        except UsageError as exc:
            want = (1, "", f"usage error: {exc}\n")
        except SystemExit as exc:
            want = (exc.code, capsys.readouterr().out, "")
        capsys.readouterr()
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        out, err = capsys.readouterr()
        assert (got, out, err) == want
        assert want[0] == (1 if not argv else 0)

    def test_unknown_command_names_every_choice(self, capsys):
        assert main(["bogus"]) == 1
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert all(repr(name) in err for name in COMMANDS)


# Values after a flag that argparse reads as options, so the flag lacks
# its value ("-1" alone reads as a negative number, a value).
DASH_VALUES = st.sampled_from(["-x", "-inf", "-1e3", "--out", "-"])


@st.composite
def _direct_argv(draw):
    """A command's argv: its valid argv or that argv missing its first
    flags, then ``--flag value`` pairs of the command's other options and
    tokens as _argv_tokens draws them, or a flag with a value that starts
    with a dash."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    base = VALID_ARGV[command][draw(st.sampled_from([0, 0, 0, 2, 4])):]
    others = sorted({flag for flag, _ in COMMANDS[command][2]} - set(VALID_ARGV[command]))
    # "3" is an int, a float and a string; "plain" is a --mode.
    values = st.sampled_from(["3", "plain"]) | VALUES
    pairs = draw(st.dictionaries(st.sampled_from(others), values, max_size=4))
    dash = st.tuples(st.sampled_from(FLAGS), DASH_VALUES).map(list)
    n = draw(st.sampled_from([0, 0, 1, 2]))
    tokens = draw(st.lists(_argv_tokens() | dash, min_size=n, max_size=n))
    return [command, *base, *(t for pair in pairs.items() for t in pair),
            *(t for token in tokens for t in token)]


_PIPELINE = ["pipeline", *VALID_ARGV["pipeline"]]


class TestDirectParse:
    @settings(max_examples=600, deadline=None)
    @given(argv=_direct_argv())
    # An ambiguous abbreviation, a repeat whose first value is bad, a
    # repeat that argparse settles by its last value, a value argparse
    # reads as an option, and a missing required flag.
    @example(argv=["discretize", *VALID_ARGV["discretize"], "--s", "3"])
    @example(argv=[*_PIPELINE, "--ma", "3"])
    @example(argv=[*_PIPELINE, "--seed", "abc", "--seed", "3"])
    @example(argv=["backanalyze", "--report", "r", "--observe", "x", "--observe", "1"])
    @example(argv=[*_PIPELINE, "--out", "p"])
    @example(argv=["reducts", *VALID_ARGV["reducts"], "--out", "-x"])
    @example(argv=["pipeline", "--schema", "s.json", "--out", "o"])
    def test_none_or_argparse_namespace(self, argv):
        """The direct parse returns None or the namespace argparse builds."""
        ns = _direct_parse(argv)
        event("direct" if ns is not None else "argparse")
        if ns is not None:
            assert _parse_outcome(build_parser(), argv) == (
                "parsed", repr(sorted(vars(ns).items()))
            )


def _plain_argvs(root: Path) -> list:
    """The argv forms that perfbench and CI pass, on the corpus: exact
    long flags, each followed by its value."""
    out = str(root)
    inputs = ["--data", CORPUS, "--schema", SCHEMA]
    rule_flags = ["--granules", "2", "--semantics", "exact", "--min_strength", "0",
                  "--max_length", "3", "--max_rules", "8"]
    return [
        ["pipeline", *inputs, "--out", out + "/p", "--seed", "3", "--decision", "mvv"],
        ["pipeline", *inputs, "--decision", "mvv", "--out", out + "/q"],
        ["pipeline", *inputs, "--out", out + "/s", "--seed", "1", *rule_flags, "--runs", "1",
         "--decision", "mvv"],
        ["backanalyze", "--report", out + "/p/report.json", "--observe",
         repr(JEFFREY_OBSERVED_RATE_MS), "--out", out + "/e.json"],
        ["backanalyze", "--report", out + "/q/report.json", "--observe",
         "0.0005787037037037037", "--out", out + "/f.json"],
        ["reducts", *inputs],
        ["reducts", *inputs, "--decision", "mvv", "--out", out + "/reducts.txt"],
        ["reducts", *inputs, "--out", out + "/r.txt", "--granules", "2", "--seed", "1",
         "--decision", "mvv"],
        ["rules", *inputs, "--decision", "mvv", "--out", out + "/rules"],
        ["rules", *inputs, "--out", out + "/rules2", *rule_flags, "--seed", "1",
         "--decision", "mvv"],
        ["discretize", *inputs, "--out", out + "/d"],
        ["discretize", *inputs, "--out", out + "/d2", "--granules", "2", "--seed", "1"],
        ["surrogate", "--count", "20", "--seed", "7", "--out", out + "/table"],
    ]


def test_plain_argv_never_builds_argparse(tmp_path, monkeypatch):
    """Each complete argv of VALID_ARGV parses directly to argparse's
    namespace, and the argv forms perfbench and CI pass run without an
    argparse parser."""
    for command, base in VALID_ARGV.items():
        ns = _direct_parse([command, *base])
        assert ns is not None and vars(ns) == vars(build_parser().parse_args([command, *base]))

    def no_parser(*args):
        raise AssertionError("an argparse parser was built")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    codes = [main(argv) for argv in _plain_argvs(tmp_path)]
    assert set(codes) <= {0, 3}, codes
    assert (tmp_path / "e.json").exists() and (tmp_path / "table" / "runs.csv").exists()


def test_cli_path_loads_no_numpy(tmp_path):
    """Importing the package and running every command but ``surrogate``
    on the corpus never imports numpy, and nothing on that path imports
    logging, or argparse on plain argvs."""
    script = textwrap.dedent(
        f"""
        import sys
        import somrough
        assert "numpy" not in sys.modules, "import somrough"
        from somrough.cli import main
        assert "logging" not in sys.modules, "import somrough.cli"
        assert "argparse" not in sys.modules, "import somrough.cli"
        from somrough.corpus import JEFFREY_OBSERVED_RATE_MS
        data, schema, out = {CORPUS!r}, {SCHEMA!r}, {str(tmp_path)!r}
        inputs = ["--data", data, "--schema", schema]
        codes = [
            main(["pipeline", *inputs, "--decision", "mvv", "--out", out + "/p"]),
            main(["backanalyze", "--report", out + "/p/report.json",
                  "--observe", repr(JEFFREY_OBSERVED_RATE_MS), "--out", out + "/e.json"]),
            main(["reducts", *inputs, "--out", out + "/r.txt"]),
            main(["discretize", *inputs, "--out", out + "/d"]),
            main(["rules", *inputs, "--decision", "mvv", "--out", out + "/rl"]),
        ]
        assert codes == [3, 0, 0, 0, 0], codes
        assert "numpy" not in sys.modules, "cli commands"
        assert "logging" not in sys.modules, "cli commands"
        assert "argparse" not in sys.modules, "cli commands"
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert done.returncode == 0, done.stderr


# Exit-code cases beside BAD_INPUTS that a numpy-free process must
# reproduce; each has an in-process test of its own (named after it).
EXIT_CASES = {
    # TestSingleCommandParser.test_unknown_command_names_every_choice
    "unknown-command": lambda tmp, doc: ["bogus"],
    # TestExitCodes.test_unreadable_input_is_2
    "missing-data": lambda tmp, doc: _discretize(tmp, data=str(tmp / "nope.csv")),
    # test_condition_attribute_as_decision_is_1
    "rules-condition-as-decision": lambda tmp, doc: [
        "rules", *_TABLE, "--decision", "cb", "--out", str(tmp / "o")
    ],
    # test_report_without_a_quantizer_is_2
    "report-no-decision-quantizer": lambda tmp, doc: _backanalyze(_report_with(
        tmp, doc, ("discretizers",),
        {k: v for k, v in doc["discretizers"].items() if k != doc["decision"]},
    )),
    # TestBackanalyze.test_nonpositive_observation_on_log10_is_1
    **{
        f"backanalyze-observe-{observed}": lambda tmp, doc, observed=observed: [
            "backanalyze", "--report", _text_file(tmp, "report.json", json.dumps(doc)),
            "--observe", observed,
        ]
        for observed in ("0", "-0.0", "-5")
    },
    # TestDiscretize.test_log_column_of_mostly_ones_fits
    "discretize-log10-mostly-ones": lambda tmp, doc: [
        *_one_column(tmp, "log10", LOG10_MOSTLY_ONES), "--granules", "4", "--seed", "0"
    ],
    # TestDiscretize.test_adjacent_float_column_is_a_data_error
    "discretize-adjacent-floats": lambda tmp, doc: [
        *_one_column(tmp, "linear", ADJACENT_FLOATS), "--granules", "3", "--seed", "137"
    ],
    # test_unwritable_output_is_2; surrogate needs numpy to draw its table.
    **{
        f"unwritable-{command}": lambda tmp, doc, argv=argv: [
            *argv(_text_file(tmp, "report.json", json.dumps(doc))),
            "--out", _text_file(tmp, "file", "") + "/out.json",
        ]
        for command, argv in OUT_COMMANDS.items() if command != "surrogate"
    },
}


def test_error_exits_match_without_numpy(tmp_path, capsys, corpus_report_doc):
    """Every BAD_INPUTS and EXIT_CASES argv, run through ``main`` in a
    fresh interpreter, exits with the code and writes the stdout and
    stderr of its in-process run, and none of them imports numpy."""
    cases = {**BAD_INPUTS, **EXIT_CASES}
    runs = []
    for case in sorted(cases):
        tmp = tmp_path / case
        tmp.mkdir()
        argv = cases[case](tmp, corpus_report_doc)
        capsys.readouterr()
        code = _run(*argv)
        runs.append([case, argv, code, *capsys.readouterr()])
    (tmp_path / "runs.json").write_text(json.dumps(runs))
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        from somrough.cli import main
        differ = []
        for case, argv, code, out, err in json.load(open(sys.argv[1])):
            got_out, got_err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(got_out), contextlib.redirect_stderr(got_err):
                got = main(argv)
            if [got, got_out.getvalue(), got_err.getvalue()] != [code, out, err]:
                differ.append([case, got, got_err.getvalue()])
            assert "numpy" not in sys.modules, case
        assert not differ, differ
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "runs.json")], capture_output=True,
        text=True, timeout=300, env={"PYTHONPATH": src, "PATH": ""},
    )
    assert done.returncode == 0, done.stderr
    assert {code for _, _, code, _, _ in runs} == {0, 1, 2}


def test_cli_import_loads_no_heavy_modules():
    """``import somrough.cli`` in an interpreter without ``site`` loads
    neither the record machinery of ``dataclasses`` (with ``inspect``), nor
    ``typing``, ``threading``, numpy, argparse, logging, pathlib or the
    ``numbers`` ABCs."""
    script = (
        "import sys; before = set(sys.modules); import somrough.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "somrough.cli" in loaded
    heavy = {
        "dataclasses", "inspect", "typing", "threading", "numpy", "argparse", "logging", "pathlib",
        "numbers",
    }
    assert not loaded & heavy, sorted(loaded & heavy)


def test_one_shot_calls_skip_abc_checks_and_json_encoder(tmp_path, monkeypatch):
    """A corpus ``pipeline`` into a new folder and a ``backanalyze`` on its
    report make no ABC isinstance or issubclass check and build no
    ``json.JSONEncoder``; only the pipeline's first write makes a folder."""
    counts = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("__instancecheck__", "__subclasscheck__"):
        count(abc.ABCMeta, name)
    count(json.encoder.JSONEncoder, "__init__")
    count(os, "makedirs")
    out = tmp_path / "run"
    assert main(["pipeline", *_TABLE, "--decision", "mvv", "--out", str(out)]) in (0, 3)
    assert counts == {"makedirs": 1}
    counts.clear()
    argv = ["backanalyze", "--report", str(out / "report.json"),
            "--observe", repr(JEFFREY_OBSERVED_RATE_MS), "--out", str(out / "estimate.json")]
    assert main(argv) == 0
    assert counts == {}


def _cycle_free_argvs(root: Path) -> list:
    """(exit code, plain argv) of every command on the corpus, of two error
    exits, and of a ``discretize`` whose 200-row table (240,000
    presentations) fits its quantizers in two processes where a second CPU
    is free."""
    out = str(root)
    report = out + "/p/report.json"
    bad = root / "bad.json"
    bad.write_text('{"decision": "mvv"}')
    data, schema = _slope_files(root, slope_table(200, seed=3))
    return [
        (3, ["pipeline", *_TABLE, "--decision", "mvv", "--out", out + "/p"]),
        (0, ["backanalyze", "--report", report, "--observe", repr(JEFFREY_OBSERVED_RATE_MS),
             "--out", out + "/e.json"]),
        (0, ["discretize", *_TABLE, "--out", out + "/d"]),
        (0, ["rules", *_TABLE, "--decision", "mvv", "--out", out + "/rules"]),
        (0, ["reducts", *_TABLE, "--decision", "mvv", "--out", out + "/reducts.txt"]),
        (0, ["surrogate", "--count", "50", "--seed", "7", "--out", out + "/table"]),
        (2, ["backanalyze", "--report", str(bad), "--observe", "1.0"]),
        (1, ["backanalyze", "--report", report, "--observe", "0"]),
        (0, ["discretize", "--data", data, "--schema", schema, "--out", out + "/slope",
             "--granules", "2", "--seed", "0"]),
    ]


def test_commands_leave_no_reference_cycles(tmp_path):
    """``main`` pauses the cyclic collector because it would find nothing:
    after a warm-up call (first-use caches), a second call of each plain
    argv leaves no unreachable object behind. argparse's path is left out:
    its parser graph leaves about 430 objects in cycles (429 for
    ``backanalyze --report``), which the collector frees once ``main``
    turns it back on."""
    leaks = []
    for code, argv in _cycle_free_argvs(tmp_path):
        assert main(argv) == code, argv
        collecting, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == code, argv
            found = gc.collect()
            kinds = sorted({type(o).__name__ for o in gc.garbage})
        finally:
            gc.garbage.clear()
            gc.set_debug(flags)
            if collecting:
                gc.enable()
        if found or kinds:
            leaks.append((argv, found, kinds))
    assert not leaks, leaks


WAYS_OUT = {
    "exit-0": (0, lambda out: ["reducts", *_TABLE]),
    "exit-3": (3, lambda out: ["pipeline", *_TABLE, "--decision", "mvv", "--out", out]),
    "usage-error": (1, lambda out: ["pipeline", *_TABLE, "--out", out, "--granules", "1"]),
    "data-error": (2, lambda out: ["discretize", "--data", out + "/nope.csv", "--schema",
                                   SCHEMA, "--out", out]),
    "argparse-usage-error": (1, lambda out: ["pipeline", "--data", CORPUS]),
    "help": (SystemExit, lambda out: ["backanalyze", "--help"]),
}


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("case", sorted(WAYS_OUT))
def test_main_restores_the_collector(case, collecting, tmp_path):
    """``main`` leaves the cyclic collector as its caller had it, on every
    way out: an exit code, a ``SomroughError``, an argparse error, help."""
    expected, argv = WAYS_OUT[case]
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if expected is SystemExit:
            with pytest.raises(SystemExit):
                main(argv(str(tmp_path)))
        else:
            assert main(argv(str(tmp_path))) == expected
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_command_runs_with_the_collector_paused(tmp_path, monkeypatch):
    seen = []
    original = cli.close_open

    def close_open(*args):
        seen.append(gc.isenabled())
        return original(*args)

    monkeypatch.setattr(cli, "close_open", close_open)
    assert gc.isenabled()
    assert main(["pipeline", *_TABLE, "--decision", "mvv", "--out", str(tmp_path)]) == 3
    assert seen == [False] and gc.isenabled()


def test_crlf_inputs_read_like_lf(tmp_path):
    """CRLF copies of the corpus CSV, its schema and a config file give the
    same ``report.json`` and ``rules.txt`` bytes as the LF files."""
    config = "# a config file\nel = 0.5\ngranules = 3  # bands\n\nseed = 4\n"
    outputs = []
    for name, eol in (("lf", b"\n"), ("crlf", b"\r\n")):
        inputs = tmp_path / name
        inputs.mkdir()
        for source, target in ((CORPUS, "runs.csv"), (SCHEMA, "schema.json")):
            data = Path(source).read_bytes()
            assert b"\r" not in data
            (inputs / target).write_bytes(data.replace(b"\n", eol))
        (inputs / "run.conf").write_bytes(config.encode().replace(b"\n", eol))
        code = main([
            "pipeline", "--data", str(inputs / "runs.csv"), "--schema", str(inputs / "schema.json"),
            "--config", str(inputs / "run.conf"), "--decision", "mvv", "--out", str(inputs / "out"),
        ])
        assert code in (0, 3)
        outputs.append([(inputs / "out" / f).read_bytes() for f in ("report.json", "rules.txt")])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1][0])["config"]["granules"] == 3


# Cells of generated run tables: missing, repeated small values, large and
# tiny magnitudes, negatives (invalid under log10) and a malformed token.
CELLS = st.one_of(
    st.sampled_from(["?", "?", "0", "1", "2.5", "-3", "1e3", "7e-9", "x"]),
    st.integers(-20, 20).map(str),
    st.floats(-1e6, 1e6, allow_nan=False, width=32).map(repr),
)


@st.composite
def _run_table(draw):
    """CSV and schema text: one to three rows, or a few more, one to three
    condition columns and a decision column, each column free, constant
    or all missing, with a linear or log10 scale."""
    n_rows = draw(st.sampled_from([1, 2, 3, 4, 6, 9]))
    names = [f"c{i}" for i in range(draw(st.integers(1, 3)))] + ["d"]
    columns = []
    for _ in names:
        kind = draw(st.sampled_from(["free"] * 6 + ["constant", "missing"]))
        if kind == "free":
            columns.append(draw(st.lists(CELLS, min_size=n_rows, max_size=n_rows)))
        else:
            columns.append([draw(CELLS) if kind == "constant" else "?"] * n_rows)
    rows = [",".join(col[i] for col in columns) for i in range(n_rows)]
    csv_text = "\n".join([",".join(names), *rows]) + "\n"
    schema = [
        {"name": n, "role": "decision" if n == "d" else "condition",
         "scale": draw(st.sampled_from(["linear"] * 5 + ["log10"]))}
        for n in names
    ]
    return csv_text, json.dumps(schema)


def _outputs(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def _call_in(root: Path, argv: list[str]):
    """Exit code, stdout, stderr and written files of one ``main`` call in
    a fresh ``out`` directory under ``root``."""
    shutil.rmtree(root / "out", ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue(), _outputs(root / "out")


def _assert_contract(root: Path, argv: list[str]):
    """Exit 0-3, no traceback, and the same bytes from a second call."""
    first = _call_in(root, argv)
    event(f"exit {first[0]}")
    assert first[0] in (0, 1, 2, 3)
    assert "Traceback" not in first[2]
    assert _call_in(root, argv) == first


class TestFuzzedTables:
    @settings(max_examples=80, deadline=None)
    @given(
        table=_run_table(),
        command=st.sampled_from(["pipeline", "reducts", "discretize"]),
        granules=st.integers(2, 3),
        seed=st.integers(0, 3),
    )
    # Min-max scaling maps 0 and 1.4e-45 to one float, which left the
    # quantile fallback two distinct values for three centers (an
    # IndexError before).
    @example(
        table=("c0,d\n0,?\n-1,?\n1.4e-45,?\n", json.dumps(
            [{"name": "c0", "role": "condition"}, {"name": "d", "role": "decision"}]
        )),
        command="discretize",
        granules=3,
        seed=0,
    )
    def test_exit_contract_and_determinism(self, table, command, granules, seed):
        """Every generated table ends in exit 0-3 with no exception, and
        two identical calls print and write the same bytes."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "runs.csv").write_text(table[0])
            (root / "schema.json").write_text(table[1])
            argv = [command, "--data", str(root / "runs.csv"), "--schema",
                    str(root / "schema.json"), "--granules", str(granules), "--seed", str(seed)]
            if command == "reducts":
                argv += ["--mode", "decision_relative", "--decision", "d",
                         "--out", str(root / "out" / "reducts.txt")]
            else:
                argv += ["--out", str(root / "out")]
            if command == "pipeline":
                argv += ["--decision", "d", "--max_open_steps", "2"]
            _assert_contract(root, argv)


# Config lines: settings of every key with values it accepts (three times
# as likely) and values it rejects, bounded so that one pipeline call on
# the corpus stays short; comments, blanks, unknown keys and lines
# without "=".
CONFIG_VALUES = {
    "granules": (["2", "3", "4"], ["1", "x"]),
    "min_strength": (["0", "0.6", "1"], ["-0.5", "1.5", "nan", "x"]),
    "max_length": (["1", "2", "3"], ["0", "-1", "2.5"]),
    "max_rules": (["1", "3", "6"], ["0", "-2"]),
    "el": (["0", "0.5", "0.8", "1"], ["-1", "2", "nan", "inf"]),
    "runs": (["1", "2"], ["0", "-1", "1.0"]),
    "max_closed": (["1", "2", "3"], ["0"]),
    "train_fraction": (["0", "0.3", "0.7", "0.95", "1"], ["1.5", "-0.2", "nan"]),
    "max_open_steps": (["0", "1", "3"], ["-1"]),
    "seed": (["0", "1", "7"], ["-1", "2e3", "x"]),
    "semantics": (["cumulative", "exact"], ["bogus", ""]),
    "decision": (["mvv"], ["cb", "nope", ""]),
}
CONFIG_SETTING = st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
    lambda key: st.sampled_from(3 * CONFIG_VALUES[key][0] + CONFIG_VALUES[key][1]).map(
        lambda value: f"{key} = {value}"
    )
)
CONFIG_LINES = st.one_of(
    CONFIG_SETTING,
    CONFIG_SETTING,
    CONFIG_SETTING,
    st.sampled_from(["", "# comment", "  el=0.5 # c"]),
    st.sampled_from(["bogus = 1", "el", "= 3", "seed == 1"]),
)


class TestFuzzedConfig:
    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(CONFIG_LINES, max_size=6))
    def test_exit_contract_and_determinism(self, lines):
        """Every generated config file for ``pipeline`` on the corpus ends
        in exit 0-3 with no traceback, and two identical calls print and
        write the same bytes."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            # The corpus has two decision attributes; later lines may
            # name another one or none.
            (root / "run.cfg").write_text("\n".join(["decision = mvv", *lines]) + "\n")
            _assert_contract(root, [
                "pipeline", "--data", CORPUS, "--schema", SCHEMA,
                "--config", str(root / "run.cfg"), "--out", str(root / "out"),
            ])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.just(10**400) | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@st.composite
def _key_path(draw, doc):
    """A path from the root of ``doc`` to one of its values."""
    path, node = [], doc
    while isinstance(node, (dict, list)) and node and (not path or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        node = node[key]
    return path


class TestFuzzedReport:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_exit_contract_and_determinism(self, corpus_report_doc, data):
        """``backanalyze`` on the corpus report with the value at one key
        path replaced by any JSON value ends in exit 0-3 with no
        traceback, and two identical calls print and write the same
        bytes."""
        path = data.draw(_key_path(corpus_report_doc), label="path")
        value = data.draw(JSON_VALUES, label="value")
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            report = _report_with(root, corpus_report_doc, path, value)
            _assert_contract(root, _backanalyze(report) + ["--out", str(root / "out" / "e.json")])


# --observe values: any float's repr (nan, +-inf, subnormals included),
# overflowing and malformed numerals, and free text.
OBSERVE_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "5e-324", "1e-400",
                     "", " ", "x", "1,5", "0x10", "1e", "--1", "-h", "5.787e-4"]),
    st.text(max_size=8),
)


class TestFuzzedObserve:
    @settings(max_examples=120, deadline=None)
    @given(text=OBSERVE_TEXT, joined=st.booleans())
    @example(text="-inf", joined=True)
    @example(text="1e400", joined=False)
    def test_exit_contract(self, corpus_report_doc, text, joined):
        """``backanalyze`` on the corpus report with any ``--observe``
        text exits 0, 1 or 2 without a traceback, and an estimate written
        on exit 0 is JSON."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            report = root / "report.json"
            report.write_text(json.dumps(corpus_report_doc))
            observe = [f"--observe={text}"] if joined else ["--observe", text]
            rc, _, err, outputs = _call_in(root, [
                "backanalyze", "--report", str(report), *observe,
                "--out", str(root / "out" / "e.json"),
            ])
            event(f"exit {rc}")
            assert rc in (0, 1, 2)
            assert "Traceback" not in err
            if rc == 0:
                json.loads(outputs["e.json"])


# --ranges files: sorted pairs of plausible slope values under known
# names (many of them pass every check); pairs of any float (nan, +-inf
# and subnormals included), the float extremes and an int too large for a
# float; non-numbers and unknown names.
PLAUSIBLE = st.floats(min_value=1e-3, max_value=80.0)
RANGE_NUMBERS = st.one_of(
    PLAUSIBLE,
    st.floats(),
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 2.2e-308, 0.0, 10**400]),
)
RANGE_PAIRS = st.one_of(
    st.lists(RANGE_NUMBERS, min_size=2, max_size=2).map(sorted),
    st.lists(RANGE_NUMBERS, min_size=2, max_size=2),
    st.lists(RANGE_NUMBERS | st.none() | st.booleans() | st.text(max_size=3), max_size=3),
    JSON_VALUES,
)
KNOWN_NAMES = st.sampled_from(list(DEFAULT_RANGES))
RANGE_FILES = st.one_of(
    st.dictionaries(KNOWN_NAMES, st.lists(PLAUSIBLE, min_size=2, max_size=2).map(sorted)),
    st.dictionaries(KNOWN_NAMES, RANGE_PAIRS, max_size=2),
    st.dictionaries(st.sampled_from([*DEFAULT_RANGES, "bogus", ""]), RANGE_PAIRS, max_size=5),
    JSON_VALUES,
)


class TestFuzzedRanges:
    @settings(max_examples=150, deadline=None)
    @given(ranges=RANGE_FILES)
    @example(ranges={"cohesion": [10**400, 5]})
    # A subnormal weight on a near-flat slope: the driving force
    # underflows to zero.
    @example(ranges={"weight": [5e-324, 1e-323], "slope": [1e-7, 2e-7]})
    # A slope so flat that its sine is below 1e-9: a usage error.
    @example(ranges={"slope": [1e-12, 1e-11]})
    # Entries that are not [low, high] pairs but once read as one.
    @example(ranges={"cohesion": "12"})
    @example(ranges={"cohesion": [1, 2, 3]})
    @example(ranges={"cohesion": [True, 5]})
    def test_exit_contract(self, ranges):
        """``surrogate`` with any JSON ranges file exits 0, 1 or 2 without a
        traceback or a numpy RuntimeWarning, and 0 only when every entry is
        a [low, high] pair of numbers."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "ranges.json").write_text(json.dumps(ranges))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc, _, err, _ = _call_in(root, [
                    "surrogate", "--count", "5", "--ranges", str(root / "ranges.json"),
                    "--out", str(root / "out"),
                ])
            event(f"exit {rc}")
            assert rc in (0, 1, 2)
            assert "Traceback" not in err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            if rc == 0:
                assert isinstance(ranges, dict) and all(map(_is_range_pair, ranges.values()))


def _is_range_pair(value) -> bool:
    """A JSON array of exactly two numbers, int or float but not bool."""
    return type(value) is list and len(value) == 2 and all(
        type(x) in (int, float) for x in value
    )


# A value other than the default for every setting, in field order.
NON_DEFAULT = {
    "min_strength": 0.5,
    "max_length": 3,
    "max_rules": 4,
    "semantics": "exact",
    "runs": 2,
    "max_closed": 1,
    "el": 0.5,
    "train_fraction": 0.6,
    "granules": 2,
    "max_open_steps": 2,
    "seed": 3,
}


class TestSettingsSchema:
    """The run settings are the fields of PipelineConfig, RuleConstraints'
    among them; the config keys, their parse types, the flags and the
    report's echo all follow from them."""

    def test_fields_are_keys_with_default_and_type(self):
        defaults = vars(PipelineConfig())
        hints = typing.get_type_hints(PipelineConfig)
        names = list(SETTING_TYPES)
        assert names[:4] == [f.name for f in fields(RuleConstraints)]
        assert names[:4] == ["min_strength", "max_length", "max_rules", "semantics"]
        assert list(CONFIG_KEYS) == list(DEFAULTS) == names + ["decision"]
        for name in names:
            assert CONFIG_KEYS[name] is hints[name], name
            assert type(DEFAULTS[name]) is hints[name], name
            assert DEFAULTS[name] == defaults[name], name

    def test_every_key_is_a_pipeline_flag(self):
        argv = ["pipeline", "--data", "d", "--schema", "s", "--out", "o"]
        for key, value in NON_DEFAULT.items():
            argv += [f"--{key}", str(value)]
        args = build_parser().parse_args(argv + ["--decision", "mvv"])
        parsed = {key: getattr(args, key) for key in CONFIG_KEYS}
        assert parsed == {**NON_DEFAULT, "decision": "mvv"}

    def test_config_file_echoed_in_report(self, tmp_path):
        assert list(NON_DEFAULT) == list(SETTING_TYPES)
        assert all(NON_DEFAULT[k] != DEFAULTS[k] for k in NON_DEFAULT)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in NON_DEFAULT.items()) + "decision = mvv\n")
        code = _run("pipeline", "--data", CORPUS, "--schema", SCHEMA, "--config", str(cfg),
                    "--out", str(tmp_path / "out"))
        assert code in (0, 3)
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert list(doc["config"].items()) == list(NON_DEFAULT.items())


def test_overflowing_span_is_data_error(tmp_path):
    """A column spanning more than the float range is a data error that
    says so, raised before any numpy import."""
    (tmp_path / "runs.csv").write_text("x,d\n1e308,1\n-1e308,2\n0,3\n5,4\n")
    (tmp_path / "schema.json").write_text(json.dumps(
        [{"name": "x", "role": "condition"}, {"name": "d", "role": "decision"}]
    ))
    script = textwrap.dedent(
        f"""
        import sys
        from somrough.cli import main
        root = {str(tmp_path)!r}
        rc = main(["discretize", "--data", root + "/runs.csv", "--schema",
                   root + "/schema.json", "--granules", "2", "--out", root + "/o"])
        assert rc == 2, rc
        assert "numpy" not in sys.modules
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert done.returncode == 0, done.stderr
    assert "data error: column 'x': span -1e+308 to 1e+308 exceeds the float range" in done.stderr
