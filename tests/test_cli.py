"""Exit-code contract and output shape of the command-line interface."""

import contextlib
import copy
import importlib.resources
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
import typing
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from somrough.cli import COMMANDS, CONFIG_KEYS, DEFAULTS, build_parser, main, parse_config_file
from somrough.errors import DataError, UsageError
from somrough.pipeline import PipelineConfig
from somrough.rules import RuleConstraints
from somrough.surrogate import DEFAULT_RANGES

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
        ],
    )
    def test_negative_seed_is_1(self, tmp_path, capsys, extra):
        """Seeds feed the random stream, which takes non-negative ints only
        (a ValueError traceback before)."""
        code = _run(*extra, str(tmp_path / "o"), "--data", CORPUS, "--schema", SCHEMA,
                    "--seed", "-1")
        err = capsys.readouterr().err
        assert code == 1
        assert "seed must be >= 0" in err and "Traceback" not in err

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


def _surrogate_ranges(tmp_path, ranges):
    path = tmp_path / "ranges.json"
    path.write_text(json.dumps(ranges))
    return ["surrogate", "--count", "5", "--ranges", str(path), "--out", str(tmp_path / "o")]


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
    "report-null-object-id": lambda tmp, doc: _backanalyze(
        _report_with(tmp, doc, ("granular", "object_ids", 0), None)
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
    "ranges-list": lambda tmp, _: _surrogate_ranges(tmp, [1, 2]),
    "ranges-object-bounds": lambda tmp, _: _surrogate_ranges(tmp, {"cohesion": {"lo": 1}}),
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
    """Unreadable or malformed input files are data errors, never tracebacks."""
    argv = BAD_INPUTS[case](tmp_path, corpus_report_doc)
    assert _run(*argv) == 2
    assert "Traceback" not in capsys.readouterr().err


class TestDiscretize:
    def test_outputs_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run("discretize", "--data", CORPUS, "--schema", SCHEMA, "--out", str(a)) == 0
        assert _run("discretize", "--data", CORPUS, "--schema", SCHEMA, "--out", str(b)) == 0
        assert (a / "discretizers.txt").read_bytes() == (b / "discretizers.txt").read_bytes()
        assert (a / "granulated.csv").read_bytes() == (b / "granulated.csv").read_bytes()
        records = (a / "discretizers.txt").read_text().splitlines()
        assert len(records) == 10
        gran = (a / "granulated.csv").read_text().splitlines()
        assert len(gran) == 13  # header + 12 rows


class TestPipelineReport:
    def test_report_schema(self, tmp_path):
        _run("pipeline", "--data", CORPUS, "--schema", SCHEMA, "--decision", "mvv",
             "--out", str(tmp_path))
        doc = json.loads((tmp_path / "report.json").read_text())
        assert set(doc) == {
            "config", "decision", "el_met", "stop_reason", "notes",
            "iterations", "best", "discretizers", "granular",
        }
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

    def test_malformed_report_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"decision\": \"mvv\"}")
        assert _run("backanalyze", "--report", str(bad), "--observe", "1.0") == 2


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

    @pytest.mark.parametrize("steepness", ["nan", "inf"])
    def test_non_finite_steepness_is_1(self, tmp_path, capsys, steepness):
        code = _run("surrogate", "--count", "10", "--steepness", steepness,
                    "--out", str(tmp_path))
        assert code == 1
        assert "steepness" in capsys.readouterr().err
        assert not (tmp_path / "runs.csv").exists()

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

    def test_condition_attribute_as_decision_is_1(self, tmp_path, capsys):
        out = tmp_path / "reducts.txt"
        code = _run("reducts", "--data", CORPUS, "--schema", SCHEMA,
                    "--decision", "cb", "--out", str(out))
        assert code == 1
        assert "'cb' is not a decision attribute" in capsys.readouterr().err
        assert not out.exists()

    def test_implicant_blowup_is_2(self, tmp_path, capsys):
        """22 conditions over 40 random rows have over 10,000 reducts; the
        expansion stops at its bound with a data error instead of running on."""
        rng = random.Random(5)
        names = [f"c{i}" for i in range(22)] + ["d"]
        schema = [{"name": n, "role": "condition"} for n in names[:-1]]
        schema.append({"name": "d", "role": "decision"})
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        rows = [",".join(f"{rng.uniform(1, 100):.6f}" for _ in names) for _ in range(40)]
        (tmp_path / "runs.csv").write_text(",".join(names) + "\n" + "\n".join(rows) + "\n")
        t0 = time.monotonic()
        code = _run("reducts", "--data", str(tmp_path / "runs.csv"),
                    "--schema", str(tmp_path / "schema.json"))
        elapsed = time.monotonic() - t0
        assert code == 2
        err = capsys.readouterr().err
        assert "implicants" in err and "Traceback" not in err
        assert elapsed < 60.0, f"bounded expansion took {elapsed:.1f}s"


class TestRulesCommand:
    def test_writes_rule_file(self, tmp_path):
        code = _run("rules", "--data", CORPUS, "--schema", SCHEMA, "--decision", "mvv",
                    "--min_strength", "0.0", "--max_length", "3", "--max_rules", "8",
                    "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "rules.txt").exists()


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
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @settings(max_examples=150, deadline=None)
    @given(
        valid=st.booleans(),
        tokens=st.lists(_argv_tokens(), max_size=6),
        drop=st.integers(0, 8),
    )
    def test_matches_full_parser(self, command, valid, tokens, drop):
        """The parser holding only the invoked command gives the same
        Namespace, or the same usage error, as the parser holding all six,
        on valid and invalid values, --flag=value, abbreviated, unknown,
        repeated and missing flags."""
        base = VALID_ARGV[command] if valid else VALID_ARGV[command][drop:]
        argv = [command, *base, *(t for token in tokens for t in token)]
        assert _parse_outcome(build_parser(command), argv) == _parse_outcome(
            build_parser(), argv
        )

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


def test_cli_path_loads_no_numpy(tmp_path):
    """Importing the package and running every command but ``surrogate``
    on the corpus never imports numpy, and nothing on that path imports
    logging."""
    script = textwrap.dedent(
        f"""
        import sys
        import somrough
        assert "numpy" not in sys.modules, "import somrough"
        from somrough.cli import main
        assert "logging" not in sys.modules, "import somrough.cli"
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
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert done.returncode == 0, done.stderr


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
    def test_exit_contract(self, ranges):
        """``surrogate`` with any JSON ranges file exits 0, 1 or 2 without a
        traceback or a numpy RuntimeWarning."""
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


def _setting_names() -> list:
    """PipelineConfig's fields in order, RuleConstraints' in place of
    ``constraints``."""
    return [
        g.name
        for f in fields(PipelineConfig)
        for g in (fields(RuleConstraints) if f.name == "constraints" else [f])
    ]


# A value other than the default for every setting, in field order.
NON_DEFAULT = {
    "runs": 2,
    "max_closed": 1,
    "el": 0.5,
    "min_strength": 0.5,
    "max_length": 3,
    "max_rules": 4,
    "train_fraction": 0.6,
    "granules": 2,
    "max_open_steps": 2,
    "seed": 3,
    "semantics": "exact",
}


class TestSettingsSchema:
    """The run settings are the fields of PipelineConfig and RuleConstraints;
    the config keys, their parse types, the flags and the report's echo
    all follow from them."""

    def test_fields_are_keys_with_default_and_type(self):
        defaults = {**vars(PipelineConfig()), **vars(RuleConstraints())}
        hints = {
            **typing.get_type_hints(PipelineConfig), **typing.get_type_hints(RuleConstraints)
        }
        names = _setting_names()
        assert list(CONFIG_KEYS) == list(DEFAULTS) == names + ["decision"]
        for name in names:
            assert CONFIG_KEYS[name] is hints[name], name
            assert type(DEFAULTS[name]) is hints[name], name
            assert DEFAULTS[name] == defaults[name], name

    def test_every_key_is_a_pipeline_flag(self):
        argv = ["pipeline", "--data", "d", "--schema", "s", "--out", "o"]
        for key, value in NON_DEFAULT.items():
            argv += [f"--{key}", str(value)]
        args = build_parser("pipeline").parse_args(argv + ["--decision", "mvv"])
        parsed = {key: getattr(args, key) for key in CONFIG_KEYS}
        assert parsed == {**NON_DEFAULT, "decision": "mvv"}

    def test_config_file_echoed_in_report(self, tmp_path):
        assert list(NON_DEFAULT) == _setting_names()
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
