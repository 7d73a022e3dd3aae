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
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somrough.cli import COMMANDS, CONFIG_KEYS, build_parser, main, parse_config_file
from somrough.errors import DataError, UsageError

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
    on the corpus never imports numpy."""
    script = textwrap.dedent(
        f"""
        import sys
        import somrough
        assert "numpy" not in sys.modules, "import somrough"
        from somrough.cli import main
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


class TestFuzzedTables:
    @settings(max_examples=80, deadline=None)
    @given(
        table=_run_table(),
        command=st.sampled_from(["pipeline", "reducts", "discretize"]),
        granules=st.integers(2, 3),
        seed=st.integers(0, 3),
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
            first = _call_in(root, argv)
            assert first[0] in (0, 1, 2, 3)
            assert _call_in(root, argv) == first
