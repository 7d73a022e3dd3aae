"""A census of single-value edits to two reports: what ``backanalyze``
makes of each.

The base reports are kept beside their tallies, so a change of what
``pipeline`` writes does not move the census:
- ``tests/data/report_census.json``: the report ``pipeline`` wrote for the
  bundled corpus at seed 0 with ``--decision mvv`` while reports still
  carried ``best.semantics``, which the reader now ignores;
- ``tests/data/report_census_surrogate.json``: the report ``pipeline``
  writes for ``somrough surrogate --count 200 --seed 101`` at criterion 7's
  flags and seed 1000 (``SURROGATE_FLAGS``).
Each edit from a fixed menu is applied to a base report, one at a time, and
``backanalyze`` runs in-process once per center of the decision's quantizer.
No edit may raise out of ``main``, and every exit is 0, 1 or 2. The tally of
outcomes per edited path (the exit, and at exit 0 whether the estimate is
the unedited report's) must equal the committed one, so a change that
closes a hole in the report checks, or opens one, shows as a diff of that
file.

The menu:
- an int plus 1, minus 1, set to 0, set to -1, or written as a float;
- a float times (1 + 1e-12) or 1.5, negated, set to 0.0, or plus 1;
- a bool flipped;
- a string emptied, suffixed, or swapped with its sibling (see ``SIBLINGS``);
- a list emptied, without its first or its last item, reversed, or with its
  first item doubled; the items of a list longer than 4 are edited at 0, 1
  and the last;
- an object with one key dropped, or a ``zzz`` key added.
An edit that leaves the JSON text as it was is skipped.

Rewrite the tallies of both files with ``python tests/test_report_census.py``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from somrough.cli import main
from somrough.corpus import JEFFREY_OBSERVED_RATE_MS
from test_golden import CORPUS, SCHEMA

DATA = Path(__file__).parent / "data"
CENSUS = DATA / "report_census.json"
SURROGATE_CENSUS = DATA / "report_census_surrogate.json"
SURROGATE_FLAGS = ("--decision", "displacement", "--granules", "2", "--semantics", "exact",
                   "--min_strength", "0", "--max_length", "3", "--max_rules", "8",
                   "--seed", "1000")

SIBLINGS = {"at_most": "exactly", "cumulative": "exact", "linear": "log10",
            "condition": "decision"}
SIBLINGS.update({v: k for k, v in SIBLINGS.items()})


def _menu(value) -> list:
    """(edit, new value) pairs for one JSON value; objects are edited by key."""
    t = type(value)
    if t is bool:
        return [("flipped", not value)]
    if t is int:
        return [("+1", value + 1), ("-1", value - 1), ("set 0", 0), ("set -1", -1),
                ("as float", float(value))]
    if t is float:
        return [("x(1+1e-12)", value * (1 + 1e-12)), ("x1.5", value * 1.5),
                ("negated", -value), ("set 0.0", 0.0), ("+1", value + 1)]
    if t is str:
        swap = [("swapped", SIBLINGS[value])] if value in SIBLINGS else []
        return [("emptied", ""), ("suffixed", value + "x"), *swap]
    if t is list:
        return [("emptied", []), ("no first", value[1:]), ("no last", value[:-1]),
                ("reversed", value[::-1]), ("first doubled", value[:1] + value)]
    return []


def edits(doc):
    """(path, edited document) for every menu edit of ``doc``, in document
    order. A path names the edited value: ``best.rules[0].support``."""

    def walk(value, path, put):
        for _, new in _menu(value):
            if json.dumps(new) != json.dumps(value):
                yield path, put(new)
        if type(value) is dict:
            for key, item in value.items():
                sub = f"{path}.{key}" if path else key
                yield sub, put({k: v for k, v in value.items() if k != key})
                yield from walk(item, sub, lambda new, key=key: put({**value, key: new}))
            yield (f"{path}.zzz" if path else "zzz"), put({**value, "zzz": 0})
        elif type(value) is list:
            picks = range(len(value)) if len(value) <= 4 else (0, 1, len(value) - 1)
            for i in picks:
                yield from walk(value[i], f"{path}[{i}]",
                                lambda new, i=i: put(value[:i] + [new] + value[i + 1:]))

    yield from walk(doc, "", lambda new: new)


def backanalyze(report: Path, observed: float) -> tuple:
    """Exit code and standard output of one in-process ``backanalyze``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["backanalyze", "--report", str(report), "--observe", repr(observed)])
    return code, out.getvalue()


def census(doc: dict, folder: Path) -> dict:
    """{path: {outcome: edits}} over every edit of the report ``doc``."""
    report = folder / "report.json"
    centers = doc["discretizers"][doc["decision"]]["centers"]

    def outcomes(text):
        report.write_text(text)
        return [backanalyze(report, c) for c in centers]

    base = outcomes(json.dumps(doc))
    assert {code for code, _ in base} == {0}
    tallies = {}
    for path, edited in edits(doc):
        got = outcomes(json.dumps(edited))
        codes = sorted({code for code, _ in got})
        if codes == [0]:
            outcome = "exit 0, same" if got == base else "exit 0, changed"
        else:
            outcome = "exit " + "/".join(map(str, codes))
        tally = tallies.setdefault(path, {})
        tally[outcome] = tally.get(outcome, 0) + 1
    return tallies


def census_text(report: dict, tallies: dict) -> str:
    """The census file: the report on one line, then one line per path."""
    lines = ",\n".join(f"  {json.dumps(p)}: {json.dumps(t, sort_keys=True)}"
                       for p, t in tallies.items())
    return f'{{\n "report": {json.dumps(report)},\n "tallies": {{\n{lines}\n }}\n}}\n'


def _check_census(census_file: Path, folder: Path):
    committed = json.loads(census_file.read_text())
    got = census(committed["report"], folder)
    outcomes = {o for tally in got.values() for o in tally}
    assert outcomes <= {"exit 0, same", "exit 0, changed", "exit 1", "exit 2"}
    assert got == committed["tallies"]


def test_report_edits_match_the_census(tmp_path):
    _check_census(CENSUS, tmp_path)


def test_surrogate_report_edits_match_the_census(tmp_path):
    _check_census(SURROGATE_CENSUS, tmp_path)


def test_census_report_is_the_corpus_report(tmp_path):
    """The base report is what ``pipeline`` writes for the corpus, with the
    ``best.semantics`` of older reports, and reads to the same estimates."""
    base = json.loads(CENSUS.read_text())["report"]
    assert main(["pipeline", "--data", CORPUS, "--schema", SCHEMA, "--decision", "mvv",
                 "--seed", "0", "--out", str(tmp_path)]) == 3
    fresh = tmp_path / "report.json"
    best = {**base["best"]}
    assert best.pop("semantics") == base["config"]["semantics"]
    assert json.loads(fresh.read_text()) == {**base, "best": best}
    old = tmp_path / "census-report.json"
    old.write_text(json.dumps(base))
    for observed in (*base["discretizers"]["mvv"]["centers"], JEFFREY_OBSERVED_RATE_MS):
        assert backanalyze(old, observed) == backanalyze(fresh, observed)


def test_census_report_is_the_surrogate_report(tmp_path):
    """The surrogate base report is what ``pipeline`` writes today."""
    assert main(["surrogate", "--count", "200", "--seed", "101", "--out", str(tmp_path)]) == 0
    assert main(["pipeline", "--data", str(tmp_path / "runs.csv"),
                 "--schema", str(tmp_path / "schema.json"), *SURROGATE_FLAGS,
                 "--out", str(tmp_path / "out")]) == 0
    fresh = json.loads((tmp_path / "out" / "report.json").read_text())
    assert fresh == json.loads(SURROGATE_CENSUS.read_text())["report"]


if __name__ == "__main__":
    for census_file in (CENSUS, SURROGATE_CENSUS):
        committed = json.loads(census_file.read_text())
        with tempfile.TemporaryDirectory() as folder:
            tallies = census(committed["report"], Path(folder))
        census_file.write_text(census_text(committed["report"], tallies))
        print(f"wrote {census_file}")
