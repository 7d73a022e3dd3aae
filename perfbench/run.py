"""End-to-end benchmark of the somrough command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Load is a closed loop with one client: one ``somrough`` CLI call at a
time, driven through ``somrough.cli.main(argv)`` the way a user runs
``somrough pipeline`` and then ``somrough backanalyze``. Every timed call
runs in a child forked from a parent that has imported the package but
never run a call, so no call can reuse what an earlier call computed,
just as separate CLI invocations share nothing. A run is a fixed schedule
of cycles sized from ``--seconds``, so what it attempts, and which calls
fail, depends on the seed alone and not on the speed of the machine.
``--trace 1`` runs a fixed schedule of calls twice, plain and with the
per-layer tracer installed, and reports per-layer self times and counts
instead of end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The run exits 1
when an output breaks a correctness check; the one tolerated failure is
the known ``backanalyze`` exit 1 on a report whose best rule set is empty,
which is counted as a failed call.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.resources
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One client and no threads: keep numeric libraries from starting thread
# pools before the parent forks.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if not (SRC / "somrough" / "__init__.py").is_file():
    sys.exit(f"perfbench: no somrough sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import somrough  # noqa: E402
from somrough import cli  # noqa: E402
from somrough.corpus import JEFFREY_OBSERVED_RATE_MS  # noqa: E402
from somrough.rules import parse_rules, render_rules  # noqa: E402
from somrough.surrogate import DECISION_NAME, generate_table  # noqa: E402
from somrough.table import DecisionTable, dump_schema, load_schema, load_table, to_csv  # noqa: E402

import tracer  # noqa: E402

if Path(somrough.__file__).resolve().parent != SRC / "somrough":
    sys.exit(f"perfbench: imported somrough from {somrough.__file__}, not from {SRC}")

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("backanalyze_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_frac", "ratio", "higher"),
)
INFORMATIONAL = (
    ("fail_frac", "ratio", "lower"),
    ("recovery_rate", "ratio", "higher"),
    ("best_accuracy", "ratio", "higher"),
)
PER_LAYER = (
    ("cli.load_s", "s", "lower"),
    ("cli.report_io_s", "s", "lower"),
    ("pipeline.close_open_self_s", "s", "lower"),
    ("pipeline.granulate_s", "s", "lower"),
    ("pipeline.iterations", "count", "lower"),
    ("pipeline.accept_frac", "ratio", "higher"),
    ("pipeline.back_analyze_self_s", "s", "lower"),
    ("som.fit_s", "s", "lower"),
    ("som.fits", "count", "lower"),
    ("som.train_calls", "count", "lower"),
    ("som.fallbacks", "count", "lower"),
    ("som.fit_yield", "ratio", "higher"),
    ("som.presentations", "count", "lower"),
    ("table.split_s", "s", "lower"),
    ("table.splits", "count", "lower"),
    ("table.validate_s", "s", "lower"),
    ("table.validated_cells", "count", "lower"),
    ("rules.induce_s", "s", "lower"),
    ("rules.induce_calls", "count", "lower"),
    ("rules.rules_induced", "count", "lower"),
    ("rules.accuracy_s", "s", "lower"),
    ("rules.classify_calls", "count", "lower"),
    ("rough.reducts_s", "s", "lower"),
    ("rough.disc_matrix_s", "s", "lower"),
    ("rough.disc_function_s", "s", "lower"),
    ("rough.partition_s", "s", "lower"),
    ("rough.pairs", "count", "lower"),
    ("rough.useful_pair_frac", "ratio", "higher"),
    ("rough.distinct_vectors", "count", "lower"),
    ("rough.clauses", "count", "lower"),
    ("rough.implicants", "count", "lower"),
    ("surrogate.generate_s", "s", "lower"),
    ("recovery_rate", "ratio", "higher"),
    ("best_accuracy", "ratio", "higher"),
)

SETUP_REPS = 7
# A run that takes longer than this many times --seconds (a machine far
# slower than the one the nominal cycle times were taken on) stops early.
CUT_FACTOR = 2.0
PIPELINE_EXITS = (0, 3)
EMPTY_RULES_MESSAGE = "cannot back-analyze with an empty rule set"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int | None  # surrogate table size; None runs the bundled corpus
    missing: float  # share of condition cells replaced by "?"
    flags: tuple[str, ...]  # pipeline settings beyond --data/--schema/--out/--seed
    limits: tuple[int, int, float]  # max_length, max_rules, min_strength the rules obey
    tables: int  # surrogate tables generated per run; cycles rotate through them
    observations: int  # backanalyze calls per pipeline call (surrogate workloads)
    trace_cycles: int  # cycles in the fixed traced schedule
    cycle_s: float  # nominal seconds per cycle; sizes the schedule of a timed run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="jeffrey-corpus",
            why="the paper's 12-run corpus at default settings: per-call fixed costs "
            "(parsing, JSON and CSV I/O, quantizer retries) dominate and the rough layer "
            "sees only 66 pairs",
            rows=None,
            missing=0.0,
            flags=("--decision", "mvv"),
            limits=(2, 5, 0.60),
            tables=1,
            observations=13,
            trace_cycles=20,
            cycle_s=0.35,
        ),
        Workload(
            name="surrogate-500",
            why="500 complete surrogate rows, criterion-7 settings: quantizer training "
            "dominates pipeline and the O(n^2) decision-relative matrix (124,750 pairs) "
            "dominates backanalyze",
            rows=500,
            missing=0.0,
            flags=(
                "--granules", "2", "--semantics", "exact", "--min_strength", "0",
                "--max_length", "3", "--max_rules", "8", "--runs", "1",
            ),
            limits=(3, 8, 0.0),
            # One table per cycle of a 30 s run: backanalyze cost varies by table.
            tables=12,
            observations=1,
            trace_cycles=2,
            cycle_s=2.5,
        ),
    )
}


# --- inputs ----------------------------------------------------------------


@dataclass
class TableInput:
    data: Path
    schema: Path
    # (observed decision value, generating condition values or None)
    observations: list[tuple[float, dict | None]]


def _truth(table: DecisionTable, i: int) -> dict:
    return {n: table.rows[i][table.col_index(n)] for n in table.condition_names}


def _write_table(folder: Path, table: DecisionTable) -> tuple[Path, Path]:
    folder.mkdir(parents=True, exist_ok=True)
    data, schema = folder / "runs.csv", folder / "schema.json"
    data.write_text(to_csv(table))
    schema.write_text(dump_schema(list(table.specs)))
    return data, schema


def _blank_cells(table: DecisionTable, share: float, rng) -> DecisionTable:
    """Replace a seeded share of the condition cells with the missing marker."""
    cond = [table.col_index(n) for n in table.condition_names]
    cells = [(i, j) for i in range(len(table)) for j in cond]
    picks = rng.choice(len(cells), size=round(share * len(cells)), replace=False)
    rows = [list(r) for r in table.rows]
    for k in picks:
        i, j = cells[k]
        rows[i][j] = None
    return DecisionTable(specs=table.specs, rows=tuple(map(tuple, rows)))


def make_inputs(wl: Workload, seed: int, folder: Path) -> tuple[list[TableInput], float]:
    """Write the workload's inputs; returns them and the surrogate time."""
    if folder.exists():
        shutil.rmtree(folder)
    if wl.rows is None:
        data_dir = importlib.resources.files("somrough.data")
        csv_text = data_dir.joinpath("jeffrey_runs.csv").read_text()
        schema_text = data_dir.joinpath("jeffrey_schema.json").read_text()
        table = load_table(csv_text, load_schema(schema_text))
        folder.mkdir(parents=True)
        data, schema = folder / "runs.csv", folder / "schema.json"
        data.write_text(csv_text)
        schema.write_text(schema_text)
        mvv = table.column("mvv")
        obs = [(JEFFREY_OBSERVED_RATE_MS, None)]
        obs += [(mvv[i], _truth(table, i)) for i in range(len(table))]
        return [TableInput(data, schema, obs)], 0.0

    rng = np.random.default_rng([seed, 0])
    generate_s = 0.0
    inputs = []
    for t in range(wl.tables):
        t0 = perf_counter()
        table = generate_table(count=wl.rows, seed=int(rng.integers(2**31 - 1)))
        generate_s += perf_counter() - t0
        given = _blank_cells(table, wl.missing, rng) if wl.missing else table
        data, schema = _write_table(folder / f"t{t}", given)
        proxy = table.column(DECISION_NAME)
        top = sorted(range(len(table)), key=lambda i: -proxy[i])[: max(1, len(table) // 10)]
        # One distinct top-decile row per backanalyze call of every cycle.
        order = [int(i) for i in rng.permutation(top)]
        obs = [(proxy[i], _truth(table, i)) for i in order]
        inputs.append(TableInput(data, schema, obs))
    return inputs, generate_s


def import_seconds() -> float:
    """Package import time in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import somrough; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout.strip())


@dataclass
class Setup:
    inputs: list[TableInput]
    setup_s: float
    generate_s: float


def setup(wl: Workload, seed: int, folder: Path) -> Setup:
    """Set up SETUP_REPS times and keep the medians (the inputs are identical)."""
    totals, generates = [], []
    for _ in range(SETUP_REPS):
        imp = import_seconds()
        t0 = perf_counter()
        inputs, generate_s = make_inputs(wl, seed, folder)
        totals.append(imp + perf_counter() - t0)
        generates.append(generate_s)
    return Setup(inputs, statistics.median(totals), statistics.median(generates))


# --- the schedule ------------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    table: TableInput
    master_seed: int
    observations: tuple[tuple[float, dict | None], ...]


def cycles(wl: Workload, seed: int, inputs: list[TableInput]):
    """Endless deterministic schedule of cycles.

    Tables rotate, and each visit to a table takes its next observations.
    The corpus runs consecutive master seeds, as a user sweeping seeds would.
    """
    for k in itertools.count():
        t = inputs[k % len(inputs)]
        first = (k // len(inputs)) * wl.observations
        n = len(t.observations)
        obs = tuple(t.observations[(first + i) % n] for i in range(wl.observations))
        if wl.rows is None:
            master_seed = 1000 * seed + k
        else:
            master_seed = int(np.random.default_rng([seed, 1, k]).integers(2**31 - 1))
        yield Cycle(t, master_seed, obs)


# --- one CLI call in a fresh process -----------------------------------------


@dataclass
class Call:
    rc: int | None  # None: the call raised
    seconds: float
    rss_mb: float
    stderr: str
    trace: dict | None


def run_call(argv: list[str], err_path: Path, traced: bool = False) -> Call:
    """Fork, run ``cli.main(argv)`` in the child, reap it; one child at a time."""
    if tracer.installed():
        raise RuntimeError("tracer wrappers are installed in the parent")
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        status = 70
        try:
            os.close(r)
            fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            sys.stdout = sys.stderr = open(fd, "w", closefd=False)
            tr = tracer.Tracer() if traced else None
            if tr is not None:
                tr.install()
            rc = None
            t0 = perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a traceback is a failed call, reported below
                traceback.print_exc()
            seconds = perf_counter() - t0
            if tr is not None:
                tr.uninstall()
            sys.stdout.flush()
            payload = json.dumps(
                {"rc": rc, "seconds": seconds, "trace": tr.summary() if tr else None}
            ).encode()
            while payload:
                payload = payload[os.write(w, payload) :]
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as pipe:
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    stderr = err_path.read_text(errors="replace")
    rss_mb = usage.ru_maxrss / 1024
    if status != 0 or not payload:
        return Call(None, 0.0, rss_mb, stderr, None)
    res = json.loads(payload)
    return Call(res["rc"], res["seconds"], rss_mb, stderr, res["trace"])


# --- correctness checks --------------------------------------------------------


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_pipeline(wl: Workload, call: Call, out: Path) -> tuple[str | None, dict | None]:
    """Problem found in a pipeline call's exit code and outputs, or None."""
    if call.rc not in PIPELINE_EXITS:
        return f"pipeline exit {call.rc}: {call.stderr.strip()[-300:]}", None
    try:
        doc = json.loads((out / "report.json").read_text())
        rules_txt = (out / "rules.txt").read_text()
        return _pipeline_problem(wl, call, doc, rules_txt), doc
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"malformed pipeline output: {exc!r}", None


def _pipeline_problem(wl: Workload, call: Call, doc: dict, rules_txt: str) -> str | None:
    if (call.rc == 0) != doc["el_met"]:
        return f"exit {call.rc} disagrees with el_met={doc['el_met']}"
    best = doc["best"]
    if rules_txt != "".join(line + "\n" for line in best["rules_text"]):
        return "rules.txt differs from the report's best.rules_text"
    if render_rules(parse_rules(rules_txt)) != rules_txt:
        return "rules.txt does not round-trip through parse_rules/render_rules"
    max_length, max_rules, min_strength = wl.limits
    if len(best["rules"]) > max_rules:
        return f"{len(best['rules'])} rules exceed max_rules={max_rules}"
    for rule in best["rules"]:
        if len(rule["conditions"]) > max_length:
            return f"rule longer than max_length={max_length}"
        if rule["strength"] < min_strength:
            return f"rule strength {rule['strength']} below min_strength={min_strength}"
    return None


def _label(cuts: list[float], value: float) -> int:
    """Granule of a value: 1 above the first cut, the count of cuts + 1 at the bottom."""
    for g, cut in enumerate(cuts, start=1):
        if value > cut:
            return g
    return len(cuts) + 1


def _covers(decision: dict, label: int) -> bool:
    kind, g = decision["kind"], decision["granule"]
    return label <= g if kind == "at_most" else label >= g if kind == "at_least" else label == g


def check_backanalyze(
    call: Call, est_path: Path, report: dict, observed: float
) -> tuple[str | None, bool, dict | None]:
    """(problem or None, known defect?, estimate) for a backanalyze call."""
    if call.rc != 0:
        known = call.rc == 1 and not report["best"]["rules"] and EMPTY_RULES_MESSAGE in call.stderr
        return f"backanalyze exit {call.rc}: {call.stderr.strip()[-300:]}", known, None
    try:
        est = json.loads(est_path.read_text())
        return _estimate_problem(est, report, observed), False, est
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"malformed estimate: {exc!r}", False, None


def _estimate_problem(est: dict, report: dict, observed: float) -> str | None:
    decision = report["decision"]
    label = _label(report["discretizers"][decision]["cuts"], observed)
    if est["decision"] != decision or est["observed_granule"] != label:
        return f"observed granule {est['observed_granule']}, expected {label}"
    expected = [r for r in report["best"]["rules"] if _covers(r["decision"], label)]
    if est["matched_rules"] != expected:
        return "matched rules differ from the report rules covering the granule"
    bundles = [
        [{"attribute": c["attribute"], "lo": c["lo"], "hi": c["hi"]} for c in r["conditions"]]
        for r in expected
    ]
    if est["bundles"] != bundles or est["no_match"] != (not expected):
        return "bundles differ from the matched rules' conditions"
    return None


def recovered(est: dict, truth: dict) -> bool:
    """True when the generating parameters satisfy every interval of some bundle."""

    def inside(iv):
        v = truth[iv["attribute"]]
        return (iv["lo"] is None or v >= iv["lo"]) and (iv["hi"] is None or v <= iv["hi"])

    return any(all(inside(iv) for iv in bundle) for bundle in est["bundles"])


# --- measuring -------------------------------------------------------------------


@dataclass
class Tally:
    pipeline_s: list[float] = field(default_factory=list)
    backanalyze_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    known_defects: int = 0
    problems: list[str] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    iterations: int = 0
    accepted: int = 0
    recovered: int = 0
    row_observations: int = 0
    traces: list[dict] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)  # per call, in schedule order

    def fail(self, problem: str, known: bool = False):
        self.failed += 1
        if known:
            self.known_defects += 1
        else:
            self.problems.append(problem)


def run_cycle(wl: Workload, cycle: Cycle, folder: Path, tally: Tally, traced: bool = False):
    """One pipeline call and its backanalyze calls, each in a fresh process."""
    folder.mkdir(parents=True, exist_ok=True)
    err = folder / "call.err"
    out = folder / "out"
    if out.exists():
        shutil.rmtree(out)
    argv = [
        "pipeline", "--data", str(cycle.table.data), "--schema", str(cycle.table.schema),
        "--out", str(out), "--seed", str(cycle.master_seed), *wl.flags,
    ]
    call = run_call(argv, err, traced)
    tally.attempted += 1
    tally.rss_mb.append(call.rss_mb)
    problem, report = check_pipeline(wl, call, out)
    if problem is not None:
        tally.fail(problem)
        return
    tally.pipeline_s.append(call.seconds)
    tally.accuracies.append(report["best"]["accuracy"])
    tally.iterations += len(report["iterations"])
    tally.accepted += sum(1 for it in report["iterations"] if it["accepted"])
    tally.digests.append(_digest(out / "report.json") + _digest(out / "rules.txt"))
    if call.trace is not None:
        tally.traces.append(call.trace)

    for n, (value, truth) in enumerate(cycle.observations):
        est_path = folder / f"estimate{n}.json"
        est_path.unlink(missing_ok=True)
        argv = ["backanalyze", "--report", str(out / "report.json"), "--observe", repr(value),
                "--out", str(est_path)]
        call = run_call(argv, err, traced)
        tally.attempted += 1
        tally.rss_mb.append(call.rss_mb)
        problem, known, est = check_backanalyze(call, est_path, report, value)
        if problem is not None:
            tally.fail(problem, known)
            tally.digests.append("failed")
            continue
        tally.backanalyze_s.append(call.seconds)
        tally.digests.append(_digest(est_path))
        if call.trace is not None:
            tally.traces.append(call.trace)
        if truth is not None:
            tally.row_observations += 1
            tally.recovered += recovered(est, truth)


def first_digests(folder: Path) -> dict:
    out = folder / "out"
    files = [out / "report.json", out / "rules.txt", folder / "estimate0.json"]
    return {p.name: _digest(p) for p in files if p.exists()}


def planned_cycles(wl: Workload, seconds: float) -> int:
    """Cycles in a timed run: about ``seconds`` at the nominal cycle time."""
    return max(2, round(seconds / wl.cycle_s))


def measure(wl: Workload, seed: int, seconds: float, inputs: list[TableInput], folder: Path):
    """Closed loop over the fixed schedule of ``planned_cycles`` cycles.

    Returns the tally, the seconds measured, the first cycle's digests and
    the number of cycles run, which is short of the plan only when the run
    passed ``CUT_FACTOR * seconds``.
    """
    tally = Tally()
    start = perf_counter()
    cutoff = start + CUT_FACTOR * seconds
    digests = None
    done = 0
    for cycle in itertools.islice(cycles(wl, seed, inputs), planned_cycles(wl, seconds)):
        if done and perf_counter() > cutoff:
            break
        run_cycle(wl, cycle, folder, tally)
        done += 1
        if digests is None:
            digests = first_digests(folder)
    return tally, perf_counter() - start, digests or {}, done


def measure_traced(wl: Workload, seed: int, inputs: list[TableInput], folder: Path):
    """The fixed traced schedule, each cycle run plain and then traced."""
    plain, traced = Tally(), Tally()
    schedule = cycles(wl, seed, inputs)
    for _ in range(wl.trace_cycles):
        cycle = next(schedule)
        run_cycle(wl, cycle, folder / "plain", plain)
        run_cycle(wl, cycle, folder / "traced", traced, traced=True)
    return plain, traced


# --- reporting -------------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; shows machine-speed drift."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


def _spread(values: list[float]) -> str:
    """Fastest sample, and the highest of p90/p99 with at least ten samples beyond it."""
    if not values:
        return "no samples"
    n = len(values)
    text = f"fastest {min(values):.6g}"
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[p - 1]
            return f"{text}, p{p} {q:.6g}"
    return text


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def end_to_end(tally: Tally, st: Setup) -> dict:
    return {
        "setup_s": st.setup_s,
        "pipeline_s": statistics.median(tally.pipeline_s) if tally.pipeline_s else 0.0,
        "backanalyze_s": statistics.median(tally.backanalyze_s) if tally.backanalyze_s else 0.0,
        "peak_rss_mb": max(tally.rss_mb, default=0.0),
        "success_frac": 1.0 - _ratio(tally.failed, tally.attempted),
        "fail_frac": _ratio(tally.failed, tally.attempted),
        "recovery_rate": _ratio(tally.recovered, tally.row_observations),
        "best_accuracy": statistics.fmean(tally.accuracies) if tally.accuracies else 0.0,
    }


def print_metrics(specs, values: dict, notes: dict | None = None):
    for name, unit, better in specs:
        note = (notes or {}).get(name, "")
        print(f"  {name:32s} {values[name]:<14.6g} {unit:6s} {better} is better{note}")


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[bool, dict]:
    """Set up, measure, check and print one workload; returns (correct, result line)."""
    folder = WORK / wl.name
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_before_s": calibrate(),
    }
    st = setup(wl, seed, folder / "inputs")
    print(f"workload {wl.name} (seed {seed}, trace {int(trace)}): {wl.why}")
    if trace:
        plain, tally = measure_traced(wl, seed, st.inputs, folder / "calls")
        identical = plain.digests == tally.digests
        if not identical:
            tally.problems.append("traced outputs differ from untraced outputs")
        traced_e2e = end_to_end(tally, st)
        values = tracer.layer_metrics(tally.traces)
        values.update(
            {
                "pipeline.iterations": tally.iterations,
                "pipeline.accept_frac": _ratio(tally.accepted, tally.iterations),
                "surrogate.generate_s": st.generate_s,
                "recovery_rate": traced_e2e["recovery_rate"],
                "best_accuracy": traced_e2e["best_accuracy"],
            }
        )
        overhead = {
            kind: statistics.fmean(getattr(tally, kind)) - statistics.fmean(getattr(plain, kind))
            for kind in ("pipeline_s", "backanalyze_s")
            if getattr(tally, kind) and getattr(plain, kind)
        }
        specs = PER_LAYER
        attempted = plain.attempted + tally.attempted
        failed = plain.failed + tally.failed
        problems = plain.problems + tally.problems
        digest = hashlib.sha256("".join(tally.digests).encode()).hexdigest()
        record["schedule_digest"] = digest
        record["traced_equals_untraced"] = identical
        record["trace_overhead_s"] = overhead
        print_metrics(specs, values)
        print(f"  traced outputs equal untraced: {identical}; schedule sha256 {digest}")
        print("  tracing overhead (traced minus plain mean call time): "
              + ", ".join(f"{k} {v:+.6g} s" for k, v in overhead.items()))
    else:
        tally, elapsed, digests, done = measure(wl, seed, seconds, st.inputs, folder / "calls")
        planned = planned_cycles(wl, seconds)
        print(f"  {done} of {planned} planned cycles in {elapsed:.1f} s")
        values = end_to_end(tally, st)
        specs = END_TO_END
        attempted, failed, problems = tally.attempted, tally.failed, tally.problems
        notes = {
            "pipeline_s": f"  median of {len(tally.pipeline_s)}; {_spread(tally.pipeline_s)}",
            "backanalyze_s": f"  median of {len(tally.backanalyze_s)}; "
            f"{_spread(tally.backanalyze_s)}",
            "peak_rss_mb": f"  max over {len(tally.rss_mb)} call processes",
            "setup_s": f"  median of {SETUP_REPS} set-ups",
            "success_frac": f"  {attempted - failed}/{attempted} calls",
            "fail_frac": f"  {failed}/{attempted}; {tally.known_defects} known empty-rule-set "
            "backanalyze exits",
            "recovery_rate": f"  {tally.recovered}/{tally.row_observations} row observations",
            "best_accuracy": f"  mean of {len(tally.accuracies)} reports",
        }
        print_metrics(END_TO_END + INFORMATIONAL, values, notes)
        for name, value in digests.items():
            print(f"  sha256 {name} {value} (first cycle)")
        record.update(
            measured_s=elapsed,
            cycles_planned=planned,
            cycles_run=done,
            pipeline_samples_s=tally.pipeline_s,
            backanalyze_samples_s=tally.backanalyze_s,
            first_cycle_sha256=digests,
            informational={k: values[k] for k, _, _ in INFORMATIONAL},
        )
    for problem in problems[:5]:
        print(f"  CHECK FAILED: {problem}")
    record["calibration_after_s"] = calibrate()
    record["problems"] = problems
    print("  noise " + json.dumps({k: record[k] for k in (
        "nproc", "python", "numpy", "calibration_before_s", "calibration_after_s")}))
    correct = not problems and attempted > 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }
    record["result"] = result
    (folder / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    return correct, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    result = None
    for name in names:
        correct, result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        all_correct &= correct
    print(json.dumps(result))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
