"""Self-test of the benchmark at tiny sizes; takes about half a minute.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
and direction, that two traced runs give identical counts, that traced
outputs equal untraced ones, and that failed calls are counted.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace

import run
import tracer

TINY = run.Workload(
    name="selftest-tiny",
    why="tiny surrogate table with missing cells, for the self-test",
    rows=60,
    missing=0.05,
    flags=("--granules", "2", "--semantics", "cumulative", "--min_strength", "0",
           "--max_length", "2", "--max_rules", "4", "--runs", "2"),
    limits=(2, 4, 0.0),
    tables=2,
    observations=2,
    trace_cycles=2,
    cycle_s=1.0,
)

failures: list[str] = []


def check(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def quiet_run(wl, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        correct, result = run.run_workload(wl, seed=3, seconds=1.0, trace=trace)
    return correct, result, out.getvalue()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    declared_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    check(declared_e2e == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    check(declared_layer == list(run.PER_LAYER), "BENCHMARK.json per_layer matches run.py")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names match")

    for trace, declared in ((False, declared_e2e), (True, declared_layer)):
        correct, result, text = quiet_run(TINY, trace)
        check(correct, f"tiny run with trace={int(trace)} is correct")
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        check(emitted == {n: u for n, u, _ in declared}, f"trace={int(trace)} emits every metric")
        check(
            all(f"{better} is better" in line for n, _, better in declared
                for line in text.splitlines() if line.split()[:1] == [n]),
            f"trace={int(trace)} prints each metric's direction",
        )
        check(all(f" {n} " in text for n, _, _ in declared), f"trace={int(trace)} prints names")
    check(not tracer.installed(), "no wrapper is left installed in the parent")

    _, first, _ = quiet_run(TINY, True)
    _, second, _ = quiet_run(TINY, True)
    counts = [n for n, unit, _ in run.PER_LAYER if unit in ("count", "ratio")]
    check(
        all(first["metrics"][n] == second["metrics"][n] for n in counts),
        "two traced runs give identical counts and ratios",
    )

    folder = run.WORK / "selftest-failures"
    inputs, _ = run.make_inputs(TINY, 3, folder / "inputs")
    cycle = next(run.cycles(TINY, 3, inputs))
    broken = replace(TINY, flags=TINY.flags + ("--granules", "1"))  # UsageError: exit 1
    tally = run.Tally()
    run.run_cycle(broken, cycle, folder / "calls", tally)
    e2e = run.end_to_end(tally, run.Setup(inputs, 1.0, 0.0))
    check(
        tally.attempted == 1 and tally.failed == 1 and e2e["fail_frac"] == 1.0 and tally.problems,
        "a forced pipeline failure is counted in fail_frac and fails the checks",
    )

    jeffrey = run.WORKLOADS["jeffrey-corpus"]
    j_inputs, _ = run.make_inputs(jeffrey, 0, folder / "jeffrey")
    tally = run.Tally()
    run.run_cycle(jeffrey, run.Cycle(j_inputs[0], 1, tuple(j_inputs[0].observations)),
                  folder / "jcalls", tally)
    check(
        tally.failed == 13 and tally.known_defects == 13 and not tally.problems,
        "the empty-rule-set backanalyze exit (master seed 1) is a counted, known failure",
    )

    with contextlib.redirect_stdout(io.StringIO()):
        runs = [run.run_workload(jeffrey, seed=0, seconds=1.0, trace=False)[1] for _ in range(2)]
    check(
        runs[0]["failed"] > 0
        and all((r["attempted"], r["failed"]) == (runs[0]["attempted"], runs[0]["failed"])
                for r in runs),
        "two timed runs of one seed attempt and fail the same calls",
    )

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
