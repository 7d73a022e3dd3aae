"""Command-line front end.

Subcommands: discretize, rules, pipeline, backanalyze, surrogate, reducts.
Settings resolve in three layers: built-in defaults, then a flat
``key = value`` config file (--config), then a flag of the same name.

Exit codes: 0 success, 1 usage error, 2 data error, 3 accuracy bar not
met (pipeline only; outputs are still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DataError, UsageError
from .pipeline import (
    PipelineConfig,
    back_analyze,
    close_open,
    config_from_settings,
    config_settings,
    estimate_to_json,
    granular_from_json,
    granulate,
    granulate_observation,
    report_rules_from_json,
    report_to_json,
)
from .rough import reduct_report, reducts
from .rules import RuleConstraints, induce_cover, render_rules
from .som import discretizer_record
from .surrogate import DEFAULT_STEEPNESS, generate_table
from .table import dump_schema, load_schema, load_table, to_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_EL_NOT_MET = 3

# Keys a config file may set, each with a same-named flag: the fields of
# PipelineConfig and RuleConstraints, with their defaults, plus the decision.
DEFAULTS = {**config_settings(PipelineConfig()), "decision": None}
CONFIG_KEYS = {key: str if value is None else type(value) for key, value in DEFAULTS.items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_config_file(text: str) -> dict:
    """Flat ``key = value`` lines; blank lines and # comments allowed."""
    out = {}
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {ln_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise DataError(f"config line {ln_no}: unknown key {key!r}")
        try:
            out[key] = CONFIG_KEYS[key](value)
        except ValueError:
            raise DataError(f"config line {ln_no}: bad value for {key!r}: {value!r}") from None
    return out


def _resolve(args) -> dict:
    """defaults <- config file <- explicit flags."""
    settings = dict(DEFAULTS)
    if getattr(args, "config", None):
        settings.update(parse_config_file(_read(args.config)))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")


def _load_inputs(args):
    schema = load_schema(_read(args.schema))
    return load_table(_read(args.data), schema)


def _need_decision(table, settings) -> str:
    decision = settings.get("decision")
    if decision is None:
        names = table.decision_names
        if len(names) != 1:
            raise UsageError(
                f"--decision required: table has decision attributes {names}"
            )
        return names[0]
    return decision


def cmd_discretize(args) -> int:
    s = _resolve(args)
    table = _load_inputs(args)
    g = granulate(table, granules=s["granules"], seed=s["seed"])
    out = Path(args.out)
    records = "".join(discretizer_record(g.discretizers[n]) + "\n" for n in table.names)
    _write(out / "discretizers.txt", records)
    _write(out / "granulated.csv", to_csv(g))
    print(f"wrote {out / 'discretizers.txt'} and {out / 'granulated.csv'}", file=sys.stderr)
    return EXIT_OK


def cmd_rules(args) -> int:
    s = _resolve(args)
    table = _load_inputs(args)
    decision = _need_decision(table, s)
    g = granulate(table, granules=s["granules"], seed=s["seed"])
    rs = induce_cover(g, decision, config_from_settings(s, RuleConstraints), s["semantics"])
    _write(Path(args.out) / "rules.txt", render_rules(rs))
    print(
        f"{len(rs.rules)} rule(s), {len(rs.uncovered)} uncovered object(s)", file=sys.stderr
    )
    return EXIT_OK


def cmd_pipeline(args) -> int:
    s = _resolve(args)
    table = _load_inputs(args)
    decision = _need_decision(table, s)
    report = close_open(table, decision, config_from_settings(s))
    out = Path(args.out)
    _write(out / "report.json", report_to_json(report))
    _write(out / "rules.txt", render_rules(report.best_rules))
    status = "met" if report.el_met else "NOT met"
    print(
        f"accuracy bar {status}: best {report.best_accuracy:.3f} over "
        f"{report.total_iterations} iteration(s); wrote {out / 'report.json'}",
        file=sys.stderr,
    )
    return EXIT_OK if report.el_met else EXIT_EL_NOT_MET


def cmd_backanalyze(args) -> int:
    try:
        doc = json.loads(_read(args.report))
        rules = report_rules_from_json(doc)
        granular = granular_from_json(doc)
        decision = doc["decision"]
        if decision not in granular.decision_names:
            raise ValueError(f"{decision!r} is not a decision attribute")
    except (KeyError, TypeError, ValueError, UsageError) as exc:
        raise DataError(f"malformed report file: {exc}") from None
    disc = granular.discretizers.get(decision)
    if disc is None:
        raise DataError(f"report carries no quantizer for {decision!r}")
    granule = granulate_observation(disc, args.observe)
    est = back_analyze(rules, (decision, granule), granular)
    text = estimate_to_json(est)
    if args.out:
        _write(Path(args.out), text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    if est.no_match:
        print("no rule matches the observed granule", file=sys.stderr)
    return EXIT_OK


def cmd_surrogate(args) -> int:
    s = _resolve(args)
    ranges = None
    if args.ranges:
        try:
            raw = json.loads(_read(args.ranges))
            if not isinstance(raw, dict):
                raise TypeError("expected an object of [low, high] pairs")
            ranges = {k: (float(v[0]), float(v[1])) for k, v in raw.items()}
        except (ValueError, TypeError, IndexError, KeyError, OverflowError) as exc:
            raise DataError(f"malformed ranges file: {exc}") from None
    table = generate_table(
        ranges=ranges, count=args.count, seed=s["seed"], steepness=args.steepness
    )
    out = Path(args.out)
    _write(out / "runs.csv", to_csv(table))
    _write(out / "schema.json", dump_schema(list(table.specs)))
    print(f"wrote {out / 'runs.csv'} and {out / 'schema.json'}", file=sys.stderr)
    return EXIT_OK


def cmd_reducts(args) -> int:
    s = _resolve(args)
    table = _load_inputs(args)
    decision = s.get("decision")
    if decision is not None and decision not in table.decision_names:
        raise UsageError(f"{decision!r} is not a decision attribute")
    g = granulate(table, granules=s["granules"], seed=s["seed"])
    rs = reducts(g, args.mode, decision=decision)
    text = reduct_report(rs)
    if args.out:
        _write(Path(args.out), text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_settings(p, keys):
    p.add_argument("--config", help="flat key = value settings file")
    for key in keys:
        p.add_argument(f"--{key}", type=CONFIG_KEYS[key], default=None)


def _table_command(keys):
    """Arguments of a command that reads a table and writes to --out."""

    def add_args(p):
        p.add_argument("--data", required=True)
        p.add_argument("--schema", required=True)
        p.add_argument("--out", required=True)
        _add_settings(p, keys)

    return add_args


def _backanalyze_args(p):
    p.add_argument("--report", required=True)
    p.add_argument("--observe", type=float, required=True, help="measured decision value")
    p.add_argument("--out")


def _surrogate_args(p):
    p.add_argument("--count", type=int, default=30)
    p.add_argument("--ranges", help="JSON file: {parameter: [low, high]}")
    p.add_argument("--steepness", type=float, default=DEFAULT_STEEPNESS)
    p.add_argument("--out", required=True)
    _add_settings(p, ("seed",))


def _reducts_args(p):
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--mode", choices=("plain", "decision_relative"), default="decision_relative")
    p.add_argument("--out")
    _add_settings(p, ("granules", "seed", "decision"))


_RULE_KEYS = ("granules", "min_strength", "max_length", "max_rules", "semantics")

# name -> (help, handler, adds the command's arguments), in help order
COMMANDS = {
    "discretize": (
        "fit quantizers and emit the granulated table",
        cmd_discretize,
        _table_command(("granules", "seed")),
    ),
    "rules": (
        "induce a rule cover on the full table",
        cmd_rules,
        _table_command(_RULE_KEYS + ("seed", "decision")),
    ),
    "pipeline": (
        "run the close-open iteration", cmd_pipeline, _table_command(tuple(CONFIG_KEYS))
    ),
    "backanalyze": (
        "invert an observation with a pipeline report", cmd_backanalyze, _backanalyze_args
    ),
    "surrogate": ("generate a synthetic run table", cmd_surrogate, _surrogate_args),
    "reducts": ("reduct and core report for a table", cmd_reducts, _reducts_args),
}


def build_parser(command: str | None = None) -> _Parser:
    """The ``somrough`` argument parser with one subparser per command.

    With ``command`` set to one of ``COMMANDS``, only that command's
    subparser is registered. It parses that command's arguments exactly as
    the full parser does, and it costs less to build, which counts on
    every short CLI call. The full parser (``command=None``) is needed for
    top-level help and to name the choices when the command is unknown.
    Parse errors raise ``UsageError`` with argparse's message.
    """
    parser = _Parser(prog="somrough", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, add_args) in COMMANDS.items():
        if command is None or name == command:
            p = sub.add_parser(name, help=help_text)
            add_args(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
