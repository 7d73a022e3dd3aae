"""Command-line front end.

Subcommands: discretize, rules, pipeline, backanalyze, surrogate, reducts.
Settings resolve in three layers: built-in defaults, then a flat
``key = value`` config file (--config), then a flag of the same name.

Exit codes: 0 success, 1 usage error, 2 data error, 3 accuracy bar not
met (pipeline only; outputs are still written).
"""

from __future__ import annotations

import gc
import json
import os
import sys
from types import SimpleNamespace

from ._record import fields
from .errors import DataError, SomroughError, UsageError
from .pipeline import (
    SETTING_TYPES,
    PipelineConfig,
    back_analyze,
    close_open,
    config_from_settings,
    estimate_to_json,
    granular_from_json,
    granulate,
    granulate_observation,
    report_rules_from_json,
    report_to_json,
)
from .rough import reduct_report, reducts
from .rules import RuleConstraints, check_rules, induce_cover, render_rules
from .table import dump_schema, json_record, json_text, load_schema, load_table, to_csv

EXIT_OK = 0
EXIT_EL_NOT_MET = 3

# Keys a config file may set, each with a same-named flag: the fields of
# PipelineConfig, with their defaults, plus the decision.
DEFAULTS = {**json_record(PipelineConfig()), "decision": None}
CONFIG_KEYS = {**SETTING_TYPES, "decision": str}


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


def _resolve(args) -> tuple[PipelineConfig, str | None]:
    """defaults <- config file <- explicit flags, as a checked config (so
    every command refuses settings no pipeline run accepts) and the decision."""
    settings = dict(DEFAULTS)
    if getattr(args, "config", None):
        settings.update(parse_config_file(_read(args.config)))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return config_from_settings(settings), settings["decision"]


# Files are read and written as UTF-8 bytes: a text-mode file object costs a
# one-shot call more than the bytes do. Every reader splits lines itself, so
# a CRLF file reads like its LF copy. A leading byte-order mark is dropped
# here, as "utf-8-sig" would, without the import of that codec.
def _read(path: str) -> str:
    try:
        with open(path, "rb") as f:
            return f.read().removeprefix(b"\xef\xbb\xbf").decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str):
    """Write ``text`` to ``path``, making its folder only when it is missing."""
    data = text.encode("utf-8")
    try:
        try:
            f = open(path, "wb")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            f = open(path, "wb")
        with f:
            f.write(data)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _write_or_print(path: str | None, text: str):
    """Write ``text`` to ``path`` and say so on stderr, or to stdout
    when no path is given."""
    if path:
        _write(path, text)
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _load_inputs(args):
    schema = load_schema(_read(args.schema))
    return load_table(_read(args.data), schema)


def cmd_discretize(args) -> int:
    cfg, _ = _resolve(args)
    g = granulate(_load_inputs(args), granules=cfg.granules, seed=cfg.seed)
    paths = os.path.join(args.out, "discretizers.json"), os.path.join(args.out, "granulated.csv")
    _write(paths[0], json_text(dict(sorted(g.discretizers.items()))) + "\n")
    _write(paths[1], to_csv(g))
    print(f"wrote {paths[0]} and {paths[1]}", file=sys.stderr)
    return EXIT_OK


def cmd_rules(args) -> int:
    cfg, decision = _resolve(args)
    table = _load_inputs(args)
    decision = table.decision(decision)
    g = granulate(table, granules=cfg.granules, seed=cfg.seed)
    rs = induce_cover(g, decision, cfg)
    _write(os.path.join(args.out, "rules.txt"), render_rules(rs))
    print(
        f"{len(rs.rules)} rule(s), {len(rs.uncovered)} uncovered object(s)", file=sys.stderr
    )
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cfg, decision = _resolve(args)
    report = close_open(_load_inputs(args), decision, cfg)
    report_path = os.path.join(args.out, "report.json")
    _write(report_path, report_to_json(report))
    _write(os.path.join(args.out, "rules.txt"), render_rules(report.best_rules))
    status = "met" if report.el_met else "NOT met"
    print(
        f"accuracy bar {status}: best {report.best_accuracy:.3f} over "
        f"{report.total_iterations} iteration(s); wrote {report_path}",
        file=sys.stderr,
    )
    return EXIT_OK if report.el_met else EXIT_EL_NOT_MET


def cmd_backanalyze(args) -> int:
    raw = _read(args.report)  # a file that cannot be read is not a malformed one
    try:
        doc = json.loads(raw)
        rules = report_rules_from_json(doc)
        config = config_from_settings(doc["config"])  # one some pipeline run could have had
        granular = granular_from_json(doc)
        if doc["decision"] is None:  # a report names its decision: no default stands in
            raise ValueError("the report's decision is null")
        decision = granular.decision(doc["decision"])
        if any(d.granules != config.granules for d in granular.discretizers.values()):
            raise ValueError("a quantizer's granule count differs from config.granules")
        check_rules(rules, granular, decision, config)
        if doc["best"]["rules_text"] != render_rules(rules).splitlines():
            raise ValueError("best.rules_text is not the text of best.rules")
    except (KeyError, TypeError, ValueError, RecursionError, UsageError, DataError) as exc:
        raise DataError(f"malformed report file: {exc}") from None
    granule = granulate_observation(granular.discretizers[decision], args.observe)
    est = back_analyze(rules, (decision, granule), granular)
    _write_or_print(args.out, estimate_to_json(est))
    if est.no_match:
        print("no rule matches the observed granule", file=sys.stderr)
    return EXIT_OK


def cmd_surrogate(args) -> int:
    # Imported here: no other command uses the surrogate model.
    from .surrogate import DEFAULT_STEEPNESS, generate_table

    cfg, _ = _resolve(args)
    steepness = DEFAULT_STEEPNESS if args.steepness is None else args.steepness
    ranges = None
    if args.ranges:
        try:
            raw = json.loads(_read(args.ranges))
            if not isinstance(raw, dict):
                raise TypeError("expected an object of [low, high] pairs")
            for name, pair in raw.items():
                # bool is an int subclass, so compare types exactly.
                if not (type(pair) is list and len(pair) == 2
                        and all(type(x) in (int, float) for x in pair)):
                    raise TypeError(f"range for {name!r} is not a [low, high] pair of numbers")
            ranges = {k: (float(lo), float(hi)) for k, (lo, hi) in raw.items()}
        except (ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise DataError(f"malformed ranges file: {exc}") from None
    table = generate_table(ranges=ranges, count=args.count, seed=cfg.seed, steepness=steepness)
    paths = os.path.join(args.out, "runs.csv"), os.path.join(args.out, "schema.json")
    _write(paths[0], to_csv(table))
    _write(paths[1], dump_schema(list(table.specs)))
    print(f"wrote {paths[0]} and {paths[1]}", file=sys.stderr)
    return EXIT_OK


def cmd_reducts(args) -> int:
    cfg, decision = _resolve(args)
    table = _load_inputs(args)
    decision = None if decision is None else table.decision(decision)
    g = granulate(table, granules=cfg.granules, seed=cfg.seed)
    rs = reducts(g, args.mode, decision=decision)
    _write_or_print(args.out, reduct_report(rs))
    return EXIT_OK


def _settings(keys):
    """``--config`` and one flag per config key, with the key's type."""
    return (("--config", {"help": "flat key = value settings file"}),) + tuple(
        (f"--{key}", {"type": CONFIG_KEYS[key], "default": None}) for key in keys
    )


def _table_options(keys):
    """Options of a command that reads a table and writes to --out."""
    return (
        ("--data", {"required": True}),
        ("--schema", {"required": True}),
        ("--out", {"required": True}),
    ) + _settings(keys)


_RULE_KEYS = ("granules", *(f.name for f in fields(RuleConstraints)))

# name -> (help, handler, options), in help order. Each option is a flag
# and the keyword arguments argparse's add_argument takes for it;
# _direct_parse reads type, required, default and choices from them.
COMMANDS = {
    "discretize": (
        "fit quantizers and emit the granulated table",
        cmd_discretize,
        _table_options(("granules", "seed")),
    ),
    "rules": (
        "induce a rule cover on the full table",
        cmd_rules,
        _table_options(_RULE_KEYS + ("seed", "decision")),
    ),
    "pipeline": (
        "run the close-open iteration", cmd_pipeline, _table_options(tuple(CONFIG_KEYS))
    ),
    "backanalyze": (
        "invert an observation with a pipeline report",
        cmd_backanalyze,
        (
            ("--report", {"required": True}),
            ("--observe", {"type": float, "required": True, "help": "measured decision value"}),
            ("--out", {}),
        ),
    ),
    "surrogate": (
        "generate a synthetic run table",
        cmd_surrogate,
        (
            ("--count", {"type": int, "default": 30}),
            ("--ranges", {"help": "JSON file: {parameter: [low, high]}"}),
            ("--steepness", {"type": float}),
            ("--out", {"required": True}),
        )
        + _settings(("seed",)),
    ),
    "reducts": (
        "reduct and core report for a table",
        cmd_reducts,
        (
            ("--data", {"required": True}),
            ("--schema", {"required": True}),
            ("--mode", {"choices": ("plain", "decision_relative"), "default": "decision_relative"}),
            ("--out", {}),
        )
        + _settings(("granules", "seed", "decision")),
    ),
}


def build_parser():
    """The ``somrough`` argument parser with one subparser per command.

    Parse errors raise ``UsageError`` with argparse's message.
    """
    # Imported here: only help, abbreviations and errors need argparse,
    # and importing it costs every call a few milliseconds.
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = Parser(prog="somrough", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def _direct_parse(argv: list):
    """The namespace argparse would build for a plain argv, or None.

    A plain argv is a command, then ``--flag value`` pairs: each flag the
    exact long name of one of the command's options, given once, each
    value not starting with ``-``, every required option given, and every
    value of its option's type and among its choices. For anything else
    (help, abbreviations, ``--flag=value``, repeats, negative-looking
    values, positionals, errors) this returns None and argparse parses
    the argv, so every message is argparse's own.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    _, handler, options = COMMANDS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) * 2 != len(argv) - 1 or not given.keys() <= dict(options).keys():
        return None
    ns = {"command": argv[0], "func": handler}
    for flag, kwargs in options:
        value = given.get(flag)
        if value is None:
            if kwargs.get("required"):
                return None
            ns[flag[2:]] = kwargs.get("default")
            continue
        if value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        ns[flag[2:]] = value
    return SimpleNamespace(**ns)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # No command leaves a reference cycle, so a collector pass finds nothing,
    # and in a forked process it copies the inherited pages it walks.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _direct_parse(argv) or build_parser().parse_args(argv)
        return args.func(args)
    except SomroughError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
