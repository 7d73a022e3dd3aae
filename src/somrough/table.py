"""Attribute-value tables: ingestion, projection, scaling and splitting.

A table is a universe of objects described by condition and decision
attributes. Cells are floats or ``None`` (the missing marker, written
``?`` in CSV). After discretization the same shape holds granule labels
(1 = highest value band) instead of raw numbers.

Sets of objects are row masks: Python ints whose bit i stands for the
table's row i, so a split is two masks over one table, intersections are
``&`` and counts are ``int.bit_count``. A granulated table keeps, per
attribute and label, the mask of the rows holding that label.
"""

from __future__ import annotations

import io
import json
import math
import sys

from . import _pcg
from ._record import Record, from_json, json_record
from .errors import DataError, UsageError

MISSING_TOKEN = "?"

ROLES = ("condition", "decision")
SCALES = ("linear", "log10")

# json's own string writer (its C form where built): ASCII-only output, every
# other character, lone surrogates too, as a \u escape.
_quote = json.encoder.encode_basestring_ascii


def is_label(v) -> bool:
    """Whether ``v`` is a granule label: an exact int >= 1 (not a bool)."""
    return type(v) is int and v >= 1


class AttributeSpec(Record):
    """Name, role and value scale of one table column."""

    name: str
    role: str
    scale: str = "linear"
    units: str = ""

    def __post_init__(self):
        if not self.name.replace("_", "a").isalnum():  # re's \w+, all a rule file's grammar reads
            raise UsageError(f"attribute {self.name!r}: name must be letters, digits and '_'")
        if self.role not in ROLES:
            raise UsageError(f"attribute {self.name!r}: role must be one of {ROLES}")
        if self.scale not in SCALES:
            raise UsageError(f"attribute {self.name!r}: scale must be one of {SCALES}")


class DecisionTable(Record):
    """Objects x attributes matrix: object i is row i.

    Rows are tuples of ``float | None``. Tables built from external data
    should come through :func:`load_table`, which additionally requires at
    least one condition and one decision attribute. A name serves as the
    decision only through :meth:`decision`.
    """

    specs: tuple[AttributeSpec, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise DataError("duplicate attribute names in schema")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.specs):
                raise DataError(f"row {i} has {len(row)} cells, expected {len(self.specs)}")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.specs]

    @property
    def condition_names(self) -> list[str]:
        return [s.name for s in self.specs if s.role == "condition"]

    @property
    def decision_names(self) -> list[str]:
        return [s.name for s in self.specs if s.role == "decision"]

    def decision(self, name: str | None = None) -> str:
        """``name`` if it is a decision attribute, else UsageError; None: the only one."""
        names = self.decision_names
        if name is None and len(names) != 1:
            raise UsageError(f"--decision required: table has decision attributes {names}")
        if name is not None and name not in names:
            raise UsageError(f"{name!r} is not a decision attribute")
        return names[0] if name is None else name

    def spec(self, name: str) -> AttributeSpec:
        return self.specs[self.col_index(name)]

    def col_index(self, name: str) -> int:
        for i, s in enumerate(self.specs):
            if s.name == name:
                return i
        raise UsageError(f"unknown attribute {name!r}")

    def column(self, name: str) -> list:
        j = self.col_index(name)
        return [row[j] for row in self.rows]

    def ids_in(self, rows: int) -> tuple[int, ...]:
        """The row numbers of a row mask's set bits, ascending."""
        bits = f"{rows:0{len(self.rows)}b}"[::-1]
        return tuple(i for i, bit in zip(range(len(self.rows)), bits) if bit == "1")


class Discretizer(Record):
    """Ordinal quantizer for one attribute.

    ``centers`` and ``cuts`` are in raw units, strictly descending; label
    1 belongs to the highest center. A value lands in granule g when it
    sits at or below cut g-1 and strictly above cut g (cut 0 = +inf,
    cut G = -inf), so larger values never get larger labels. Cut k lies
    between centers k and k+1, ends included: a fitted cut is their
    midpoint, which may round onto one of them.
    """

    name: str
    scale: str
    centers: tuple[float, ...]
    cuts: tuple[float, ...]

    def __post_init__(self):
        if self.scale not in SCALES:
            raise UsageError(f"quantizer of {self.name!r}: scale must be one of {SCALES}")
        # Python compares an int with a float exactly; math.isfinite raises
        # OverflowError on an int past the float range.
        if not all(abs(v) <= sys.float_info.max for v in self.centers + self.cuts):
            raise UsageError(f"quantizer of {self.name!r}: centers and cuts must be finite")
        if len(self.cuts) != len(self.centers) - 1:
            raise UsageError("need exactly G - 1 cuts for G centers")
        if any(b >= a for a, b in zip(self.centers, self.centers[1:])):
            raise UsageError("centers must be strictly decreasing")
        if any(b >= a for a, b in zip(self.cuts, self.cuts[1:])):
            raise UsageError("cuts must be strictly decreasing")
        if not all(a >= cut >= b for a, cut, b in zip(self.centers, self.cuts, self.centers[1:])):
            raise UsageError(f"quantizer of {self.name!r}: a cut lies outside its two centers")

    @property
    def granules(self) -> int:
        return len(self.centers)


def assign_granule(d: Discretizer, v) -> int | None:
    """Label for a raw value; missing stays missing.

    Boundary values (v exactly at a cut) take the lower-value side, i.e.
    the larger label, matching a "<= cut" reading of the cut points.
    """
    if v is None:
        return None
    if isinstance(v, float) and math.isnan(v):
        return None
    for g, cut in enumerate(d.cuts, start=1):
        if v > cut:
            return g
    return d.granules


class GranularTable(DecisionTable):
    """A table whose cells are granule labels (ints >= 1) or missing.

    ``discretizers`` (required) maps each attribute to its labels' quantizer, so
    raw observations map into the same vocabulary and rule conditions take
    its cuts as raw bounds. A missing quantizer is a ``DataError``, a
    misfiled or stray one a ``UsageError``. Labels are checked when built.
    It holds names, roles, labels and quantizers (a column's scale is its
    quantizer's), so the table a report embeds reads back equal.
    """

    discretizers: dict[str, Discretizer]
    _masks = None  # not a field: built on first use by masks()

    def __post_init__(self):
        super().__post_init__()
        discs, names = self.discretizers, self.names
        for name, d in discs.items():
            if d.name != name:
                raise UsageError(f"the quantizer under {name!r} is named {d.name!r}")
            if name not in names:
                raise UsageError(f"quantizer of {name!r}, an attribute the table lacks")
        missing = [n for n in names if n not in discs]
        if missing:
            raise DataError(f"no quantizer for attribute(s) {', '.join(map(repr, missing))}")
        # Per column, its cell types and the range of its distinct labels;
        # only a failed check runs the row-major loop naming the first bad cell.
        for s, col in zip(self.specs, zip(*self.rows)):
            if not set(map(type, col)) <= {int, type(None)}:
                break
            labels = set(col) - {None}
            if labels and (min(labels) < 1 or max(labels) > discs[s.name].granules):
                break
        else:
            return
        for i, row in enumerate(self.rows):
            for s, v in zip(self.specs, row):
                if v is None:
                    continue
                if not is_label(v):
                    raise DataError(
                        f"row {i}, attribute {s.name!r}: granule label must be a positive int"
                    )
                d = discs[s.name]
                if v > d.granules:
                    raise DataError(
                        f"row {i}, attribute {s.name!r}: label {v} exceeds granule count {d.granules}"
                    )

    def masks(self) -> tuple[dict, dict]:
        """Row masks ``({attribute: {label: rows}}, {condition vector: rows})``.
        An attribute's label masks are disjoint; a missing cell is in none."""
        if self._masks is None:
            labels = {name: {} for name in self.names}
            vectors: dict[tuple, int] = {}
            cond = [j for j, s in enumerate(self.specs) if s.role == "condition"]
            for i, row in enumerate(self.rows):
                bit = 1 << i
                for by_label, v in zip(labels.values(), row):
                    if v is not None:
                        by_label[v] = by_label.get(v, 0) | bit
                vec = tuple(row[j] for j in cond)
                vectors[vec] = vectors.get(vec, 0) | bit
            object.__setattr__(self, "_masks", (labels, vectors))
        return self._masks


def load_table(csv_text: str, schema: list[AttributeSpec]) -> DecisionTable:
    """Parse a CSV body (one header row) against an explicit schema.

    Cells are finite decimal or scientific-notation numbers; the literal
    ``?`` marks a missing value.
    """
    schema = list(schema)
    if not any(s.role == "condition" for s in schema):
        raise DataError("schema needs at least one condition attribute")
    if not any(s.role == "decision" for s in schema):
        raise DataError("schema needs at least one decision attribute")
    lines = [ln for ln in csv_text.splitlines() if ln.strip() != ""]
    if not lines:
        raise DataError("empty CSV: missing header row")
    header = [h.strip() for h in lines[0].split(",")]
    by_name = {s.name: s for s in schema}
    for j, h in enumerate(header):
        if h not in by_name:
            raise DataError(f"unknown column {h!r} in header")
        if h in header[:j]:
            raise DataError(f"column {h!r} appears twice in header")
    if set(header) != set(by_name):
        missing = sorted(set(by_name) - set(header))
        raise DataError(f"header is missing columns: {missing}")

    # Cells are stored in schema order regardless of file column order.
    order = [header.index(s.name) for s in schema]
    rows = []
    for ln_no, ln in enumerate(lines[1:], start=1):
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(header):
            raise DataError(f"row {ln_no - 1}: expected {len(header)} cells, got {len(cells)}")
        parsed = []
        for j in order:
            cell = cells[j]
            if cell == MISSING_TOKEN:
                parsed.append(None)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"row {ln_no - 1}, column {header[j]!r}: cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise DataError(f"row {ln_no - 1}, column {header[j]!r}: {cell!r} is not finite")
            parsed.append(value)
        rows.append(tuple(parsed))
    return DecisionTable(specs=tuple(schema), rows=tuple(rows))


def to_csv(table: DecisionTable) -> str:
    """Serialize back to the ingestion format (12 significant digits)."""
    buf = io.StringIO()
    buf.write(",".join(table.names) + "\n")
    for row in table.rows:
        buf.write(",".join(MISSING_TOKEN if v is None else f"{v:.12g}" for v in row) + "\n")
    return buf.getvalue()


def load_schema(text: str) -> list[AttributeSpec]:
    """Read a schema file: a JSON array of {name, role, scale, units}."""
    try:
        records = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: a decode error, or too many digits
        raise DataError(f"schema is not valid JSON: {exc}") from None
    if not isinstance(records, list):
        raise DataError("schema must be a JSON array of attribute records")
    for rec in records:
        if not isinstance(rec, dict) or "name" not in rec or "role" not in rec:
            raise DataError("schema record must be an object with at least 'name' and 'role'")
    try:
        return [from_json(AttributeSpec, rec) for rec in records]
    except UsageError as exc:
        raise DataError(str(exc)) from None


def json_text(o, newline: str = "\n") -> str:
    """The JSON text ``json.dumps(o, indent=2, default=json_record)`` writes,
    byte for byte; ``json.dumps`` is the oracle the tests hold it to. Dict
    keys must be str. Types are tested in ``json``'s order, so a subclass of
    str, int, float, list, tuple or dict is written as ``json`` writes it,
    and anything else goes through ``json_record``. ``newline`` is the line
    break and indent before the bracket that closes ``o``.

    Unlike ``json.dumps`` with an indent, it builds no encoder, closures or
    generators, which a one-shot CLI process pays for on first use, and it
    joins each container from its items' texts instead of holding a list of
    every piece of the output."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        items = [json_text(v, inner) for v in o]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + "  "
        items = [f"{_quote(k)}: {json_text(v, inner)}" for k, v in o.items()]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    return json_text(json_record(o), newline)


def dump_schema(specs: list[AttributeSpec]) -> str:
    """Write a schema file: one record per spec, its fields in field order."""
    return json_text(specs) + "\n"


def split_train_size(n: int, train_fraction: float) -> int:
    """Training-split size for n objects: round(fraction * n), at least 1."""
    if not 0.0 < train_fraction <= 1.0:
        raise UsageError("train_fraction must be in (0, 1]")
    return max(1, int(math.floor(train_fraction * n + 0.5)))


def split_random(table: DecisionTable, train_fraction: float, seed: int) -> tuple[int, int]:
    """Disjoint train/test partition of the rows, as two row masks.

    |train| = split_train_size(|U|, fraction); the same seed always
    produces the same split.
    """
    if len(table) == 0:
        raise DataError("cannot split an empty table")
    n = len(table)
    n_train = split_train_size(n, train_fraction)
    # The test split is the tail of numpy's default_rng(seed).permutation(n);
    # the Fisher-Yates steps that settle it are the only ones needed.
    perm = _pcg.Stream(seed).permutation(n, tail=n - n_train)
    test = sum(1 << i for i in perm[n_train:])
    return ((1 << n) - 1) ^ test, test


def scale_minmax(values: list) -> tuple[list, tuple[float, float]]:
    """Map values to [0, 1]; a constant column maps to all 0.5.

    Missing entries are ignored for the min/max and passed through. A
    column whose span ``hi - lo`` overflows is a data error.
    """
    present = [v for v in values if v is not None]
    if not present:
        raise DataError("cannot scale a column with no present values")
    lo, hi = min(present), max(present)
    if hi == lo:
        return [None if v is None else 0.5 for v in values], (lo, hi)
    span = hi - lo
    if math.isinf(span):
        raise DataError(f"span {lo!r} to {hi!r} exceeds the float range")
    return [None if v is None else (v - lo) / span for v in values], (lo, hi)


def transform_scale(values: list, scale: str) -> list:
    """Apply an attribute's value scale (identity or log10) cell-wise."""
    if scale == "linear":
        return list(values)
    if scale == "log10":
        out = []
        for v in values:
            if v is None:
                out.append(None)
            elif v <= 0:
                raise DataError(f"log10 scale requires strictly positive values, got {v}")
            else:
                out.append(math.log10(v))
        return out
    raise UsageError(f"unknown scale {scale!r}")


def inverse_scale(value: float, scale: str) -> float:
    if scale == "linear":
        return value
    if scale == "log10":
        return 10.0**value
    raise UsageError(f"unknown scale {scale!r}")


def scaled_matrix(table: DecisionTable, names: list[str] | None = None):
    """Rows as float tuples, scale-transformed then min-max'd per column.

    Missing cells become NaN. This is the conditioning applied before any
    distance computation on mixed-unit attributes.
    """
    names = names if names is not None else table.names
    cols = []
    for name in names:
        spec = table.spec(name)
        scaled, _ = scale_minmax(transform_scale(table.column(name), spec.scale))
        cols.append([math.nan if v is None else v for v in scaled])
    return tuple(zip(*cols))
