"""Tests for table ingestion, row masks, scaling, splitting and JSON text."""

import collections
import enum
import functools
import json
import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from somrough._record import from_json
from somrough.corpus import jeffrey_table
from somrough.errors import DataError, UsageError
from somrough.pipeline import PipelineConfig, close_open
from somrough.som import fit_discretizer
from somrough.table import (
    ROLES,
    SCALES,
    AttributeSpec,
    DecisionTable,
    Discretizer,
    GranularTable,
    dump_schema,
    inverse_scale,
    json_record,
    json_text,
    load_schema,
    load_table,
    scale_minmax,
    scaled_matrix,
    split_random,
    to_csv,
    transform_scale,
)


def _schema(n_cond=2, decision="d"):
    specs = [AttributeSpec(name=f"a{i}", role="condition") for i in range(n_cond)]
    specs.append(AttributeSpec(name=decision, role="decision"))
    return specs


class TestLoadTable:
    def test_corpus_shape(self):
        """The bundled 12-run corpus: 12 objects, 8 conditions + 2 decisions."""
        t = jeffrey_table()
        assert len(t) == 12
        assert len(t.names) == 10
        assert t.condition_names == ["cp", "phip", "cb", "phib", "csz", "phisz", "tp", "tb"]
        assert t.decision_names == ["tmd", "mvv"]
        assert t.rows[0][t.col_index("cb")] == 3.00e05
        assert t.rows[11][t.col_index("mvv")] == 8.14e-16

    def test_empty_body(self):
        t = load_table("a0,a1,d\n", _schema())
        assert len(t) == 0

    def test_missing_token_passthrough(self):
        csv = "a0,a1,d\n1,2,3\n4,5,6\n7,?,9\n8,1,2\n"
        t = load_table(csv, _schema())
        assert t.rows[2] == (7.0, None, 9.0)

    def test_ragged_row_rejected(self):
        with pytest.raises(DataError, match="row 1"):
            load_table("a0,a1,d\n1,2,3\n4,5\n", _schema())

    def test_unknown_column_rejected(self):
        with pytest.raises(DataError, match="unknown column"):
            load_table("a0,bogus,d\n1,2,3\n", _schema())

    def test_non_numeric_cell_rejected(self):
        with pytest.raises(DataError, match="cannot parse"):
            load_table("a0,a1,d\n1,x,3\n", _schema())

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "Infinity"])
    def test_non_finite_cell_rejected(self, cell):
        with pytest.raises(DataError, match=r"row 1, column 'a1'.*not finite"):
            load_table(f"a0,a1,d\n1,2,3\n4,{cell},6\n", _schema())

    def test_header_order_independent(self):
        t = load_table("d,a1,a0\n9,2,1\n", _schema())
        assert t.rows[0] == (1.0, 2.0, 9.0)

    def test_roundtrip_identity(self):
        """load -> serialize -> load preserves values to 12 significant digits."""
        t = jeffrey_table()
        again = load_table(to_csv(t), list(t.specs))
        for r1, r2 in zip(t.rows, again.rows):
            for v1, v2 in zip(r1, r2):
                assert v1 == pytest.approx(v2, rel=1e-11)

    def test_schema_loader_rejects_bad_json(self):
        with pytest.raises(DataError):
            load_schema("not json")

    def test_dump_schema_bytes(self):
        """The schema file's bytes, recorded before the records were written
        from their fields by ``table.json_record``: every field, in field
        order."""
        specs = [
            AttributeSpec("cohesion", "condition", "linear", "kPa"),
            AttributeSpec("rate", "decision", "log10", "m/s"),
            AttributeSpec("phi", "condition"),
        ]
        text = dump_schema(specs)
        assert text == (
            '[\n  {\n    "name": "cohesion",\n    "role": "condition",\n'
            '    "scale": "linear",\n    "units": "kPa"\n  },\n'
            '  {\n    "name": "rate",\n    "role": "decision",\n'
            '    "scale": "log10",\n    "units": "m/s"\n  },\n'
            '  {\n    "name": "phi",\n    "role": "condition",\n'
            '    "scale": "linear",\n    "units": ""\n  }\n]\n'
        )
        assert load_schema(text) == specs


class TestSplitRandom:
    def test_full_retention(self):
        t = jeffrey_table()
        train, test = split_random(t, 1.0, seed=3)
        assert len(t.ids_in(train)) == 12 and t.ids_in(test) == ()

    def test_deterministic(self):
        t = jeffrey_table()
        a = split_random(t, 0.7, seed=42)
        b = split_random(t, 0.7, seed=42)
        assert t.ids_in(a[0]) == t.ids_in(b[0])
        assert t.ids_in(a[1]) == t.ids_in(b[1])

    def test_rounding(self):
        t = DecisionTable(specs=jeffrey_table().specs, rows=jeffrey_table().rows[:10])
        train, test = split_random(t, 0.7, seed=0)
        assert train.bit_count() == 7 and test.bit_count() == 3

    def test_partition_property(self):
        """train and test always partition the universe."""
        t = jeffrey_table()
        for seed in range(25):
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                train, test = split_random(t, frac, seed)
                got = set(t.ids_in(train)) | set(t.ids_in(test))
                assert got == set(range(len(t)))
                assert not set(t.ids_in(train)) & set(t.ids_in(test))

    def test_empty_table_rejected(self):
        t = DecisionTable(specs=jeffrey_table().specs, rows=())
        with pytest.raises(DataError):
            split_random(t, 0.5, seed=0)

    @pytest.mark.parametrize("fraction, seed, message", [
        (1.5, 0, r"train_fraction must be in \(0, 1\]"),
        (0.7, -1, "seed must be >= 0"),
    ])
    def test_bad_fraction_and_seed_refused(self, fraction, seed, message):
        with pytest.raises(UsageError, match=message):
            split_random(jeffrey_table(), fraction, seed)


class TestScaling:
    def test_linear_map(self):
        scaled, (lo, hi) = scale_minmax([500.0, 1000.0, 1500.0])
        assert scaled == [0.0, 0.5, 1.0]
        assert (lo, hi) == (500.0, 1500.0)

    def test_constant_column(self):
        scaled, _ = scale_minmax([7.0, 7.0, 7.0])
        assert scaled == [0.5, 0.5, 0.5]

    def test_log10_before_minmax(self):
        """A tiny velocity lands at its hand-computed log10 before scaling."""
        assert transform_scale([4.46e-14], "log10")[0] == pytest.approx(-13.3507, abs=5e-5)
        assert transform_scale([None, 10.0], "log10") == [None, 1.0]

    def test_missing_excluded(self):
        scaled, (lo, hi) = scale_minmax([None, 2.0, 4.0])
        assert scaled == [None, 0.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            scale_minmax([None])

    def test_scaled_matrix_conditioning(self):
        """Rows of float tuples: a log10 column is transformed, then every
        column is min-max'd to [0, 1]; a constant column is 0.5 and a
        missing cell NaN."""
        specs = (
            AttributeSpec("v", "condition", "log10"),
            AttributeSpec("c", "condition"),
            AttributeSpec("k", "condition"),
            AttributeSpec("d", "decision"),
        )
        rows = ((1.0, 2.0, 7.0, 0.0), (10.0, None, 7.0, 1.0), (1000.0, 6.0, 7.0, 4.0))
        got = scaled_matrix(DecisionTable(specs=specs, rows=rows))
        assert isinstance(got, tuple) and all(isinstance(row, tuple) for row in got)
        assert [list(r[:1]) + list(r[2:]) for r in got] == [
            [0.0, 0.5, 0.0],
            [1 / 3, 0.5, 0.25],
            [1.0, 0.5, 1.0],
        ]
        assert [r[1] for r in got[::2]] == [0.0, 1.0] and math.isnan(got[1][1])

    def test_log10_rejects_nonpositive(self):
        with pytest.raises(DataError):
            transform_scale([0.0], "log10")

    @pytest.mark.parametrize("call", [
        lambda: fit_discretizer([1.0, 2.0, 3.0], 2, scale="ln"),
        lambda: inverse_scale(1.0, "ln"),
    ])
    def test_unknown_scale_refused(self, call):
        with pytest.raises(UsageError, match="unknown scale 'ln'"):
            call()


class TestProjection:
    def test_projection_consistency(self):
        """Partitioning a projection equals partitioning the source by B."""
        from somrough.rough import partition_by

        t = jeffrey_table()
        names = ["cp", "phip", "csz"]
        idx = [t.col_index(n) for n in names]
        proj = DecisionTable(
            specs=tuple(t.spec(n) for n in names),
            rows=tuple(tuple(row[j] for j in idx) for row in t.rows),
        )
        p_full = partition_by(t, names)
        p_proj = partition_by(proj, names)
        assert p_full.blocks == p_proj.blocks


class TestDecision:
    """``DecisionTable.decision``: the one check of a decision name."""

    def test_decision_attribute_is_returned(self):
        assert jeffrey_table().decision("mvv") == "mvv"

    @pytest.mark.parametrize(
        "name", ["cb", "zzz", 5, ["mvv"]], ids=["condition", "unknown", "number", "list"]
    )
    def test_other_names_are_refused(self, name):
        with pytest.raises(UsageError, match="is not a decision attribute"):
            jeffrey_table().decision(name)

    def test_no_name_is_the_only_decision(self):
        assert DecisionTable(specs=tuple(_schema()), rows=()).decision() == "d"

    def test_no_name_needs_one_decision(self):
        with pytest.raises(UsageError, match=r"table has decision attributes \['tmd', 'mvv'\]"):
            jeffrey_table().decision()


class TestInvariants:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            DecisionTable(
                specs=(
                    AttributeSpec("a", "condition"),
                    AttributeSpec("a", "decision"),
                ),
                rows=(),
            )

    def test_missing_decision_rejected_at_load(self):
        with pytest.raises(DataError):
            load_table("a\n1\n", [AttributeSpec("a", "condition")])

    @given(st.text(st.characters(exclude_categories=()), max_size=4))
    @example("c_b")
    @example("_")
    @example("\u00b2")  # a digit that is not decimal
    @example("\u216b")  # a numeric letter
    @example("a\u0300")  # a combining mark
    @example("a\n")
    @example("")
    def test_name_is_a_rule_file_word(self, name):
        """A spec takes exactly the names the rule grammar reads: ``\\w+``."""
        try:
            AttributeSpec(name, "condition")
        except UsageError:
            built = False
        else:
            built = True
        assert built == (re.fullmatch(r"\w+", name) is not None)

    def test_unknown_attribute_is_usage_error(self):
        t = jeffrey_table()
        with pytest.raises(UsageError):
            t.col_index("nope")


class TestGranularLabels:
    SPECS = (AttributeSpec("a", "condition"), AttributeSpec("d", "decision"))
    DISCS = {
        "a": Discretizer("a", "linear", (3.0, 2.0, 1.0), (2.5, 1.5)),
        "b": Discretizer("b", "linear", (2.0, 1.0), (1.5,)),
        "d": Discretizer("d", "linear", (2.0, 1.0), (1.5,)),
    }
    AD = {"a": DISCS["a"], "d": DISCS["d"]}  # the quantizers of SPECS

    @pytest.mark.parametrize("label", [0, -1, 1.5, 2.0, "1", True])
    def test_bad_label_rejected(self, label):
        with pytest.raises(DataError, match="granule label must be a positive int"):
            GranularTable(specs=self.SPECS, rows=((1, 1), (label, 2)), discretizers=self.AD)

    @pytest.mark.parametrize("discretizers, named", [
        ({"a": DISCS["a"]}, "'d'"),
        ({"d": DISCS["d"]}, "'a'"),
        ({}, "'a', 'd'"),
    ])
    def test_missing_quantizers_are_named(self, discretizers, named):
        with pytest.raises(DataError) as exc:
            GranularTable(specs=self.SPECS, rows=((1, 1),), discretizers=discretizers)
        assert str(exc.value) == f"no quantizer for attribute(s) {named}"

    @pytest.mark.parametrize("discretizers, message", [
        ({"a": DISCS["d"], "d": DISCS["d"]}, "the quantizer under 'a' is named 'd'"),
        (DISCS, "quantizer of 'b', an attribute the table lacks"),
    ])
    def test_misfiled_and_stray_quantizers_refused(self, discretizers, message):
        with pytest.raises(UsageError) as exc:
            GranularTable(specs=self.SPECS, rows=((1, 1),), discretizers=discretizers)
        assert str(exc.value) == message

    def test_label_above_granule_count_rejected(self):
        with pytest.raises(DataError, match="exceeds granule count 3"):
            GranularTable(specs=self.SPECS, rows=((3, 1), (4, 2)), discretizers=self.AD)

    @pytest.mark.parametrize("rows, message", [
        # Row-major order: (row 0, b) is reported before (row 1, a).
        (((1, 0, 1), (0, 1, 1)), "row 0, attribute 'b': granule label must be a positive int"),
        # A set holds 1 and True as one value; True is still rejected.
        (((1, 1, 1), (True, 1, 2)), "row 1, attribute 'a': granule label must be a positive int"),
        (((True, 1, 1), (1, 1, 2)), "row 0, attribute 'a': granule label must be a positive int"),
        (((3, 1, 1), (4, 1, 2)), "row 1, attribute 'a': label 4 exceeds granule count 3"),
        # A missing cell is skipped; the bad label after it is named.
        (((None, 0, 1), (1, 1, 2)), "row 0, attribute 'b': granule label must be a positive int"),
    ])
    def test_error_message(self, rows, message):
        """The per-column check falls back to the row-major scan, which
        names the first bad cell."""
        specs = (AttributeSpec("a", "condition"), AttributeSpec("b", "condition"), self.SPECS[1])
        with pytest.raises(DataError) as exc:
            GranularTable(specs=specs, rows=rows, discretizers=self.DISCS)
        assert str(exc.value) == message

    def test_numpy_integer_labels_refused(self):
        """A label is an exact int, as every record field is."""
        np = pytest.importorskip("numpy")
        with pytest.raises(DataError) as exc:
            GranularTable(specs=self.SPECS, rows=((np.int64(1), 1),), discretizers=self.AD)
        assert str(exc.value) == "row 0, attribute 'a': granule label must be a positive int"

    def test_row_masks(self):
        """Bit i of a mask is row i; a missing cell is in no label's mask."""
        t = GranularTable(
            specs=self.SPECS,
            rows=((1, 1), (None, 2), (3, 1), (1, 2)),
            discretizers=self.AD,
        )
        labels, vectors = t.masks()
        assert labels == {"a": {1: 0b1001, 3: 0b0100}, "d": {1: 0b0101, 2: 0b1010}}
        assert vectors == {(1,): 0b1001, (None,): 0b0010, (3,): 0b0100}
        assert t.masks() is t.masks()
        assert t.ids_in(labels["a"][1]) == (0, 3)
        # The masks take no part in equality.
        assert t == GranularTable(specs=self.SPECS, rows=t.rows, discretizers=self.AD)


# --- JSON text ----------------------------------------------------------------


@functools.cache
def _written_records() -> list:
    """Records of each type the report, estimate and schema writers emit,
    from a corpus run, with the label sets of its conditions."""
    report = close_open(jeffrey_table(), "mvv", PipelineConfig())
    rules = report.best_rules.rules
    conditions = [c for r in rules for c in r.conditions]
    return [
        *report.iterations, *rules, *conditions, *(r.decision for r in rules),
        *report.granular.discretizers.values(), *report.granular.specs,
        *(c.labels for c in conditions if c.labels is not None),
    ]


# Any code point, lone surrogates included, and strings json must escape.
TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["\ud800", "a\udfffb", "\u00e9t\u00e9", "\u2028", '"\\/', "\x00\x1f\x7f", "\U0001f600"]
)
LEAVES = st.one_of(
    TEXT,
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64) | st.integers(max_value=-(2**64)),
    st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e-310, 1e16, 0.1]),
    st.frozensets(st.integers(1, 9)),
    st.deferred(lambda: st.sampled_from(_written_records())),
)
DOCS = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=24,
)


@given(DOCS)
@example([])
@example({})
@example(((), {}, [[]]))
@example({"nan": math.nan, "zero": -0.0, "big": 2**70, "\u00e9": "\udc80"})
def test_json_text_is_json_dumps(doc):
    """``json.dumps`` with an indent of 2 and ``json_record`` as its default
    is the oracle, byte for byte."""
    assert json_text(doc) == json.dumps(doc, indent=2, default=json_record)


def test_json_text_writes_subclasses_as_json_does():
    """Types are tested in json's order: an IntEnum is an int, a bool never
    one, and subclasses of str, float, list, tuple and dict are written as
    their base types."""

    class Text(str):
        pass

    class Real(float):
        def __repr__(self):
            return "real"

    class Items(list):
        pass

    Colour = enum.IntEnum("Colour", "red green")
    doc = collections.OrderedDict(
        a=Colour.green, b=Text("t\u00e9"), c=Real(0.5), d=Items([True, None, Real("nan")]),
        e=collections.namedtuple("Pair", "x y")(1, False), f=frozenset({3, 1}),
    )
    assert json_text(doc) == json.dumps(doc, indent=2, default=json_record)
    assert '"a": 2' in json_text(doc) and '"c": 0.5' in json_text(doc)


@st.composite
def granular_tables(draw):
    """Tables of 1-12 rows and 1-4 attributes, each attribute with its own
    quantizer of 2-4 granules, and some cells missing."""
    n = draw(st.integers(1, 12))
    specs, discs, columns = [], {}, []
    for j in range(draw(st.integers(1, 4))):
        name, g = f"x{j}", draw(st.integers(2, 4))
        spec = AttributeSpec(name, draw(st.sampled_from(ROLES)), draw(st.sampled_from(SCALES)))
        # Centers at the even and cuts at the odd places of one descending
        # run, so each cut lies between its two centers.
        floats = st.floats(-1e6, 1e6)
        run = sorted(draw(st.lists(floats, min_size=2 * g - 1, max_size=2 * g - 1, unique=True)),
                     reverse=True)
        specs.append(spec)
        discs[name] = Discretizer(name, spec.scale, tuple(run[::2]), tuple(run[1::2]))
        columns.append(draw(st.lists(st.none() | st.integers(1, g), min_size=n, max_size=n)))
    return GranularTable(specs=tuple(specs), rows=tuple(zip(*columns)), discretizers=discs)


@given(granular_tables())
def test_granular_table_reads_back_from_json(g):
    """``from_json`` reads a granulated table, quantizers and all, from the
    JSON text ``json_text`` writes for it."""
    assert from_json(GranularTable, json.loads(json_text(g))) == g
