"""Records against ``dataclasses``: a frozen dataclass built from the same
field names and values is the oracle for equality, hashing, ``repr``,
field order and frozenness. The field type checks are tested on every
record class of the package against the annotation, and ``from_json``
against ``json_record``, its writer."""

import dataclasses
import json
import re

import numpy as np
import pytest

from somrough import cli  # noqa: F401  (imports every module that defines records)
from somrough._record import Record, fields, from_json, replace
from somrough.corpus import jeffrey_table
from somrough.errors import DataError, UsageError
from somrough.pipeline import (
    Iteration,
    ParameterEstimate,
    PipelineConfig,
    RunReport,
    back_analyze,
    close_open,
    report_rules_from_json,
    report_to_json,
)
from somrough.rough import (
    DiscernibilityMatrix,
    Partition,
    ReductSet,
    disc_function,
    disc_matrix,
    partition_by,
    reducts,
)
from somrough.rules import Condition, DecisionPart, Rule, RuleConstraints, RuleSet
from somrough.som import Discretizer, SomConfig, train
from somrough.surrogate import SlopeParams, generate_table
from somrough.table import AttributeSpec, DecisionTable, GranularTable, json_record

SPECS = (AttributeSpec("a", "condition"), AttributeSpec("d", "decision"))
DISC = Discretizer("a", "linear", (3.0, 2.0, 1.0), (2.5, 1.5))
DISCS = {"a": DISC, "d": Discretizer("d", "linear", (2.0, 1.0), (1.5,))}
COND = Condition("a", lo=1.5, hi=2.5, labels=frozenset({2}))

# (record, expected field order, a valid change, an invalid change and its error)
CASES = [
    (COND, ["attribute", "lo", "hi", "labels"],
     {"hi": 3.0}, {"lo": 4.0}, UsageError),
    (Rule((COND,), DecisionPart("d", "at_most", 2), support=3, strength=0.75),
     ["conditions", "decision", "support", "strength"],
     {"support": 4}, {"conditions": ()}, UsageError),
    (DISC, ["name", "scale", "centers", "cuts"],
     {"name": "b"}, {"cuts": (2.5,)}, UsageError),
    (PipelineConfig(runs=2, max_rules=3),
     ["min_strength", "max_length", "max_rules", "semantics", "runs", "max_closed", "el",
      "train_fraction", "granules", "max_open_steps", "seed"],
     {"seed": 5}, {"granules": 1}, UsageError),
    (Iteration(run=1, index=2, split_seed=3, budget=4, n_rules=2, accuracy=0.5, accepted=False),
     ["run", "index", "split_seed", "budget", "n_rules", "accuracy", "accepted"],
     {"accepted": True}, None, None),
    (GranularTable(specs=SPECS, rows=((1, 1), (3, 2)), discretizers=DISCS),
     ["specs", "rows", "discretizers"],
     {"rows": ((2, 1), (3, 2))}, {"rows": ((4, 1), (3, 2))}, DataError),
]
IDS = [type(case[0]).__name__ for case in CASES]


def _twin(record):
    """A frozen dataclass of the record's class name, fields and values."""
    names = [f.name for f in fields(record)]
    cls = dataclasses.make_dataclass(type(record).__name__, names, frozen=True)
    return cls(**{n: getattr(record, n) for n in names})


@pytest.mark.parametrize("record, order, valid, invalid, error", CASES, ids=IDS)
class TestAgainstDataclass:
    def test_field_order(self, record, order, valid, invalid, error):
        assert [f.name for f in fields(type(record))] == order
        assert [f.name for f in fields(record)] == order

    def test_eq_hash_repr(self, record, order, valid, invalid, error):
        twin = _twin(record)
        assert repr(record) == repr(twin)
        assert record == replace(record) and record is not replace(record)
        assert record != twin and twin != record  # other classes never compare equal
        changed, twin_changed = replace(record, **valid), dataclasses.replace(twin, **valid)
        assert record != changed and twin != twin_changed
        assert repr(changed) == repr(twin_changed)
        try:
            expected = hash(twin)
        except TypeError:  # a dict field: neither is hashable
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected
            assert hash(changed) == hash(twin_changed)
            assert len({record, replace(record), changed}) == 2

    def test_frozen(self, record, order, valid, invalid, error):
        for name in (order[0], order[-1], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert [getattr(record, n) for n in order] == list(dataclasses.astuple(_twin(record)))

    def test_replace_checks_again(self, record, order, valid, invalid, error):
        changed = replace(record, **valid)
        assert type(changed) is type(record)
        assert {n: getattr(changed, n) for n in order} == {
            **{n: getattr(record, n) for n in order}, **valid
        }
        if invalid is not None:
            with pytest.raises(error):
                replace(record, **invalid)
        with pytest.raises(TypeError):
            replace(record, no_such_field=1)


def test_post_init_is_looked_up_per_call(monkeypatch):
    """A ``__post_init__`` set on the class after its definition runs on the
    next construction, as the benchmark's tracer relies on."""
    seen = []
    original = GranularTable.__post_init__

    def spy(self):
        seen.append(self.rows)
        original(self)

    monkeypatch.setattr(GranularTable, "__post_init__", spy)
    GranularTable(specs=SPECS, rows=((1, 1),), discretizers=DISCS)
    assert seen == [((1, 1),)]


def test_non_fields_stay_out():
    """The row masks are an attribute, not a field: they take no part in
    equality, hashing or ``repr``."""
    table = GranularTable(specs=SPECS, rows=((1, 1), (2, 2)), discretizers=DISCS)
    table.masks()
    assert "_masks" in vars(table)
    assert "_masks" not in repr(table)
    assert table == GranularTable(specs=SPECS, rows=table.rows, discretizers=DISCS)


# --- field type checks and from_json -----------------------------------------


def _record_classes(cls=Record) -> set:
    subs = set(cls.__subclasses__())
    return subs.union(*map(_record_classes, subs))


RECORD_CLASSES = sorted(_record_classes(), key=lambda c: c.__qualname__)

# The value types a checked annotation accepts, by its text: exact types,
# an int for a float, and None only where ``| None`` is declared.
SCALAR_TYPES = {"int": {int}, "float": {float, int}, "str": {str}, "bool": {bool}}


def _accepts(text: str):
    """(value types, whether the field is a tuple of them), or None for an
    annotation the records leave unchecked."""
    base = text.removesuffix(" | None")
    if base in SCALAR_TYPES:
        return SCALAR_TYPES[base] | ({type(None)} if base != text else set()), False
    if text.startswith("tuple[") and text.endswith(", ...]") and text[6:-6] in SCALAR_TYPES:
        return SCALAR_TYPES[text[6:-6]], True
    return None


CHECKED = [
    (cls, f.name, f.type) for cls in RECORD_CLASSES for f in fields(cls) if _accepts(f.type)
]
# One value of each JSON type.
JSON_VALUES = {
    "string": "x", "int": 3, "float": 2.5, "true": True, "null": None,
    "array": [1], "object": {"a": 1},
}

_SAMPLES = {}


def _samples() -> dict:
    """One valid instance of every record class, from a corpus run."""
    if not _SAMPLES:
        table = jeffrey_table()
        report = close_open(table, "mvv", PipelineConfig())
        g, rule = report.granular, report.best_rules.rules[0]
        matrix = disc_matrix(g, decision="mvv")
        som_config = SomConfig(grid=(2, 1), epochs=3)
        found = [
            table, g, g.specs[0], g.discretizers["mvv"], report, report.config,
            RuleConstraints(), report.best_iteration, report.best_rules, rule,
            rule.conditions[0], rule.decision, back_analyze(report.best_rules, ("mvv", 1), g),
            partition_by(g, g.condition_names), matrix, disc_function(matrix),
            reducts(g, decision="mvv"), som_config, train([[0.0], [1.0]], som_config),
            SlopeParams(30.0, 20.0, 45.0, 1000.0, 40.0),
        ]
        _SAMPLES.update((type(r), r) for r in found)
    return _SAMPLES


def test_every_record_class_has_a_sample():
    assert set(_samples()) == set(RECORD_CLASSES)
    assert len(CHECKED) > 40


def test_derived_values_are_read_not_stored():
    """A value that other fields decide is a property of the same name, so
    it cannot disagree with them; the records hold only the fields."""
    counts = [len(fields(c)) for c in
              (RunReport, ParameterEstimate, ReductSet, Partition, DiscernibilityMatrix)]
    assert counts == [7, 4, 1, 1, 1]
    report, est, rs = _samples()[RunReport], _samples()[ParameterEstimate], _samples()[ReductSet]
    assert report.best_accuracy == report.best_iteration.accuracy
    assert report.el_met is report.best_iteration.accepted
    assert est.no_match is (not est.matched_rules)
    assert replace(est, matched_rules=()).no_match is True
    assert rs.core == frozenset.intersection(*rs.reducts)
    assert ReductSet(reducts=()).core == frozenset()


@pytest.mark.parametrize(
    "cls, name, text", CHECKED, ids=[f"{c.__qualname__}.{n}" for c, n, _ in CHECKED]
)
def test_field_type_is_checked(cls, name, text, monkeypatch):
    """Every checked field refuses a value of each JSON type its annotation
    does not accept (a bool is never a number; None only where ``| None``
    is declared) with a ``UsageError`` naming the class and the field, and
    takes each value it does accept (an int where a float is declared).
    ``__post_init__`` is stubbed out so that only the type check speaks."""
    record = _samples()[cls]
    monkeypatch.setattr(cls, "__post_init__", lambda self: None, raising=False)
    accepts, many = _accepts(text)
    cases = list(JSON_VALUES.values())
    if many:  # a tuple of each JSON value, the empty tuple and a list
        cases += [(v,) for v in JSON_VALUES.values()] + [(), []]
    for value in cases:
        if many:
            ok = type(value) is tuple and all(type(v) in accepts for v in value)
        else:
            ok = type(value) in accepts
        if ok:
            assert getattr(replace(record, **{name: value}), name) == value
        else:
            message = rf"^{cls.__qualname__}\.{name} must be {re.escape(text)}, got "
            with pytest.raises(UsageError, match=message):
                replace(record, **{name: value})


# The fields whose annotations lie outside the checked grammar: label sets,
# plain dicts, and fixed-length or nested tuples.
UNCHECKED = {
    "BoolFormula.cnf", "BoolFormula.dnf", "Condition.labels", "DecisionTable.rows",
    "DiscernibilityMatrix.entries", "GranularTable.rows", "ParameterEstimate.sensitivity",
    "Partition.blocks", "ReductSet.reducts", "SomConfig.grid", "SomMap.grid", "SomMap.weights",
}


def test_unchecked_fields_are_pinned(monkeypatch):
    """Exactly the ``UNCHECKED`` fields take a value of no declared type
    when a record is built; every other field refuses it with a
    ``UsageError`` naming the class, the field and its annotation. A
    grammar change that starts or stops checking a field shows here."""
    unchecked = set()
    for cls in RECORD_CLASSES:
        monkeypatch.setattr(cls, "__post_init__", lambda self: None, raising=False)
        for f in fields(cls):
            try:
                replace(_samples()[cls], **{f.name: object()})
            except UsageError as exc:
                assert str(exc).startswith(f"{cls.__qualname__}.{f.name} must be {f.type}, got ")
            else:
                unchecked.add(f"{cls.__qualname__}.{f.name}")
    assert unchecked == UNCHECKED


RECORDS_BY_NAME = {c.__qualname__: c for c in RECORD_CLASSES}


def _record_accepts(text: str):
    """(record class, None allowed, whether the field is a tuple of them) of
    an annotation naming a record class, or None."""
    if text.startswith("tuple[") and text.endswith(", ...]"):
        cls = RECORDS_BY_NAME.get(text[6:-6])
        return cls and (cls, False, True)
    cls = RECORDS_BY_NAME.get(text.removesuffix(" | None"))
    return cls and (cls, text.endswith(" | None"), False)


RECORD_CHECKED = [
    (cls, f.name, f.type) for cls in RECORD_CLASSES for f in fields(cls) if _record_accepts(f.type)
]


def test_record_fields_are_found():
    named = {f"{c.__qualname__}.{n}" for c, n, _ in RECORD_CHECKED}
    assert {"RunReport.config", "Rule.conditions", "Rule.decision",
            "RuleSet.rules", "RunReport.granular", "DecisionTable.specs"} <= named
    assert not named & {"GranularTable.discretizers", "Condition.labels"}


@pytest.mark.parametrize(
    "cls, name, text", RECORD_CHECKED, ids=[f"{c.__qualname__}.{n}" for c, n, _ in RECORD_CHECKED]
)
def test_record_field_type_is_checked(cls, name, text, monkeypatch):
    """Every field annotated with a record class takes an instance of it
    and refuses each JSON value and a record of another
    class with a ``UsageError`` naming the class and the field; a tuple of
    records refuses a list and any item that is not such a record."""
    record = _samples()[cls]
    monkeypatch.setattr(cls, "__post_init__", lambda self: None, raising=False)
    item_cls, optional, many = _record_accepts(text)
    item = _samples()[item_cls]
    other = next(r for c, r in _samples().items() if not issubclass(c, item_cls))
    good = [(), (item,), (item, item)] if many else [item] + [None] * optional
    bad = [v for v in JSON_VALUES.values() if v is not None or not optional] + [other]
    if many:
        bad += [[item], (item, other), (None,), (json_record(item),)]
    for value in good:
        assert getattr(replace(record, **{name: value}), name) == value
    message = rf"^{cls.__qualname__}\.{name} must be {re.escape(text)}, got "
    for value in bad:
        with pytest.raises(UsageError, match=message):
            replace(record, **{name: value})


def test_record_field_takes_a_subclass():
    class Holder(Record):
        table: "DecisionTable"
        best: "Rule | None" = None

    g = _samples()[GranularTable]
    assert Holder(g).table is g and Holder(g, _samples()[Rule]).best is _samples()[Rule]
    with pytest.raises(UsageError, match=r"\.Holder\.table must be DecisionTable, got Attr"):
        Holder(g.specs[0])
    with pytest.raises(UsageError, match=r"\.Holder\.best must be Rule \| None, got \{"):
        Holder(g, json_record(_samples()[Rule]))


def test_optional_items_are_checked():
    """``X | None`` is an item type too: a tuple or dict of such items
    takes None items and refuses other values."""
    class Optionals(Record):
        ints: "tuple[int | None, ...]" = ()
        rules: "dict[str, Rule | None]" = {}

    rule = _samples()[Rule]
    assert Optionals((1, None), {"a": rule, "b": None}).ints == (1, None)
    with pytest.raises(UsageError, match=r"\.Optionals\.ints must be tuple\[int \| None, ...\]"):
        Optionals((1.5,))
    with pytest.raises(UsageError, match=r"\.Optionals\.rules must be dict\[str, Rule \| None\]"):
        Optionals(rules={"a": 1})


def test_record_typed_fields_are_checked_when_built():
    """A record-typed field holding a string is a ``UsageError`` when the
    record is built, not a later ``AttributeError``."""
    with pytest.raises(UsageError, match="^Rule.decision must be DecisionPart"):
        Rule(conditions=(), decision="x")
    with pytest.raises(UsageError, match=r"^Rule.conditions must be tuple\[Condition, ...\]"):
        Rule(conditions=("x",), decision=DecisionPart("d", "exactly", 1))


@pytest.mark.parametrize("discretizers", [
    {"a": "x", "d": DISCS["d"]}, None, {1: DISC, "d": DISCS["d"]}, [DISC], {**DISCS, "d": None},
], ids=["str-value", "None", "int-key", "list", "None-value"])
def test_dict_field_is_checked_when_built(discretizers):
    """A ``dict[str, X]`` field takes only a dict with str keys and values
    of ``X``: anything else is a ``UsageError`` naming the class and the
    field when the record is built, before ``__post_init__`` reads it."""
    message = r"^GranularTable\.discretizers must be dict\[str, Discretizer\], got "
    with pytest.raises(UsageError, match=message):
        GranularTable(specs=SPECS, rows=((1, 1),), discretizers=discretizers)


def test_checks_with_post_init():
    """The type check runs before ``__post_init__``; an int still passes
    where a float is declared once the range checks run too."""
    assert RuleConstraints(min_strength=1).min_strength == 1
    assert Condition("a", lo=1, hi=2).lo == 1
    assert Rule((COND,), DecisionPart("d", "exactly", 1), support=2, strength=1).strength == 1
    with pytest.raises(UsageError, match="RuleConstraints.max_rules must be int, got 2.5"):
        RuleConstraints(max_rules=2.5)
    with pytest.raises(UsageError, match="PipelineConfig.granules must be int, got '3'"):
        PipelineConfig(granules="3")
    with pytest.raises(UsageError, match="SomConfig.seed must be int, got 1.5"):
        SomConfig(grid=(2, 1), seed=1.5)


@pytest.mark.parametrize("value", [np.float64(1.5), np.int64(1), np.bool_(True)])
def test_numpy_scalars_are_no_field_values(value):
    with pytest.raises(UsageError, match="Condition.lo must be float"):
        Condition("a", lo=value)
    with pytest.raises(UsageError, match="Discretizer.centers must be tuple"):
        Discretizer("a", "linear", (3.0, value), (2.5,))


def test_non_finite_quantizer_is_refused():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(UsageError, match="centers and cuts must be finite"):
            Discretizer("a", "linear", (3.0, 2.0), (bad,))


@pytest.fixture(scope="module")
def pipeline_reports():
    """Corpus reports at two seeds and a report on a 40-row surrogate table
    at the criterion-7 settings."""
    reports = [close_open(jeffrey_table(), "mvv", PipelineConfig(seed=s)) for s in (0, 1)]
    c7 = PipelineConfig(
        granules=2, semantics="exact", seed=3, min_strength=0.0, max_length=3, max_rules=8,
    )
    reports.append(close_open(generate_table(count=40, seed=5), "displacement", c7))
    return reports


def test_from_json_inverts_json_record(pipeline_reports):
    """Every rule, condition, decision, quantizer and schema record of the
    reports survives a trip through ``json`` with ``json_record`` as the
    writer and ``from_json`` as the reader."""
    kinds = {Rule: 0, Condition: 0, DecisionPart: 0, Discretizer: 0, AttributeSpec: 0}
    for report in pipeline_reports:
        records = [*report.granular.discretizers.values(), *report.granular.specs]
        for rule in report.best_rules.rules:
            records += [rule, rule.decision, *rule.conditions]
        for r in records:
            kinds[type(r)] += 1
            assert from_json(type(r), json.loads(json.dumps(r, default=json_record))) == r
        doc = json.loads(report_to_json(report))
        assert report_rules_from_json(doc) == report.best_rules
    assert all(kinds.values()), kinds


def test_from_json_reads_by_annotation():
    """Lists become tuples or label sets and nested objects records; other
    keys are ignored and missing fields take their defaults. A value of the
    wrong type is refused by the record, a record that is no JSON object and
    a tuple that is no JSON array by the reader."""
    rule = from_json(Rule, {
        "conditions": [{"attribute": "a", "hi": 2.5, "labels": [2, 1], "note": 1}],
        "decision": {"attribute": "d", "kind": "at_most", "granule": 1},
        "rules_text": "ignored",
    })
    cond = Condition("a", hi=2.5, labels=frozenset({1, 2}))
    assert rule == Rule((cond,), DecisionPart("d", "at_most", 1))  # missing: the defaults
    assert from_json(Condition, {"attribute": "a", "lo": 1, "labels": None}).labels is None
    assert from_json(RuleSet, {"rules": [], "uncovered": [3, 1]}).uncovered == (3, 1)
    assert from_json(Discretizer, json_record(DISC)) == DISC
    with pytest.raises(UsageError, match="Rule.support must be int, got 1.5"):
        from_json(Rule, {**json.loads(json.dumps(rule, default=json_record)), "support": 1.5})
    with pytest.raises(TypeError, match=r"a tuple\[int, \.\.\.\] must be a JSON array, got '12'"):
        from_json(RuleSet, {"rules": [], "uncovered": "12"})
    for bad in (["a"], "a", None):
        with pytest.raises(TypeError, match="a Condition record must be a JSON object"):
            from_json(Rule, {"conditions": [bad], "decision": json_record(rule.decision)})
    with pytest.raises(TypeError, match="missing"):
        from_json(DecisionPart, {"attribute": "d", "kind": "exactly"})


@pytest.mark.parametrize("value", [{}, ""], ids=["object", "string"])
def test_tuple_field_reads_only_an_array(value):
    """An empty object or string is no JSON array: a tuple of records, of
    rows or of numbers refuses it rather than reading it as empty."""
    with pytest.raises(TypeError, match=r"a tuple\[Rule, \.\.\.\] must be a JSON array"):
        from_json(RuleSet, {"rules": value})
    with pytest.raises(TypeError, match=r"a tuple\[tuple, \.\.\.\] must be a JSON array"):
        from_json(DecisionTable, {"specs": [{"name": "a", "role": "condition"}], "rows": value})
    with pytest.raises(TypeError, match=r"a tuple\[float, \.\.\.\] must be a JSON array"):
        from_json(Discretizer, {**json_record(DISC), "centers": value})


def test_readers_are_built_with_the_class():
    """Each field's reader is made once, when its class is defined, and an
    inherited field keeps its reader."""
    readers = [f.read for f in fields(Rule)]
    assert [r is None for r in readers] == [False, False, True, True]  # support, strength as read
    rule = CASES[1][0]
    assert from_json(Rule, json.loads(json.dumps(rule, default=json_record))) == rule
    assert all(f.read is r for f, r in zip(fields(Rule), readers))
    doc = {"name": "a", "role": "condition"}
    assert fields(GranularTable)[:2] == fields(DecisionTable)
    table = {"specs": [doc], "rows": [[1]]}
    assert from_json(DecisionTable, table).rows == ((1,),)
    discs = {"a": json_record(DISC)}  # JSON, as from_json reads it
    assert from_json(GranularTable, {**table, "discretizers": discs}).discretizers == {"a": DISC}
