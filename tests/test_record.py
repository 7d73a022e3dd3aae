"""Records against ``dataclasses``: a frozen dataclass built from the same
field names and values is the oracle for equality, hashing, ``repr``,
field order and frozenness."""

import dataclasses

import pytest

from somrough._record import fields, replace
from somrough.errors import DataError, UsageError
from somrough.pipeline import Iteration, PipelineConfig
from somrough.rules import Condition, DecisionPart, Rule, RuleConstraints
from somrough.som import Discretizer
from somrough.table import AttributeSpec, GranularTable

SPECS = (AttributeSpec("a", "condition"), AttributeSpec("d", "decision"))
DISC = Discretizer("a", "linear", (3.0, 2.0, 1.0), (2.5, 1.5))
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
    (PipelineConfig(runs=2, constraints=RuleConstraints(max_rules=3)),
     ["runs", "max_closed", "el", "constraints", "train_fraction", "granules",
      "max_open_steps", "seed", "semantics"],
     {"seed": 5}, {"granules": 1}, UsageError),
    (Iteration(run=1, index=2, split_seed=3, budget=4, n_rules=2, accuracy=0.5, accepted=False),
     ["run", "index", "split_seed", "budget", "n_rules", "accuracy", "accepted"],
     {"accepted": True}, None, None),
    (GranularTable(specs=SPECS, rows=((1, 1), (3, 2)), object_ids=(4, 7),
                   discretizers={"a": DISC}),
     ["specs", "rows", "object_ids", "discretizers"],
     {"object_ids": (5, 6)}, {"rows": ((4, 1), (3, 2))}, DataError),
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


def test_granular_tables_get_their_own_discretizers():
    one = GranularTable(specs=SPECS, rows=((1, 1),))
    two = GranularTable(specs=SPECS, rows=((1, 1),))
    assert one.discretizers == two.discretizers == {}
    assert one.discretizers is not two.discretizers
    assert one == two and repr(one) == repr(_twin(one))


def test_post_init_is_looked_up_per_call(monkeypatch):
    """A ``__post_init__`` set on the class after its definition runs on the
    next construction, as the benchmark's tracer relies on."""
    seen = []
    original = GranularTable.__post_init__

    def spy(self):
        seen.append(self.rows)
        original(self)

    monkeypatch.setattr(GranularTable, "__post_init__", spy)
    GranularTable(specs=SPECS, rows=((1, 1),))
    assert seen == [((1, 1),)]


def test_non_fields_stay_out():
    """The row masks are an attribute, not a field: they take no part in
    equality, hashing or ``repr``."""
    table = GranularTable(specs=SPECS, rows=((1, 1), (2, 2)), discretizers={"a": DISC})
    table.masks()
    assert "_masks" in vars(table)
    assert "_masks" not in repr(table)
    assert table == GranularTable(specs=SPECS, rows=table.rows, discretizers={"a": DISC})
