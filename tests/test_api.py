"""The public names of the package."""

import inspect

import pytest

import somrough
import somrough.pipeline
import somrough.rough
import somrough.rules
import somrough.som
from somrough._record import fields

# Object-level rough-set oracles that tests/oracles.py holds; the package
# does not ship them.
MOVED = [
    "lower_approx",
    "upper_approx",
    "positive_region",
    "approx_quality",
    "reducts_exhaustive",
    "MAX_EXHAUSTIVE_ATTRS",
]


def test_every_public_name_resolves_once():
    assert len(somrough.__all__) == len(set(somrough.__all__))
    assert [name for name in somrough.__all__ if not hasattr(somrough, name)] == []


@pytest.mark.parametrize("name", MOVED)
def test_oracles_are_not_in_the_package(name):
    assert name not in somrough.__all__
    assert not hasattr(somrough, name)
    assert not hasattr(somrough.rough, name)


def test_quantizer_text_record_is_gone():
    """A quantizer's one written form is its JSON record: the lossy text
    record that ``discretize`` wrote is not in the package."""
    assert not hasattr(somrough.som, "discretizer_record")


def test_report_notes_are_gone():
    """Reports no longer echo the same notes in every file: neither the
    notes constant nor the report record's attribute remains."""
    assert not hasattr(somrough.pipeline, "POLICY_NOTES")
    assert not hasattr(somrough.pipeline.RunReport, "notes")


def test_settings_record_is_flat():
    """A run's settings are one flat record: ``PipelineConfig`` is a
    ``RuleConstraints``, with no nested ``constraints`` field and no
    flattening helper."""
    cfg = somrough.PipelineConfig()
    assert isinstance(cfg, somrough.RuleConstraints)
    assert not hasattr(cfg, "constraints")
    assert not hasattr(somrough.pipeline, "config_settings")


def test_semantics_is_a_rule_constraint():
    """A run's semantics is declared once, as the last field of
    ``RuleConstraints``: induction and the rule check read it from there,
    and reports render their rule text with ``render_rules``. A rule set
    keeps no copy of it: its bands' kind states it."""
    assert [f.name for f in fields(somrough.RuleConstraints)] == [
        "min_strength", "max_length", "max_rules", "semantics",
    ]
    assert "semantics" not in vars(somrough.PipelineConfig)["__annotations__"]
    for function in (somrough.induce_cover, somrough.rules.check_rules):
        assert "semantics" not in inspect.signature(function).parameters
    assert not hasattr(somrough.pipeline, "rules_text")
    assert [f.name for f in fields(somrough.RuleSet)] == ["rules", "uncovered"]
    assert not hasattr(somrough.rules, "check_semantics")
