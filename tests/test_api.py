"""The public names of the package."""

import importlib
import inspect
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import somrough
import somrough.pipeline
import somrough.rough
import somrough.rules
import somrough.som
import somrough.table
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


def test_public_names_are_their_defining_modules_objects():
    for name in somrough.__all__:
        value = getattr(somrough, name)
        assert value is getattr(importlib.import_module(value.__module__), name), name


def test_public_names_are_sorted_and_unique():
    assert somrough.__all__ == sorted(set(somrough.__all__))


def test_star_import_binds_every_name_and_dir_lists_them():
    namespace = {}
    exec("from somrough import *", namespace)
    assert [name for name in somrough.__all__ if name not in namespace] == []
    assert dir(somrough) == somrough.__all__


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        somrough.no_such_name


def _fresh_interpreter(script):
    """Run ``script`` in ``python -S`` with only the source tree on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-S", "-c", textwrap.dedent(script)], capture_output=True, text=True,
        timeout=60, env={"PYTHONPATH": src, "PATH": ""},
    )
    assert done.returncode == 0, done.stderr


def test_import_loads_no_package_module():
    """A name's module loads on first use, not with the package."""
    _fresh_interpreter(
        """
        import sys
        import somrough
        loaded = {m for m in sys.modules if m.startswith("somrough.")}
        assert loaded <= {"somrough.errors"}, loaded
        somrough.Discretizer
        assert "somrough.table" in sys.modules and "somrough.som" not in sys.modules
        somrough.close_open
        assert "somrough.pipeline" in sys.modules and "somrough.surrogate" not in sys.modules
        """
    )


def test_submodule_resolves_after_a_bare_import():
    _fresh_interpreter(
        """
        import sys
        import somrough
        assert somrough.rough is sys.modules["somrough.rough"]
        assert somrough.reducts is somrough.rough.reducts
        """
    )


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


def test_scale_inference_is_gone():
    """Every scale is declared: a schema states each column's, and the
    surrogate's decision is log10 by construction. No span rule is left."""
    assert not hasattr(somrough.table, "infer_scale")
    assert not hasattr(somrough.table, "LOG_SCALE_DECADES")
