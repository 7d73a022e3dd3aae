"""Bundled example corpus: forward-model runs for the Jeffrey mine
southeast wall, 12 slope simulations with 8 strength parameters and two
monitored responses (total max displacement, max velocity vector).

The published run set was about 30 models; only these 12 survive, so
quantizer cuts re-derived from this subset will not byte-match cuts
induced from the full set.
"""

from __future__ import annotations

import importlib.resources

from .table import DecisionTable, load_schema, load_table

# Monitored slip rate of the 1971 failure, about 1500 m/month in m/s;
# far above every simulated velocity in the subset.
JEFFREY_OBSERVED_RATE_MS = 1500.0 / (30 * 24 * 3600)


def _read(name: str) -> str:
    return importlib.resources.files("somrough.data").joinpath(name).read_text()


def jeffrey_schema():
    return load_schema(_read("jeffrey_schema.json"))


def jeffrey_table() -> DecisionTable:
    """The 12-run slope corpus as a decision table (rows 0..11)."""
    return load_table(_read("jeffrey_runs.csv"), jeffrey_schema())
