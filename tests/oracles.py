"""Object-level rough-set definitions, kept as oracles for the package.

Pawlak's lower and upper approximations, positive region and quality of
approximation (Rough Sets, 1991), and an exhaustive search over attribute
subsets for the reducts. The package computes reducts and the core from
the discernibility function over distinct object classes; these compute
the same notions object by object, or subset by subset, so the tests can
compare the two. Nothing in the package or the CLI calls them.
"""

from __future__ import annotations

import itertools

from somrough.errors import UsageError
from somrough.rough import (
    Partition,
    ReductSet,
    _class_keys,
    _decision_attrs,
    _reduct_set,
    partition_by,
)
from somrough.table import DecisionTable

# Exhaustive subset search is exponential; instances here are small by
# construction, anything bigger is a caller mistake.
MAX_EXHAUSTIVE_ATTRS = 16


def lower_approx(p: Partition, x) -> frozenset:
    """Union of blocks entirely inside x."""
    x = frozenset(x)
    return frozenset(i for b in p.blocks if b <= x for i in b)


def upper_approx(p: Partition, x) -> frozenset:
    """Union of blocks meeting x."""
    x = frozenset(x)
    return frozenset(i for b in p.blocks if b & x for i in b)


def positive_region(table: DecisionTable, attrs, decision=None) -> frozenset:
    """Objects whose block under attrs is pure on ``decision``."""
    keys = _class_keys(table, list(attrs), _decision_attrs(table, decision))
    return frozenset(i for (_, (pure, _)), rows in keys.items() if pure for i in rows)


def approx_quality(table: DecisionTable, attrs, decision=None) -> float:
    """Fraction of the universe whose ``decision`` is determined by attrs."""
    if len(table) == 0:
        return 1.0
    return len(positive_region(table, attrs, decision)) / len(table)


def reducts_exhaustive(
    table: DecisionTable, mode: str = "decision_relative", decision=None
) -> ReductSet:
    """Independent oracle: enumerate attribute subsets directly.

    plain: minimal subsets inducing the same partition as all attributes.
    decision_relative: minimal condition subsets preserving the quality of
    approximation of ``decision`` by the full condition set.
    """
    if mode == "plain":
        _decision_attrs(table, [] if decision is None else decision)
        attrs = table.names
        if len(attrs) > MAX_EXHAUSTIVE_ATTRS:
            raise UsageError(f"exhaustive search capped at {MAX_EXHAUSTIVE_ATTRS} attributes")
        target = frozenset(partition_by(table, attrs).blocks)

        def preserves(subset):
            return frozenset(partition_by(table, subset).blocks) == target

    elif mode == "decision_relative":
        attrs = table.condition_names
        if len(attrs) > MAX_EXHAUSTIVE_ATTRS:
            raise UsageError(f"exhaustive search capped at {MAX_EXHAUSTIVE_ATTRS} attributes")
        d_attrs = _decision_attrs(table, decision)
        target = len(positive_region(table, attrs, d_attrs))

        def preserves(subset):
            return len(positive_region(table, subset, d_attrs)) == target

    else:
        raise UsageError(f"unknown discernibility mode {mode!r}")

    minimal: list[frozenset] = []
    for size in range(len(attrs) + 1):
        for combo in itertools.combinations(attrs, size):
            cand = frozenset(combo)
            if any(m <= cand for m in minimal):
                continue
            if preserves(cand):
                minimal.append(cand)
    return _reduct_set(minimal)
