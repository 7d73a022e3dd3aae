"""Rough-set mathematics over attribute-value tables.

Indiscernibility partitions, the pairwise discernibility matrix, its
Boolean function (CNF whose prime implicants are the reducts), the reducts
and the core. Pawlak's object-level approximations and an exhaustive
subset search for the reducts live in tests/oracles.py, as references.

Objects (object i is row i) agreeing on every attribute of a subset B fall
into one block; a missing value is tolerant (it matches anything), and
blocks are grown first-fit in row order so the result stays deterministic.

Partitions, reducts and the core work over distinct object classes: each
call groups the rows once and tags a class with its decisions and whether
its tolerance group agrees on them (the positive region). A clause
depends only on two classes' vectors and tags, so each pair of classes is
compared once. The core is read off the singleton clauses without
expanding the DNF. disc_matrix keeps the pairwise form as the reference.

Clauses are absorbed inside the implicant expansion: taken shortest
first, one that contains an earlier clause is hit by every implicant so
far and is skipped after one scan, so a wide table reaches the
MAX_IMPLICANTS bound in seconds, with no quadratic absorption pass first.
Clause generation compares every pair of distinct classes on every
compared attribute; reducts refuses a table where that exceeds
MAX_CLAUSE_CELLS before comparing any pair. The core's scan stops at each
pair's second separating attribute and has no such bound.

A ``decision`` argument is a name, a list of names or None (every decision
attribute); ``DecisionTable.decision`` refuses a name that is not one,
in plain mode too.
"""

from __future__ import annotations

import itertools

from ._record import Record
from .errors import DataError, UsageError
from .table import DecisionTable

# The prime implicants of a discernibility function can grow exponentially
# in the attribute count; past this many the expansion stops with an error.
MAX_IMPLICANTS = 5000

# Clause generation compares each pair of distinct classes on each compared
# attribute; past this many such cells it stops with an error before the
# first comparison. A cell took 0.12-0.24 us on a 2-core VM (Python 3.11),
# so the bound is a few seconds there.
MAX_CLAUSE_CELLS = 25_000_000


class Partition(Record):
    """Disjoint blocks of row numbers covering the table's rows."""

    blocks: tuple[frozenset, ...]


class DiscernibilityMatrix(Record):
    """Attribute sets separating each pair of the table's rows (i > j)."""

    entries: dict  # (i, j) -> frozenset of attribute names


class BoolFormula(Record):
    """A discernibility function: absorbed CNF and its prime implicants."""

    cnf: frozenset  # of frozensets (clauses)
    dnf: frozenset  # of frozensets (implicants, i.e. minimal hitting sets)


class ReductSet(Record):
    """Reducts, sorted by size then names; the core is their intersection."""

    reducts: tuple[frozenset, ...]

    @property
    def core(self) -> frozenset:
        return frozenset.intersection(*self.reducts) if self.reducts else frozenset()


def _tolerance_groups(vecs) -> list[list[tuple]]:
    """Group distinct vectors first-fit: in the given order (their first
    rows' order, as the callers pass them), each joins the first group it is
    tolerant with every member of (a missing value matches anything)."""
    # Distinct complete vectors are never tolerant with each other.
    missing = any(None in vec for vec in vecs)
    groups: list[list[tuple]] = []
    for vec in vecs:
        for group in groups if missing else ():
            if all(x is None or y is None or x == y for other in group for x, y in zip(vec, other)):
                group.append(vec)
                break
        else:
            groups.append([vec])
    return groups


def _class_keys(table: DecisionTable, attrs, d_attrs=None) -> dict:
    """Row numbers per distinct (vector on attrs, tag) key, in first-occurrence
    order; only the distinct rows are projected. The tag is None without
    d_attrs, else (in the positive region, decision vector): a class is
    positive when, per decision attribute, the present values across its
    tolerance group (its partition_by block) agree."""
    c_idx = [table.col_index(a) for a in attrs]  # raises UsageError on unknown names
    d_idx = [table.col_index(a) for a in d_attrs or ()]
    by_row: dict[tuple, list] = {}
    for i, row in enumerate(table.rows):
        by_row.setdefault(row, []).append(i)
    classes: dict[tuple, list] = {}
    for row, members in by_row.items():
        key = (tuple([row[j] for j in c_idx]), tuple([row[j] for j in d_idx]))
        classes.setdefault(key, []).extend(members)
    if d_attrs is None:
        return {(vec, None): rows for (vec, _), rows in classes.items()}
    decisions: dict[tuple, set] = {}  # vector on attrs -> its decision vectors
    for vec, dec in classes:
        decisions.setdefault(vec, set()).add(dec)
    pure = {}
    for group in _tolerance_groups(decisions):
        decs = [dec for vec in group for dec in decisions[vec]]
        pure.update(dict.fromkeys(group, all(len(set(v) - {None}) <= 1 for v in zip(*decs))))
    return {(vec, (pure[vec], dec)): rows for (vec, dec), rows in classes.items()}


def partition_by(table: DecisionTable, attrs) -> Partition:
    """Blocks of objects indiscernible on every attribute in attrs.

    With missing values the relation is a tolerance, not an equivalence;
    each object joins the first existing block it is tolerant with every
    member of, scanning the rows in order. The blocks therefore depend
    on that order: reordering rows can regroup them. Objects with
    identical vectors always share a block, whatever the order (an earlier
    block that rejected one rejects the other, and every member of the
    first one's block is tolerant with both), so the scan runs over the
    distinct vectors in order of first occurrence and gives the same blocks.
    """
    classes = {vec: rows for (vec, _), rows in _class_keys(table, list(attrs)).items()}
    groups = _tolerance_groups(classes)
    blocks = sorted((frozenset(i for vec in g for i in classes[vec]) for g in groups), key=min)
    return Partition(blocks=tuple(blocks))


def _decision_attrs(table: DecisionTable, decision) -> list[str]:
    if decision is None:
        names = table.decision_names
        if not names:
            raise UsageError("table has no decision attribute")
        return names
    if isinstance(decision, str):
        decision = [decision]
    return [table.decision(d) for d in decision]


def _mode_keys(table: DecisionTable, mode: str, decision=None) -> tuple[list, dict]:
    """The attributes a mode compares, and the row numbers per distinct key
    (see _class_keys): all attributes untagged in plain mode, condition
    attributes tagged with the decisions in decision_relative mode. Two
    objects' matrix entry depends on their keys alone. Plain mode reads no
    decision, yet still refuses a ``decision`` that names none."""
    if mode == "plain":
        _decision_attrs(table, [] if decision is None else decision)
        return table.names, _class_keys(table, table.names)
    if mode != "decision_relative":
        raise UsageError(f"unknown discernibility mode {mode!r}")
    conds = table.condition_names
    return conds, _class_keys(table, conds, _decision_attrs(table, decision))


def _needed(tag_a, tag_b) -> bool:
    """Whether a pair must be told apart: always in plain mode; in
    decision_relative mode when both are positive with different decisions
    or exactly one of them is positive."""
    if tag_a is None:
        return True
    (pos_a, dec_a), (pos_b, dec_b) = tag_a, tag_b
    return dec_a != dec_b if pos_a and pos_b else pos_a != pos_b


def _separating(attrs, vec_a, vec_b) -> frozenset:
    """Attributes on which both values are present and differ."""
    return frozenset(
        a for a, x, y in zip(attrs, vec_a, vec_b) if x is not None and y is not None and x != y
    )


def disc_matrix(
    table: DecisionTable, mode: str = "decision_relative", decision=None
) -> DiscernibilityMatrix:
    """Pairwise attribute sets that tell objects apart.

    plain: every pair, every attribute (conditions and decisions alike).

    decision_relative: condition attributes only, and only for pairs whose
    separation the positive region of ``decision`` depends on: both positive with
    different decisions, or exactly one of them positive. Hitting these
    entries is exactly what preserves the quality of approximation.

    This is the O(n^2) reference; reducts and core work from the same
    clauses over distinct object classes.
    """
    attrs, keys = _mode_keys(table, mode, decision)
    key_of = {i: key for key, rows in keys.items() for i in rows}
    entries = {}
    for (a, (vec_a, tag_a)), (b, (vec_b, tag_b)) in itertools.combinations(
        ((i, key_of[i]) for i in range(len(table))), 2
    ):
        entries[(b, a)] = (
            _separating(attrs, vec_a, vec_b) if _needed(tag_a, tag_b) else frozenset()
        )
    return DiscernibilityMatrix(entries=entries)


def _clauses(table: DecisionTable, mode: str = "decision_relative", decision=None) -> set:
    """The non-empty entries of disc_matrix, from one object per class.

    Objects with equal keys (see _mode_keys) get equal entries against
    every other object and an empty entry against each other, so comparing
    each pair of distinct keys once yields the same clause family. Under
    tolerant grouping this holds because identical vectors always share a
    tolerance group, hence the same positive-region membership.
    Raises DataError, before comparing any pair, when the pairs times the
    compared attributes exceed MAX_CLAUSE_CELLS.
    """
    attrs, keys = _mode_keys(table, mode, decision)
    pairs = len(keys) * (len(keys) - 1) // 2
    if pairs * len(attrs) > MAX_CLAUSE_CELLS:
        raise DataError(
            f"discernibility clauses need {pairs} class pairs x {len(attrs)} attributes, "
            f"more than {MAX_CLAUSE_CELLS} compared cells"
        )
    clauses = {
        _separating(attrs, vec_a, vec_b)
        for (vec_a, tag_a), (vec_b, tag_b) in itertools.combinations(keys, 2)
        if _needed(tag_a, tag_b)
    }
    clauses.discard(frozenset())
    return clauses


def _implicants(clauses) -> BoolFormula:
    """Absorbed CNF of non-empty clauses, and its minimal hitting sets.

    Clause-by-clause distribution over the distinct clauses, shortest
    first, on attribute bit masks. Every implicant hits a clause exactly
    when it contains an earlier clause (else the earlier clauses' parts
    outside it form a hitting set that misses it); such a clause is
    absorbed, i.e. skipped and left out of the CNF. For any other clause,
    an implicant that hits it is kept and one that misses it grows by each
    clause attribute. Since the implicants before a step form an antichain,
    no grown set contains another one or a kept one, so absorption only has
    to drop grown sets holding a kept implicant, and such a kept implicant
    holds the attribute just added. Raises DataError once more than
    MAX_IMPLICANTS survive a step.
    """
    family = sorted(set(clauses), key=lambda c: (len(c), tuple(sorted(c))))
    names = sorted({a for c in family for a in c})
    bit = {a: 1 << k for k, a in enumerate(names)}
    implicants = [0]
    cnf = []
    for clause in family:
        mask = sum(bit[a] for a in clause)
        missing = [m for m in implicants if not m & mask]
        if not missing:
            continue
        cnf.append(clause)
        kept = [m for m in implicants if m & mask]
        implicants = list(kept)
        for a in sorted(clause):
            b = bit[a]
            holders = [k for k in kept if k & b]
            for m in missing:
                g = m | b
                if not any(k & g == k for k in holders):
                    implicants.append(g)
            if len(implicants) > MAX_IMPLICANTS:
                raise DataError(
                    f"discernibility function exceeds {MAX_IMPLICANTS} implicants "
                    f"({len(names)} attributes, {len(family)} distinct clauses)"
                )
    dnf = frozenset(frozenset(a for a in names if m & bit[a]) for m in implicants)
    return BoolFormula(cnf=frozenset(cnf), dnf=dnf)


def disc_function(matrix: DiscernibilityMatrix) -> BoolFormula:
    """CNF over the non-empty matrix entries, and its prime implicants.

    Since every literal is positive the implicants are the minimal hitting
    sets of the clause family.
    """
    return _implicants(c for c in matrix.entries.values() if c)


def _reduct_set(minimal) -> ReductSet:
    """Reducts sorted by size then names."""
    return ReductSet(reducts=tuple(sorted(minimal, key=lambda r: (len(r), tuple(sorted(r))))))


def reducts(table: DecisionTable, mode: str = "decision_relative", decision=None) -> ReductSet:
    """Reducts through the discernibility function over object classes."""
    return _reduct_set(_implicants(_clauses(table, mode, decision)).dnf)


def core(table: DecisionTable, decision=None) -> frozenset:
    """Core relative to ``decision``, without the implicant expansion.

    An attribute lies in every reduct exactly when it alone tells some
    needed pair apart, i.e. when it forms a singleton clause (Skowron &
    Rauszer 1992). Each needed pair of distinct keys is scanned only until
    a second separating attribute shows up.
    """
    attrs, keys = _mode_keys(table, "decision_relative", decision)
    found = set()
    for (vec_a, tag_a), (vec_b, tag_b) in itertools.combinations(keys, 2):
        if not _needed(tag_a, tag_b):
            continue
        sep = None
        for a, x, y in zip(attrs, vec_a, vec_b):
            if x != y and x is not None and y is not None:
                if sep is not None:
                    break
                sep = a
        else:
            found.add(sep)
    return frozenset(found - {None})


def reduct_report(rs: ReductSet) -> str:
    """One reduct per line as sorted names, then the core."""
    lines = [", ".join(sorted(r)) if r else "(empty)" for r in rs.reducts]
    core = ", ".join(sorted(rs.core)) if rs.core else "(none)"
    lines.append(f"CORE: {core}")
    return "\n".join(lines) + "\n"
