"""Rough-set mathematics over attribute-value tables.

Indiscernibility partitions, lower and upper approximations, quality of
approximation, the pairwise discernibility matrix, its Boolean function
(CNF whose prime implicants are the reducts), and a brute-force subset
enumeration kept as an independent oracle for all of it.

Objects agreeing on every attribute of a subset B fall into one block;
a missing value is tolerant (it matches anything), and blocks are then
grown greedily in object-id order so the result stays deterministic.

reducts and core build the clauses from distinct object classes, not
object pairs: a clause depends only on the two objects' vectors (and, in
decision_relative mode, on positive-region membership and decisions), so
each pair of classes is compared once. The core is read off the singleton
clauses without expanding the DNF. disc_matrix keeps the pairwise form as
the reference the tests compare against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DataError, UsageError
from .table import DecisionTable

# Exhaustive subset search is exponential; instances here are small by
# construction, anything bigger is a caller mistake.
MAX_EXHAUSTIVE_ATTRS = 16

# The prime implicants of a discernibility function can grow exponentially
# in the attribute count; past this many the expansion stops with an error.
MAX_IMPLICANTS = 5000


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of object ids covering the universe."""

    blocks: tuple[frozenset, ...]
    universe: frozenset

    def as_set(self) -> frozenset:
        return frozenset(self.blocks)


@dataclass(frozen=True)
class DiscernibilityMatrix:
    """Attribute sets separating object pairs (i > j), by object id."""

    entries: dict  # (id_i, id_j) -> frozenset of attribute names
    universe: frozenset
    mode: str


@dataclass(frozen=True)
class BoolFormula:
    """A discernibility function: absorbed CNF and its prime implicants."""

    cnf: frozenset  # of frozensets (clauses)
    dnf: frozenset  # of frozensets (implicants, i.e. minimal hitting sets)


@dataclass(frozen=True)
class ReductSet:
    reducts: tuple[frozenset, ...]
    core: frozenset


def _tolerant_equal(a, b) -> bool:
    return a is None or b is None or a == b


def partition_by(table: DecisionTable, attrs) -> Partition:
    """Blocks of objects indiscernible on every attribute in attrs.

    With missing values the relation is a tolerance, not an equivalence;
    each object joins the first existing block it is tolerant with every
    member of, scanning objects in id order. The blocks therefore depend
    on that order: renumbering objects can regroup them. Objects with
    identical vectors always share a block, whatever the order (an earlier
    block that rejected one rejects the other, and every member of the
    first one's block is tolerant with both); _clauses relies on this.
    """
    attrs = list(attrs)
    cols = [table.column(a) for a in attrs]  # raises UsageError on unknown names
    n = len(table)
    vectors = [tuple(col[i] for col in cols) for i in range(n)]
    ids = table.object_ids

    if not any(v is None for vec in vectors for v in vec):
        groups: dict[tuple, list] = {}
        for oid, vec in zip(ids, vectors):
            groups.setdefault(vec, []).append(oid)
        blocks = [frozenset(members) for members in groups.values()]
    else:
        block_members: list[list[int]] = []
        block_vectors: list[list[tuple]] = []
        order = sorted(range(n), key=lambda i: ids[i])
        for i in order:
            vec = vectors[i]
            for members, vecs in zip(block_members, block_vectors):
                if all(
                    all(_tolerant_equal(a, b) for a, b in zip(vec, other)) for other in vecs
                ):
                    members.append(ids[i])
                    vecs.append(vec)
                    break
            else:
                block_members.append([ids[i]])
                block_vectors.append([vec])
        blocks = [frozenset(m) for m in block_members]

    blocks.sort(key=min)
    return Partition(blocks=tuple(blocks), universe=frozenset(ids))


def lower_approx(p: Partition, x) -> frozenset:
    """Union of blocks entirely inside x."""
    x = frozenset(x)
    return frozenset(i for b in p.blocks if b <= x for i in b)


def upper_approx(p: Partition, x) -> frozenset:
    """Union of blocks meeting x."""
    x = frozenset(x)
    return frozenset(i for b in p.blocks if b & x for i in b)


def _pure(table: DecisionTable, block: frozenset, decision_attrs: list[str]) -> bool:
    """A block is pure when, per decision attribute, all present values agree."""
    for d in decision_attrs:
        seen = {table.value(i, d) for i in block}
        seen.discard(None)
        if len(seen) > 1:
            return False
    return True


def _decision_attrs(table: DecisionTable, decision) -> list[str]:
    if decision is None:
        names = table.decision_names
        if not names:
            raise UsageError("table has no decision attribute")
        return names
    if isinstance(decision, str):
        decision = [decision]
    return [table.spec(d).name for d in decision]


def positive_region(table: DecisionTable, attrs, decision=None) -> frozenset:
    """Objects whose block under attrs is decision-pure."""
    d_attrs = _decision_attrs(table, decision)
    p = partition_by(table, attrs)
    return frozenset(i for b in p.blocks if _pure(table, b, d_attrs) for i in b)


def approx_quality(table: DecisionTable, attrs, decision=None) -> float:
    """Fraction of the universe whose decision is determined by attrs."""
    if len(table) == 0:
        return 1.0
    return len(positive_region(table, attrs, decision)) / len(table)


def _object_keys(table: DecisionTable, mode: str, decision=None) -> tuple[list, list]:
    """The attributes a mode compares, and per object a (vector, tag) key.

    The vector holds the object's values on those attributes. The tag is
    None in plain mode; in decision_relative mode it is (in the positive
    region, decision vector). Two objects' matrix entry depends on their
    keys alone.
    """
    if mode == "plain":
        return table.names, [(row, None) for row in table.rows]
    if mode != "decision_relative":
        raise UsageError(f"unknown discernibility mode {mode!r}")
    conds = table.condition_names
    d_attrs = _decision_attrs(table, decision)
    pos = positive_region(table, conds, d_attrs)
    c_idx = [table.col_index(a) for a in conds]
    d_idx = [table.col_index(d) for d in d_attrs]
    keys = [
        (tuple(row[j] for j in c_idx), (oid in pos, tuple(row[j] for j in d_idx)))
        for oid, row in zip(table.object_ids, table.rows)
    ]
    return conds, keys


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
    separation the positive region depends on: both objects positive with
    different decisions, or exactly one of them positive. Hitting these
    entries is exactly what preserves the quality of approximation.

    This is the O(n^2) reference; reducts and core work from the same
    clauses over distinct object classes.
    """
    attrs, keys = _object_keys(table, mode, decision)
    ids = table.object_ids
    entries = {}
    for (id_a, (vec_a, tag_a)), (id_b, (vec_b, tag_b)) in itertools.combinations(
        zip(ids, keys), 2
    ):
        entries[(max(id_a, id_b), min(id_a, id_b))] = (
            _separating(attrs, vec_a, vec_b) if _needed(tag_a, tag_b) else frozenset()
        )
    return DiscernibilityMatrix(entries=entries, universe=frozenset(ids), mode=mode)


def _clauses(table: DecisionTable, mode: str = "decision_relative", decision=None) -> set:
    """The non-empty entries of disc_matrix, from one object per class.

    Objects with equal keys (see _object_keys) get equal entries against
    every other object and an empty entry against each other, so comparing
    each pair of distinct keys once yields the same clause family. Under
    tolerant grouping this holds because identical vectors always share a
    partition_by block, hence the same positive-region membership.
    """
    attrs, keys = _object_keys(table, mode, decision)
    clauses = {
        _separating(attrs, vec_a, vec_b)
        for (vec_a, tag_a), (vec_b, tag_b) in itertools.combinations(set(keys), 2)
        if _needed(tag_a, tag_b)
    }
    clauses.discard(frozenset())
    return clauses


def _absorb(sets) -> frozenset:
    """Drop every set that contains another one (keep the minimal sets)."""
    by_size = sorted(set(sets), key=len)
    kept: list[frozenset] = []
    for s in by_size:
        if not any(k <= s for k in kept):
            kept.append(s)
    return frozenset(kept)


def _implicants(cnf: frozenset) -> frozenset:
    """Minimal hitting sets of an absorbed clause family.

    Clause-by-clause distribution, shortest clauses first, on attribute
    bit masks. An implicant that hits the clause is kept; one that misses
    it grows by each clause attribute. Since the implicants before a step
    form an antichain, no grown set contains another one or a kept one, so
    absorption only has to drop grown sets holding a kept implicant, and
    such a kept implicant holds the attribute just added. Raises DataError
    once more than MAX_IMPLICANTS survive a step.
    """
    names = sorted({a for c in cnf for a in c})
    bit = {a: 1 << k for k, a in enumerate(names)}
    implicants = [0]
    for clause in sorted(cnf, key=lambda c: (len(c), tuple(sorted(c)))):
        mask = sum(bit[a] for a in clause)
        kept = [m for m in implicants if m & mask]
        missing = [m for m in implicants if not m & mask]
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
                    f"({len(names)} attributes, {len(cnf)} clauses)"
                )
    return frozenset(frozenset(a for a in names if m & bit[a]) for m in implicants)


def disc_function(matrix: DiscernibilityMatrix) -> BoolFormula:
    """CNF over the non-empty matrix entries, and its prime implicants.

    Since every literal is positive the implicants are the minimal hitting
    sets of the clause family.
    """
    return _formula(c for c in matrix.entries.values() if c)


def _formula(clauses) -> BoolFormula:
    """Absorbed CNF of non-empty clauses, and its prime implicants."""
    cnf = _absorb(clauses)
    return BoolFormula(cnf=cnf, dnf=_implicants(cnf))


def reducts_from_formula(f: BoolFormula) -> ReductSet:
    reducts = tuple(sorted(f.dnf, key=lambda r: (len(r), tuple(sorted(r)))))
    core = frozenset.intersection(*reducts) if reducts else frozenset()
    return ReductSet(reducts=reducts, core=core)


def reducts(table: DecisionTable, mode: str = "decision_relative", decision=None) -> ReductSet:
    """Reducts through the discernibility function over object classes."""
    return reducts_from_formula(_formula(_clauses(table, mode, decision)))


def core(table: DecisionTable, decision=None) -> frozenset:
    """Decision-relative core without the implicant expansion.

    An attribute lies in every reduct exactly when it alone tells some
    needed pair apart, i.e. when it forms a singleton clause (Skowron &
    Rauszer 1992).
    """
    return frozenset(
        a for c in _clauses(table, "decision_relative", decision) if len(c) == 1 for a in c
    )


def reducts_exhaustive(
    table: DecisionTable, mode: str = "decision_relative", decision=None
) -> ReductSet:
    """Independent oracle: enumerate attribute subsets directly.

    plain: minimal subsets inducing the same partition as all attributes.
    decision_relative: minimal condition subsets preserving the quality of
    approximation of the full condition set.
    """
    if mode == "plain":
        attrs = table.names
        if len(attrs) > MAX_EXHAUSTIVE_ATTRS:
            raise UsageError(f"exhaustive search capped at {MAX_EXHAUSTIVE_ATTRS} attributes")
        target = partition_by(table, attrs).as_set()

        def preserves(subset):
            return partition_by(table, subset).as_set() == target

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
    reds = tuple(sorted(minimal, key=lambda r: (len(r), tuple(sorted(r)))))
    core = frozenset.intersection(*reds) if reds else frozenset()
    return ReductSet(reducts=reds, core=core)


def reduct_report(rs: ReductSet) -> str:
    """One reduct per line as sorted names, then the core."""
    lines = [", ".join(sorted(r)) if r else "(empty)" for r in rs.reducts]
    core = ", ".join(sorted(rs.core)) if rs.core else "(none)"
    lines.append(f"CORE: {core}")
    return "\n".join(lines) + "\n"
