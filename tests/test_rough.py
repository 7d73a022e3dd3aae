"""Tests for partitions, approximations, discernibility and reducts."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import somrough.rough
from oracles import (
    approx_quality,
    lower_approx,
    positive_region,
    reducts_exhaustive,
    upper_approx,
)
from somrough.corpus import jeffrey_table
from somrough.errors import DataError, UsageError
from somrough.pipeline import granulate
from somrough.rough import (
    _clauses,
    _implicants,
    core,
    disc_function,
    disc_matrix,
    partition_by,
    reduct_report,
    reducts,
    DiscernibilityMatrix,
)
from somrough.table import AttributeSpec, DecisionTable

B6 = ["cp", "phip", "cb", "phib", "csz", "phisz"]


def _table(cond_rows, decisions, n_cond=None):
    """Small helper: build a raw table from per-object condition tuples."""
    n_cond = n_cond if n_cond is not None else len(cond_rows[0])
    specs = [AttributeSpec(f"a{i}", "condition") for i in range(n_cond)]
    specs.append(AttributeSpec("d", "decision"))
    rows = tuple(tuple(list(c) + [d]) for c, d in zip(cond_rows, decisions))
    return DecisionTable(specs=tuple(specs), rows=rows)


TOY = _table([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], [0.0, 1.0, 1.0])


def _random_table(rng, max_objects=12, max_conds=5, max_values=3):
    n = rng.randint(1, max_objects)
    k = rng.randint(1, max_conds)
    cond_rows = [tuple(float(rng.randint(1, max_values)) for _ in range(k)) for _ in range(n)]
    decisions = [float(rng.randint(1, max_values)) for _ in range(n)]
    return _table(cond_rows, decisions, n_cond=k)


class TestPartition:
    def test_corpus_first_six_conditions(self):
        """Six geometry/strength parameters leave exactly two non-trivial
        blocks: rows {1, 9} and {6, 7} in 1-based numbering."""
        p = partition_by(jeffrey_table(), B6)
        blocks = {frozenset(i + 1 for i in b) for b in p.blocks}
        assert frozenset({1, 9}) in blocks
        assert frozenset({6, 7}) in blocks
        singletons = [b for b in blocks if len(b) == 1]
        assert len(singletons) == 8

    def test_empty_attribute_set(self):
        p = partition_by(TOY, [])
        assert p.blocks == (frozenset({0, 1, 2}),)

    def test_all_attrs_distinct_rows(self):
        p = partition_by(TOY, ["a0", "a1", "d"])
        assert all(len(b) == 1 for b in p.blocks)

    def test_unknown_attribute(self):
        with pytest.raises(UsageError):
            partition_by(TOY, ["zz"])

    def test_missing_matches_anything(self):
        t = DecisionTable(
            specs=(AttributeSpec("a", "condition"), AttributeSpec("d", "decision")),
            rows=((1.0, 0.0), (None, 0.0), (2.0, 1.0)),
        )
        p = partition_by(t, ["a"])
        # Greedy in id order: the missing row joins object 0's block.
        assert p.blocks == (frozenset({0, 1}), frozenset({2}))


class TestApproximations:
    def test_exact_set(self):
        p = partition_by(jeffrey_table(), B6)
        x = {0, 5, 6, 8}  # rows 1, 6, 7, 9 in 1-based ids
        assert lower_approx(p, x) == frozenset(x)
        assert upper_approx(p, x) == frozenset(x)

    def test_rough_set(self):
        p = partition_by(jeffrey_table(), B6)
        x = {0, 5}
        assert lower_approx(p, x) == frozenset()
        assert upper_approx(p, x) == frozenset({0, 5, 6, 8})

    def test_whole_universe(self):
        p = partition_by(jeffrey_table(), B6)
        u = set(range(12))
        assert lower_approx(p, u) == frozenset(u)
        assert upper_approx(p, u) == frozenset(u)

    def test_boundary(self):
        p = partition_by(jeffrey_table(), B6)
        x = {0, 5}
        assert upper_approx(p, x) - lower_approx(p, x) == frozenset({0, 5, 6, 8})


class TestApproxQuality:
    def test_consistent_table(self):
        assert approx_quality(TOY, ["a0", "a1"], "d") == 1.0

    def test_single_block_two_classes(self):
        t = _table([(1.0,), (1.0,)], [0.0, 1.0])
        assert approx_quality(t, ["a0"], "d") == 0.0

    def test_monotone_in_attributes(self):
        rng = random.Random(17)
        for _ in range(50):
            t = _random_table(rng)
            conds = t.condition_names
            for size in range(len(conds)):
                sub = conds[:size]
                assert approx_quality(t, sub, "d") <= approx_quality(t, conds, "d") + 1e-12


class TestDiscMatrix:
    def test_identical_objects_empty_entry(self):
        t = _table([(1.0, 2.0), (1.0, 2.0)], [0.0, 0.0])
        m = disc_matrix(t, "plain")
        assert m.entries[(1, 0)] == frozenset()

    def test_toy_decision_relative(self):
        m = disc_matrix(TOY, "decision_relative")
        assert m.entries[(1, 0)] == frozenset({"a0"})
        assert m.entries[(2, 0)] == frozenset({"a0", "a1"})
        assert m.entries[(2, 1)] == frozenset()

    def test_corpus_pair_6_7(self):
        """Rows 6 and 7 (1-based) agree on the first six conditions, so
        their entry can only mention the two tensile strengths."""
        m = disc_matrix(jeffrey_table(), "plain")
        assert m.entries[(6, 5)] <= frozenset({"tp", "tb", "tmd", "mvv"})
        m2 = disc_matrix(jeffrey_table(), "decision_relative", decision="mvv")
        assert m2.entries[(6, 5)] <= frozenset({"tp", "tb"})


class TestDiscFunction:
    def test_toy_single_reduct(self):
        rs = reducts(TOY, "decision_relative")
        assert rs.reducts == (frozenset({"a0"}),)
        assert rs.core == frozenset({"a0"})

    def test_empty_matrix_gives_empty_reduct(self):
        m = DiscernibilityMatrix(entries={})
        f = disc_function(m)
        assert f.dnf == frozenset({frozenset()})

    def test_two_clause_distribution(self):
        m = DiscernibilityMatrix(
            entries={
                (1, 0): frozenset({"a", "b"}),
                (2, 0): frozenset({"b", "c"}),
            },
        )
        f = disc_function(m)
        assert f.dnf == frozenset({frozenset({"b"}), frozenset({"a", "c"})})

    def test_absorption_in_cnf(self):
        m = DiscernibilityMatrix(
            entries={
                (1, 0): frozenset({"a"}),
                (2, 0): frozenset({"a", "b"}),
            },
        )
        f = disc_function(m)
        assert f.cnf == frozenset({frozenset({"a"})})


@st.composite
def _tables(draw, missing=True):
    """Small tables: cells in {1, 2, 3} (or missing), one or two decision
    attributes."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 4))
    n_dec = draw(st.integers(1, 2))
    cell = st.sampled_from([1.0, 2.0, 3.0] + ([None] if missing else []))
    rows = draw(st.lists(st.tuples(*[cell] * (k + n_dec)), min_size=n, max_size=n))
    specs = [AttributeSpec(f"a{i}", "condition") for i in range(k)]
    specs += [AttributeSpec(f"d{i}", "decision") for i in range(n_dec)]
    return DecisionTable(specs=tuple(specs), rows=tuple(rows))


# Objects 0 and 1 share a pure block but not a decision vector: only
# object 1 must be told apart from object 2.
SPLIT_CLASS = DecisionTable(
    specs=(
        AttributeSpec("a0", "condition"),
        AttributeSpec("d0", "decision"),
        AttributeSpec("d1", "decision"),
    ),
    rows=((1.0, 1.0, None), (1.0, 1.0, 2.0), (2.0, 1.0, None)),
)

# The first two vectors share one tolerant block with two decisions, so
# only object 2 is in the positive region.
TOLERANT_MIXED = DecisionTable(
    specs=(AttributeSpec("a0", "condition"), AttributeSpec("d", "decision")),
    rows=((1.0, 1.0), (None, 2.0), (2.0, 1.0)),
)

# The missing-cell vector is tolerant with both complete vectors and joins
# the block of (2, 1), the first in row order, although its decision is
# that of (1, 1).
TOLERANT_FIRST_FIT = DecisionTable(
    specs=(
        AttributeSpec("a0", "condition"),
        AttributeSpec("a1", "condition"),
        AttributeSpec("d", "decision"),
    ),
    rows=((2.0, 1.0, 2.0), (1.0, 1.0, 1.0), (None, 1.0, 1.0)),
)


def _minimal(sets) -> frozenset:
    """Brute-force absorption: the sets with no proper subset among them."""
    sets = set(sets)
    return frozenset(s for s in sets if not any(t < s for t in sets))


class TestClassClauses:
    @settings(max_examples=300, deadline=None)
    @given(_tables())
    @example(SPLIT_CLASS)
    def test_clauses_match_pairwise_matrix(self, t):
        """Clauses over distinct object classes equal the non-empty pairwise
        entries after absorption, in both modes, missing cells included;
        the core read off singleton clauses equals the reducts' core."""
        for mode in ("plain", "decision_relative"):
            pairwise = _minimal(c for c in disc_matrix(t, mode).entries.values() if c)
            assert _minimal(_clauses(t, mode)) == pairwise, mode
        assert core(t) == reducts(t, "decision_relative").core

    @settings(max_examples=300, deadline=None)
    @given(_tables(missing=False))
    def test_core_matches_exhaustive_oracle(self, t):
        """On complete tables all three routes to the core agree. (With
        missing cells the tolerant positive region of a subset is not
        monotone, and the enumeration oracle can disagree with any
        discernibility-based core.)"""
        assert core(t) == reducts(t).core == reducts_exhaustive(t).core


def _value(t, i, name):
    """The cell of object (row) ``i`` in column ``name``."""
    return t.rows[i][t.col_index(name)]


def _greedy_blocks(t, attrs):
    """Per-object reference: objects in row order, each joining the first
    block it is tolerant with every member of."""
    blocks = []
    for i in range(len(t)):
        vec = [_value(t, i, a) for a in attrs]
        for block in blocks:
            if all(
                x is None or y is None or x == y
                for other in block
                for x, y in zip(vec, (_value(t, other, a) for a in attrs))
            ):
                block.append(i)
                break
        else:
            blocks.append([i])
    return [frozenset(b) for b in blocks]


def _pure_objects(t, attrs, d_attrs):
    """Per-object reference: objects in blocks where, per decision
    attribute, every pair of present values agrees."""
    return frozenset(
        i
        for block in _greedy_blocks(t, attrs)
        if all(
            x is None or y is None or x == y
            for d in d_attrs
            for x, y in itertools.combinations([_value(t, j, d) for j in block], 2)
        )
        for i in block
    )


def _pairwise_core(t):
    """Per-object reference: attributes that alone separate a pair that
    must be told apart."""
    conds, decs = t.condition_names, t.decision_names
    pos = _pure_objects(t, conds, decs)
    found = set()
    for a, b in itertools.combinations(range(len(t)), 2):
        dec_a, dec_b = ([_value(t, i, d) for d in decs] for i in (a, b))
        if (a in pos) != (b in pos) or (a in pos and dec_a != dec_b):
            cells = [(c, _value(t, a, c), _value(t, b, c)) for c in conds]
            sep = [c for c, x, y in cells if x is not None and y is not None and x != y]
            found.update(sep if len(sep) == 1 else ())
    return frozenset(found)


class TestClassLayerOracle:
    @settings(max_examples=300, deadline=None)
    @given(_tables().flatmap(lambda t: st.tuples(
        st.just(t), st.lists(st.sampled_from(t.names), unique=True))))
    @example((SPLIT_CLASS, ["a0", "d1"]))
    @example((TOLERANT_MIXED, ["a0"]))
    @example((TOLERANT_FIRST_FIT, ["a0", "a1"]))
    def test_matches_per_object_reference(self, case):
        """Blocks, positive region and core computed over distinct classes
        equal a per-object greedy scan and purity check, on tables with
        missing cells and one or two decisions."""
        t, attrs = case
        p = partition_by(t, attrs)
        assert set(p.blocks) == set(_greedy_blocks(t, attrs))
        assert [min(b) for b in p.blocks] == sorted(min(b) for b in p.blocks)
        conds, decs = t.condition_names, t.decision_names
        assert positive_region(t, conds) == _pure_objects(t, conds, decs)
        assert positive_region(t, attrs, decs[-1]) == _pure_objects(t, attrs, decs[-1:])
        assert core(t) == _pairwise_core(t)


@st.composite
def _reordered(draw):
    """A complete table, the same objects with their rows permuted, a map
    from each old row number to its new one, and a subset of attributes."""
    t = draw(_tables(missing=False))
    perm = draw(st.permutations(range(len(t))))  # new row k holds old row perm[k]
    moved = DecisionTable(specs=t.specs, rows=tuple(t.rows[i] for i in perm))
    new_row = {old: new for new, old in enumerate(perm)}
    attrs = draw(st.lists(st.sampled_from(t.names), unique=True))
    return t, moved, new_row, attrs


class TestRowOrder:
    @settings(max_examples=200, deadline=None)
    @given(_reordered())
    def test_reordering_rows_maps_results(self, case):
        """On a complete table, reordering the rows maps the positive region
        and the partition blocks through the permutation and leaves the core
        and the reducts of both routes unchanged."""
        t, moved, new_row, attrs = case

        def mapped(rows):
            return frozenset(new_row[i] for i in rows)

        conds = t.condition_names
        assert positive_region(moved, conds) == mapped(positive_region(t, conds))
        assert positive_region(moved, attrs, t.decision_names[-1]) == mapped(
            positive_region(t, attrs, t.decision_names[-1])
        )
        assert set(partition_by(moved, attrs).blocks) == {
            mapped(b) for b in partition_by(t, attrs).blocks
        }
        assert core(moved) == core(t)
        for mode in ("plain", "decision_relative"):
            assert reducts(moved, mode) == reducts(t, mode), mode
            assert reducts_exhaustive(moved, mode) == reducts_exhaustive(t, mode), mode


class TestImplicantBound:
    def test_disc_function_raises_past_bound(self, monkeypatch):
        # Clauses {a0, b0}, ..., {a3, b3} have 2^4 = 16 minimal hitting sets.
        entries = {(i + 1, 0): frozenset({f"a{i}", f"b{i}"}) for i in range(4)}
        m = DiscernibilityMatrix(entries=entries)
        assert len(disc_function(m).dnf) == 16
        monkeypatch.setattr(somrough.rough, "MAX_IMPLICANTS", 15)
        with pytest.raises(DataError):
            disc_function(m)


class TestClauseBound:
    @settings(max_examples=200, deadline=None)
    @given(_tables())
    @example(SPLIT_CLASS)
    def test_raises_exactly_past_bound(self, t):
        """Without a decision argument the classes of both modes are the
        distinct rows. Clause generation refuses, before comparing any pair,
        exactly when the class pairs times the compared attributes exceed
        MAX_CLAUSE_CELLS; at the bound it returns the unbounded clauses."""
        k = len(set(t.rows))
        pairs = k * (k - 1) // 2
        for mode, width in (("plain", len(t.names)),
                            ("decision_relative", len(t.condition_names))):
            want = _clauses(t, mode)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(somrough.rough, "MAX_CLAUSE_CELLS", pairs * width)
                assert _clauses(t, mode) == want
                if pairs * width == 0:
                    continue
                mp.setattr(somrough.rough, "MAX_CLAUSE_CELLS", pairs * width - 1)
                mp.setattr(somrough.rough, "_needed", None)  # no pair may be compared
                with pytest.raises(DataError, match=f"{pairs} class pairs x {width} attributes"):
                    _clauses(t, mode)


ATTRS = [f"a{i}" for i in range(8)]


@st.composite
def _clause_families(draw):
    """Non-empty clauses over up to eight attributes, with duplicates and
    supersets of drawn clauses mixed in, in shuffled order."""
    clause = st.frozensets(st.sampled_from(ATTRS), min_size=1)
    base = draw(st.lists(clause, max_size=10))
    extra = [c | draw(st.frozensets(st.sampled_from(ATTRS))) for c in base if draw(st.booleans())]
    return draw(st.permutations(base + extra))


def _hitting_sets(clauses) -> frozenset:
    """Minimal hitting sets by enumerating every subset of ATTRS."""
    hits = [
        frozenset(s)
        for size in range(len(ATTRS) + 1)
        for s in itertools.combinations(ATTRS, size)
        if all(c & frozenset(s) for c in clauses)
    ]
    return _minimal(hits)


class TestImplicants:
    @settings(max_examples=300, deadline=None)
    @given(_clause_families(), st.integers(1, 12))
    @example([frozenset({"a1", "a2"}), frozenset({"a1"}), frozenset({"a1"})], 1)
    def test_matches_brute_force(self, clauses, bound):
        """The CNF is the clauses with no proper subset in the family, the
        DNF their minimal hitting sets; under a bound the expansion fails
        exactly when a prefix of the minimal clauses, shortest then by
        names, has more minimal hitting sets than the bound."""
        f = _implicants(clauses)
        minimal = _minimal(clauses)
        assert f.cnf == minimal
        assert f.dnf == _hitting_sets(minimal)
        ordered = sorted(minimal, key=lambda c: (len(c), sorted(c)))
        over = any(len(_hitting_sets(ordered[:k])) > bound for k in range(1, len(ordered) + 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(somrough.rough, "MAX_IMPLICANTS", bound)
            if over:
                with pytest.raises(DataError, match=f"exceeds {bound} implicants"):
                    _implicants(clauses)
            else:
                assert _implicants(clauses) == f


class TestExhaustiveOracle:
    def test_toy(self):
        rs = reducts_exhaustive(TOY, "decision_relative")
        assert rs.reducts == (frozenset({"a0"}),)

    def test_duplicate_columns_never_together(self):
        t = DecisionTable(
            specs=(
                AttributeSpec("a", "condition"),
                AttributeSpec("a2", "condition"),
                AttributeSpec("b", "condition"),
                AttributeSpec("d", "decision"),
            ),
            rows=((1.0, 1.0, 1.0, 0.0), (2.0, 2.0, 1.0, 1.0), (1.0, 1.0, 2.0, 1.0)),
        )
        rs = reducts_exhaustive(t, "decision_relative")
        for r in rs.reducts:
            assert not ({"a", "a2"} <= r)
        assert frozenset({"a", "b"}) in rs.reducts
        assert frozenset({"a2", "b"}) in rs.reducts

    def test_guard_on_width(self):
        specs = tuple(
            [AttributeSpec(f"c{i}", "condition") for i in range(17)]
            + [AttributeSpec("d", "decision")]
        )
        t = DecisionTable(specs=specs, rows=((0.0,) * 18,))
        with pytest.raises(UsageError):
            reducts_exhaustive(t, "decision_relative")

    def test_cross_oracle_identity(self):
        """Formula implicants equal the enumeration oracle, both modes."""
        rng = random.Random(99)
        for _ in range(100):
            t = _random_table(rng)
            for mode in ("plain", "decision_relative"):
                got = reducts(t, mode)
                want = reducts_exhaustive(t, mode)
                assert set(got.reducts) == set(want.reducts), (mode, t.rows)
                assert got.core == want.core


@pytest.fixture(scope="module")
def corpus_granular():
    return granulate(jeffrey_table(), granules=3, seed=0)


@pytest.mark.parametrize("call", [
    lambda g: reducts(g, decision="cb"),
    lambda g: reducts_exhaustive(g, decision="cb"),
    lambda g: core(g, decision="cb"),
    lambda g: positive_region(g, g.condition_names, decision="cb"),
    lambda g: approx_quality(g, g.condition_names, decision="cb"),
    lambda g: disc_matrix(g, decision="cb"),
], ids=["reducts", "reducts_exhaustive", "core", "positive_region", "approx_quality",
        "disc_matrix"])
def test_condition_attribute_as_decision_is_usage_error(call, corpus_granular):
    """A condition attribute never serves as the decision: on the granulated
    corpus, ``cb`` as the decision would make ``{cb}`` a reduct."""
    with pytest.raises(UsageError, match="'cb' is not a decision attribute"):
        call(corpus_granular)


# The plain reducts of the raw corpus, with or without a decision argument.
PLAIN_CORPUS_REDUCTS = {
    frozenset({"mvv"}), frozenset({"tmd"}), frozenset({"cb", "csz", "phisz", "tb"}),
    frozenset({"cb", "csz", "phisz", "tp"}), frozenset({"cp", "csz", "phisz", "tb"}),
    frozenset({"cp", "csz", "phisz", "tp"}),
}


def test_plain_mode_refuses_a_name_that_is_no_decision():
    """Plain mode compares every attribute and reads no decision, yet a
    ``decision`` that names no decision attribute is still a usage error;
    the decision attribute itself leaves the plain reducts as they are."""
    t = jeffrey_table()
    with pytest.raises(UsageError, match="'cb' is not a decision attribute"):
        reducts(t, "plain", decision="cb")
    with pytest.raises(UsageError, match="'zzz' is not a decision attribute"):
        disc_matrix(t, "plain", decision="zzz")
    with pytest.raises(UsageError, match="'cb' is not a decision attribute"):
        reducts_exhaustive(t, "plain", decision="cb")
    assert set(reducts(t, "plain", decision="mvv").reducts) == PLAIN_CORPUS_REDUCTS
    assert set(reducts(t, "plain").reducts) == PLAIN_CORPUS_REDUCTS


def test_unknown_mode_and_missing_decision_refused():
    """A mode other than plain and decision_relative is a usage error, and so
    is a decision-relative reduct or core of a table with no decision."""
    with pytest.raises(UsageError, match="unknown discernibility mode 'bogus'"):
        reducts(TOY, "bogus")
    no_decision = DecisionTable(specs=TOY.specs[:-1], rows=tuple(r[:-1] for r in TOY.rows))
    for call in (reducts, core):
        with pytest.raises(UsageError, match="table has no decision attribute"):
            call(no_decision)


class TestAxioms:
    def test_sandwich_duality_monotone(self):
        """Classic containments on seeded random tables and subsets."""
        rng = random.Random(7)
        for _ in range(250):
            t = _random_table(rng)
            u = set(range(len(t)))
            conds = t.condition_names
            k = rng.randint(0, len(conds))
            b_small = rng.sample(conds, k)
            extra = [c for c in conds if c not in b_small]
            b_big = b_small + rng.sample(extra, rng.randint(0, len(extra)))
            x = {i for i in u if rng.random() < 0.5}

            p_small = partition_by(t, b_small)
            p_big = partition_by(t, b_big)

            lo, hi = lower_approx(p_small, x), upper_approx(p_small, x)
            assert lo <= frozenset(x) <= hi
            assert lo == u - upper_approx(p_small, u - x)
            # Refinement: every block of the larger set sits inside one
            # block of the smaller set.
            for block in p_big.blocks:
                assert any(block <= outer for outer in p_small.blocks)
            assert lower_approx(p_small, x) <= lower_approx(p_big, x)

    def test_core_equals_singleton_clauses(self):
        """The core is exactly the attributes forced by singleton clauses."""
        rng = random.Random(31)
        for _ in range(100):
            t = _random_table(rng)
            f = disc_function(disc_matrix(t, "decision_relative"))
            rs = reducts(t, "decision_relative")
            singletons = {next(iter(c)) for c in f.cnf if len(c) == 1}
            assert rs.core == frozenset(singletons)


class TestReductReport:
    def test_format(self):
        rs = reducts(TOY, "decision_relative")
        text = reduct_report(rs)
        assert text == "a0\nCORE: a0\n"

    def test_empty_reduct_rendering(self):
        t = _table([(1.0,), (1.0,)], [0.0, 0.0])
        text = reduct_report(reducts(t, "decision_relative"))
        assert text == "(empty)\nCORE: (none)\n"
