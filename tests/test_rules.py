"""Tests for rule induction, scoring, classification and the rule grammar."""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from somrough._record import replace
from somrough.errors import DataError, UsageError
from somrough.pipeline import granulate
from somrough.rules import (
    BAND_KIND,
    Condition,
    DecisionPart,
    Rule,
    RuleConstraints,
    RuleSet,
    accuracy,
    check_rules,
    classify,
    induce_cover,
    parse_rule,
    parse_rules,
    render_rule,
    render_rules,
)
from somrough.som import Discretizer
from somrough.surrogate import generate_table
from somrough.table import AttributeSpec, GranularTable

GOLDEN = Path(__file__).parent / "data" / "jeffrey_rules_golden.txt"

LOOSE = RuleConstraints(min_strength=0.0, max_length=10, max_rules=100)
LOOSE_EXACT = replace(LOOSE, semantics="exact")


def _quantizer(name: str, g: int) -> Discretizer:
    """A linear quantizer with centers g, g - 1, ..., 1 and cuts halfway."""
    centers = tuple(float(g - k) for k in range(g))
    return Discretizer(name, "linear", centers, tuple(c - 0.5 for c in centers[:-1]))


def _gtable(cond_cols: dict, decision_col: list):
    """Granular table from named label columns, with a quantizer per column
    whose granule count is the column's highest label."""
    specs = [AttributeSpec(n, "condition") for n in cond_cols]
    specs.append(AttributeSpec("d", "decision"))
    names = list(cond_cols) + ["d"]
    cols = list(cond_cols.values()) + [decision_col]
    rows = tuple(tuple(col[i] for col in cols) for i in range(len(decision_col)))
    discs = {n: _quantizer(n, max(v for v in col if v is not None)) for n, col in zip(names, cols)}
    return GranularTable(specs=tuple(specs), rows=rows, discretizers=discs)


# Three objects: a distinguishes the decision perfectly.
TOY = _gtable({"a": [2, 1, 1]}, [2, 1, 1])


class TestInduceCover:
    def test_toy_two_rule_cover(self):
        """One rule per class, both at full strength, nothing uncovered."""
        rs = induce_cover(TOY, "d", LOOSE_EXACT)
        assert len(rs.rules) == 2
        by_class = {r.decision.granule: r for r in rs.rules}
        assert by_class[1].conditions[0].labels == frozenset({1})
        assert by_class[2].conditions[0].labels == frozenset({2})
        assert all(r.strength == 1.0 for r in rs.rules)
        assert rs.uncovered == ()

    def test_rule_budget_clamp(self):
        rs = induce_cover(TOY, "d", RuleConstraints(0.0, 10, 1, "exact"))
        assert len(rs.rules) == 1
        assert rs.uncovered != ()

    def test_consistent_table_fully_covered(self):
        t = _gtable({"a": [1, 1, 2, 2], "b": [1, 2, 1, 2]}, [1, 1, 2, 2])
        rs = induce_cover(t, "d", LOOSE_EXACT)
        assert rs.uncovered == ()

    def test_emitted_rules_are_consistent(self):
        """No emitted rule may match an object outside its decision band."""
        t = _gtable({"a": [1, 1, 2, 2, 3], "b": [1, 2, 1, 2, 2]}, [1, 1, 2, 2, 3])
        for semantics in ("exact", "cumulative"):
            rs = induce_cover(t, "d", replace(LOOSE, semantics=semantics))
            rows = [dict(zip(t.names, row)) for row in t.rows]
            for rule in rs.rules:
                for row in rows:
                    if rule.matches_row(row):
                        assert rule.decision.covers(row["d"])

    def test_constraints_respected(self):
        t = _gtable(
            {"a": [1, 1, 2, 2, 3, 3], "b": [1, 2, 1, 2, 1, 2], "c": [2, 2, 1, 1, 2, 1]},
            [1, 1, 1, 2, 2, 2],
        )
        cons = RuleConstraints(min_strength=0.5, max_length=2, max_rules=3, semantics="exact")
        rs = induce_cover(t, "d", cons)
        assert len(rs.rules) <= 3
        for r in rs.rules:
            assert r.length <= 2
            assert r.strength >= 0.5

    def test_cumulative_targets_downward_bands(self):
        t = _gtable({"a": [1, 1, 2, 3]}, [1, 1, 2, 3])
        rs = induce_cover(t, "d", LOOSE)
        assert all(r.decision.kind == "at_most" for r in rs.rules)
        assert all(r.decision.granule < 3 for r in rs.rules)
        # The lowest band can never be covered by a downward rule.
        assert 3 in {t.rows[i][t.col_index("d")] for i in rs.uncovered}

    def test_determinism(self):
        t = _gtable(
            {"a": [1, 2, 1, 2, 3, 1], "b": [2, 1, 2, 2, 1, 1]}, [1, 1, 2, 2, 2, 1]
        )
        a = induce_cover(t, "d", LOOSE_EXACT)
        b = induce_cover(t, "d", LOOSE_EXACT)
        assert a == b

    def test_bad_decision_name(self):
        with pytest.raises(UsageError):
            induce_cover(TOY, "a", LOOSE)

    def test_no_decision_name_means_the_only_one(self):
        assert induce_cover(TOY, None, LOOSE) == induce_cover(TOY, "d", LOOSE)


# induce_cover on granulate(generate_table(count=200, seed=3), 2, seed=0)
# under the criterion-7 limits, recorded from the per-object matching
# implementation: rules.txt text, (support, strength) per rule, uncovered ids.
CRITERION7 = RuleConstraints(min_strength=0.0, max_length=3, max_rules=8)
SURROGATE_200_PIN = {
    "exact": (
        "Rule 1. (cohesion<=45.763243) & (area<=40.004679) => (displacement exactly 1);\n"
        "Rule 2. (cohesion>=45.763243) => (displacement exactly 2);\n",
        ((56, 0.5894736842105263), (100, 0.9523809523809523)),
        (
            3, 9, 14, 17, 19, 23, 26, 28, 31, 32, 39, 49, 54, 63, 64, 66, 68, 69, 70,
            79, 81, 87, 92, 98, 101, 105, 106, 111, 113, 116, 127, 140, 144, 147, 151,
            156, 161, 162, 166, 169, 170, 179, 185, 187,
        ),
    ),
    "cumulative": (
        "Rule 1. (cohesion<=45.763243) & (area<=40.004679) => (displacement at most 1);\n",
        ((56, 0.5894736842105263),),
        (
            0, 1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 21, 22, 23, 25,
            26, 27, 28, 29, 31, 32, 33, 34, 36, 37, 38, 39, 40, 41, 44, 45, 46, 47, 48,
            49, 50, 51, 52, 53, 54, 55, 56, 59, 61, 63, 64, 66, 67, 68, 69, 70, 74, 75,
            76, 77, 78, 79, 80, 81, 82, 83, 85, 87, 88, 89, 90, 92, 93, 95, 97, 98, 99,
            101, 102, 105, 106, 107, 108, 109, 111, 113, 114, 116, 118, 119, 120, 122,
            124, 125, 126, 127, 128, 130, 131, 132, 134, 135, 137, 138, 139, 140, 141,
            142, 144, 146, 147, 148, 149, 151, 153, 154, 155, 156, 157, 158, 159, 161,
            162, 163, 164, 165, 166, 167, 168, 169, 170, 171, 172, 175, 177, 179, 183,
            184, 185, 186, 187, 193, 199,
        ),
    ),
}


@pytest.mark.parametrize("semantics", sorted(SURROGATE_200_PIN))
def test_induce_cover_pinned_on_surrogate(semantics):
    """Rule growth over a 200-row granulated surrogate reproduces the
    recorded rules, scores and uncovered objects exactly."""
    text, scores, uncovered = SURROGATE_200_PIN[semantics]
    g = granulate(generate_table(count=200, seed=3), 2, seed=0)
    rs = induce_cover(g, "displacement", replace(CRITERION7, semantics=semantics))
    assert render_rules(rs) == text
    assert tuple((r.support, r.strength) for r in rs.rules) == scores
    assert rs.uncovered == uncovered


class TestStrength:
    def test_full_class(self):
        rs = induce_cover(TOY, "d", LOOSE_EXACT)
        rule = next(r for r in rs.rules if r.decision.granule == 1)
        assert rule.strength == 1.0
        assert rule.support == 2

    def test_partial_class(self):
        """Strength divides by the whole decision class, not by the objects
        still uncovered when the rule grows."""
        t = _gtable({"a": [1, 2, 2]}, [1, 1, 1])
        rs = induce_cover(t, "d", LOOSE_EXACT)
        rule = rs.rules[1]
        assert rule.conditions[0].labels == frozenset({1})
        assert rule.support == 1
        assert rule.strength == pytest.approx(1 / 3)


class TestClassify:
    def _rule(self, label_set, granule, s, kind="at_most"):
        return Rule(
            conditions=(Condition("a", labels=frozenset(label_set)),),
            decision=DecisionPart("d", kind, granule),
            support=1,
            strength=s,
        )

    def test_single_match(self):
        rs = RuleSet(rules=(self._rule({1}, 1, 0.9),))
        assert classify(rs, {"a": 1}) == 1

    def test_no_match_abstains(self):
        rs = RuleSet(rules=(self._rule({1}, 1, 0.9),))
        assert classify(rs, {"a": 3}) is None
        assert classify(rs, {"a": None}) is None

    def test_weighted_vote(self):
        rs = RuleSet(rules=(self._rule({1}, 1, 0.9), self._rule({1}, 2, 0.6)))
        assert classify(rs, {"a": 1}) == 1

    def test_tie_prefers_tighter_band(self):
        rs = RuleSet(rules=(self._rule({1}, 1, 0.7), self._rule({1}, 2, 0.7)))
        assert classify(rs, {"a": 1}) == 1

    def test_dead_even_tie_abstains(self):
        rs = RuleSet(
            rules=(
                self._rule({1}, 1, 0.7, kind="exactly"),
                self._rule({1}, 2, 0.7, kind="exactly"),
            ),
        )
        assert classify(rs, {"a": 1}) is None


class TestAccuracy:
    def test_all_correct(self):
        rs = induce_cover(TOY, "d", LOOSE_EXACT)
        assert accuracy(rs, TOY, "d") == 1.0

    def test_empty_ruleset_scores_zero(self):
        rs = RuleSet(rules=())
        assert accuracy(rs, TOY, "d") == 0.0

    def test_four_of_five(self):
        t = _gtable({"a": [1, 1, 1, 1, 2]}, [1, 1, 1, 1, 1])
        rule = Rule(
            conditions=(Condition("a", labels=frozenset({1})),),
            decision=DecisionPart("d", "exactly", 1),
            support=4,
            strength=0.8,
        )
        rs = RuleSet(rules=(rule,))
        assert accuracy(rs, t, "d") == pytest.approx(0.8)

    def test_empty_test_vacuous(self):
        """An empty test set earns nothing: 0.0, as when no test object
        has a decision, not a vacuous 1.0."""
        rs = induce_cover(TOY, "d", LOOSE_EXACT)
        assert accuracy(rs, TOY, "d", rows=0) == 0.0


# Object 1 shares a = 1 with the only class-1 object but its decision is
# missing ("?" in the CSV).
MASKED = _gtable({"a": [1, 1, 2, 2]}, [1, None, 2, 2])


class TestMissingDecision:
    @pytest.mark.parametrize("semantics", ["exact", "cumulative"])
    def test_masked_object_is_not_a_negative(self, semantics):
        """The rule a = 1 => d 1 holds on every object with a decision; the
        masked object must not veto it."""
        rs = induce_cover(MASKED, "d", replace(LOOSE, semantics=semantics))
        first = [r for r in rs.rules if r.decision.granule == 1]
        assert len(first) == 1
        assert first[0].conditions[0].labels == frozenset({1})
        assert (first[0].support, first[0].strength) == (1, 1.0)
        assert 0 not in rs.uncovered and 1 not in rs.uncovered

    def test_masked_test_object_is_not_scored(self):
        rs = induce_cover(MASKED, "d", LOOSE_EXACT)
        assert accuracy(rs, MASKED, "d") == 1.0  # objects 0, 2, 3
        # An abstention on the masked object is no correct answer.
        empty = RuleSet(rules=())
        assert accuracy(empty, MASKED, "d") == 0.0

    def test_no_decided_test_object_scores_zero(self):
        empty = RuleSet(rules=())
        assert accuracy(empty, MASKED, "d", rows=0b10) == 0.0  # object 1 only


@st.composite
def _masked_case(draw):
    """A small granulated table with missing condition and decision cells,
    its quantizers, and a training row mask."""
    n = draw(st.integers(1, 14))
    n_cond = draw(st.integers(1, 3))
    grans = [draw(st.integers(2, 4)) for _ in range(n_cond + 1)]
    names = [f"a{j}" for j in range(n_cond)] + ["d"]
    cell = {g: st.one_of(st.none(), st.integers(1, g), st.integers(1, g)) for g in set(grans)}
    rows = tuple(tuple(draw(cell[g]) for g in grans) for _ in range(n))
    discs = {name: _quantizer(name, g) for name, g in zip(names, grans)}
    specs = tuple(AttributeSpec(nm, "decision" if nm == "d" else "condition") for nm in names)
    table = GranularTable(specs=specs, rows=rows, discretizers=discs)
    mask = draw(st.integers(0, (1 << n) - 1))
    cons = RuleConstraints(
        min_strength=draw(st.sampled_from([0.0, 0.3, 0.6])),
        max_length=draw(st.integers(1, 3)),
        max_rules=draw(st.integers(1, 6)),
    )
    return table, mask, cons, draw(st.sampled_from(["exact", "cumulative"]))


def _matches(rule, row):
    """Brute-force match: every condition's label set holds the cell."""
    return all(row[c.attribute] is not None and row[c.attribute] in c.labels
               for c in rule.conditions)


class TestMaskOracle:
    """Induction and scoring on a row mask against brute-force counts over
    the masked rows, one row dict at a time."""

    @settings(max_examples=300, deadline=None)
    @given(case=_masked_case())
    @example(case=(_gtable({"a": [1, 2, None]}, [2, None, 1]), 0, LOOSE, "cumulative"))
    def test_rules_scores_and_uncovered(self, case):
        table, mask, cons, semantics = case
        cons = replace(cons, semantics=semantics)
        rows = [dict(zip(table.names, r)) for r in table.rows]
        picked = [i for i in range(len(rows)) if mask >> i & 1]
        rs = induce_cover(table, "d", cons, rows=mask)
        check_rules(rs, table, "d", cons)
        assert render_rules(rs).count("\n") == len(rs.rules)
        if not mask:
            assert rs.rules == () and rs.uncovered == ()
        decided = [i for i in picked if rows[i]["d"] is not None]
        for rule in rs.rules:
            positives = [i for i in decided if rule.decision.covers(rows[i]["d"])]
            negatives = set(decided) - set(positives)
            matched = {i for i in picked if _matches(rule, rows[i])}
            assert not matched & negatives, "rule matches a negative"
            assert rule.support == len(matched & set(positives))
            assert rule.strength == rule.support / len(positives)
        uncovered = tuple(
            i for i in decided
            if not any(_matches(r, rows[i]) and r.decision.covers(rows[i]["d"])
                       for r in rs.rules)
        )
        assert rs.uncovered == uncovered

    @settings(max_examples=300, deadline=None)
    @given(case=_masked_case(), test_mask=st.integers(0, 2**14 - 1))
    def test_accuracy_per_object(self, case, test_mask):
        table, mask, cons, semantics = case
        test_mask &= (1 << len(table)) - 1
        rs = induce_cover(table, "d", replace(cons, semantics=semantics), rows=mask)
        scored = [
            dict(zip(table.names, r)) for i, r in enumerate(table.rows)
            if test_mask >> i & 1 and r[-1] is not None
        ]
        want = (
            sum(classify(rs, r) == r["d"] for r in scored) / len(scored) if scored else 0.0
        )
        assert accuracy(rs, table, "d", rows=test_mask) == want
        if test_mask == (1 << len(table)) - 1:
            assert accuracy(rs, table, "d") == want


def _reference_vote(rs, row):
    """Per-row reference of classify: the granule with the highest summed
    strength over the matching rules; a tie among the leaders goes to the
    lowest granule between "at most" bands and abstains between "exactly"
    bands."""
    votes = {}
    for rule in rs.rules:
        if _matches(rule, row):
            g = rule.decision.granule
            votes[g] = votes.get(g, 0.0) + rule.strength
    leaders = [g for g, v in votes.items() if v == max(votes.values())]
    if not leaders or (len(leaders) > 1 and rs.rules[0].decision.kind == "exactly"):
        return None
    return min(leaders)


def _with_kind(rs, kind):
    """``rs`` with every decision band turned to ``kind``."""
    return RuleSet(rules=tuple(replace(r, decision=replace(r.decision, kind=kind))
                               for r in rs.rules))


class TestSemanticsBands:
    """A run's semantics gives every band of its rules one kind; the kind
    alone fixes the tie rule, what ``check_rules`` admits, and what a rule
    file reads back as."""

    def test_mixed_band_kinds_are_refused(self):
        a = Condition("a", labels=frozenset({1}))
        at_most, exactly = (Rule(conditions=(a,), decision=DecisionPart("d", kind, 1))
                            for kind in ("at_most", "exactly"))
        for rules in ((at_most, exactly), (exactly, at_most)):
            with pytest.raises(UsageError, match="rule decisions mix band kinds"):
                RuleSet(rules=rules)
        assert RuleSet(rules=(exactly,)).rules == (exactly,)

    @settings(max_examples=200, deadline=None)
    @given(case=_masked_case())
    # Row 1 ties "exactly 1" with "exactly 2"; row 0 ties "at most 1" with
    # "at most 2".
    @example(case=(
        _gtable({"a0": [1, 1, None, 2], "a1": [None, 2, 2, 1]}, [2, None, 1, None]),
        0b0101, LOOSE, "exact",
    ))
    @example(case=(
        _gtable({"a0": [1, None, 2], "a1": [1, 1, 2]}, [1, 2, 3]), 0b011, LOOSE, "exact",
    ))
    def test_classify_band_and_round_trip(self, case):
        table, mask, cons, _ = case
        rows = [dict(zip(table.names, r)) for r in table.rows]
        induced = {
            semantics: induce_cover(table, "d", replace(cons, semantics=semantics), rows=mask)
            for semantics in BAND_KIND
        }
        for semantics, other in (("cumulative", "exact"), ("exact", "cumulative")):
            rs, own = induced[semantics], replace(cons, semantics=semantics)
            assert {r.decision.kind for r in rs.rules} <= {BAND_KIND[semantics]}
            # The same votes under either band kind: the kind picks the tie rule.
            for kinded in (rs, _with_kind(rs, BAND_KIND[other])):
                want = [_reference_vote(kinded, r) for r in rows]
                assert [classify(kinded, row) for row in rows] == want
            check_rules(rs, table, "d", own)
            if induced[other].rules:
                with pytest.raises(UsageError, match=f"is not a {semantics} band of 'd'"):
                    check_rules(induced[other], table, "d", own)
            parsed = parse_rules(render_rules(rs))
            assert [r.decision for r in parsed.rules] == [r.decision for r in rs.rules]


class TestGrammar:
    def test_render_two_condition_rule(self):
        rule = Rule(
            conditions=(
                Condition("phisz", hi=5.0354),
                Condition("tb", hi=42844.0),
            ),
            decision=DecisionPart("mvv", "at_most", 1),
        )
        got = render_rule(rule, 4)
        assert got == "Rule 4. (phisz<=5.035400) & (tb<=42844.000000) => (mvv at most 1);"

    def test_render_single_condition(self):
        rule = Rule(
            conditions=(Condition("cb", hi=220000.0),),
            decision=DecisionPart("mvv", "at_most", 1),
        )
        assert render_rule(rule, 1) == "Rule 1. (cb<=220000.000000) => (mvv at most 1);"

    def test_at_least_is_refused(self):
        """No semantics induces an upward band, so neither the record nor
        the grammar holds one."""
        with pytest.raises(UsageError, match="unknown decision kind 'at_least'"):
            DecisionPart("mvv", "at_least", 3)
        with pytest.raises(DataError, match="cannot parse rule line"):
            parse_rule("Rule 2. (csz>=1000.000000) => (mvv at least 3);")

    def test_between_renders_two_conjuncts_and_folds_back(self):
        rule = Rule(
            conditions=(Condition("csz", lo=600.0, hi=1000.0),),
            decision=DecisionPart("mvv", "at_most", 2),
        )
        text = render_rule(rule, 1)
        assert text == "Rule 1. (csz>=600.000000) & (csz<=1000.000000) => (mvv at most 2);"
        back = parse_rule(text)
        assert back.conditions == rule.conditions

    def test_golden_file_roundtrips_byte_identical(self):
        text = GOLDEN.read_text()
        rs = parse_rules(text)
        assert len(rs.rules) == 4
        assert render_rules(rs) == text

    def test_parse_recovers_structure(self):
        rs = parse_rules(GOLDEN.read_text())
        r4 = rs.rules[3]
        assert [c.attribute for c in r4.conditions] == ["phisz", "tb"]
        assert r4.conditions[0].hi == 5.0354
        assert r4.conditions[1].hi == 42844.0
        assert r4.decision == DecisionPart("mvv", "at_most", 1)

    def test_parsed_rule_cannot_match_granules(self):
        """A condition parsed from rule text carries no granule labels, and
        matching a granulated row says so."""
        rule = parse_rules(GOLDEN.read_text()).rules[3]
        assert all(c.labels is None for c in rule.conditions)
        with pytest.raises(UsageError, match="'phisz' has no granule labels, as a condition parsed"):
            rule.matches_row({"phisz": 1, "tb": 1})
        assert not rule.conditions[0].matches_label(None)  # a missing cell matches nothing

    def test_parse_rejects_garbage(self):
        for line, message in [
            ("Rule one. cb low => mvv high", "cannot parse rule line"),
            ("Rule 1. (cb<=abc) => (mvv at most 2);", r"cannot parse condition '\(cb<=abc\)'"),
            ("Rule 1. (cb>=1.0) & (cb>=2.0) => (mvv at most 2);", "duplicate >= bound for 'cb'"),
        ]:
            with pytest.raises(DataError, match=message):
                parse_rule(line)

    def test_induced_rules_roundtrip(self):
        """render -> parse is the identity on conditions and decision."""
        from somrough.pipeline import granulate
        from somrough.surrogate import DECISION_NAME, generate_table

        g = granulate(generate_table(count=60, seed=3), granules=2, seed=0)
        rs = induce_cover(g, DECISION_NAME, RuleConstraints(0.0, 3, 8, "exact"))
        assert rs.rules, "induction produced no rules on the surrogate table"
        for i, rule in enumerate(rs.rules, start=1):
            back = parse_rule(render_rule(rule, i))
            assert back.decision == rule.decision
            got = [(c.attribute, c.lo, c.hi) for c in back.conditions]
            want = [
                (c.attribute, _round6(c.lo), _round6(c.hi)) for c in rule.conditions
            ]
            assert got == want


def _round6(v):
    return None if v is None else float(f"{v:.6f}")
