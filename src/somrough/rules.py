"""Ordinal decision rules: greedy minimal covering, scoring, voting
classification, and the text rendering used in rule files.

A rule is a conjunction of per-attribute interval conditions implying a
decision band, e.g.

    Rule 1. (cb<=220000.000000) => (mvv at most 1);

Conditions carry both raw-unit bounds (for rendering and back analysis)
and the equivalent granule-label set (authoritative when matching
granulated objects). Labels run 1 = highest value band, so a decision
"at most g" names the g highest bands.

Induction and scoring run on one granulated table and a row mask (see
``table``): a candidate condition matches the OR of its labels' row
masks, a rule's cover is the ``&`` of its conditions' masks, and rows that
share a condition vector are classified with one vote.
"""

from __future__ import annotations

import re

from ._record import Record
from .errors import DataError, UsageError
from .table import GranularTable, is_label

# The band kind each semantics induces: downward unions "at most g" under
# cumulative, single classes "exactly g" under exact.
BAND_KIND = {"cumulative": "at_most", "exact": "exactly"}


class Condition(Record):
    """Interval constraint on one attribute.

    ``lo``/``hi`` are raw-unit bounds (None = unbounded); ``labels`` is the
    matching granule set, non-empty positive ints. At least one bound or
    the label set must be present. An induced condition carries both: its
    labels are a proper sub-range of its quantizer's granules and its
    bounds that quantizer's cuts. A condition parsed from rule text
    carries bounds only. A value on a cut takes the lower band, so the
    labels hold exactly the values v with lo < v <= hi: a value equal to
    ``lo`` falls in the next lower band, outside the labels. The rule
    file's ``>=`` still reads ``lo`` as inclusive.
    """

    attribute: str
    lo: float | None = None
    hi: float | None = None
    labels: frozenset | None = None

    def __post_init__(self):
        if self.lo is None and self.hi is None and self.labels is None:
            raise UsageError("condition needs a bound or a label set")
        if self.lo is not None and self.hi is not None and not self.lo < self.hi:
            raise UsageError("between-condition needs lo < hi")
        if self.labels is not None and not (self.labels and all(map(is_label, self.labels))):
            raise UsageError(
                f"condition on {self.attribute!r}: labels must be positive ints, at least one"
            )

    def matches_label(self, label) -> bool:
        if label is None:
            return False
        if self.labels is None:
            raise UsageError(
                f"condition on {self.attribute!r} has no granule labels, as a condition "
                "parsed from rule text carries none"
            )
        return label in self.labels


class DecisionPart(Record):
    """The rule's conclusion: a granule band on the decision attribute, of
    a kind in ``BAND_KIND``: ``at_most`` (labels 1..g) or ``exactly`` (g)."""

    attribute: str
    kind: str
    granule: int

    def __post_init__(self):
        if self.kind not in BAND_KIND.values():
            raise UsageError(f"unknown decision kind {self.kind!r}")
        if self.granule < 1:
            raise UsageError(f"decision granule must be >= 1, got {self.granule!r}")

    def covers(self, label) -> bool:
        if label is None:
            return False
        return label <= self.granule if self.kind == "at_most" else label == self.granule


class Rule(Record):
    conditions: tuple[Condition, ...]
    decision: DecisionPart
    support: int = 0
    strength: float = 0.0

    def __post_init__(self):
        if not self.conditions:
            raise UsageError("a rule needs at least one condition")
        attrs = [c.attribute for c in self.conditions]
        if len(set(attrs)) != len(attrs):
            raise UsageError("rule conditions must use distinct attributes")
        if self.support < 0:
            raise UsageError(f"rule support must be >= 0, got {self.support!r}")
        if not 0 <= self.strength <= 1:
            raise UsageError(f"rule strength must be in [0, 1], got {self.strength!r}")

    @property
    def length(self) -> int:
        return len(self.conditions)

    def matches_row(self, row: dict) -> bool:
        return all(c.matches_label(row.get(c.attribute)) for c in self.conditions)


class RuleConstraints(Record):
    """What induction may produce: scores, sizes, and the band kind
    (``BAND_KIND``) the semantics gives every rule's decision."""

    min_strength: float = 0.60
    max_length: int = 2
    max_rules: int = 5
    semantics: str = "cumulative"

    def __post_init__(self):
        if not 0.0 <= self.min_strength <= 1.0:
            raise UsageError("min_strength must be in [0, 1]")
        if self.max_length < 1 or self.max_rules < 1:
            raise UsageError("max_length and max_rules must be positive")
        if self.semantics not in BAND_KIND:
            raise UsageError(f"semantics must be one of {tuple(BAND_KIND)}")


class RuleSet(Record):
    """Rules of one band kind: a semantics induces one kind (``BAND_KIND``),
    so a set never mixes them."""

    rules: tuple[Rule, ...]
    uncovered: tuple[int, ...] = ()  # rows with a decision that no rule covers

    def __post_init__(self):
        if len({rule.decision.kind for rule in self.rules}) > 1:
            raise UsageError("rule decisions mix band kinds")


def _interval_condition(table: GranularTable, attr: str, g_lo: int, g_hi: int) -> Condition:
    """Condition for granule labels g_lo..g_hi with the raw bounds of the
    attribute's quantizer (cut k sits between labels k and k+1, so labels
    {lo..hi} span (cut_hi, cut_{lo-1}])."""
    disc = table.discretizers[attr]
    hi = disc.cuts[g_lo - 2] if g_lo > 1 else None
    lo = disc.cuts[g_hi - 1] if g_hi < disc.granules else None
    return Condition(attribute=attr, lo=lo, hi=hi, labels=frozenset(range(g_lo, g_hi + 1)))


def check_rules(
    rs: RuleSet, table: GranularTable, decision: str, constraints: RuleConstraints
) -> None:
    """Raise ``UsageError`` unless ``rs`` could have been induced on
    ``table`` for ``decision`` under ``constraints``: the rule set has at
    most ``max_rules`` rules, each with at most ``max_length`` conditions
    and a strength no lower than ``min_strength``; each condition is on a
    condition attribute and equals the condition its label range gives, a
    proper sub-range of the granules of the attribute's quantizer with that
    quantizer's cuts as bounds, so a condition without labels fails; each
    decision band is on ``decision``, of the kind their semantics gives
    (``BAND_KIND``): ``at most g`` with g below its quantizer's granule
    count (cumulative) or ``exactly g`` with g within it (exact); each
    rule's support and strength are a split's, ``support / n`` for some n
    from ``support`` up to the number of the table's objects in its band,
    as induction divides by the training positives inside the band; and
    every uncovered entry is a row number of the table,
    ``0 <= i < len(table)``."""
    semantics = constraints.semantics
    if len(rs.rules) > constraints.max_rules:
        raise UsageError(f"{len(rs.rules)} rules, more than max_rules {constraints.max_rules}")
    cond_names = set(table.condition_names)
    g_count = table.discretizers[decision].granules
    top = g_count if semantics == "exact" else g_count - 1  # "at most G" holds every label
    labels = table.column(decision)
    per_label = {g: labels.count(g) for g in set(labels)}
    for rule in rs.rules:
        part = rule.decision
        if part.attribute != decision or part.kind != BAND_KIND[semantics] or part.granule > top:
            raise UsageError(
                f"rule decision ({part.attribute} {part.kind} {part.granule}) "
                f"is not a {semantics} band of {decision!r}"
            )
        if rule.length > constraints.max_length:
            raise UsageError(
                f"a rule of {rule.length} conditions, more than max_length {constraints.max_length}"
            )
        if rule.strength < constraints.min_strength:
            raise UsageError(
                f"a rule of strength {rule.strength}, below min_strength {constraints.min_strength}"
            )
        band = sum(count for g, count in per_label.items() if part.covers(g))
        support, strength = rule.support, rule.strength
        n = 0  # the training positives the scores imply; min() keeps n finite
        if 1 <= support <= band and strength > 0:
            n = round(min(support / strength, band + 1))
        if not (1 <= support <= n <= band and support / n == strength):
            raise UsageError(
                f"a rule of support {support} and strength {strength}, which no training "
                f"split of the {band} objects in its band gives"
            )
        for c in rule.conditions:
            if c.attribute not in cond_names:
                raise UsageError(f"rule condition on {c.attribute!r}, not a condition attribute")
            granules = table.discretizers[c.attribute].granules
            if not (
                c.labels
                and max(c.labels) <= granules
                and len(c.labels) < granules
                and c == _interval_condition(table, c.attribute, min(c.labels), max(c.labels))
            ):
                raise UsageError(
                    f"rule condition on {c.attribute!r} does not match its quantizer's granules"
                )
    if not all(0 <= i < len(table) for i in rs.uncovered):
        raise UsageError("uncovered objects must be rows of the table")


def induce_cover(
    table: GranularTable, decision: str, constraints: RuleConstraints, rows: int | None = None
) -> RuleSet:
    """Greedy sequential covering of the training rows: the row mask
    ``rows`` of ``table``, or every row when it is None. ``decision`` goes
    through ``DecisionTable.decision``, so None names the only one.

    Targets, under the constraints' semantics, are each decision class
    (exact) or each proper downward band "at most g", g < G (cumulative),
    with G the granule count of the decision's quantizer, whatever labels
    ``rows`` holds. A rule grows one condition at a time, picking the
    candidate that keeps the most still-uncovered positives, then the
    fewest negatives, then the lowest attribute index; it is accepted only
    when it matches no negative and its strength clears the floor. Covered
    positives leave the pool until everything coverable is covered or the
    rule budget runs out.
    """
    decision = table.decision(decision)
    semantics = constraints.semantics
    if rows is None:
        rows = (1 << len(table)) - 1
    label_masks = table.masks()[0]
    by_label = {g: m & rows for g, m in label_masks[decision].items() if m & rows}
    g_count = table.discretizers[decision].granules
    granules = sorted(by_label) if semantics == "exact" else range(1, g_count)
    targets = [DecisionPart(decision, BAND_KIND[semantics], g) for g in granules]

    # Candidate label intervals (g_lo, g_hi) per attribute, each with the
    # rows it matches: every contiguous proper sub-range of 1..G of the
    # attribute's quantizer, so a chosen one has a cut to render. A missing
    # label matches nothing. Only chosen candidates become Conditions.
    candidates: dict[str, list[tuple[int, int, int]]] = {}
    for attr in table.condition_names:
        ga = table.discretizers[attr].granules
        intervals = []
        for g_lo in range(1, ga + 1):
            matched = 0
            for g_hi in range(g_lo, ga + 1):
                matched |= label_masks[attr].get(g_hi, 0)
                if g_lo > 1 or g_hi < ga:
                    intervals.append((g_lo, g_hi, matched))
        candidates[attr] = intervals

    rules: list[Rule] = []
    covered = 0  # rows some rule matches and concludes correctly
    # A row with a missing decision is evidence for no target and against
    # none: it is never a positive and never a negative.
    decided = sum(by_label.values())

    for part in targets:
        positives = sum(m for g, m in by_label.items() if part.covers(g))
        negatives = decided & ~positives
        if not positives:
            continue
        while len(rules) < constraints.max_rules:
            remaining = positives & ~covered
            if not remaining:
                break
            grown = _grow_rule(
                table, part, rows, remaining, positives, negatives, candidates, constraints
            )
            if grown is None:
                break
            rule, cover = grown
            rules.append(rule)
            covered |= cover & positives
        if len(rules) >= constraints.max_rules:
            break

    return RuleSet(rules=tuple(rules), uncovered=table.ids_in(decided & ~covered))


def _grow_rule(table, part, rows, remaining, positives, negatives, candidates, constraints):
    """One greedy conjunction for the given decision part and the row mask
    it matches, or None if the grown rule fails the consistency or
    strength gates."""
    chosen: list[Condition] = []
    used: set[str] = set()
    cover = rows
    while len(chosen) < constraints.max_length:
        best = None
        for a_idx, (attr, intervals) in enumerate(candidates.items()):
            if attr in used:
                continue
            for c_idx, (g_lo, g_hi, matched) in enumerate(intervals):
                cov = cover & matched
                new_pos = (cov & remaining).bit_count()
                if new_pos == 0:
                    continue
                n_neg = (cov & negatives).bit_count()
                key = (-new_pos, n_neg, a_idx, c_idx)
                if best is None or key < best[0]:
                    best = (key, attr, g_lo, g_hi, cov)
        if best is None:
            break
        _, attr, g_lo, g_hi, cover = best
        chosen.append(_interval_condition(table, attr, g_lo, g_hi))
        used.add(attr)
        if not cover & negatives:
            break

    if not chosen or cover & negatives:
        return None
    support = (cover & positives).bit_count()
    strength_val = support / positives.bit_count()
    if strength_val < constraints.min_strength:
        return None
    rule = Rule(conditions=tuple(chosen), decision=part, support=support, strength=strength_val)
    return rule, cover


def classify(rs: RuleSet, row: dict):
    """Weighted vote of all matching rules; None means abstain.

    Each matching rule votes with its strength for its decision granule.
    A tie among the leaders goes to the lowest granule when the bands are
    "at most g", as those nest and the lowest is the tightest; between
    "exactly g" bands a tie abstains. A missing value satisfies no
    condition.
    """
    votes: dict[int, float] = {}
    for rule in rs.rules:
        if rule.matches_row(row):
            g = rule.decision.granule
            votes[g] = votes.get(g, 0.0) + rule.strength
    if not votes:
        return None
    top = max(votes.values())
    leaders = sorted(g for g, v in votes.items() if v == top)
    # A vote was cast, so rs.rules is not empty.
    return leaders[0] if len(leaders) == 1 or rs.rules[0].decision.kind == "at_most" else None


def accuracy(rs: RuleSet, table: GranularTable, decision: str, rows: int | None = None) -> float:
    """Correct fraction of the held-out rows (the row mask ``rows``, or
    every row when it is None) that have a decision; abstentions count as
    wrong. Rows whose decision is missing are not scored, and with none
    left, an empty mask included, the score is 0.0: no accuracy is earned
    without objects to earn it on. Rules condition on condition
    attributes only, so rows sharing a condition vector share one vote."""
    label_masks, vectors = table.masks()
    by_label = label_masks.get(decision, {})
    scored = sum(by_label.values())
    if rows is not None:
        scored &= rows
    if not scored:
        return 0.0
    names = table.condition_names
    correct = 0
    for vec, m in vectors.items():
        if m & scored:
            pred = classify(rs, dict(zip(names, vec)))
            correct += (m & scored & by_label.get(pred, 0)).bit_count()
    return correct / scored.bit_count()


# --- rendering and parsing -------------------------------------------------

_DECISION_WORDS = {"at_most": "at most", "exactly": "exactly"}
# parse_rule's patterns: re compiles and caches them on first use, so a
# process that parses no rule file never compiles them.
_RULE_RE = r"^Rule (\d+)\. (.+) => \((\w+) (at most|exactly) (\d+)\);$"
_COND_RE = r"^\((\w+)(<=|>=)([-+0-9.eE]+)\)$"


def render_condition(cond: Condition) -> str:
    parts = []
    if cond.lo is not None:
        parts.append(f"({cond.attribute}>={cond.lo:.6f})")
    if cond.hi is not None:
        parts.append(f"({cond.attribute}<={cond.hi:.6f})")
    if not parts:
        raise UsageError(f"condition on {cond.attribute!r} has no raw bounds to render")
    return " & ".join(parts)


def render_rule(rule: Rule, index: int) -> str:
    conds = " & ".join(render_condition(c) for c in rule.conditions)
    word = _DECISION_WORDS[rule.decision.kind]
    return f"Rule {index}. {conds} => ({rule.decision.attribute} {word} {rule.decision.granule});"


def render_rules(rs: RuleSet) -> str:
    """The rule-file format: one rendered rule per line, LF endings."""
    return "".join(render_rule(r, i) + "\n" for i, r in enumerate(rs.rules, start=1))


def parse_rule(line: str) -> Rule:
    """Inverse of render_rule, up to the scores the text does not carry.

    Adjacent >=/<= conjuncts on the same attribute fold back into one
    between-condition. Parsed conditions carry no granule labels, so a
    parsed rule cannot be matched against granulated rows.
    """
    m = re.match(_RULE_RE, line.strip())
    if not m:
        raise DataError(f"cannot parse rule line: {line!r}")
    _, cond_text, d_attr, d_word, d_gran = m.groups()
    kind = {v: k for k, v in _DECISION_WORDS.items()}[d_word]
    bounds: dict[str, dict] = {}
    order: list[str] = []
    for piece in cond_text.split(" & "):
        cm = re.match(_COND_RE, piece.strip())
        if not cm:
            raise DataError(f"cannot parse condition {piece!r}")
        attr, op, value = cm.groups()
        if attr not in bounds:
            bounds[attr] = {}
            order.append(attr)
        side = "lo" if op == ">=" else "hi"
        if side in bounds[attr]:
            raise DataError(f"duplicate {op} bound for {attr!r}")
        bounds[attr][side] = float(value)
    conditions = tuple(
        Condition(attribute=a, lo=bounds[a].get("lo"), hi=bounds[a].get("hi")) for a in order
    )
    return Rule(
        conditions=conditions,
        decision=DecisionPart(attribute=d_attr, kind=kind, granule=int(d_gran)),
    )


def parse_rules(text: str) -> RuleSet:
    """The rule set of a rule file, each rule with the band kind its line
    states; ``RuleSet`` refuses mixed bands."""
    return RuleSet(rules=tuple(parse_rule(ln) for ln in text.splitlines() if ln.strip()))
