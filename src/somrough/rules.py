"""Ordinal decision rules: greedy minimal covering, scoring, voting
classification, and the text rendering used in rule files.

A rule is a conjunction of per-attribute interval conditions implying a
decision band, e.g.

    Rule 1. (cb<=220000.000000) => (mvv at most 1);

Conditions carry both raw-unit bounds (for rendering and back analysis)
and the equivalent granule-label set (authoritative when matching
granulated objects). Labels run 1 = highest value band, so a decision
"at most g" names the g highest bands.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .errors import DataError, UsageError
from .table import GranularTable

log = logging.getLogger(__name__)

SEMANTICS = ("cumulative", "exact")


@dataclass(frozen=True)
class Condition:
    """Interval constraint on one attribute.

    ``lo``/``hi`` are inclusive raw-unit bounds (None = unbounded);
    ``labels`` is the matching granule set when the source quantizer is
    known. At least one bound or the label set must be present.
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

    def matches_label(self, label) -> bool:
        if label is None:
            return False
        if self.labels is None:
            raise UsageError(
                f"condition on {self.attribute!r} has no granule form; bind a quantizer first"
            )
        return label in self.labels

    def matches_raw(self, value) -> bool:
        if value is None:
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True


@dataclass(frozen=True)
class DecisionPart:
    """The rule's conclusion: a granule band on the decision attribute."""

    attribute: str
    kind: str  # at_most | at_least | exactly
    granule: int

    def __post_init__(self):
        if self.kind not in ("at_most", "at_least", "exactly"):
            raise UsageError(f"unknown decision kind {self.kind!r}")
        if self.granule < 1:
            raise UsageError("decision granule must be >= 1")

    def covers(self, label) -> bool:
        if label is None:
            return False
        if self.kind == "at_most":
            return label <= self.granule
        if self.kind == "at_least":
            return label >= self.granule
        return label == self.granule

    def specificity(self) -> tuple:
        """Sort key: smaller means a tighter decision band."""
        if self.kind == "exactly":
            return (0, 0)
        if self.kind == "at_most":
            return (1, self.granule)
        return (1, -self.granule)


@dataclass(frozen=True)
class Rule:
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

    @property
    def length(self) -> int:
        return len(self.conditions)

    def matches_row(self, row: dict) -> bool:
        return all(c.matches_label(row.get(c.attribute)) for c in self.conditions)


@dataclass(frozen=True)
class RuleConstraints:
    min_strength: float = 0.60
    max_length: int = 2
    max_rules: int = 5

    def __post_init__(self):
        if not 0.0 <= self.min_strength <= 1.0:
            raise UsageError("min_strength must be in [0, 1]")
        if self.max_length < 1 or self.max_rules < 1:
            raise UsageError("max_length and max_rules must be positive")


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]
    constraints: RuleConstraints
    uncovered: tuple[int, ...] = ()  # objects with a decision that no rule covers
    semantics: str = "cumulative"


def _granule_count(table: GranularTable, attr: str) -> int:
    d = getattr(table, "discretizers", {}).get(attr)
    if d is not None:
        return d.granules
    labels = [v for v in table.column(attr) if v is not None]
    if not labels:
        raise DataError(f"attribute {attr!r} has no labels to infer a granule count from")
    return max(labels)


def _interval_condition(table: GranularTable, attr: str, g_lo: int, g_hi: int) -> Condition:
    """Condition for granule labels g_lo..g_hi, with raw bounds when the
    table carries the attribute's quantizer (cut k sits between labels k
    and k+1, so labels {lo..hi} span (cut_hi, cut_{lo-1}])."""
    disc = getattr(table, "discretizers", {}).get(attr)
    labels = frozenset(range(g_lo, g_hi + 1))
    if disc is None:
        return Condition(attribute=attr, labels=labels)
    cuts = disc.cuts
    hi = cuts[g_lo - 2] if g_lo > 1 else None
    lo = cuts[g_hi - 1] if g_hi < disc.granules else None
    return Condition(attribute=attr, lo=lo, hi=hi, labels=labels)


def _rows_as_dicts(table: GranularTable) -> dict[int, dict]:
    names = table.names
    return {
        oid: dict(zip(names, row)) for oid, row in zip(table.object_ids, table.rows)
    }


def induce_cover(
    train: GranularTable,
    decision: str,
    constraints: RuleConstraints,
    semantics: str = "cumulative",
) -> RuleSet:
    """Greedy sequential covering of the training objects.

    Targets are each decision class (exact semantics) or each proper
    downward band "at most g" (cumulative). A rule grows one condition at
    a time, picking the candidate that keeps the most still-uncovered
    positives, then the fewest negatives, then the lowest attribute index;
    it is accepted only when it matches no negative and its strength
    clears the floor. Covered positives leave the pool until everything
    coverable is covered or the rule budget runs out.
    """
    if decision not in train.decision_names:
        raise UsageError(f"{decision!r} is not a decision attribute")
    if semantics not in SEMANTICS:
        raise UsageError(f"semantics must be one of {SEMANTICS}")

    ids = list(train.object_ids)
    label_of = dict(zip(ids, train.column(decision)))
    g_count = _granule_count(train, decision)
    cond_attrs = train.condition_names

    if semantics == "exact":
        present = sorted({g for g in label_of.values() if g is not None})
        targets = [DecisionPart(decision, "exactly", g) for g in present]
    else:
        targets = [DecisionPart(decision, "at_most", g) for g in range(1, g_count)]

    # Candidate label intervals per attribute, each with the ids it
    # matches: every contiguous proper sub-range of 1..G. A missing label
    # matches nothing.
    candidates: dict[str, list[tuple[Condition, frozenset]]] = {}
    for attr in cond_attrs:
        ids_of: dict[int, set] = {}
        for oid, g in zip(ids, train.column(attr)):
            if g is not None:
                ids_of.setdefault(g, set()).add(oid)
        ga = _granule_count(train, attr)
        conds = []
        for g_lo in range(1, ga + 1):
            for g_hi in range(g_lo, ga + 1):
                if g_lo == 1 and g_hi == ga:
                    continue
                cond = _interval_condition(train, attr, g_lo, g_hi)
                matched = frozenset().union(*(ids_of.get(g, ()) for g in cond.labels))
                conds.append((cond, matched))
        candidates[attr] = conds

    rules: list[Rule] = []
    covered: set[int] = set()  # objects some rule matches and concludes correctly
    # An object with a missing decision is evidence for no target and
    # against none: it is never a positive and never a negative.
    decided = {i for i in ids if label_of[i] is not None}

    for part in targets:
        positives = {i for i in ids if part.covers(label_of[i])}
        negatives = decided - positives
        if not positives:
            continue
        while len(rules) < constraints.max_rules:
            remaining = positives - covered
            if not remaining:
                break
            grown = _grow_rule(
                part, ids, remaining, positives, negatives, cond_attrs, candidates, constraints
            )
            if grown is None:
                break
            rule, cover = grown
            rules.append(rule)
            covered |= cover & positives
        if len(rules) >= constraints.max_rules:
            break

    return RuleSet(
        rules=tuple(rules),
        constraints=constraints,
        uncovered=tuple(i for i in ids if i in decided and i not in covered),
        semantics=semantics,
    )


def _grow_rule(part, ids, remaining, positives, negatives, cond_attrs, candidates, constraints):
    """One greedy conjunction for the given decision part and the ids it
    matches, or None if the grown rule fails the consistency or strength
    gates."""
    chosen: list[Condition] = []
    used: set[str] = set()
    cover = set(ids)
    while len(chosen) < constraints.max_length:
        best = None
        for a_idx, attr in enumerate(cond_attrs):
            if attr in used:
                continue
            for c_idx, (cond, matched) in enumerate(candidates[attr]):
                cov = cover & matched
                new_pos = len(cov & remaining)
                if new_pos == 0:
                    continue
                n_neg = len(cov & negatives)
                key = (-new_pos, n_neg, a_idx, c_idx)
                if best is None or key < best[0]:
                    best = (key, cond, cov)
        if best is None:
            break
        _, cond, cover = best
        chosen.append(cond)
        used.add(cond.attribute)
        if not cover & negatives:
            break

    if not chosen or cover & negatives:
        return None
    support = len(cover & positives)
    strength_val = support / len(positives)
    if support == 0 or strength_val < constraints.min_strength:
        return None
    rule = Rule(conditions=tuple(chosen), decision=part, support=support, strength=strength_val)
    return rule, cover


def classify(rs: RuleSet, row: dict):
    """Weighted vote of all matching rules; None means abstain.

    Each matching rule votes with its strength for its decision granule.
    Ties go to the tighter decision band; a dead-even tie abstains. A
    missing value satisfies no condition.
    """
    votes: dict[int, float] = {}
    tightness: dict[int, tuple] = {}
    for rule in rs.rules:
        if not rule.matches_row(row):
            continue
        g = rule.decision.granule
        votes[g] = votes.get(g, 0.0) + rule.strength
        key = rule.decision.specificity()
        if g not in tightness or key < tightness[g]:
            tightness[g] = key
    if not votes:
        return None
    top = max(votes.values())
    leaders = [g for g, v in votes.items() if v == top]
    if len(leaders) == 1:
        return leaders[0]
    best_spec = min(tightness[g] for g in leaders)
    tied = [g for g in leaders if tightness[g] == best_spec]
    return tied[0] if len(tied) == 1 else None


def accuracy(rs: RuleSet, test: GranularTable, decision: str) -> float:
    """Correct fraction on the held-out objects that have a decision;
    abstentions count as wrong. Objects whose decision is missing are not
    scored, and a test set with none left scores 0.0."""
    rows = _rows_as_dicts(test)
    if not rows:
        log.warning("accuracy over an empty test set is vacuously 1.0")
        return 1.0
    scored = [r for r in rows.values() if r.get(decision) is not None]
    if not scored:
        return 0.0
    correct = sum(1 for r in scored if classify(rs, r) == r[decision])
    return correct / len(scored)


# --- rendering and parsing -------------------------------------------------

_DECISION_WORDS = {"at_most": "at most", "at_least": "at least", "exactly": "exactly"}
_RULE_RE = re.compile(
    r"^Rule (\d+)\. (.+) => \((\w+) (at most|at least|exactly) (\d+)\);$"
)
_COND_RE = re.compile(r"^\((\w+)(<=|>=)([-+0-9.eE]+)\)$")


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
    between-condition; parsed conditions have no granule form until bound
    to a quantizer.
    """
    m = _RULE_RE.match(line.strip())
    if not m:
        raise DataError(f"cannot parse rule line: {line!r}")
    _, cond_text, d_attr, d_word, d_gran = m.groups()
    kind = {v: k for k, v in _DECISION_WORDS.items()}[d_word]
    bounds: dict[str, dict] = {}
    order: list[str] = []
    for piece in cond_text.split(" & "):
        cm = _COND_RE.match(piece.strip())
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


def parse_rules(text: str, constraints: RuleConstraints | None = None) -> RuleSet:
    rules = tuple(parse_rule(ln) for ln in text.splitlines() if ln.strip())
    return RuleSet(rules=rules, constraints=constraints or RuleConstraints())
