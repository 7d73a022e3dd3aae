"""Tests for the planar limit-equilibrium surrogate."""

import contextlib
import math
import re
import sys

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from somrough.errors import DataError, UsageError
from somrough.surrogate import (
    DECISION_NAME,
    DEFAULT_RANGES,
    DEFAULT_STEEPNESS,
    SlopeParams,
    displacement_proxy,
    factor_of_safety,
    generate_table,
)
from somrough.table import AttributeSpec, DecisionTable, dump_schema, infer_scale, to_csv


def _params(**kw):
    base = dict(cohesion=20.0, friction=30.0, slope=30.0, weight=1000.0, area=50.0)
    base.update(kw)
    return SlopeParams(**base)


def _spearman(xs, ys):
    """Rank correlation, independent of the generator under test."""

    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        r = [0.0] * len(vals)
        for rank, i in enumerate(order):
            r[i] = float(rank)
        return r

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mx = my = (n - 1) / 2.0
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


class TestFactorOfSafety:
    def test_frictionless_limit(self):
        """With c = 0 and friction equal to the slope angle, FS = 1."""
        p = SlopeParams(cohesion=1e-12, friction=30.0, slope=30.0, weight=1000.0, area=50.0)
        assert factor_of_safety(p) == pytest.approx(1.0, abs=1e-9)

    def test_closed_form(self):
        p = SlopeParams(cohesion=1e-12, friction=45.0, slope=30.0, weight=1000.0, area=50.0)
        assert factor_of_safety(p) == pytest.approx(math.sqrt(3), rel=1e-9)

    def test_monotone_in_cohesion(self):
        assert factor_of_safety(_params(cohesion=40.0)) > factor_of_safety(_params(cohesion=20.0))

    def test_invariants_enforced(self):
        with pytest.raises(UsageError):
            _params(slope=95.0)
        with pytest.raises(UsageError):
            _params(weight=-1.0)
        with pytest.raises(UsageError, match="slope angle too close to zero"):
            factor_of_safety(_params(slope=1e-12))
        with pytest.raises(UsageError, match="factor of safety must be positive"):
            displacement_proxy(0.0)


class TestDisplacementProxy:
    def test_anchor_at_limit(self):
        for alpha in (0.5, 1.0, 5.0):
            assert displacement_proxy(1.0, alpha) == 1.0

    def test_closed_form(self):
        assert displacement_proxy(2.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_strictly_decreasing(self):
        fss = [0.5, 0.8, 1.0, 1.5, 2.0, 3.0]
        proxies = [displacement_proxy(f) for f in fss]
        assert all(a > b for a, b in zip(proxies, proxies[1:]))

    def test_underflow_is_usage_error(self):
        """A proxy that rounds to zero is refused; a subnormal one is kept."""
        assert 0.0 < displacement_proxy(2.0, 740.0) < sys.float_info.min
        with pytest.raises(UsageError, match="steepness 1000.0 underflows .* at FS 2.0"):
            displacement_proxy(2.0, 1000.0)


class TestGenerateTable:
    def test_single_row(self):
        t = generate_table(count=1, seed=5)
        assert len(t) == 1
        row = dict(zip(t.names, t.rows[0]))
        p = SlopeParams(**{k: row[k] for k in ("cohesion", "friction", "slope", "weight", "area")})
        assert row[DECISION_NAME] == pytest.approx(displacement_proxy(factor_of_safety(p)))

    def test_deterministic(self):
        a = generate_table(count=20, seed=3)
        b = generate_table(count=20, seed=3)
        assert a.rows == b.rows

    def test_rows_within_ranges(self):
        ranges = {"cohesion": (10.0, 20.0)}
        t = generate_table(ranges=ranges, count=50, seed=1)
        for v in t.column("cohesion"):
            assert 10.0 <= v <= 20.0

    def test_latin_hypercube_stratification(self):
        """Each dimension puts exactly one sample per stratum."""
        t = generate_table(count=40, seed=9)
        for name in ("cohesion", "friction", "slope", "weight", "area"):
            lo, hi = min(t.column(name)), max(t.column(name))
            # reconstruct stratum indices from the default ranges
            from somrough.surrogate import DEFAULT_RANGES

            rlo, rhi = DEFAULT_RANGES[name]
            strata = [int((v - rlo) / (rhi - rlo) * 40) for v in t.column(name)]
            assert sorted(strata) == list(range(40))

    def test_cohesion_anticorrelated_with_movement(self):
        t = generate_table(count=200, seed=7)
        rho = _spearman(t.column("cohesion"), t.column(DECISION_NAME))
        assert rho < -0.2

    def test_parameters_are_keyword_only(self):
        """A count passed by position is Python's own error naming the
        function, not a failure inside its body."""
        with pytest.raises(TypeError, match=r"^generate_table\(\) takes 0 positional"):
            generate_table(500, seed=0)

    def test_bad_ranges_rejected(self):
        with pytest.raises(DataError):
            generate_table(ranges={"cohesion": (5.0, 5.0)}, count=10)
        with pytest.raises(DataError):
            generate_table(ranges={"bogus": (1.0, 2.0)}, count=10)


def _row_by_row_table(ranges=None, count=30, seed=0, steepness=DEFAULT_STEEPNESS):
    """The row-at-a-time generator ``generate_table`` replaced, kept as its
    oracle: numpy scalars read per row, each row validated as a
    ``SlopeParams`` and then modelled."""
    ranges = dict(DEFAULT_RANGES if ranges is None else ranges)
    unknown = set(ranges) - set(DEFAULT_RANGES)
    if unknown:
        raise DataError(f"unknown parameter ranges: {sorted(unknown)}")
    for name, lo_hi in DEFAULT_RANGES.items():
        ranges.setdefault(name, lo_hi)
    if count < 1:
        raise UsageError("count must be >= 1")
    if seed < 0:
        raise UsageError("seed must be >= 0")
    if count > sys.float_info.max:
        raise DataError(f"count {count} exceeds the float range")
    if count > sys.maxsize:
        raise DataError(f"count {count} exceeds the largest table size, {sys.maxsize}")
    for name, (lo, hi) in ranges.items():
        if not all(map(math.isfinite, (lo, hi, (hi - lo) * count))):
            raise DataError(
                f"range for {name} [{lo!r}, {hi!r}]: low, high and "
                f"(high - low) x count ({count}) must be finite"
            )
        if not lo < hi:
            raise DataError(f"range for {name} must have low < high")

    import numpy as np

    rng = np.random.default_rng(seed)
    names = list(DEFAULT_RANGES)
    samples = {}
    for name in names:
        lo, hi = ranges[name]
        strata = rng.permutation(count)
        u = rng.uniform(size=count)
        samples[name] = lo + (hi - lo) * (strata + u) / count

    rows = []
    for i in range(count):
        p = SlopeParams(**{name: float(samples[name][i]) for name in names}, steepness=steepness)
        proxy = displacement_proxy(factor_of_safety(p), p.steepness)
        rows.append(tuple(float(samples[name][i]) for name in names) + (proxy,))

    units = {"cohesion": "kPa", "friction": "deg", "slope": "deg", "weight": "kN", "area": "m2"}
    specs = [AttributeSpec(n, "condition", "linear", units[n]) for n in names]
    proxy_scale = infer_scale([r[-1] for r in rows])
    specs.append(AttributeSpec(DECISION_NAME, "decision", proxy_scale, "relative"))
    return DecisionTable(specs=tuple(specs), rows=tuple(rows))


@contextlib.contextmanager
def _counted_params():
    """Collect every ``SlopeParams`` that is built inside the block."""
    built = []
    check = SlopeParams.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    SlopeParams.__post_init__ = counted
    try:
        yield built
    finally:
        SlopeParams.__post_init__ = check


def _outcome(generate, **kwargs):
    try:
        t = generate(**kwargs)
    except (DataError, UsageError) as exc:
        return type(exc), str(exc)
    return t.specs, t.rows, to_csv(t), dump_schema(list(t.specs))


# Ranges that break the model: non-positive values, angles outside
# (0, 90), a near-zero slope (sin below 1e-9), a subnormal weight whose
# driving force underflows on a near-flat slope, and strong cohesion
# whose proxy underflows at high steepness; plus arbitrary finite pairs.
EDGE_RANGES = {
    "cohesion": [(-5.0, 5.0), (-3.0, 0.0), (80.0, 90.0), (1e3, 2e3)],
    "friction": [(-10.0, 10.0), (80.0, 100.0), (89.0, 89.9)],
    "slope": [(-1.0, 1.0), (85.0, 95.0), (1e-8, 2e-8), (1e-7, 2e-7)],
    "weight": [(5e-324, 1e-323), (-1.0, 1.0), (1e-3, 1e-2)],
    "area": [(0.0, 1.0), (-2.0, -1.0)],
}


@st.composite
def _ranges(draw):
    """Valid pairs (any finite pair, for low >= high and overflowing
    sums) under some names, then edge pairs under at most two."""
    names = st.lists(st.sampled_from(list(DEFAULT_RANGES)), unique=True)
    valid = st.tuples(st.floats(1e-3, 89.0), st.floats(1e-3, 89.0)).map(sorted)
    ranges = {n: tuple(draw(valid)) for n in draw(names)}
    if draw(st.booleans()):
        name = draw(st.sampled_from(list(DEFAULT_RANGES)))
        ranges[name] = draw(st.tuples(st.floats(), st.floats()))
    for name in draw(names.map(lambda ns: ns[:2])):
        ranges[name] = draw(st.sampled_from(EDGE_RANGES[name]))
    return ranges


class TestColumnwiseGeneration:
    @settings(max_examples=150, deadline=None)
    @given(
        count=st.integers(1, 600),
        seed=st.sampled_from([0, 2**31 - 2]) | st.integers(0, 2**31 - 2),
        steepness=st.floats(1e-3, 50.0)
        | st.sampled_from([0.1, 5.0, 50.0, 700.0])
        | st.sampled_from([1e4, 0.0, -1.0, math.nan, math.inf]),
        ranges=st.none() | _ranges(),
    )
    @example(count=1, seed=0, steepness=700.0, ranges=None)
    @example(count=600, seed=2**31 - 2, steepness=5.0, ranges=None)
    @example(count=20, seed=0, steepness=1e4, ranges={"cohesion": (80.0, 90.0)})
    # Only the column maxima leave (0, 90) degrees.
    @example(count=30, seed=0, steepness=5.0, ranges={"slope": (85.0, 95.0)})
    @example(count=30, seed=0, steepness=5.0, ranges={"friction": (80.0, 100.0)})
    @example(count=5, seed=1, steepness=5.0, ranges={"weight": (5e-324, 1e-323),
                                                     "slope": (1e-7, 2e-7)})
    def test_matches_row_by_row_generator(self, count, seed, steepness, ranges):
        """Same specs, rows and file bytes as the row-by-row generator, or
        the same error; a valid table builds at most two SlopeParams."""
        kwargs = dict(ranges=ranges, count=count, seed=seed, steepness=steepness)
        with _counted_params() as built:
            got = _outcome(generate_table, **kwargs)
        assert got == _outcome(_row_by_row_table, **kwargs)
        if isinstance(got[0], type):
            event(f"{got[0].__name__}: {re.sub(r'[^ ]*[0-9][^ ]*', '#', got[1])}")
        else:
            event("table")
            assert len(built) <= 2
