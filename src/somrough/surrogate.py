"""Toy planar limit-equilibrium slope model.

Stands in for the heavyweight numerical forward model when generating
run tables end to end: a single rigid block on an inclined failure plane,
with a displacement proxy that decays exponentially in the factor of
safety. It preserves the qualitative signal an inversion must recover
(weaker parameters, larger movement) and nothing more.
"""

from __future__ import annotations

import math
import sys

from ._record import Record
from .errors import DataError, UsageError
from .table import AttributeSpec, DecisionTable, infer_scale

DEFAULT_STEEPNESS = 5.0

# name -> (low, high); units: kPa, deg, deg, kN, m2. Strength parameters
# (cohesion, friction) carry the uncertainty an inversion hunts for; the
# geometry and block weight are treated as surveyed, so their ranges are
# narrow.
DEFAULT_RANGES = {
    "cohesion": (2.0, 90.0),
    "friction": (14.0, 26.0),
    "slope": (44.0, 46.0),
    "weight": (950.0, 1050.0),
    "area": (39.0, 41.0),
}

DECISION_NAME = "displacement"


class SlopeParams(Record):
    cohesion: float  # kPa
    friction: float  # deg
    slope: float  # deg
    weight: float  # kN
    area: float  # m2
    steepness: float = DEFAULT_STEEPNESS

    def __post_init__(self):
        for name in ("cohesion", "friction", "slope", "weight", "area", "steepness"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise UsageError(f"{name} must be positive and finite")
        if not 0.0 < self.friction < 90.0:
            raise UsageError("friction angle must be in (0, 90) degrees")
        if not 0.0 < self.slope < 90.0:
            raise UsageError("slope angle must be in (0, 90) degrees")


def factor_of_safety(p: SlopeParams) -> float:
    """Resisting over driving force on the failure plane."""
    return _factor_of_safety(p.cohesion, p.friction, p.slope, p.weight, p.area)


def _factor_of_safety(cohesion, friction, slope, weight, area) -> float:
    theta = math.radians(slope)
    sin_theta = math.sin(theta)
    if sin_theta < 1e-9:
        raise UsageError("slope angle too close to zero")
    phi = math.radians(friction)
    resisting = cohesion * area + weight * math.cos(theta) * math.tan(phi)
    driving = weight * sin_theta
    if driving == 0.0:  # a subnormal weight on a near-flat plane
        raise UsageError("driving force underflows to zero")
    fs = resisting / driving
    if not math.isfinite(fs):  # e.g. a subnormal weight: the quotient overflows
        raise UsageError(
            f"factor of safety overflows: resisting force {resisting!r} "
            f"over driving force {driving!r}"
        )
    return fs


def displacement_proxy(fs: float, steepness: float = DEFAULT_STEEPNESS) -> float:
    """Movement indicator: 1 at the stability limit, decaying as FS grows.

    A proxy that overflows, or underflows to zero, is a ``UsageError``.
    """
    if fs <= 0:
        raise UsageError("factor of safety must be positive")
    try:
        proxy = math.exp(-steepness * (fs - 1.0))
    except OverflowError:  # steepness x (1 - FS) above about 709.78
        raise UsageError(
            f"steepness {steepness!r} overflows the displacement proxy at FS {fs!r}"
        ) from None
    if proxy == 0.0:  # steepness x (FS - 1) above about 745.13
        raise UsageError(
            f"steepness {steepness!r} underflows the displacement proxy at FS {fs!r}"
        )
    return proxy


def generate_table(
    *,
    ranges: dict | None = None,
    count: int = 30,
    seed: int = 0,
    steepness: float = DEFAULT_STEEPNESS,
) -> DecisionTable:
    """Seeded Latin-hypercube sample of slope parameters with the proxy
    response as decision column. Emits the standard ingestion format.

    The sample is drawn with numpy's ``default_rng(seed)``: ``somrough
    surrogate`` is the one command that needs numpy, and its tables may
    change with the installed numpy version.

    Rows are checked as a whole: ``SlopeParams`` validates the column
    minima and the column maxima, and since each of its checks bounds one
    value to an interval, both pass exactly when every row passes (the
    range checks keep every draw finite, so no NaN hides from them). If any
    ``UsageError`` is raised, the rows are run again one at a time, each
    validated and then modelled, so the error raised is the first row's,
    as if every row had been checked on its own. A count too large for
    memory is a ``DataError``.
    """
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
    if count > sys.float_info.max:  # exact: Python compares int and float exactly
        raise DataError(f"count {count} exceeds the float range")
    if count > sys.maxsize:
        raise DataError(f"count {count} exceeds the largest table size, {sys.maxsize}")
    for name, (lo, hi) in ranges.items():
        # Each draw is lo + (hi - lo) * (stratum + u) / count with
        # stratum + u < count, so a finite (hi - lo) * count keeps it finite.
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
    columns = []
    try:
        for name in names:
            lo, hi = ranges[name]
            # One stratum per row, shuffled independently per dimension.
            strata = rng.permutation(count)
            u = rng.uniform(size=count)
            columns.append((lo + (hi - lo) * (strata + u) / count).tolist())
        SlopeParams(*map(min, columns), steepness=steepness)
        SlopeParams(*map(max, columns), steepness=steepness)
        rows = [
            p + (displacement_proxy(_factor_of_safety(*p), steepness),) for p in zip(*columns)
        ]
    except MemoryError:
        raise DataError(f"count {count} is too large for memory") from None
    except UsageError:
        for p in zip(*columns):  # raises the first failing row's error
            displacement_proxy(factor_of_safety(SlopeParams(*p, steepness=steepness)), steepness)
        raise

    units = {"cohesion": "kPa", "friction": "deg", "slope": "deg", "weight": "kN", "area": "m2"}
    specs = [AttributeSpec(n, "condition", "linear", units[n]) for n in names]
    proxy_scale = infer_scale([r[-1] for r in rows])
    specs.append(AttributeSpec(DECISION_NAME, "decision", proxy_scale, "relative"))
    return DecisionTable(specs=tuple(specs), rows=tuple(rows))
