"""Toy planar limit-equilibrium slope model.

Stands in for the heavyweight numerical forward model when generating
run tables end to end: a single rigid block on an inclined failure plane,
with a displacement proxy that decays exponentially in the factor of
safety. It preserves the qualitative signal an inversion must recover
(weaker parameters, larger movement) and nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SlopeParams:
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
    theta = math.radians(p.slope)
    if math.sin(theta) < 1e-9:
        raise UsageError("slope angle too close to zero")
    phi = math.radians(p.friction)
    resisting = p.cohesion * p.area + p.weight * math.cos(theta) * math.tan(phi)
    driving = p.weight * math.sin(theta)
    if driving == 0.0:  # a subnormal weight on a near-flat plane
        raise UsageError("driving force underflows to zero")
    return resisting / driving


def displacement_proxy(fs: float, steepness: float = DEFAULT_STEEPNESS) -> float:
    """Movement indicator: 1 at the stability limit, decaying as FS grows."""
    if fs <= 0:
        raise UsageError("factor of safety must be positive")
    return math.exp(-steepness * (fs - 1.0))


def generate_table(
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
    """
    ranges = dict(DEFAULT_RANGES if ranges is None else ranges)
    unknown = set(ranges) - set(DEFAULT_RANGES)
    if unknown:
        raise DataError(f"unknown parameter ranges: {sorted(unknown)}")
    for name, lo_hi in DEFAULT_RANGES.items():
        ranges.setdefault(name, lo_hi)
    if count < 1:
        raise UsageError("count must be >= 1")
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
    samples = {}
    for name in names:
        lo, hi = ranges[name]
        # One stratum per row, shuffled independently per dimension.
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
