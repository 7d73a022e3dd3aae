"""Self-organizing map training and per-attribute ordinal discretization.

A map is a small grid of weight vectors competing for input rows; the
winning node (best-matching unit) is the one at minimum squared Euclidean
distance, and it drags its grid neighborhood toward the input by a
linearly decaying learning rate.

One-dimensional G x 1 maps double as value quantizers: their trained
centers split an attribute's range into G ordered granules, labelled
1 (highest values) through G (lowest), with cut points at the midpoints
between adjacent centers mapped back into raw units.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, islice, repeat

from . import _pcg
from ._record import Record
from .errors import DataError, UsageError
from .table import Discretizer, assign_granule, inverse_scale, scale_minmax, transform_scale

# Box-seeded starts of a quantizer fit before the quantile-seeded one: long
# runs of one value can starve a node whatever the draw.
_FIT_RETRIES = 6

# Training schedule of every quantizer fit.
FIT_EPOCHS = 200
FIT_ETA0 = 0.8


class SomConfig(Record):
    """Training knobs. ``radius0 = None`` means half the grid span."""

    grid: tuple[int, int]
    epochs: int = 120
    eta0: float = 0.8
    radius0: float | None = None
    seed: int = 0

    def __post_init__(self):
        nx, ny = self.grid
        if nx < 1 or ny < 1:
            raise UsageError("grid dimensions must be positive")
        if not 0.0 < self.eta0 <= 1.0:
            raise UsageError("eta0 must be in (0, 1]")
        if self.epochs < 1:
            raise UsageError("epochs must be positive")
        if self.radius0 is not None and self.radius0 < 0:
            raise UsageError("radius0 must be >= 0")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")

    @property
    def nodes(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def start_radius(self) -> float:
        if self.radius0 is not None:
            return float(self.radius0)
        return (max(self.grid) - 1) / 2.0


class SomMap(Record):
    """A trained map: grid dims, one weight vector per node, error trace."""

    grid: tuple[int, int]
    weights: tuple[tuple[float, ...], ...]  # one weight vector per node
    qe_log: tuple[float, ...] = ()  # error before training, then per epoch; empty if untraced

    @property
    def dim(self) -> int:
        return len(self.weights[0])


def _rows(data, dim: int | None = None) -> list[tuple[float, ...]]:
    """The rows of data as float tuples; NaN marks a missing component."""
    rows = [tuple(map(float, row)) for row in data]
    if not rows or not rows[0]:
        raise DataError("empty data")
    width = len(rows[0]) if dim is None else dim
    for row in rows:
        if len(row) != width:
            raise UsageError(f"vectors have dimension {len(row)}, map expects {width}")
    return rows


def _nearest(weights, x) -> tuple[int, float]:
    """Index of the node nearest x and its squared distance: ``(w - x) *
    (w - x)`` summed in component order over the components x has (not NaN),
    with a tie going to the lowest index."""
    best, best_d = -1, 0.0
    for i, node in enumerate(weights):
        d = 0.0
        for w, v in zip(node, x):
            if not math.isnan(v):
                d += (w - v) * (w - v)
        if best < 0 or d < best_d:
            best, best_d = i, d
    return best, best_d


def winner(som: SomMap, x) -> int:
    """Index of the best-matching unit; ties go to the lowest index."""
    (x,) = _rows([x], som.dim)
    return _nearest(som.weights, x)[0]


def quantization_error(som: SomMap, data) -> float:
    """Mean squared distance from each datum to its winning node."""
    return _qe(som.weights, _rows(data, som.dim))


def _qe(weights, rows) -> float:
    total = 0.0
    for row in rows:
        total += _nearest(weights, row)[1]
    return total / len(rows)


def neighborhood(grid: tuple[int, int], center: int, radius: float) -> list[int]:
    """Node indices within Chebyshev grid distance <= radius of center."""
    nx, ny = grid
    cx, cy = center % nx, center // nx
    return [i for i in range(nx * ny) if max(abs(i % nx - cx), abs(i // nx - cy)) <= radius]


def update_step(weights, x, grid: tuple[int, int], eta: float, radius: float):
    """One presentation: move the winner's neighborhood toward x.

    Each updated component becomes ``(1.0 - eta) * w + eta * x``, a blend
    that keeps the eta = 1 step exact; missing (NaN) components of x leave
    the corresponding weights untouched. Takes any (nodes, dim) sequence
    and returns a tuple of node tuples; the input is not modified.
    """
    near = set(neighborhood(grid, _nearest(weights, x)[0], radius))
    return tuple(
        tuple(w if math.isnan(v) else (1.0 - eta) * w + eta * v for w, v in zip(node, x))
        if i in near
        else tuple(node)
        for i, node in enumerate(weights)
    )


def train(data, config: SomConfig, init_weights=None, *, trace: bool = True) -> SomMap:
    """Train a map over the data's bounding box.

    Each row of data is a sequence of numbers, with NaN for a missing
    component. Weights start as seeded uniform draws inside the
    per-component data range (or from ``init_weights``, one row per node,
    when given). The
    rows are presented in order, epoch after epoch, in one pass of
    ``total = epochs * n`` presentations; presentation ``s`` trains at rate
    ``eta0 * (1 - s / total)`` and radius ``radius0 * (1 - s / total)``.
    The draws come from the package's own stream (``somrough._pcg``), node
    by node and component by component.

    With ``trace`` (the default) the map carries its quantization error
    before training and after every epoch in ``qe_log``. Quantizer fitting
    passes ``trace=False``: it never reads the trace, and ``qe_log`` is then
    empty. The weights do not depend on ``trace``.

    An untraced G x 1 map on one complete column trains in ``_train_line``;
    every other map applies ``update_step`` once per presentation.
    """
    rows = _rows(data)
    dim = len(rows[0])
    if init_weights is None:
        present = [[v for v in col if not math.isnan(v)] for col in zip(*rows)]
        bounds = [(min(c), max(c)) if c else (math.nan, math.nan) for c in present]
        draws = iter(_pcg.Stream(config.seed).uniform(config.nodes * dim))
        weights = tuple(
            tuple(next(draws) * (hi - lo) + lo for lo, hi in bounds) for _ in range(config.nodes)
        )
    else:
        try:
            weights = tuple(_rows(init_weights, dim))
        except (DataError, UsageError, TypeError, ValueError):
            weights = ()
        if len(weights) != config.nodes:
            raise UsageError("init_weights shape does not match grid and data dimension")

    if config.grid[1] == 1 and dim == 1 and not trace:
        values = [v for (v,) in rows]
        if not any(map(math.isnan, values)):
            return _train_line(values, config, [w for (w,) in weights])

    total = config.epochs * len(rows)
    s = 0
    qe_log = [_qe(weights, rows)] if trace else []
    for _ in range(config.epochs):
        for row in rows:
            frac = 1.0 - s / total
            weights = update_step(
                weights, row, config.grid, config.eta0 * frac, config.start_radius * frac
            )
            s += 1
        if trace:
            qe_log.append(_qe(weights, rows))
    return SomMap(grid=config.grid, weights=weights, qe_log=tuple(qe_log))


def _train_line(values: list[float], config: SomConfig, w: list[float]) -> SomMap:
    """Untraced training of a G x 1 map on complete 1-D data, on local floats.

    Quantizer fitting calls this thousands of times. All epochs stream by
    in one pass of presentations ``s = 0 .. total - 1``, each with ``frac =
    1.0 - s / total`` from its own index. The neighborhood loop stops
    itself after the first presentation whose radius ``int(radius0 *
    frac)`` is 0, whose update is the winner's alone (one presentation for
    G = 2 and the quantile fallback, two for G = 3); the rest of the stream
    moves the winner alone, since ``frac`` never increases and the radius
    stays 0 once it gets there.

    A training of at most ``_RATES_MAX`` presentations reads the rest of
    its rates from ``_rates``, the schedule that every training of that
    length shares, and moves the winners in ``_winner_only``; a longer one
    computes each rate as it goes in ``_winner_only_inline``, and keeps no
    schedule. The weights stay bit-identical to ``update_step``'s either
    way: every rate, squared distance and blended update is the same float
    expression in the same order, and strict ``<`` in node order still
    gives a tie to the lowest node.
    """
    eta0 = config.eta0
    radius0 = config.start_radius
    total = config.epochs * len(values)
    vals = chain.from_iterable(repeat(values, config.epochs))
    stream = zip(range(total), vals)
    for s, v in stream:
        frac = 1.0 - s / total
        radius = int(radius0 * frac)
        eta = eta0 * frac
        best = 0
        best_d = (v - w[0]) * (v - w[0])
        for i in range(1, len(w)):
            d = (v - w[i]) * (v - w[i])
            if d < best_d:
                best, best_d = i, d
        one_m_eta = 1.0 - eta
        for i in range(max(0, best - radius), min(len(w) - 1, best + radius) + 1):
            w[i] = one_m_eta * w[i] + eta * v
        if radius == 0:
            break
    if total <= _RATES_MAX:
        w = _winner_only(w, zip(islice(_rates(eta0, total), s + 1, None), vals))
    else:
        w = _winner_only_inline(w, stream, eta0, total)
    return SomMap(grid=config.grid, weights=tuple((wi,) for wi in w))


# Longest training whose rates _rates keeps: 50 rows at FIT_EPOCHS. A kept
# rate costs 32 bytes (a float and its slot): a 500-row table's schedule
# would hold 3.2 MB, about an eighth of its pipeline's peak RSS, and keeping
# it gave no clear gain in time there.
_RATES_MAX = 10_000


@functools.lru_cache(maxsize=4)
def _rates(eta0: float, total: int) -> tuple[float, ...]:
    """The rate ``eta0 * (1.0 - s / total)`` of each presentation ``s`` of
    a training. Every quantizer fit on a column of n present values trains
    at ``FIT_ETA0`` for ``FIT_EPOCHS * n`` presentations, so a table's fits
    share one schedule, or a few when missing cells vary n per column."""
    return tuple([eta0 * (1.0 - s / total) for s in range(total)])


def _winner_only(w: list[float], pairs) -> list[float]:
    """Move only the winner toward each ``(eta, v)`` presentation, by ``(1.0
    - eta) * w + eta * v``; G = 2 and 3 unroll onto local floats."""
    if len(w) == 2:
        w0, w1 = w
        for eta, v in pairs:
            e0 = v - w0
            e1 = v - w1
            if e1 * e1 < e0 * e0:
                w1 = (1.0 - eta) * w1 + eta * v
            else:
                w0 = (1.0 - eta) * w0 + eta * v
        return [w0, w1]
    if len(w) == 3:
        w0, w1, w2 = w
        for eta, v in pairs:
            e0 = v - w0
            e1 = v - w1
            e2 = v - w2
            d0 = e0 * e0
            d1 = e1 * e1
            d2 = e2 * e2
            if d1 < d0:
                if d2 < d1:
                    w2 = (1.0 - eta) * w2 + eta * v
                else:
                    w1 = (1.0 - eta) * w1 + eta * v
            elif d2 < d0:
                w2 = (1.0 - eta) * w2 + eta * v
            else:
                w0 = (1.0 - eta) * w0 + eta * v
        return [w0, w1, w2]
    for eta, v in pairs:
        best = 0
        e = v - w[0]
        best_d = e * e
        for i in range(1, len(w)):
            e = v - w[i]
            d = e * e
            if d < best_d:
                best, best_d = i, d
        w[best] = (1.0 - eta) * w[best] + eta * v
    return w


def _winner_only_inline(w: list[float], stream, eta0: float, total: int) -> list[float]:
    """``_winner_only`` over ``(s, v)`` presentations, each at rate ``eta0 *
    (1.0 - s / total)`` computed in the loop, for trainings too long to keep
    their schedule."""
    if len(w) == 2:
        w0, w1 = w
        for s, v in stream:
            e0 = v - w0
            e1 = v - w1
            eta = eta0 * (1.0 - s / total)
            if e1 * e1 < e0 * e0:
                w1 = (1.0 - eta) * w1 + eta * v
            else:
                w0 = (1.0 - eta) * w0 + eta * v
        return [w0, w1]
    if len(w) == 3:
        w0, w1, w2 = w
        for s, v in stream:
            e0 = v - w0
            e1 = v - w1
            e2 = v - w2
            d0 = e0 * e0
            d1 = e1 * e1
            d2 = e2 * e2
            eta = eta0 * (1.0 - s / total)
            if d1 < d0:
                if d2 < d1:
                    w2 = (1.0 - eta) * w2 + eta * v
                else:
                    w1 = (1.0 - eta) * w1 + eta * v
            elif d2 < d0:
                w2 = (1.0 - eta) * w2 + eta * v
            else:
                w0 = (1.0 - eta) * w0 + eta * v
        return [w0, w1, w2]
    for s, v in stream:
        best = 0
        e = v - w[0]
        best_d = e * e
        for i in range(1, len(w)):
            e = v - w[i]
            d = e * e
            if d < best_d:
                best, best_d = i, d
        eta = eta0 * (1.0 - s / total)
        w[best] = (1.0 - eta) * w[best] + eta * v
    return w


def fit_discretizer(
    values,
    granules: int,
    scale: str = "linear",
    seed: int = 0,
    name: str = "",
) -> Discretizer:
    """Quantize one attribute into ordered granules with a G x 1 map.

    The values pass through the attribute scale, are min-max conditioned,
    and train a 1-D map whose sorted centers define the granules. Cut
    points are midpoints between adjacent centers, computed in the
    transformed space and mapped back to raw units. A fit tries seven
    starts: six box-seeded draws with derived seeds, then centers seeded on
    quantiles of the distinct values and trained winner-only. A start fails
    when its centers or cuts collapse (the ``Discretizer`` record refuses
    them) or overflow in raw units, or when a granule is empty; a column no
    start separates is a ``DataError``. A column needs at least G distinct
    values after the conditioning: values it maps to one float count as one.
    """
    if granules < 2:
        raise UsageError("granule count must be at least 2")
    present = [v for v in values if v is not None]
    if not present:
        raise DataError("no present values to discretize")
    transformed = transform_scale(present, scale)
    scaled, (lo, hi) = scale_minmax(transformed)
    distinct = sorted(set(scaled))
    if len(distinct) < granules:
        raise DataError(f"{len(distinct)} distinct values, fewer than {granules} granules")
    data = [[v] for v in scaled]

    def build(som: SomMap) -> Discretizer | None:
        centers01 = sorted((float(w[0]) for w in som.weights), reverse=True)
        # Back out of the min-max conditioning into the transformed space.
        centers_t = [c * (hi - lo) + lo for c in centers01]
        cuts_t = [(a + b) / 2.0 for a, b in zip(centers_t, centers_t[1:])]
        try:
            d = Discretizer(
                name=name,
                scale=scale,
                centers=tuple(inverse_scale(c, scale) for c in centers_t),
                cuts=tuple(inverse_scale(c, scale) for c in cuts_t),
            )
        except (UsageError, OverflowError):  # raw centers or cuts that collapse or overflow
            return None
        got = {assign_granule(d, v) for v in present}
        return d if len(got) == granules else None

    # (seed, radius0, init_weights) of each start; the last, with no
    # neighborhood coupling, cannot starve a node.
    starts = [(seed + 1000003 * k, None, None) for k in range(_FIT_RETRIES)]
    quantiles = [[distinct[int(round(p))]] for p in _linspace(len(distinct) - 1, granules)]
    starts.append((seed, 0.0, quantiles))
    for start_seed, radius0, init in starts:
        cfg = SomConfig(
            grid=(granules, 1), epochs=FIT_EPOCHS, eta0=FIT_ETA0, radius0=radius0, seed=start_seed
        )
        d = build(train(data, cfg, init_weights=init, trace=False))
        if d is not None:
            return d
    raise DataError(f"could not separate {granules} quantizer centers")


def _linspace(stop: int, num: int) -> list[float]:
    """``np.linspace(0, stop, num)`` for stop >= 1 and num >= 2: the same
    float operations (k * (stop / (num - 1)), last point exactly stop)."""
    step = stop / (num - 1)
    return [k * step for k in range(num - 1)] + [float(stop)]


def fit_table_discretizer(table, name: str, granules: int, seed: int) -> Discretizer:
    """Fit a named discretizer for one table column using its schema scale.
    A ``DataError`` from the fit names the column: ``column 'x': ...``."""
    spec = table.spec(name)
    try:
        return fit_discretizer(table.column(name), granules, scale=spec.scale, seed=seed, name=name)
    except DataError as exc:
        raise DataError(f"column {name!r}: {exc}") from None
