"""Tests for map training, the update rule, and ordinal discretization."""

import itertools
import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from somrough import som
from somrough._record import from_json
from somrough.corpus import jeffrey_table
from somrough.errors import DataError, UsageError
from somrough.som import (
    Discretizer,
    SomConfig,
    SomMap,
    _linspace,
    assign_granule,
    fit_discretizer,
    fit_table_discretizer,
    quantization_error,
    train,
    update_step,
    winner,
)
from somrough.surrogate import generate_table
from somrough.table import json_text, scaled_matrix, transform_scale

# Coarse grid of halves: many exact ties between squared distances.
HALVES = st.integers(-8, 8).map(lambda k: k / 2)

# 51 values in [-3, 3) on a grid of quarters, some repeated, and a start.
LONG_VALUES = [(k * 37 % 24) / 4 - 3.0 for k in range(51)]
LONG_INIT = [-2.5, 2.5, 0.0, 1.0, -1.0, 0.5, -0.5]


def _kmeans1d(values, G):
    """Exact 1-D G-clustering oracle: enumerate contiguous splits, min SSE.

    Returns cluster index per position, 0 = lowest values. Independent of
    the map-based quantizer it checks.
    """
    order = sorted(range(len(values)), key=lambda i: values[i])
    sv = [values[i] for i in order]
    n = len(sv)
    best = None
    for splits in itertools.combinations(range(1, n), G - 1):
        bounds = [0, *splits, n]
        sse = 0.0
        for a, b in zip(bounds, bounds[1:]):
            mu = sum(sv[a:b]) / (b - a)
            sse += sum((v - mu) ** 2 for v in sv[a:b])
        if best is None or sse < best[0] - 1e-12:
            best = (sse, bounds)
    clusters = {}
    for ci, (a, b) in enumerate(zip(best[1], best[1][1:])):
        for pos in range(a, b):
            clusters[order[pos]] = ci
    return clusters


class TestWinner:
    def test_single_node(self):
        m = SomMap(grid=(1, 1), weights=np.array([[0.3, 0.4]]))
        assert winner(m, [9.0, 9.0]) == 0

    def test_nearest_center(self):
        m = SomMap(grid=(2, 1), weights=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert winner(m, [0.1, 0.1]) == 0

    def test_tie_breaks_low_index(self):
        m = SomMap(grid=(2, 1), weights=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert winner(m, [0.5, 0.5]) == 0

    def test_missing_components_ignored(self):
        m = SomMap(grid=(2, 1), weights=np.array([[0.0, 5.0], [1.0, 0.0]]))
        # Only the first component counts; 0.9 is closer to 1.0.
        assert winner(m, [0.9, math.nan]) == 1

    def test_dimension_mismatch(self):
        m = SomMap(grid=(1, 1), weights=np.array([[0.0, 0.0]]))
        with pytest.raises(UsageError):
            winner(m, [1.0])

    def test_idempotent_on_distinct_centers(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(size=(6, 3))
        m = SomMap(grid=(3, 2), weights=w)
        for i in range(6):
            assert winner(m, w[i]) == i


class TestUpdateStep:
    def test_contraction_factor(self):
        """One update shrinks |w - x| by exactly (1 - eta) on every updated
        node and component."""
        rng = np.random.default_rng(11)
        w = rng.uniform(size=(9, 4))
        x = rng.uniform(size=4)
        for eta in (0.25, 0.5, 1.0):
            w2 = update_step(w, x, (3, 3), eta=eta, radius=1.0)
            changed = np.any(w2 != w, axis=1)
            for i in np.where(changed)[0]:
                got = np.abs(w2[i] - x)
                want = (1.0 - eta) * np.abs(w[i] - x)
                assert np.all(np.abs(got - want) <= 1e-12)

    def test_eta_one_single_node_jumps_to_input(self):
        w = np.array([[0.2, 0.9]])
        x = np.array([0.6, 0.1])
        w2 = update_step(w, x, (1, 1), eta=1.0, radius=0.0)
        assert np.array_equal(w2[0], x)

    def test_radius_zero_updates_winner_only(self):
        w = np.array([[0.0], [1.0], [2.0]])
        w2 = update_step(w, np.array([0.1]), (3, 1), eta=0.5, radius=0.0)
        assert w2[0][0] == pytest.approx(0.05)
        assert w2[1][0] == 1.0 and w2[2][0] == 2.0

    def test_input_not_modified(self):
        w = np.array([[0.0], [1.0]])
        update_step(w, np.array([0.5]), (2, 1), eta=0.5, radius=1.0)
        assert w[0, 0] == 0.0 and w[1, 0] == 1.0


class TestTrain:
    def test_single_datum_eta_one(self):
        """First presentation at eta0 = 1 plants the weight on the datum."""
        m = train([[0.7, 0.2]], SomConfig(grid=(1, 1), epochs=1, eta0=1.0, seed=4))
        assert np.allclose(m.weights[0], [0.7, 0.2])

    def test_seeded_determinism(self):
        data = np.random.default_rng(3).uniform(size=(12, 4))
        a = train(data, SomConfig(grid=(3, 3), seed=7))
        b = train(data, SomConfig(grid=(3, 3), seed=7))
        assert np.array_equal(a.weights, b.weights)
        assert a.qe_log == b.qe_log

    def test_qe_trace_improves_on_corpus(self):
        X = scaled_matrix(jeffrey_table())
        m = train(X, SomConfig(grid=(3, 3)))
        assert m.qe_log[-1] <= m.qe_log[0]
        for before, after in zip(m.qe_log, m.qe_log[1:]):
            assert after <= before + 1e-9

    def test_empty_data_rejected(self):
        with pytest.raises(DataError):
            train([], SomConfig(grid=(2, 1)))

    @pytest.mark.parametrize("knobs, message", [
        ({"grid": (0, 1)}, "grid dimensions must be positive"),
        ({"eta0": 0.0}, r"eta0 must be in \(0, 1\]"),
        ({"eta0": 1.5}, r"eta0 must be in \(0, 1\]"),
        ({"epochs": 0}, "epochs must be positive"),
        ({"radius0": -1.0}, "radius0 must be >= 0"),
        ({"seed": -1}, "seed must be >= 0"),
    ])
    def test_config_out_of_range_refused(self, knobs, message):
        with pytest.raises(UsageError, match=message):
            SomConfig(**{"grid": (2, 1), **knobs})

    @pytest.mark.parametrize("init", [[[0.1]], [[0.1, 0.2], [0.3, 0.4]]])
    def test_init_weights_of_wrong_shape_refused(self, init):
        """One row per node, one component per data column."""
        with pytest.raises(UsageError, match="init_weights shape does not match grid"):
            train([[0.1], [0.5]], SomConfig(grid=(2, 1)), init_weights=init)

    @pytest.mark.parametrize(
        "grid, dim", [((2, 1), 1), ((3, 1), 1), ((6, 1), 1), ((2, 2), 2), ((3, 1), 3)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 2, 2**70])
    def test_default_start_is_numpy_default_rng(self, grid, dim, seed):
        """Without init_weights, a map starts from numpy's
        default_rng(seed).uniform(size=(nodes, dim)) stretched over each
        component's data range, on the G x 1 path (untraced 1-D data) and
        on the general one. One short epoch at a small rate keeps the start
        visible; in a traced map qe_log[0] is the error of the start itself."""
        x = np.random.default_rng(99).uniform(-3.0, 5.0, size=(9, dim))
        cfg = SomConfig(grid=grid, epochs=1, eta0=0.1, seed=seed)
        lo, hi = x.min(axis=0), x.max(axis=0)
        init = np.random.default_rng(seed).uniform(size=(cfg.nodes, dim)) * (hi - lo) + lo
        for trace in (True, False):
            got = train(x, cfg, trace=trace)
            want = train(x, cfg, init_weights=init, trace=trace)
            assert got.weights == want.weights
            assert got.qe_log == want.qe_log

    @pytest.mark.parametrize("trace", [True, False])
    @settings(max_examples=400, deadline=None)
    @given(
        values=st.lists(HALVES, min_size=1, max_size=8),
        init_values=st.lists(HALVES | st.floats(-10.0, 10.0), min_size=7, max_size=7),
        nodes=st.integers(2, 7),
        epochs=st.integers(1, 6),
        eta0=st.sampled_from([0.3, 0.8, 1.0]),
        radius0=st.sampled_from([None, 0.0, 1.0, 2.5, 3.7]),
    )
    @example(values=[1.5], init_values=[0.0] * 7, nodes=5, epochs=1, eta0=0.8, radius0=3.7)
    @example(
        values=[0.5, -2.0, 3.0], init_values=[1.0] * 7, nodes=7, epochs=4, eta0=0.8, radius0=3.7
    )
    # FIT_EPOCHS presentations of 50 values (the longest training that keeps
    # its rates) and of 51 (the shortest that computes them inline).
    @example(values=LONG_VALUES[:50], init_values=LONG_INIT, nodes=2, epochs=200, eta0=0.8,
             radius0=None)
    @example(values=LONG_VALUES, init_values=LONG_INIT, nodes=2, epochs=200, eta0=0.8,
             radius0=None)
    @example(values=LONG_VALUES[:50], init_values=LONG_INIT, nodes=3, epochs=200, eta0=0.8,
             radius0=None)
    @example(values=LONG_VALUES, init_values=LONG_INIT, nodes=3, epochs=200, eta0=0.8,
             radius0=None)
    @example(values=LONG_VALUES[:50], init_values=LONG_INIT, nodes=5, epochs=200, eta0=0.8,
             radius0=None)
    @example(values=LONG_VALUES, init_values=LONG_INIT, nodes=5, epochs=200, eta0=0.8,
             radius0=None)
    def test_line_fast_path_matches_update_step(
        self, trace, values, init_values, nodes, epochs, eta0, radius0
    ):
        """Untraced G x 1 maps on complete 1-D data take a plain-float
        path, traced ones the general loop; the weights of both equal
        presentation-by-presentation update_step under the same linear
        eta/radius schedule. A traced run also logs the error before
        training and after each epoch; an untraced one logs nothing.

        Values on a grid of halves give exact distance ties; radius0 = 2.5
        and 3.7 with up to six epochs let the neighborhood prefix cross
        epoch boundaries, and with one value and one epoch radius0 = 3.7
        keeps the whole run inside it. The 50- and 51-value examples put
        the unrolled winner loops of G = 2 and 3 and the general one on
        each side of the longest training whose rates are kept."""
        cfg = SomConfig(grid=(nodes, 1), epochs=epochs, eta0=eta0, radius0=radius0)
        x = np.array(values).reshape(-1, 1)
        init = np.array(init_values[:nodes]).reshape(-1, 1)
        got = train(x, cfg, init_weights=init, trace=trace)

        def qe(w):
            return quantization_error(SomMap(grid=cfg.grid, weights=w), x)

        w = init.copy()
        qe_log = [qe(w)]
        total, t = epochs * len(x), 0
        for _ in range(epochs):
            for row in x:
                frac = 1.0 - t / total
                w = update_step(w, row, cfg.grid, eta0 * frac, cfg.start_radius * frac)
                t += 1
            qe_log.append(qe(w))
        assert np.array_equal(got.weights, w)
        assert got.qe_log == (tuple(qe_log) if trace else ())

    def test_kept_rates_are_bounded(self, monkeypatch):
        """Only trainings of at most _RATES_MAX presentations keep their
        rates, and _rates keeps the schedules of at most four lengths: a
        500-row fit stores nothing, and fits on columns of six lengths up
        to 50 values store four schedules, none longer than the cap."""
        assert som._RATES_MAX == 50 * som.FIT_EPOCHS
        kept = som._rates
        lengths = []

        def spy(eta0, total):
            rates = kept(eta0, total)
            lengths.append(len(rates))
            return rates

        monkeypatch.setattr(som, "_rates", spy)
        kept.cache_clear()
        values = [(k * 7919 % 1000) / 10 for k in range(500)]
        fit_discretizer(values, 2, seed=1)
        assert lengths == [] and kept.cache_info().currsize == 0
        for n in (12, 36, 37, 39, 40, 50, 51, 99):
            fit_discretizer(values[:n], 3, seed=1)
        assert sorted(set(lengths)) == [n * som.FIT_EPOCHS for n in (12, 36, 37, 39, 40, 50)]
        info = kept.cache_info()
        assert info.misses == 6 and info.currsize == info.maxsize == 4

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.lists(
            st.lists(st.floats(-10.0, 10.0) | st.just(math.nan), min_size=2, max_size=2),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: all(any(not math.isnan(r[j]) for r in rows) for j in (0, 1))),
        line=st.booleans(),
        grid=st.sampled_from([(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)]),
        epochs=st.integers(1, 3),
        eta0=st.sampled_from([0.3, 0.8, 1.0]),
        radius0=st.sampled_from([None, 0.0, 1.0]),
        seed=st.integers(0, 99),
    )
    def test_untraced_weights_equal_traced(
        self, data, line, grid, epochs, eta0, radius0, seed
    ):
        """trace=False skips the error trace and nothing else. On complete
        1-D data this pits the plain-float G x 1 path against the general
        loop; otherwise (2-D grids, 2-D data, missing cells) both runs take
        the general loop."""
        x = np.array(data)
        if line:
            x = np.nan_to_num(x[:, :1], nan=0.5)
            grid = (grid[0] * grid[1], 1)
        cfg = SomConfig(grid=grid, epochs=epochs, eta0=eta0, radius0=radius0, seed=seed)
        traced = train(x, cfg)
        untraced = train(x, cfg, trace=False)
        assert np.array_equal(untraced.weights, traced.weights)
        assert untraced.qe_log == ()
        assert len(traced.qe_log) == epochs + 1


def _numpy_update(w, x, grid, eta, radius):
    """The map update written with numpy arrays: the winner is the masked
    argmin of squared distances, and every node within Chebyshev grid
    distance radius of it blends toward x on x's present components."""
    w = np.array(w, dtype=float)
    x = np.array(x, dtype=float)
    diff = np.where(np.isnan(x), 0.0, w - x)
    dist = np.sum(diff * diff, axis=1)
    win = int(np.argmin(dist))
    nx, ny = grid
    idx = np.arange(nx * ny)
    near = idx[np.maximum(np.abs(idx % nx - win % nx), np.abs(idx // nx - win // nx)) <= radius]
    out = w.copy()
    out[near] = np.where(np.isnan(x), w[near], (1.0 - eta) * w[near] + eta * x)
    return win, float(dist[win]), out


def _bits(rows):
    return [[float(v).hex() for v in row] for row in rows]


@settings(max_examples=400, deadline=None)
@given(
    data=st.data(),
    grid=st.sampled_from([(1, 1), (2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]),
    dim=st.integers(1, 7),
    eta=st.sampled_from([0.3, 0.8, 1.0]),
    radius=st.sampled_from([0.0, 1.0, 2.0, 2.5]) | st.floats(0.0, 2.5),
)
def test_update_and_winner_match_numpy_formula(data, grid, dim, eta, radius):
    """Plain-float winner, update_step and the winner's squared distance
    (quantization_error of x alone) equal the numpy formula bit for bit, on
    1-D and 2-D grids with missing components in x. Weights on a grid of
    halves give exact distance ties."""
    value = HALVES | st.floats(-10.0, 10.0)
    w = data.draw(
        st.lists(st.tuples(*[value] * dim), min_size=grid[0] * grid[1], max_size=grid[0] * grid[1])
    )
    x = data.draw(st.lists(value | st.just(math.nan), min_size=dim, max_size=dim))
    win, dist, want = _numpy_update(w, x, grid, eta, radius)
    som = SomMap(grid=grid, weights=tuple(w))
    assert winner(som, x) == win
    assert quantization_error(som, [x]).hex() == dist.hex()
    got = update_step(tuple(w), x, grid, eta, radius)
    assert isinstance(got, tuple) and all(isinstance(node, tuple) for node in got)
    assert _bits(got) == _bits(want.tolist())


def test_map_layer_loads_no_numpy():
    """A traced 2-D map and the helpers train and run with numpy blocked."""
    script = textwrap.dedent(
        """
        import sys

        class NoNumpy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "numpy":
                    raise ImportError("numpy is blocked")
                return None

        sys.meta_path.insert(0, NoNumpy())
        from somrough.corpus import jeffrey_table
        from somrough.som import SomConfig, quantization_error, train, update_step, winner
        from somrough.table import scaled_matrix

        x = scaled_matrix(jeffrey_table())
        m = train(x, SomConfig(grid=(3, 3)))
        assert len(m.qe_log) == 121 and m.qe_log[-1] <= m.qe_log[0]
        assert 0 <= winner(m, x[0]) < 9
        assert quantization_error(m, x) == m.qe_log[-1]
        assert len(update_step(m.weights, x[0], m.grid, 0.5, 1.0)) == 9
        assert "numpy" not in sys.modules
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert done.returncode == 0, done.stderr


class TestQuantizationError:
    def test_perfect_fit_is_zero(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0]])
        m = SomMap(grid=(2, 1), weights=data.copy())
        assert quantization_error(m, data) == 0.0

    def test_single_node_at_mean(self):
        m = SomMap(grid=(1, 1), weights=np.array([[1.0]]))
        assert quantization_error(m, [[0.0], [2.0]]) == pytest.approx(1.0)

    def test_centroid_move_does_not_increase(self):
        data = np.array([[0.0], [2.0], [10.0]])
        m = SomMap(grid=(2, 1), weights=np.array([[0.5], [10.0]]))
        before = quantization_error(m, data)
        moved = SomMap(grid=(2, 1), weights=np.array([[1.0], [10.0]]))
        assert quantization_error(moved, data) <= before


@settings(max_examples=300, deadline=None)
@given(stop=st.integers(1, 100_000), num=st.integers(2, 64))
def test_fallback_positions_match_linspace(stop, num):
    """The quantile fallback's positions are np.linspace's, bit for bit."""
    assert _linspace(stop, num) == np.linspace(0, stop, num).tolist()


class TestFitDiscretizer:
    def test_phib_partition_matches_sse_oracle(self):
        """The friction-angle column splits {25 | 35 x 9 | 40, 45}."""
        t = jeffrey_table()
        d = fit_table_discretizer(t, "phib", 3, seed=0)
        labels = [assign_granule(d, v) for v in t.column("phib")]
        km = _kmeans1d(t.column("phib"), 3)
        assert [3 - km[i] for i in range(12)] == labels
        assert labels[1] == 3  # the lone 25
        assert 25.0 < d.cuts[1] < 35.0

    def test_mvv_partition_matches_sse_oracle(self):
        """Velocity classes (log scale): high {1,3,6,8,10}, medium {2,11,12},
        low {4,5,7,9} in 1-based row ids."""
        t = jeffrey_table()
        d = fit_table_discretizer(t, "mvv", 3, seed=0)
        labels = [assign_granule(d, v) for v in t.column("mvv")]
        km = _kmeans1d(transform_scale(t.column("mvv"), "log10"), 3)
        assert [3 - km[i] for i in range(12)] == labels
        assert sorted(i + 1 for i, l in enumerate(labels) if l == 1) == [1, 3, 6, 8, 10]
        assert sorted(i + 1 for i, l in enumerate(labels) if l == 2) == [2, 11, 12]
        assert sorted(i + 1 for i, l in enumerate(labels) if l == 3) == [4, 5, 7, 9]

    def test_two_point_case(self):
        d = fit_discretizer([0.0, 10.0], 2, seed=0)
        assert d.centers[0] == pytest.approx(10.0, abs=1e-6)
        assert d.centers[1] == pytest.approx(0.0, abs=1e-6)
        assert d.cuts[0] == pytest.approx(5.0, abs=1e-6)
        assert assign_granule(d, 10.0) == 1
        assert assign_granule(d, 0.0) == 2

    def test_too_few_distinct_values(self):
        with pytest.raises(DataError):
            fit_discretizer([1.0, 1.0, 2.0], 3)
        with pytest.raises(UsageError, match="granule count must be at least 2"):
            fit_discretizer([1.0, 2.0], 1)

    def test_values_merged_by_scaling_count_once(self):
        """Min-max scaling maps 0 and 1.4e-45 to one float (0 - (-1) and
        1.4e-45 - (-1) both round to 1.0), which leaves two distinct values
        for three granules: a data error, not an IndexError."""
        with pytest.raises(DataError, match="^2 distinct values, fewer than 3 granules$"):
            fit_discretizer([0.0, -1.0, 1.4e-45], 3)

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_quantile_fallback_on_merged_values(self, seed, monkeypatch):
        """Three values after scaling (0 and 1e-300 merge), tied so that
        all six box-seeded draws fail at these seeds: the fallback seeds
        its centers on the three scaled values and separates them."""
        seeded = []

        def counting_train(data, config, init_weights=None, **kwargs):
            seeded.append(init_weights is not None)
            return train(data, config, init_weights, **kwargs)

        monkeypatch.setattr(som, "train", counting_train)
        col = [-1.0] * 6 + [-0.4135] * 2 + [0.0] * 2 + [1e-300] * 2
        d = fit_discretizer(col, 3, seed=seed)
        assert seeded == [False] * 6 + [True]
        assert [assign_granule(d, v) for v in col] == [3] * 6 + [2] * 2 + [1] * 4
        assert d.centers == (0.0, -0.41350000000000076, -1.0)

    def test_deterministic(self):
        t = jeffrey_table()
        a = fit_table_discretizer(t, "csz", 3, seed=9)
        b = fit_table_discretizer(t, "csz", 3, seed=9)
        assert a == b

    def test_heavily_tied_column_keeps_all_granules(self):
        """Long runs of one value must not starve a granule."""
        t = jeffrey_table()
        for seed in range(10):
            d = fit_table_discretizer(t, "tb", 3, seed=seed)
            labels = {assign_granule(d, v) for v in t.column("tb")}
            assert labels == {1, 2, 3}


def _ulps_up(base: float, k: int) -> float:
    for _ in range(k):
        base = math.nextafter(base, math.inf)
    return base


# Runs of adjacent floats above a base, plus one outlier: centers a start
# separates in [0, 1] can meet, or their cuts can, once mapped back.
ADJACENT_FLOAT_COLUMNS = st.builds(
    lambda base, steps, factor: ("linear", [_ulps_up(base, k) for k in steps] + [base * factor]),
    st.sampled_from([1.0, 123.456, 1e16]),
    st.lists(st.integers(0, 4), min_size=2, max_size=10),
    st.sampled_from([1.0, 1.5, 2.0, -1.0]),
)

# log10 columns that are mostly 1.0: 10 ** c of centers c near 0 is 1.0.
MOSTLY_ONE_COLUMNS = st.builds(
    lambda ones, others: ("log10", [1.0] * ones + others),
    st.integers(3, 8),
    st.lists(
        st.sampled_from([1.0000000000000002, 1.1, 2.0, 30.0, 300.0, 1e4, 1e-3]),
        min_size=1,
        max_size=4,
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    column=st.one_of(ADJACENT_FLOAT_COLUMNS, MOSTLY_ONE_COLUMNS),
    granules=st.integers(2, 5),
    seed=st.integers(0, 1000),
)
@example(column=("log10", [1.0, 1.0, 1.0, 30.0, 10000.0, 300.0]), granules=4, seed=0)
@example(
    column=(
        "linear",
        [1.0000000000000004e16, 1.0000000000000002e16, 1.0000000000000002e16,
         1.0000000000000006e16, 1.0000000000000004e16, 1e16],
    ),
    granules=3,
    seed=137,
)
# Centers near the largest float overflow when mapped back to raw units.
@example(column=("log10", [1.7976931348623157e308] * 3 + [1e300, 1e-300]), granules=3, seed=0)
def test_fit_separates_or_raises_data_error(column, granules, seed):
    """A fit returns a quantizer with no empty granule or raises
    ``DataError``; a start the ``Discretizer`` record refuses, or whose
    raw centers overflow, is a failed start, never a ``UsageError`` or an
    ``OverflowError``."""
    scale, values = column
    try:
        d = fit_discretizer(values, granules, scale=scale, seed=seed)
    except DataError:
        return
    assert {assign_granule(d, v) for v in values} == set(range(1, granules + 1))


# Reference quantizers (name, centers, cuts), recorded with the traced
# trainer. Any change to the training loop must reproduce them to the bit.
JEFFREY_G3_SEED0 = (
    ("cp", (3.0985347608447613, 2.6280034465811557, 2.0), (2.8632691037129585, 2.314001723290578)),
    ("phip", (35.0, 30.0, 25.0), (32.5, 27.5)),
    (
        "cb",
        (375587.63078350364, 299999.99999999994, 220000.0),
        (337793.8153917518, 259999.99999999997),
    ),
    ("phib", (42.548277087632044, 35.0, 25.0), (38.77413854381602, 30.0)),
    ("csz", (1500.0, 900.672358605868, 500.0), (1200.336179302934, 700.3361793029339)),
    (
        "phisz",
        (15.824229347117612, 10.000000000000002, 6.603408219091133),
        (12.912114673558808, 8.301704109545568),
    ),
    ("tp", (2710000.0, 1000000.0, 428901.4), (1855000.0, 714450.7)),
    # Six box-seeded draws fail on this heavily tied column: quantile fallback.
    ("tb", (1130000.0, 679999.9999999992, 42844.4), (904999.9999999995, 361422.1999999996)),
    (
        "tmd",
        (1.077632961225802e-06, 2.199999999999984e-11, 7.800000000000007e-16),
        (4.8690784699948586e-09, 1.309961831505021e-13),
    ),
    (
        "mvv",
        (7.871100930389467e-14, 1.1027465533789049e-15, 2.2911378457676284e-22),
        (9.316560214094315e-15, 5.026474274017745e-19),
    ),
)

# G = 4 and G = 5 keep a neighborhood (radius > 0) for the first third
# and the first half of the presentations. Columns with fewer distinct
# values than granules cannot be quantized and are left out; the others
# marked "fallback" fail all six box-seeded draws (each of which still
# runs the neighborhood prefix) and take the quantile-seeded fallback.
JEFFREY_G4_SEED0 = (
    (
        "cp",  # fallback
        (3.2, 3.000000000000001, 2.6280034465811557, 2.0),
        (3.1000000000000005, 2.8140017232905783, 2.314001723290578),
    ),
    (
        "cb",  # fallback
        (400000.0, 362800.34465811565, 299999.99999999994, 220000.0),
        (381400.1723290578, 331400.1723290578, 259999.99999999997),
    ),
    ("phib", (45.0, 40.0, 35.0, 25.0), (42.5, 37.5, 30.0)),  # fallback
    (
        "csz",  # fallback
        (1500.0, 1000.0, 799.9999999999998, 500.0),
        (1250.0, 899.9999999999999, 649.9999999999999),
    ),
    (
        "phisz",
        (20.0, 14.999999999999996, 10.000000000000002, 6.603408219091133),
        (17.5, 12.5, 8.301704109545568),
    ),
    (
        "tmd",
        (
            3.838213881700281e-06,
            5.537109383145577e-08,
            2.199999999999984e-11,
            7.800000000000007e-16,
        ),
        (4.610055324926393e-07, 1.1037046997689261e-09, 1.309961831505021e-13),
    ),
    (
        "mvv",
        (
            7.871100930389467e-14,
            1.1027465533789049e-15,
            4.1000000000000164e-22,
            1.8824725428466308e-22,
        ),
        (9.316560214094315e-15, 6.724032174858692e-19, 2.7781536000860635e-22),
    ),
)

JEFFREY_G5_SEED0 = (
    (
        "cp",  # fallback
        (3.2, 3.000000000000001, 2.75, 2.5000000000000004, 2.0),
        (3.1000000000000005, 2.8750000000000004, 2.625, 2.25),
    ),
    (
        "cb",  # fallback
        (400000.0, 375000.0000000001, 350000.0000000001, 299999.99999999994, 220000.0),
        (387500.00000000006, 362500.0000000001, 325000.0, 259999.99999999997),
    ),
    (
        "phisz",
        (19.999999999693998, 14.999999999999996, 10.000000000089393, 7.678130586708223, 5.0),
        (17.499999999847, 12.500000000044695, 8.839065293398807, 6.339065293354111),
    ),
    (
        "tmd",
        (
            8.280707388971337e-06,
            2.1366712143243092e-06,
            5.537109383145577e-08,
            2.2000000011928208e-11,
            7.800000004709051e-16,
        ),
        (
            4.206322516433764e-06,
            3.4396194890615684e-07,
            1.10370470006814e-09,
            1.309961832255578e-13,
        ),
    ),
    (
        "mvv",  # fallback
        (
            2.955764401418018e-13,
            3.260186440355699e-14,
            1.1027465533789049e-15,
            4.1000000000000164e-22,
            1.8824725428466308e-22,
        ),
        (
            9.816487672476884e-14,
            5.995964776810224e-15,
            6.724032174858692e-19,
            2.7781536000860635e-22,
        ),
    ),
)

SURROGATE_500_SEED1_G2_SEED0 = (
    ("cohesion", (67.84993471575773, 23.87270615901251), (45.86132043738512,)),
    ("friction", (23.047634724175847, 17.043438702318834), (20.04553671324734,)),
    ("slope", (45.49828596957227, 44.496607175323774), (44.99744657244803,)),
    ("weight", (1025.1432611471444, 975.1096587183678), (1000.126459932756,)),
    ("area", (40.50539853066354, 39.504873986219344), (40.00513625844144,)),
    ("displacement", (0.02531913132090321, 9.98440453849508e-08), (5.0278867297422176e-05,)),
)


class TestPinnedQuantizers:
    def test_corpus_g3(self):
        t = jeffrey_table()
        assert [n for n, _, _ in JEFFREY_G3_SEED0] == t.names
        for name, centers, cuts in JEFFREY_G3_SEED0:
            d = fit_table_discretizer(t, name, 3, seed=0)
            assert (d.centers, d.cuts) == (centers, cuts), name

    def _check_corpus(self, granules, pinned):
        t = jeffrey_table()
        fitted = {name for name, _, _ in pinned}
        for name in t.names:
            if name in fitted:
                continue
            with pytest.raises(DataError):
                fit_table_discretizer(t, name, granules, seed=0)
        for name, centers, cuts in pinned:
            d = fit_table_discretizer(t, name, granules, seed=0)
            assert (d.centers, d.cuts) == (centers, cuts), name

    def test_corpus_g4(self):
        self._check_corpus(4, JEFFREY_G4_SEED0)

    def test_corpus_g5(self):
        self._check_corpus(5, JEFFREY_G5_SEED0)

    def test_surrogate_g2(self):
        t = generate_table(count=500, seed=1)
        assert [n for n, _, _ in SURROGATE_500_SEED1_G2_SEED0] == t.names
        for name, centers, cuts in SURROGATE_500_SEED1_G2_SEED0:
            d = fit_table_discretizer(t, name, 2, seed=0)
            assert (d.centers, d.cuts) == (centers, cuts), name


class TestAssignGranule:
    CUTS = Discretizer(
        name="csz", scale="linear", centers=(1500.0, 800.0, 400.0), cuts=(1000.0, 600.0)
    )

    def test_above_all_cuts(self):
        assert assign_granule(self.CUTS, 1500.0) == 1

    def test_below_all_cuts(self):
        assert assign_granule(self.CUTS, 500.0) == 3

    def test_boundary_goes_down(self):
        assert assign_granule(self.CUTS, 1000.0) == 2

    def test_missing_stays_missing(self):
        assert assign_granule(self.CUTS, None) is None

    def test_totality_and_ordering(self):
        """Every finite value gets exactly one label, monotone in the value."""
        values = [-1e9, 0.0, 599.9, 600.0, 600.1, 999.0, 1000.0, 1001.0, 1e12]
        labels = [assign_granule(self.CUTS, v) for v in values]
        assert all(l in (1, 2, 3) for l in labels)
        for (v1, l1), (v2, l2) in itertools.combinations(zip(values, labels), 2):
            if v1 < v2:
                assert l1 >= l2


class TestDiscretizerRecords:
    """A quantizer's one written form, the JSON record of ``report.json``
    and ``discretize``, reads back to the fitted quantizer exactly."""

    @staticmethod
    def _read_back(d: Discretizer) -> Discretizer:
        return from_json(Discretizer, json.loads(json_text(d)))

    def test_roundtrip_linear(self):
        d = fit_table_discretizer(jeffrey_table(), "cb", 3, seed=0)
        assert d.scale == "linear" and self._read_back(d) == d

    def test_roundtrip_log10(self):
        """Log-scale records keep every bit of tiny velocities."""
        d = fit_table_discretizer(jeffrey_table(), "mvv", 3, seed=0)
        assert d.scale == "log10" and self._read_back(d) == d
