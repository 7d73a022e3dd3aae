"""The in-package random stream against numpy's ``default_rng`` as oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from somrough._pcg import Stream
from somrough.table import AttributeSpec, DecisionTable, split_random, split_train_size

SEEDS = st.integers(0, 2**128) | st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**128])


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS)
def test_seeding_matches_pcg64_state(seed):
    state = np.random.PCG64(seed).state["state"]
    s = Stream(seed)
    assert (s._state, s._inc) == (state["state"], state["inc"])


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, shape=st.lists(st.integers(1, 5), min_size=1, max_size=3))
def test_uniform_fills_any_shape_in_c_order(seed, shape):
    want = np.random.default_rng(seed).uniform(size=tuple(shape)).ravel().tolist()
    assert Stream(seed).uniform(int(np.prod(shape))) == want


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, n=st.integers(0, 2000))
def test_permutation(seed, n):
    assert Stream(seed).permutation(n) == np.random.default_rng(seed).permutation(n).tolist()


@settings(max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    highs=st.lists(
        st.integers(1, 2**32) | st.sampled_from([1, 2, 3, 2**31 - 1, 2**31, 2**32 - 1, 2**32]),
        min_size=1,
        max_size=8,
    ),
)
def test_integers(seed, highs):
    rng, s = np.random.default_rng(seed), Stream(seed)
    assert [s.integers(h) for h in highs] == [int(rng.integers(h)) for h in highs]


CALLS = st.one_of(
    st.tuples(st.just("uniform"), st.integers(1, 4)),
    st.tuples(st.just("permutation"), st.integers(0, 40)),
    st.tuples(st.just("integers"), st.integers(1, 2**32)),
)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, calls=st.lists(CALLS, min_size=1, max_size=12))
def test_interleaved_calls_share_one_stream(seed, calls):
    """The buffered 32-bit half survives across calls of every kind."""
    rng, s = np.random.default_rng(seed), Stream(seed)
    for name, arg in calls:
        if name == "uniform":
            assert s.uniform(arg) == rng.uniform(size=arg).tolist()
        elif name == "permutation":
            assert s.permutation(arg) == rng.permutation(arg).tolist()
        else:
            assert s.integers(arg) == int(rng.integers(arg))


def _table(n: int) -> DecisionTable:
    specs = (AttributeSpec("x", "condition"), AttributeSpec("d", "decision"))
    return DecisionTable(specs=specs, rows=tuple((float(i), 1.0) for i in range(n)))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 2),
    n=st.integers(1, 300),
    fraction=st.sampled_from([0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0]),
)
def test_split_random_partial_shuffle(seed, n, fraction):
    """split_random runs only the steps that settle the test tail; its row
    sets equal those of a full numpy permutation."""
    table = _table(n)
    n_train = split_train_size(n, fraction)
    perm = np.random.default_rng(seed).permutation(n)
    train, test = split_random(table, fraction, seed)
    assert table.ids_in(train) == tuple(sorted(perm[:n_train].tolist()))
    assert table.ids_in(test) == tuple(sorted(perm[n_train:].tolist()))
