"""Counter-based RNG determinism and scalar/vector agreement."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from simflow.rng import DrawStream, keyed_int, keyed_uniform, keyed_uniform_array

keys = st.lists(st.integers(min_value=0, max_value=2**63), min_size=1, max_size=5)


@given(keys)
def test_keyed_uniform_deterministic_and_in_range(ks):
    u = keyed_uniform(*ks)
    assert u == keyed_uniform(*ks)
    assert 0.0 <= u < 1.0


def test_different_keys_differ():
    draws = {keyed_uniform(0, i) for i in range(1000)}
    assert len(draws) == 1000


def test_key_order_matters():
    assert keyed_uniform(1, 2) != keyed_uniform(2, 1)


@given(keys, st.integers(min_value=0, max_value=10))
def test_vector_matches_scalar(ks, tail_key):
    ids = np.arange(50)
    vec = keyed_uniform_array(ids, *ks, tail=(tail_key,))
    ref = [keyed_uniform(*ks, i, tail_key) for i in range(50)]
    assert list(vec) == ref


def test_vector_without_tail():
    ids = np.array([3, 1, 4, 1, 5])
    vec = keyed_uniform_array(ids, 7, 9)
    assert list(vec) == [keyed_uniform(7, 9, int(i)) for i in ids]


@given(keys, st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30))
def test_array_tail_matches_draw_streams(ks, counts):
    # entry k is draw counts[k] of the stream of entity ids[k]
    ids = np.arange(len(counts)) * 3
    vec = keyed_uniform_array(ids, *ks, tail=(np.array(counts),))
    for k, count in enumerate(counts):
        stream = DrawStream(*ks, int(ids[k]))
        for _ in range(count):
            stream.uniform()
        assert vec[k] == stream.uniform()


def test_draw_stream_counts():
    s = DrawStream(42, 1, 2)
    a, b = s.uniform(), s.uniform()
    assert a != b
    assert a == keyed_uniform(42, 1, 2, 0)
    assert b == keyed_uniform(42, 1, 2, 1)


def test_int_below():
    s = DrawStream(0)
    vals = [s.int_below(3) for _ in range(300)]
    assert set(vals) == {0, 1, 2}
    assert keyed_int(2, 5, 6) in (0, 1)


def test_rough_uniformity():
    us = keyed_uniform_array(np.arange(20000), 123)
    assert abs(us.mean() - 0.5) < 0.01
    assert abs(us.var() - 1 / 12) < 0.01
