"""Tests for the metric store: every series is one ring column."""

import numpy as np
import pytest

from repro.monitoring import MetricStore, RingColumnBlock
from repro.util import MonitoringError


def _oracle(samples, capacity, t_from, t_to):
    """Plain-list model of one ring: the newest ``capacity`` samples with
    ``t_from <= t < t_to``, oldest first."""
    return [(t, v) for t, v in samples[-capacity:] if t_from <= t < t_to]


def _window(store, series, t_from, t_to):
    t, v = store.window(series, t_from, t_to)
    return list(zip(t.tolist(), v.tolist()))


def test_ring_append_and_last():
    store = MetricStore(capacity_per_series=4)
    store.record("s", 1.0, 10.0)
    store.record("s", 2.0, 20.0)
    assert len(store.window("s", 0.0, 1e9)[0]) == 2
    assert store.last("s") == (2.0, 20.0)


def test_ring_empty_last_raises():
    store = MetricStore(capacity_per_series=4)
    store.add_block(["s"])  # reserved, never written
    with pytest.raises(MonitoringError):
        store.last("s")


def test_ring_wraps_and_keeps_latest():
    store = MetricStore(capacity_per_series=3)
    for i in range(10):
        store.record("s", float(i), float(i * 100))
    t, v = store.window("s", 0.0, 100.0)
    assert list(t) == [7.0, 8.0, 9.0]
    assert list(v) == [700.0, 800.0, 900.0]


def test_ring_window_bounds():
    store = MetricStore(capacity_per_series=10)
    for i in range(5):
        store.record("s", float(i), float(i))
    t, _ = store.window("s", 1.0, 3.0)  # [from, to)
    assert list(t) == [1.0, 2.0]


def test_ring_capacity_validation():
    with pytest.raises(MonitoringError):
        RingColumnBlock(columns=1, capacity=0)
    with pytest.raises(MonitoringError):
        MetricStore(capacity_per_series=0).record("s", 0.0, 1.0)


def test_store_record_and_stats():
    store = MetricStore()
    for i in range(10):
        store.record("node.power_w", float(i), 100.0 + i)
    stats = store.stats("node.power_w", 0.0, 10.0)
    assert stats.count == 10
    assert stats.mean == pytest.approx(104.5)
    assert stats.minimum == 100.0
    assert stats.maximum == 109.0


def test_store_stats_empty_window():
    store = MetricStore()
    store.record("s", 0.0, 1.0)
    stats = store.stats("s", 100.0, 200.0)
    assert stats.count == 0
    assert np.isnan(stats.mean)


def test_store_unknown_series_raises():
    with pytest.raises(MonitoringError):
        MetricStore().last("ghost")


def test_store_series_names_and_has():
    store = MetricStore()
    store.record("b", 0.0, 1.0)
    store.record("a", 0.0, 1.0)
    assert store.series_names() == ["a", "b"]
    assert store.has_series("a") and not store.has_series("c")


def test_store_bounded_memory():
    store = MetricStore(capacity_per_series=16)
    for i in range(10_000):
        store.record("s", float(i), 0.0)
    t, _ = store.window("s", 0.0, 1e9)
    assert len(t) == 16


# -- wraparound boundaries -----------------------------------------------------
#
# The probes lean on rings behaving exactly at the wrap seams: a month-long
# campaign wraps every series many times over, and a off-by-one at capacity
# would silently clip window queries and stats.


def _filled(capacity, n):
    store = MetricStore(capacity_per_series=capacity)
    samples = [(float(i), float(i * 10)) for i in range(n)]
    for t, v in samples:
        store.record("s", t, v)
    return store, samples


def test_ring_exactly_at_capacity_keeps_everything():
    store, samples = _filled(8, 8)
    assert _window(store, "s", 0.0, 100.0) == _oracle(samples, 8, 0.0, 100.0)
    assert len(_window(store, "s", 0.0, 100.0)) == 8
    assert store.last("s") == (7.0, 70.0)


def test_ring_capacity_plus_one_drops_only_oldest():
    store, samples = _filled(8, 9)
    got = _window(store, "s", 0.0, 100.0)
    assert got == _oracle(samples, 8, 0.0, 100.0)
    assert [t for t, _ in got] == [float(i) for i in range(1, 9)]
    assert store.last("s") == (8.0, 80.0)
    # the evicted sample is gone even from a window that would contain it
    assert _window(store, "s", 0.0, 1.0) == []


def test_ring_multiple_full_wraps_window_and_order():
    # 5 capacity, 23 appends: head lands mid-buffer after 4+ wraps
    store, samples = _filled(5, 23)
    got = _window(store, "s", 0.0, 1000.0)
    assert got == _oracle(samples, 5, 0.0, 1000.0)
    assert [t for t, _ in got] == [18.0, 19.0, 20.0, 21.0, 22.0]
    # window straddling the physical wrap point stays chronological
    assert _window(store, "s", 19.0, 22.0) == _oracle(samples, 5, 19.0, 22.0)
    assert store.last("s") == samples[-1]


def test_stats_at_capacity_boundaries():
    store = MetricStore(capacity_per_series=4)
    for i in range(4):  # exactly at capacity
        store.record("s", float(i), float(i))
    stats = store.stats("s", 0.0, 10.0)
    assert (stats.count, stats.minimum, stats.maximum) == (4, 0.0, 3.0)
    assert stats.mean == pytest.approx(1.5)

    store.record("s", 4.0, 4.0)  # capacity + 1: oldest sample evicted
    stats = store.stats("s", 0.0, 10.0)
    assert (stats.count, stats.minimum, stats.maximum) == (4, 1.0, 4.0)
    assert stats.mean == pytest.approx(2.5)

    for i in range(5, 13):  # several more full wraps
        store.record("s", float(i), float(i))
    stats = store.stats("s", 0.0, 100.0)
    assert (stats.count, stats.minimum, stats.maximum) == (4, 9.0, 12.0)


def test_store_block_column_is_live():
    # probes write their reserved block directly; the block and record()
    # must hit the same column
    store = MetricStore(capacity_per_series=4)
    block = store.add_block(["node.cpu"])
    block.append(0, 1.0, 0.5)
    store.record("node.cpu", 2.0, 0.7)
    assert block.count(0) == 2
    assert store.last("node.cpu") == (2.0, 0.7)


# -- column blocks -------------------------------------------------------------
#
# The park sweeps append one sample to many columns with a single scatter;
# every column must keep exactly the samples a plain list would, including
# across the wrap seams.


def test_column_ring_matches_ring_buffer_through_wraps():
    block = RingColumnBlock(columns=3, capacity=5)
    oracles = [[] for _ in range(3)]
    for i in range(23):  # multiple full wraps
        values = [float(i), float(i * 10), float(-i)]
        block.append_rows(np.arange(3), float(i), np.array(values))
        for oracle, v in zip(oracles, values):
            oracle.append((float(i), v))
    for col, oracle in enumerate(oracles):
        assert block.count(col) == 5
        assert block.last(col) == oracle[-1]
        for t_from, t_to in ((0.0, 1000.0), (19.0, 22.0)):  # 2nd straddles
            t, v = block.window(col, t_from, t_to)          # the wrap
            assert list(zip(t.tolist(), v.tolist())) == \
                _oracle(oracle, 5, t_from, t_to)


def test_column_ring_scalar_and_scatter_appends_interleave():
    block = RingColumnBlock(columns=2, capacity=4)
    block.append(0, 0.0, 1.0)                                       # scalar
    block.append_rows(np.array([0, 1]), 1.0, np.array([2.0, 9.0]))  # scatter
    block.append(0, 2.0, 3.0)                                 # scalar again
    t, v = block.window(0, 0.0, 10.0)
    assert list(t) == [0.0, 1.0, 2.0]
    assert list(v) == [1.0, 2.0, 3.0]
    assert block.count(1) == 1


def test_column_ring_empty_last_raises():
    with pytest.raises(MonitoringError):
        RingColumnBlock(columns=2, capacity=4).last(1)


def test_store_add_block_guards():
    store = MetricStore(capacity_per_series=4)
    block = store.add_block(["n1.power_w", "n2.power_w"])
    # reserved columns stay hidden until they hold a sample
    assert not store.has_series("n1.power_w")
    assert store.series_names() == []
    with pytest.raises(MonitoringError, match="unknown series"):
        store.window("n1.power_w", 0.0, 1.0)
    store.record("n1.power_w", 1.0, 50.0)  # lands in the block's column
    assert block.last(0) == (1.0, 50.0)
    assert store.series_names() == ["n1.power_w"]
    # a stored name, reserved or recorded, is never handed out twice
    with pytest.raises(MonitoringError, match="n2.power_w"):
        store.add_block(["n3.power_w", "n2.power_w"])
    store.record("plain", 0.0, 1.0)
    with pytest.raises(MonitoringError, match="plain"):
        store.add_block(["plain"])
    with pytest.raises(MonitoringError):
        store.add_block(["n4.power_w", "n4.power_w"])
    assert not store.has_series("n3.power_w")  # a refused block left nothing
    store.record("n3.power_w", 2.0, 1.0)       # so the name is still free
    assert store.last("n3.power_w") == (2.0, 1.0)
