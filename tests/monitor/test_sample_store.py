"""The central monitor's packed node-sample store and the per-sample records.

``CentralMonitor.node_samples`` keeps each :class:`NodeStats` as one
56-byte record.  Reading it back must give samples equal to the ones
ingested, float bit for float bit and with the same int and float types,
through every part of the sequence protocol a list offered.
:class:`NodeStats` and :class:`NodeSampled` have hand-written
``__init__``s that must behave as the generated ones did.
"""

import dataclasses
import inspect
import math
import struct
import tracemalloc
from collections.abc import Sequence

import pytest

from repro.monitor.central_monitor import CentralMonitor
from repro.monitor.statistics import NodeSamples, NodeStats
from repro.telemetry.events import NodeSampled

INT_FIELDS = ("node_id", "running_containers")

#: Samples whose values a float64 or int64 record must keep exactly.
EDGE_SAMPLES = [
    NodeStats(0, 0.0, 0.0, 0.0, 0),
    NodeStats(2**31, -0.0, math.inf, -math.inf, 2**40, math.nan, 5e-324),
    NodeStats(2**63 - 1, 1e308, -1e-308, 0.1 + 0.2, -(2**63), -math.nan, 1.0 - 2**-53),
    NodeStats(-1, 123456.789, 1.0, 0.5, 7, 0.25, 0.125),
]


def bits(sample):
    """Field values with each float as its 8 raw bytes (NaN-safe equality)."""
    return tuple(
        struct.pack("<d", v) if isinstance(v, float) else v
        for v in dataclasses.astuple(sample)
    )


def assert_same_sample(got, want):
    assert bits(got) == bits(want)
    for f in dataclasses.fields(NodeStats):
        assert type(getattr(got, f.name)) is (int if f.name in INT_FIELDS else float)


def fresh_samples(n):
    """*n* distinct samples over 18 nodes, none sharing a float object."""
    return [
        NodeStats(i % 18, i * 5.0, i / n, 1.0 - i / n, i % 7, i / (2 * n), i / (3 * n))
        for i in range(n)
    ]


class TestRoundTrip:
    def test_edge_values_round_trip_bit_for_bit(self):
        monitor = CentralMonitor()
        for sample in EDGE_SAMPLES:
            monitor.on_node_stats(sample)
        store = monitor.node_samples
        assert len(store) == len(EDGE_SAMPLES)
        for i, want in enumerate(EDGE_SAMPLES):
            assert_same_sample(store[i], want)
            assert_same_sample(store[i - len(EDGE_SAMPLES)], want)
        for got, want in zip(store, EDGE_SAMPLES):
            assert_same_sample(got, want)
        for got, want in zip(store[1:], EDGE_SAMPLES[1:]):
            assert_same_sample(got, want)

    def test_records_are_the_fields_in_order(self):
        store = NodeSamples()
        for sample in EDGE_SAMPLES:
            store.append(sample)
        records = list(store.records())
        assert [bits(NodeStats(*r)) for r in records] == [bits(s) for s in EDGE_SAMPLES]
        assert all(len(r) == len(dataclasses.fields(NodeStats)) for r in records)

    def test_ints_are_required_for_id_and_container_count(self):
        store = NodeSamples()
        with pytest.raises(struct.error):
            store.append(NodeStats(1.0, 0.0, 0.0, 0.0, 0))
        with pytest.raises(struct.error):
            store.append(NodeStats(1, 0.0, 0.0, 0.0, 2.0))
        with pytest.raises(struct.error):
            store.append(NodeStats(2**63, 0.0, 0.0, 0.0, 0))
        assert len(store) == 0


class TestSequenceProtocol:
    def filled(self, n=5):
        samples = fresh_samples(n)
        store = NodeSamples()
        for sample in samples:
            store.append(sample)
        return store, samples

    def test_is_a_sequence(self):
        store, samples = self.filled()
        assert isinstance(store, Sequence)
        assert len(store) == len(samples)
        assert list(store) == samples
        assert list(reversed(store)) == samples[::-1]
        assert samples[3] in store
        assert NodeStats(99, 0.0, 0.0, 0.0, 0) not in store
        assert store.index(samples[2]) == 2
        assert store.count(samples[4]) == 1

    def test_indexing_matches_a_list(self):
        store, samples = self.filled()
        n = len(samples)
        for i in range(-n, n):
            assert store[i] == samples[i]
        for i in (n, n + 1, -n - 1, -n - 5):
            with pytest.raises(IndexError):
                store[i]
        with pytest.raises(IndexError):
            NodeSamples()[0]
        with pytest.raises(IndexError):
            NodeSamples()[-1]
        with pytest.raises(TypeError):
            store[1.0]

    @pytest.mark.parametrize(
        "index",
        [slice(None), slice(1, 3), slice(-2, None), slice(None, None, -1),
         slice(None, None, 2), slice(4, 1, -2), slice(3, 1), slice(10, 20)],
    )
    def test_slices_match_a_list(self, index):
        store, samples = self.filled()
        assert store[index] == samples[index]

    def test_appends_go_on_while_iterating(self):
        store, samples = self.filled(3)
        iterator = iter(store)
        records = store.records()
        assert next(iterator) == samples[0]
        extra = NodeStats(5, 99.0, 0.5, 0.5, 2)
        store.append(extra)
        assert list(iterator) == samples[1:]
        assert len(list(records)) == 3
        assert store[-1] == extra
        assert len(store) == 4


def test_retained_memory_per_sample_is_bounded():
    """20,000 ingested samples keep at most 80 B each (the list kept ~265 B)."""
    n = 20_000
    monitor = CentralMonitor()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        for sample in fresh_samples(n):
            monitor.on_node_stats(sample)
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(monitor.node_samples) == n
    assert (after - before) / n <= 80


class TestRecordConstructors:
    """The hand-written ``__init__``s behave as the generated ones did."""

    @pytest.mark.parametrize("cls", [NodeStats, NodeSampled])
    def test_init_lives_in_its_own_module(self, cls):
        module = inspect.getmodule(cls)
        assert cls.__init__.__code__.co_filename == module.__file__

    @pytest.mark.parametrize("cls", [NodeStats, NodeSampled])
    def test_signature_follows_the_fields(self, cls):
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        fields = dataclasses.fields(cls)
        assert [p.name for p in params] == [f.name for f in fields]
        for p, f in zip(params, fields):
            want = inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
            assert p.default == want
            assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD

    def test_node_stats(self):
        s = NodeStats(3, 5.0, 0.25, 0.5, 2)
        assert (s.rx_utilization, s.tx_utilization) == (0.0, 0.0)
        assert s == NodeStats(
            node_id=3, time=5.0, cpu_utilization=0.25, memory_utilization=0.5,
            running_containers=2, rx_utilization=0.0, tx_utilization=0.0,
        )
        assert s != NodeStats(3, 5.0, 0.25, 0.5, 2, 0.1)
        moved = dataclasses.replace(s, time=10.0, tx_utilization=0.75)
        assert dataclasses.astuple(moved) == (3, 10.0, 0.25, 0.5, 2, 0.0, 0.75)
        assert repr(s) == (
            "NodeStats(node_id=3, time=5.0, cpu_utilization=0.25, "
            "memory_utilization=0.5, running_containers=2, rx_utilization=0.0, "
            "tx_utilization=0.0)"
        )
        s.time = 6.0  # still a plain mutable dataclass
        assert s.time == 6.0
        with pytest.raises(TypeError):
            NodeStats(3, 5.0, 0.25, 0.5)

    def test_node_sampled(self):
        stats = NodeStats(3, 5.0, 0.25, 0.5, 2)
        ev = NodeSampled(5.0, stats)
        assert ev == NodeSampled(time=5.0, stats=stats)
        assert ev != NodeSampled(10.0, stats)
        assert (NodeSampled().time, NodeSampled().stats) == (0.0, None)
        assert [f.name for f in dataclasses.fields(ev)] == ["time", "stats"]
        assert dataclasses.replace(ev, time=7.5) == NodeSampled(7.5, stats)
        assert ev.to_record()["running_containers"] == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.time = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.stats = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            del ev.time
        assert ev.__dataclass_params__.frozen
