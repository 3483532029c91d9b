"""The central monitor's packed node-sample store and the per-sample records.

``CentralMonitor.node_samples`` keeps each ingested
:data:`~repro.monitor.statistics.NodeRow` as one 56-byte record.
Reading the records back must give the rows ingested, float bit for
float bit and with the same int and float types.
"""

import dataclasses
import inspect
import math
import struct
import tracemalloc

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


def row(sample):
    """*sample* as the row ``NodeSamples.extend`` packs."""
    return dataclasses.astuple(sample)


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
            monitor.ingest([row(sample)])
        store = monitor.node_samples
        assert len(store) == len(EDGE_SAMPLES)
        stored = [NodeStats(*record) for record in store.records()]
        assert len(stored) == len(EDGE_SAMPLES)
        for got, want in zip(stored, EDGE_SAMPLES):
            assert_same_sample(got, want)

    def test_appends_go_on_while_iterating(self):
        samples = fresh_samples(3)
        store = NodeSamples()
        store.extend(row(sample) for sample in samples)
        records = store.records()
        assert NodeStats(*next(records)) == samples[0]
        extra = NodeStats(5, 99.0, 0.5, 0.5, 2)
        store.extend([row(extra)])
        assert [NodeStats(*r) for r in records] == samples[1:]
        assert [NodeStats(*r) for r in store.records()] == [*samples, extra]
        assert len(store) == 4

    def test_records_are_the_fields_in_order(self):
        store = NodeSamples()
        store.extend(row(sample) for sample in EDGE_SAMPLES)
        records = list(store.records())
        assert [bits(NodeStats(*r)) for r in records] == [bits(s) for s in EDGE_SAMPLES]
        assert all(len(r) == len(dataclasses.fields(NodeStats)) for r in records)

    def test_ints_are_required_for_id_and_container_count(self):
        store = NodeSamples()
        with pytest.raises(struct.error):
            store.extend([row(NodeStats(1.0, 0.0, 0.0, 0.0, 0))])
        with pytest.raises(struct.error):
            store.extend([row(NodeStats(1, 0.0, 0.0, 0.0, 2.0))])
        with pytest.raises(struct.error):
            store.extend([row(NodeStats(2**63, 0.0, 0.0, 0.0, 0))])
        # A batch with one bad row keeps none of its rows.
        with pytest.raises(struct.error):
            store.extend([row(EDGE_SAMPLES[0]), row(NodeStats(1.0, 0.0, 0.0, 0.0, 0))])
        assert len(store) == 0


def test_retained_memory_per_sample_is_bounded():
    """20,000 ingested samples keep at most 80 B each (the list kept ~265 B)."""
    n = 20_000
    monitor = CentralMonitor()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        for sample in fresh_samples(n):
            monitor.ingest([row(sample)])
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(monitor.node_samples) == n
    assert (after - before) / n <= 80


class TestRecordConstructors:
    """:class:`NodeStats` and :class:`NodeSampled` build, compare and copy
    as the dataclasses they are."""

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
