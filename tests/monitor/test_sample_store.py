"""The central monitor's folded node samples and the per-sample records.

``CentralMonitor.ingest`` folds each
:data:`~repro.monitor.statistics.NodeRow` into its node's running CPU
and memory means and keeps nothing per sample.  A seeded fuzz holds the
folded means to the verbatim per-node timelines of
``tests/monitor/test_sample_pins.py``, ``repr`` for ``repr``.
"""

import dataclasses
import inspect
import random
import tracemalloc
from bisect import bisect_left
from collections import defaultdict

import pytest

from repro.monitor.central_monitor import CentralMonitor
from repro.monitor.statistics import NodeStats
from repro.telemetry.events import NodeSampled
from tests.monitor.test_sample_pins import UtilizationTimeline, reference_mean


def sample(node_id, time, cpu, memory=0.0):
    return (node_id, time, cpu, memory, 0, 0.0, 0.0)


def means(monitor):
    return repr((monitor.mean_cpu_utilization(), monitor.mean_memory_utilization()))


def test_retained_memory_per_sample_is_bounded():
    """The memory kept grows with the nodes, not the samples: 20,000
    samples over 18 nodes keep under 8 KB, and 20,000 more add under
    1 KB (the packed store kept 1.25 MB, then 1.0 MB more)."""
    n = 20_000
    # Built untraced: what is measured is what the monitor keeps.
    rows = [
        (i % 18, i * 5.0, i / n, 1.0 - i / n, i % 7, i / (2 * n), i / (3 * n))
        for i in range(2 * n)
    ]
    monitor = CentralMonitor()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        for row in rows[:n]:
            monitor.ingest([row])
        middle, _peak = tracemalloc.get_traced_memory()
        for row in rows[n:]:
            monitor.ingest([row])
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(monitor.node_samples) == 2 * n
    assert middle - before < 8 * 1024
    assert after - middle < 1024


class TestDepartures:
    """Departures arrive in order with the samples, since no fold can
    take a sample back."""

    def monitor(self):
        mon = CentralMonitor()
        mon.ingest([sample(0, 0.0, 0.5, 0.25), sample(1, 0.0, 1.0), sample(0, 10.0, 1.0)])
        return mon

    def test_late_departure_raises_and_records_nothing(self):
        mon = self.monitor()
        before = means(mon)
        with pytest.raises(ValueError, match="node 0 departed at 5.0"):
            mon.on_capacity_change(0, "depart", 5.0)
        assert mon.departed_nodes == {}
        assert means(mon) == before
        # Node 0 goes on as if the report never came.
        mon.ingest([sample(0, 20.0, 0.0)])
        assert mon.mean_cpu_utilization() == (0.75 + 1.0) / 2

    def test_departure_at_the_last_sample_is_in_order(self):
        mon = self.monitor()
        mon.on_capacity_change(0, "depart", 10.0)
        mon.on_capacity_change(1, "depart", 0.0)  # left out: gone by time 0
        mon.ingest([sample(0, 20.0, 0.0)])  # after its departure: not folded
        assert mon.departed_nodes == {0: 10.0, 1: 0.0}
        assert mon.mean_cpu_utilization() == 0.5
        assert len(mon.node_samples) == 4

    def test_repeated_departure_keeps_the_first_time(self):
        mon = self.monitor()
        mon.on_capacity_change(0, "depart", 10.0)
        mon.on_capacity_change(0, "depart", 30.0)
        mon.on_capacity_change(0, "depart", 5.0)
        mon.on_capacity_change(1, "join", 0.0)
        assert mon.departed_nodes == {0: 10.0}

    def test_node_with_no_sample_may_depart_any_time(self):
        mon = self.monitor()
        mon.on_capacity_change(7, "depart", 3.0)
        mon.ingest([sample(7, 5.0, 1.0)])  # every sample after it: counts 0.0
        assert mon.mean_cpu_utilization() == (0.5 + 1.0 + 0.0) / 3


#: Values that tell one summation order from another, and -0.0.
FUZZ_VALUES = (0.0, -0.0, 0.1, 0.2, 0.5, 1.0, 1e16, -1e16)


def fuzz_value(rng):
    return rng.choice(FUZZ_VALUES) if rng.random() < 0.6 else rng.random()


def fuzz_case(rng):
    """One random run: its gaps, and its rows and departures in order.

    Returns ``(gaps, steps)``: each step is ``("rows", batch)``,
    ``("depart", node_id, time)`` or ``("probe",)``, in the order a
    monitor is fed them.  Nodes start at 0 or later, share instants and
    depart at 0, mid-run, at their last row or before their first.
    """
    nodes = rng.randint(1, 4)
    time = rng.choice((0.0, 0.0, 1.5))
    rows = []
    for _ in range(rng.randint(1, 24)):
        time += rng.choice((0.0, 0.0, 0.5, 1.0, 2.5, rng.random()))
        rows.append(sample(rng.randrange(nodes), time, fuzz_value(rng), fuzz_value(rng)))
    gaps = []
    for _ in range(rng.choice((0, 0, 1, 2))):
        start = rng.uniform(0.0, time)
        gap_node = rng.choice((None, rng.randrange(nodes)))
        gaps.append((gap_node, start, start + rng.uniform(0.0, 3.0)))
    # A departure is reported after every row earlier than it, before or
    # after the rows at its instant, but before the first later row of
    # its own node.
    times = [row[1] for row in rows]
    reports = defaultdict(list)
    for node_id in range(nodes):
        own = [t for n, t, *_ in rows if n == node_id]
        choices = [None, 0.0, rng.uniform(0.0, time)]
        if own:
            choices += [own[-1], own[0] - rng.uniform(0.0, 2.0)]
        until = rng.choice(choices)
        if until is None:
            continue
        own_later = [i for i, (n, t, *_) in enumerate(rows) if n == node_id and t > until]
        latest = own_later[0] if own_later else len(rows)
        at = rng.randint(bisect_left(times, until), latest)
        reports[at].append(("depart", node_id, until))
    steps = []
    done = 0
    for index in sorted({*reports, len(rows)}):
        while done < index:
            batch = rows[done:min(index, done + rng.randint(1, 5))]
            steps.append(("rows", batch))
            done += len(batch)
            if rng.random() < 0.3:
                steps.append(("probe",))
        steps += reports[index]
    steps.append(("probe",))
    return gaps, steps


def test_fuzzed_means_equal_the_timelines():
    rng = random.Random(2035)
    cases, probes = 2_000, 0
    for _ in range(cases):
        gaps, steps = fuzz_case(rng)
        monitor = CentralMonitor()
        for gap_node, start, end in gaps:
            monitor.begin_gap(start, end, node_id=gap_node)
        kept = 0
        cpu = defaultdict(UtilizationTimeline)
        memory = defaultdict(UtilizationTimeline)
        for step in steps:
            if step[0] == "rows":
                monitor.ingest(step[1])
                for node_id, time, c, m, *_ in step[1]:
                    if not monitor._in_gap(node_id, time):
                        kept += 1
                        cpu[node_id].add(time, c)
                        memory[node_id].add(time, m)
            elif step[0] == "depart":
                monitor.on_capacity_change(step[1], "depart", step[2])
            else:
                assert len(monitor.node_samples) == kept
                want = repr(
                    (
                        reference_mean(monitor.departed_nodes, cpu),
                        reference_mean(monitor.departed_nodes, memory),
                    )
                )
                assert means(monitor) == want, (gaps, steps)
                probes += 1
    assert probes > cases  # some probes fall mid-run


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
