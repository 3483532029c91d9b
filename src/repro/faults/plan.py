"""Declarative fault plans.

A :class:`FaultPlan` is an immutable, time-sorted list of
:class:`Fault` records -- pure data, picklable, and cheap to compare.
Plans are either built explicitly (tests pin exact scenarios) or drawn
from a dedicated RNG stream by :func:`generate_fault_plan` so the same
seed always yields the same scenario, independently of every other
random draw in the simulation (HDFS placement, dataflow noise, tuner
sampling all keep their own streams).

Plans round-trip through JSON (:func:`plan_to_json` /
:func:`plan_from_json`) so a pinned scenario can be replayed outside
:func:`generate_fault_plan` -- e.g. the ``repro faults --plan-json``
dump/load path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

#: Fault kind -> its :func:`generate_fault_plan` count knob.  The
#: ``--kinds`` filter and every knob-name check read this map; the
#: generator's signature is the only other place the knobs are named.
KIND_TO_KNOB: Dict[str, str] = {
    "node_crash": "crashes",
    "container_kill": "container_kills",
    "degrade": "degraded",
    "link_degrade": "link_degraded",
    "link_flaky": "link_flaky",
    "rack_partition": "rack_partitions",
    "node_decommission": "decommissions",
    "node_join": "joins",
    "spot_preempt": "spot_preempts",
    "tuner_crash": "tuner_crashes",
    "monitor_outage": "monitor_outages",
    "stats_gap": "stats_gaps",
}

#: The fault kinds the injector understands.
FAULT_KINDS = tuple(KIND_TO_KNOB)

#: Kinds that act on the network fabric rather than a node's CPU/disks.
#: Their presence in a plan arms the gray-failure fetch path (per-fetch
#: shuffle with timeout/retry/penalty-box recovery).
NETWORK_FAULT_KINDS = frozenset({"link_degrade", "link_flaky", "rack_partition"})

#: Kinds that change cluster membership (elastic churn).  Their presence
#: in a plan arms the elastic-cluster machinery (drain states, dynamic
#: registration, capacity-change notifications); fault-free runs and
#: legacy fault plans never construct any of it.
ELASTIC_FAULT_KINDS = frozenset({"node_decommission", "node_join", "spot_preempt"})

#: Kinds that attack the advisory control plane (tuner, central
#: monitor, slave-stats stream) instead of the data plane.  Their
#: presence in a plan arms the :class:`ControlPlaneState` choreography;
#: plans without them never construct any of it, so every pre-existing
#: digest stays byte-identical.
CONTROL_FAULT_KINDS = frozenset({"tuner_crash", "monitor_outage", "stats_gap"})

#: Range of the CPU and disk speed factors a generated ``degrade`` draws.
DEGRADE_SPAN = (0.35, 0.75)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault event.

    ``node_crash``
        The node dies permanently at ``time``: its CPU and disks freeze
        and it stops heartbeating; the RM declares it lost after the
        liveness expiry and every container on it is killed.
    ``container_kill``
        ``count`` running containers on the node are killed (transient
        preemption); the node itself stays healthy.
    ``degrade``
        The node's CPU and/or disks are slowed to ``cpu_factor`` /
        ``disk_factor`` of nominal capacity -- a straggler, not a
        failure.  With ``recover_time > 0`` the node heals back to
        nominal that many seconds after the fault lands.
    ``link_degrade``
        The node's NIC (TX and RX) is rescaled to ``net_factor`` of
        nominal bandwidth; with ``recover_time > 0`` it heals after
        that long.
    ``link_flaky``
        For ``duration`` seconds, every shuffle fetch touching the node
        fails with probability ``fail_prob`` (drawn from the dedicated
        fault RNG stream) -- a gray failure the flow scheduler cannot
        see, only the fetcher's retry loop.
    ``rack_partition``
        The rack containing the node loses its uplink for ``duration``
        seconds: cross-rack flows stall (rack-local traffic is
        unaffected).
    ``node_decommission``
        Graceful drain starting at ``time``: the node stops accepting
        new containers, running tasks finish undisturbed, and once the
        last one settles the node deregisters and leaves the cluster.
    ``node_join``
        A brand-new node registers at ``time`` and enters scheduling.
        ``node_id`` names an *anchor* node whose rack the newcomer
        joins (the new node itself gets the next sequential id).
    ``spot_preempt``
        A spot-style preemption *notice* at ``time``: the node stops
        accepting containers and ``duration`` seconds later whatever is
        still running on it is hard-killed and the node is reclaimed.
        During the grace window the AM proactively migrates the doomed
        attempts to other nodes.
    ``tuner_crash``
        The online tuner process dies at ``time`` and restarts
        ``duration`` seconds later.  While down, wave gates release
        immediately on the last-known-good configuration; on recovery
        the tuner quarantines (voids) whatever was in flight across the
        outage and resumes the search from its incumbent.  ``node_id``
        is an anchor convention only (the tuner is not node-resident).
    ``monitor_outage``
        The central monitor is unreachable for ``duration`` seconds:
        every slave-stats sample in the window is lost, and the tuner
        treats task measurements spanning the window as suspect.
    ``stats_gap``
        One slave monitor (on ``node_id``) stops reporting for
        ``duration`` seconds -- a gray control-plane failure.  The
        central monitor bridges the gap instead of reading it as idle.
    """

    time: float
    kind: str
    node_id: int
    cpu_factor: float = 1.0
    disk_factor: float = 1.0
    count: int = 1
    net_factor: float = 1.0
    fail_prob: float = 0.0
    duration: float = 0.0
    recover_time: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}, want one of {FAULT_KINDS}")
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.node_id < 0:
            raise ValueError(f"node id must be >= 0, got {self.node_id}")
        if not (0.0 < self.cpu_factor <= 1.0 and 0.0 < self.disk_factor <= 1.0):
            raise ValueError("slowdown factors must be in (0, 1]")
        if self.count < 1:
            raise ValueError("container_kill count must be >= 1")
        if not (0.0 < self.net_factor <= 1.0):
            raise ValueError(f"net_factor must be in (0, 1], got {self.net_factor}")
        if not (0.0 <= self.fail_prob < 1.0):
            raise ValueError(f"fail_prob must be in [0, 1), got {self.fail_prob}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if self.recover_time < 0:
            raise ValueError(f"recover_time must be >= 0, got {self.recover_time}")
        if self.kind == "link_flaky":
            if self.fail_prob <= 0.0:
                raise ValueError("link_flaky needs fail_prob > 0")
            if self.duration <= 0.0:
                raise ValueError("link_flaky needs duration > 0")
        if self.kind == "rack_partition" and self.duration <= 0.0:
            raise ValueError("rack_partition needs duration > 0")
        if self.kind == "spot_preempt" and self.duration <= 0.0:
            raise ValueError("spot_preempt needs duration > 0 (the grace window)")
        if self.kind in CONTROL_FAULT_KINDS and self.duration <= 0.0:
            raise ValueError(f"{self.kind} needs duration > 0 (the outage window)")

    def describe(self) -> str:
        if self.kind == "node_crash":
            return f"t={self.time:.1f}s crash node {self.node_id}"
        if self.kind == "container_kill":
            return f"t={self.time:.1f}s kill {self.count} container(s) on node {self.node_id}"
        if self.kind == "link_degrade":
            recov = f", recovers +{self.recover_time:.1f}s" if self.recover_time > 0 else ""
            return (
                f"t={self.time:.1f}s degrade link of node {self.node_id} "
                f"(net x{self.net_factor:.2f}{recov})"
            )
        if self.kind == "link_flaky":
            return (
                f"t={self.time:.1f}s flaky link on node {self.node_id} "
                f"(p={self.fail_prob:.2f} for {self.duration:.1f}s)"
            )
        if self.kind == "rack_partition":
            return (
                f"t={self.time:.1f}s partition rack of node {self.node_id} "
                f"for {self.duration:.1f}s"
            )
        if self.kind == "node_decommission":
            return f"t={self.time:.1f}s decommission node {self.node_id} (graceful drain)"
        if self.kind == "node_join":
            return f"t={self.time:.1f}s join a new node into the rack of node {self.node_id}"
        if self.kind == "spot_preempt":
            return (
                f"t={self.time:.1f}s spot-preempt notice on node {self.node_id} "
                f"(kill after {self.duration:.1f}s grace)"
            )
        if self.kind == "tuner_crash":
            return f"t={self.time:.1f}s tuner crash (restarts +{self.duration:.1f}s)"
        if self.kind == "monitor_outage":
            return f"t={self.time:.1f}s monitor outage for {self.duration:.1f}s"
        if self.kind == "stats_gap":
            return (
                f"t={self.time:.1f}s stats gap on node {self.node_id} "
                f"for {self.duration:.1f}s"
            )
        recov = f", recovers +{self.recover_time:.1f}s" if self.recover_time > 0 else ""
        return (
            f"t={self.time:.1f}s degrade node {self.node_id} "
            f"(cpu x{self.cpu_factor:.2f}, disk x{self.disk_factor:.2f}{recov})"
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults, sorted by (time, node, kind)."""

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.faults, key=lambda f: (f.time, f.node_id, f.kind))
        )
        object.__setattr__(self, "faults", ordered)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    @property
    def crashed_nodes(self) -> List[int]:
        return sorted({f.node_id for f in self.faults if f.kind == "node_crash"})

    @property
    def degraded_nodes(self) -> List[int]:
        return sorted({f.node_id for f in self.faults if f.kind == "degrade"})

    @property
    def has_network_faults(self) -> bool:
        return any(f.kind in NETWORK_FAULT_KINDS for f in self.faults)

    @property
    def has_elastic_faults(self) -> bool:
        return any(f.kind in ELASTIC_FAULT_KINDS for f in self.faults)

    @property
    def has_control_faults(self) -> bool:
        return any(f.kind in CONTROL_FAULT_KINDS for f in self.faults)

    def describe(self) -> List[str]:
        return [f.describe() for f in self.faults]


#: Fault fields serialized to JSON, in declaration order.  Defaults are
#: elided from the dump so old-kind plans stay compact and forward-
#: compatible dumps are stable under field additions.
_FAULT_FIELD_DEFAULTS = (
    ("cpu_factor", 1.0),
    ("disk_factor", 1.0),
    ("count", 1),
    ("net_factor", 1.0),
    ("fail_prob", 0.0),
    ("duration", 0.0),
    ("recover_time", 0.0),
)


def plan_to_json(plan: FaultPlan) -> str:
    """Serialize *plan* to a stable, human-editable JSON document."""
    records = []
    for f in plan.faults:
        rec = {"time": f.time, "kind": f.kind, "node_id": f.node_id}
        for name, default in _FAULT_FIELD_DEFAULTS:
            value = getattr(f, name)
            if value != default:
                rec[name] = value
        records.append(rec)
    return json.dumps({"faults": records}, indent=2, sort_keys=True)


def plan_from_json(text: str) -> FaultPlan:
    """Parse a :func:`plan_to_json` document back into a plan.

    Every malformed document raises :class:`ValueError`: bad JSON, a
    missing or unknown field, or a mistyped or out-of-range value
    (:class:`Fault`'s ``__post_init__`` checks the ranges).
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("faults"), list):
        raise ValueError("fault plan JSON must be an object with a 'faults' list")
    known = {"time", "kind", "node_id"} | {name for name, _ in _FAULT_FIELD_DEFAULTS}
    faults = []
    for rec in doc["faults"]:
        if not isinstance(rec, dict):
            raise ValueError(f"fault record must be an object, got {rec!r}")
        unknown = set(rec) - known
        if unknown:
            raise ValueError(f"unknown fault fields {sorted(unknown)}")
        try:
            faults.append(Fault(**rec))
        except TypeError as err:  # a missing field or a mistyped value
            raise ValueError(f"bad fault record {rec!r}: {err}") from None
    return FaultPlan(tuple(faults))


def generate_fault_plan(
    rng: np.random.Generator,
    num_nodes: int,
    horizon: float,
    crashes: int = 0,
    container_kills: int = 0,
    degraded: int = 0,
    link_degraded: int = 0,
    link_flaky: int = 0,
    rack_partitions: int = 0,
    decommissions: int = 0,
    joins: int = 0,
    spot_preempts: int = 0,
    tuner_crashes: int = 0,
    monitor_outages: int = 0,
    stats_gaps: int = 0,
) -> FaultPlan:
    """Draw a random fault scenario from *rng*.

    *horizon* is the expected fault-free job duration; crash times land
    in [15%, 60%] of it (late enough to destroy real work, early enough
    that recovery happens within the run), degradations start early
    ([5%, 30%]) so stragglers shape whole waves, and container kills
    spread over [20%, 80%].  Crashed and degraded node sets are
    disjoint, and at least one node is left fully healthy.

    Network faults (``link_degraded`` NIC rescales, ``link_flaky``
    fetch-failure windows, ``rack_partitions`` uplink stalls) target
    non-crashed nodes and are drawn strictly *after* every legacy draw,
    so a plan generated with only the legacy knobs is bit-identical to
    what earlier versions produced from the same stream.

    Elastic churn (``decommissions`` graceful drains, ``joins`` new
    nodes, ``spot_preempts`` notice-then-kill reclaims) follows the same
    rule: its draws come after every legacy *and* network draw.  Drain
    and preemption targets are distinct non-crashed nodes, and at least
    one seed node always stays in service.

    Control-plane faults (``tuner_crashes`` tuner restarts,
    ``monitor_outages`` central-monitor blackouts, ``stats_gaps``
    single-slave reporting gaps) are the newest family and are drawn
    strictly after every legacy, network, *and* elastic draw, keeping
    every older-knob plan bit-identical from the same stream.
    """
    if num_nodes < 1:
        raise ValueError("need at least one node")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    counts = (
        crashes, container_kills, degraded, link_degraded, link_flaky,
        rack_partitions, decommissions, joins, spot_preempts,
        tuner_crashes, monitor_outages, stats_gaps,
    )
    if min(counts) < 0:
        raise ValueError("fault counts must be >= 0")
    if crashes + decommissions + spot_preempts >= num_nodes:
        raise ValueError(
            f"{crashes} crash(es) + {decommissions} decommission(s) + "
            f"{spot_preempts} preemption(s) would empty a {num_nodes}-node cluster"
        )
    if crashes + degraded >= num_nodes:
        raise ValueError(
            f"{crashes} crash(es) + {degraded} degraded node(s) needs at least "
            f"{crashes + degraded + 1} nodes, have {num_nodes}"
        )

    faults: List[Fault] = []
    picked = rng.choice(num_nodes, size=crashes + degraded, replace=False)
    crash_nodes = sorted(int(n) for n in picked[:crashes])
    degrade_nodes = sorted(int(n) for n in picked[crashes:])
    for node_id in crash_nodes:
        t = float(rng.uniform(0.15, 0.60)) * horizon
        faults.append(Fault(time=t, kind="node_crash", node_id=node_id))
    lo, hi = DEGRADE_SPAN
    for node_id in degrade_nodes:
        t = float(rng.uniform(0.05, 0.30)) * horizon
        faults.append(
            Fault(
                time=t,
                kind="degrade",
                node_id=node_id,
                cpu_factor=float(rng.uniform(lo, hi)),
                disk_factor=float(rng.uniform(lo, hi)),
            )
        )
    healthy = [n for n in range(num_nodes) if n not in crash_nodes]
    for _ in range(container_kills):
        node_id = int(healthy[int(rng.integers(len(healthy)))])
        t = float(rng.uniform(0.20, 0.80)) * horizon
        faults.append(Fault(time=t, kind="container_kill", node_id=node_id))
    # -- network faults: every draw below is new; keep them after all
    # legacy draws so legacy-knob plans replay bit-identically.
    for _ in range(link_degraded):
        node_id = int(healthy[int(rng.integers(len(healthy)))])
        t = float(rng.uniform(0.10, 0.50)) * horizon
        faults.append(
            Fault(
                time=t,
                kind="link_degrade",
                node_id=node_id,
                net_factor=float(rng.uniform(0.20, 0.60)),
                recover_time=float(rng.uniform(0.20, 0.50)) * horizon,
            )
        )
    for _ in range(link_flaky):
        node_id = int(healthy[int(rng.integers(len(healthy)))])
        t = float(rng.uniform(0.10, 0.60)) * horizon
        faults.append(
            Fault(
                time=t,
                kind="link_flaky",
                node_id=node_id,
                fail_prob=float(rng.uniform(0.30, 0.80)),
                duration=float(rng.uniform(0.20, 0.50)) * horizon,
            )
        )
    for _ in range(rack_partitions):
        node_id = int(healthy[int(rng.integers(len(healthy)))])
        t = float(rng.uniform(0.15, 0.60)) * horizon
        faults.append(
            Fault(
                time=t,
                kind="rack_partition",
                node_id=node_id,
                duration=float(rng.uniform(0.10, 0.30)) * horizon,
            )
        )
    # -- elastic churn: drawn after all legacy and network draws for the
    # same replay-stability reason.  Drain/preemption targets are
    # sampled without replacement so one node is never both gracefully
    # drained and spot-reclaimed in a single scenario.
    if decommissions + spot_preempts > 0:
        leaving = rng.choice(len(healthy), size=decommissions + spot_preempts, replace=False)
        drain_nodes = sorted(int(healthy[i]) for i in leaving[:decommissions])
        preempt_nodes = sorted(int(healthy[i]) for i in leaving[decommissions:])
        for node_id in drain_nodes:
            t = float(rng.uniform(0.15, 0.55)) * horizon
            faults.append(Fault(time=t, kind="node_decommission", node_id=node_id))
        for node_id in preempt_nodes:
            t = float(rng.uniform(0.20, 0.60)) * horizon
            faults.append(
                Fault(
                    time=t,
                    kind="spot_preempt",
                    node_id=node_id,
                    duration=float(rng.uniform(0.08, 0.18)) * horizon,
                )
            )
    for _ in range(joins):
        anchor = int(rng.integers(num_nodes))
        t = float(rng.uniform(0.10, 0.50)) * horizon
        faults.append(Fault(time=t, kind="node_join", node_id=anchor))
    # -- control-plane faults: the newest family, drawn after every
    # legacy, network, and elastic draw so all older-knob plans replay
    # bit-identically from the same stream.  Crash/outage windows land
    # mid-run (late enough that a search is underway, early enough that
    # recovery happens within the horizon).  The tuner and the central
    # monitor are not node-resident; node 0 is an anchor convention.
    for _ in range(tuner_crashes):
        t = float(rng.uniform(0.15, 0.55)) * horizon
        faults.append(
            Fault(
                time=t,
                kind="tuner_crash",
                node_id=0,
                duration=float(rng.uniform(0.15, 0.35)) * horizon,
            )
        )
    for _ in range(monitor_outages):
        t = float(rng.uniform(0.15, 0.55)) * horizon
        faults.append(
            Fault(
                time=t,
                kind="monitor_outage",
                node_id=0,
                duration=float(rng.uniform(0.10, 0.30)) * horizon,
            )
        )
    for _ in range(stats_gaps):
        node_id = int(healthy[int(rng.integers(len(healthy)))])
        t = float(rng.uniform(0.10, 0.60)) * horizon
        faults.append(
            Fault(
                time=t,
                kind="stats_gap",
                node_id=node_id,
                duration=float(rng.uniform(0.10, 0.25)) * horizon,
            )
        )
    return FaultPlan(tuple(faults))


__all__ = [
    "CONTROL_FAULT_KINDS",
    "ELASTIC_FAULT_KINDS",
    "FAULT_KINDS",
    "KIND_TO_KNOB",
    "NETWORK_FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "generate_fault_plan",
    "plan_from_json",
    "plan_to_json",
]
