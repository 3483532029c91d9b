"""One round of one workload, in a fresh process (started by ``run.py``).

Usage::

    python benchmarks/e2e/rounds.py --workload paper-default --seed 1 \\
        --workdir <scratch dir> [--scale full|smoke] [--trace 0|1] \\
        [--spawned-at <time.monotonic()>]

Set-up (interpreter start, imports, input generation, worker pool) runs
first; then every unit of the round is timed on its own.  Set-up and
unit times are reported raw and in reference seconds
(:class:`ReferenceLoop`).  The last line of standard output is one JSON record
of the round.  With ``--trace 1`` each unit runs under ``cProfile`` and
the record also carries the layer split, the spans and profile counts.
"""

from __future__ import annotations

import argparse
import cProfile
import heapq
import json
import os
import random
import resource
import shutil
import sys
import time
from collections import defaultdict
from dataclasses import asdict
from typing import Dict, List


#: Reference-loop seconds that define one reference second (``ref_s``):
#: about one pass of :class:`ReferenceLoop` on an unloaded 2-core Xeon VM.
REF_LOOP_S = 0.05

#: Counts with no public counter, read off the profile as call counts:
#: (metric, defining file, function).
PROFILE_COUNTS = (
    ("sim.resources.solves", "sim/resources.py", "_fill_rates"),
    ("telemetry.events", "telemetry/bus.py", "emit"),
    ("core.waves", "core/configurator.py", "push_wave_configs"),
    ("core.samples_proposed", "core/optimizers/base.py", "next_sample_id"),
    ("core.rollbacks", "core/optimizers/base.py", "rollback"),
    ("core.tasks_evaluated", "core/tuner.py", "on_task_stats"),
)


class _Node:
    __slots__ = ("a", "b", "nxt")

    def __init__(self, a: int) -> None:
        self.a, self.b, self.nxt = a, a * 0.5, None


class ReferenceLoop:
    """A fixed pure-Python workload that gauges the host's current speed.

    The host's speed drifts by up to ~1.7x over seconds to minutes, as
    other tenants load the machine.  Timing this loop right before and
    after each unit converts the unit's wall time into reference seconds
    (``ref_s``): the time it would take on a host where one pass takes
    :data:`REF_LOOP_S`.  The loop chases pointers through objects, looks
    up a large dict and keeps a heap -- the simulator's kind of work --
    but runs no repro code, so a faster program still shows as faster.
    """

    def __init__(self, size: int = 50_000, seed: int = 7) -> None:
        rng = random.Random(seed)
        self.nodes = [_Node(i) for i in range(size)]
        for node in self.nodes:
            node.nxt = self.nodes[rng.randrange(size)]
        self.table = {i * 2654435761 % 1000003: node for i, node in enumerate(self.nodes)}
        self.keys = list(self.table)
        rng.shuffle(self.keys)

    def _pass(self, steps: int = 30_000) -> float:
        start = time.perf_counter()
        heap: List[tuple] = []
        node, total, keys, table = self.nodes[0], 0.0, self.keys, self.table
        for i in range(steps):
            node = node.nxt
            total += node.b + table[keys[i % len(keys)]].a
            heapq.heappush(heap, (node.b, i))
            if len(heap) > 4096:
                heapq.heappop(heap)
        return time.perf_counter() - start

    def seconds(self) -> float:
        """One pass's time, the faster of two (a lone pass can be preempted)."""
        return min(self._pass(), self._pass())


def run_round(wl, trace: bool, package_root: str, clock_zero: float) -> Dict[str, object]:
    """Time (and with *trace*, profile) every unit of *wl*.

    Each unit's wall time is also reported in reference seconds, from
    the :class:`ReferenceLoop` passes timed just before and just after it.
    """
    import layers
    from workloads import UnitResult, summarize

    classify = layers.layer_of(package_root)
    results: List[UnitResult] = []
    units: List[Dict[str, object]] = []
    counts: Dict[str, float] = defaultdict(float)
    samples: Dict[str, List[float]] = defaultdict(list)
    spans: List[Dict[str, object]] = []
    reference = ReferenceLoop()
    reading = first_reading = reference.seconds()
    round_start = time.monotonic()
    for name, run, finish in wl.units():
        profile = cProfile.Profile() if trace else None
        start = time.monotonic()
        t0 = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            handle, error = run(), ""
        except Exception as exc:  # a crashed unit is a failed unit, not a crashed round
            handle, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            if profile is not None:
                profile.disable()
        wall = time.perf_counter() - t0
        before, reading = reading, reference.seconds()
        spans.append({"name": name, "kind": "unit", "parent": "round",
                      "start": start - clock_zero, "end": start + wall - clock_zero})
        result = UnitResult(name, False, "", 0, error=error) if error else finish(handle)
        results.append(result)
        record = asdict(result)
        record["wall_s"] = wall
        record["ref_s"] = wall * REF_LOOP_S / ((before + reading) / 2)
        for key, value in record.pop("counts").items():
            counts[key] += value
        for key, values in record.pop("samples").items():
            samples[key].extend(values)
        if profile is not None:
            stats = layers.profile_stats(profile)
            record["layers_s"] = layers.self_time(stats, classify)
            for key, suffix, func in PROFILE_COUNTS:
                counts[key] += layers.call_count(stats, suffix, func)
        units.append(record)
    round_end = time.monotonic()
    out: Dict[str, object] = {
        "gauge_s": first_reading,
        "units": units,
        "counts": dict(counts),
        "samples": dict(samples),
        "wall_s": sum(u["wall_s"] for u in units),
        "wall_ref_s": sum(u["ref_s"] for u in units),
        "attempts": sum(u["attempts"] for u in units),
        "sim": summarize(results) if all(r.ok for r in results) else {},
    }
    if trace:
        spans.insert(0, {"name": "round", "kind": "round", "parent": "workload",
                         "start": round_start - clock_zero, "end": round_end - clock_zero})
        out["spans"] = spans
        if hasattr(wl, "inprocess_tasks"):
            profile = cProfile.Profile()
            for task in wl.inprocess_tasks():
                profile.enable()
                task()
                profile.disable()
            out["phases_s"] = layers.self_time(
                layers.profile_stats(profile), layers.classify_phase, layers.classify_phase_edge
            )
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def pin_to_one_cpu() -> None:
    """Run this process (and the workers it forks) on one CPU.

    The reference loop then always times the CPU the work runs on; on a
    shared host two CPUs can run at different speeds at the same time.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    spawned = time.monotonic()
    pin_to_one_cpu()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--workdir", required=True, help="scratch directory, removed at exit")
    args = parser.parse_args(argv)
    if args.spawned_at is not None:
        spawned = args.spawned_at
    import repro
    from workloads import make_workload

    package_root = os.path.dirname(repro.__file__)
    os.makedirs(args.workdir, exist_ok=True)
    wl = None
    try:
        wl = make_workload(args.workload, args.seed, args.scale, args.workdir)
        setup_s = time.monotonic() - spawned
        record = run_round(wl, bool(args.trace), package_root, spawned)
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(args.workdir, ignore_errors=True)
    record.update(
        workload=args.workload,
        seed=args.seed,
        scale=args.scale,
        traced=bool(args.trace),
        raw_setup_s=setup_s,
        setup_s=setup_s * REF_LOOP_S / record["gauge_s"],
        peak_rss_mb=peak_rss_mb(),
    )
    if args.trace:
        record["spans"].insert(0, {"name": args.workload, "kind": "workload", "parent": None,
                                   "start": 0.0, "end": time.monotonic() - spawned})
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
