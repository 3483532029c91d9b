"""Reproducibility guarantees across the whole stack.

The evaluation's credibility rests on determinism: the same seed must
replay identically across processes and be insensitive to unrelated
global state (how many jobs ran before, which RNG streams were used by
other subsystems).
"""

import numpy as np

from repro.cluster.topology import ClusterSpec
from repro.core.tuner import OnlineTuner, TuningStrategy
from repro.experiments.harness import SimCluster
from repro.workloads.suite import make_job_spec, terasort_case

SMALL = ClusterSpec(num_slaves=4, racks=(2, 2))


def run_once(seed, warmup_jobs=0):
    """One Terasort run, optionally after unrelated jobs on other clusters."""
    for w in range(warmup_jobs):
        sc_w = SimCluster(seed=99 + w, cluster_spec=SMALL, start_monitors=False)
        sc_w.run_job(make_job_spec(terasort_case(1.0), sc_w.hdfs))
    sc = SimCluster(seed=seed, cluster_spec=SMALL, start_monitors=False)
    return sc.run_job(make_job_spec(terasort_case(3.0), sc.hdfs))


class TestReplay:
    def test_same_seed_same_everything(self):
        a = run_once(7)
        b = run_once(7)
        assert a.duration == b.duration
        assert a.counters.snapshot() == b.counters.snapshot()
        assert [s.node_id for s in a.task_stats] == [s.node_id for s in b.task_stats]

    def test_insensitive_to_prior_jobs(self):
        """Global ID counters (jobs, containers, samples) must not leak
        into the physics of an independently seeded cluster."""
        clean = run_once(7)
        after_warmup = run_once(7, warmup_jobs=2)
        assert clean.duration == after_warmup.duration
        assert clean.counters.snapshot() == after_warmup.counters.snapshot()

    def test_tuned_run_replays(self, monkeypatch):
        monkeypatch.setattr("repro.core.tuner.CONSERVATIVE_WINDOW", 6)

        def tuned(seed):
            sc = SimCluster(seed=seed, cluster_spec=SMALL, start_monitors=False)
            spec = make_job_spec(terasort_case(3.0), sc.hdfs)
            tuner = OnlineTuner(
                TuningStrategy.CONSERVATIVE,
                rng=np.random.default_rng(seed),
            )
            am = tuner.submit(sc, spec)
            return sc.sim.run_until_complete(am.completion)

        a, b = tuned(5), tuned(5)
        assert a.duration == b.duration

    def test_seed_changes_placement(self):
        sc_a = SimCluster(seed=1, cluster_spec=SMALL, start_monitors=False)
        sc_b = SimCluster(seed=2, cluster_spec=SMALL, start_monitors=False)
        fa = sc_a.hdfs.create_file("/x", 10 * sc_a.hdfs.block_size)
        fb = sc_b.hdfs.create_file("/x", 10 * sc_b.hdfs.block_size)
        locs_a = [tuple(loc.node_id for loc in blk.locations) for blk in fa.blocks]
        locs_b = [tuple(loc.node_id for loc in blk.locations) for blk in fb.blocks]
        assert locs_a != locs_b
