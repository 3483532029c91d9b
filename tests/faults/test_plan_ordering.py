"""Draw-ordering guarantees of ``generate_fault_plan``.

The generator draws fault families in a fixed order -- legacy
(crashes/kills/degrades), then network, then elastic, then control --
each from the single ``("faults", "plan")`` stream.  Adding counts for
a *later* family must never perturb the draws of an earlier one:
that is what keeps every pinned scenario replayable when new kinds
(and new ``--kinds`` filters) are bolted on.
"""

import pytest

from repro.cluster.topology import ClusterSpec
from repro.experiments.faults import levels_for_kinds
from repro.faults import (
    CONTROL_FAULT_KINDS,
    FAULT_KINDS,
    KIND_TO_KNOB,
    Fault,
    generate_fault_plan,
    plan_from_json,
    plan_to_json,
)
from repro.sim.rng import RngRegistry

NUM_NODES = ClusterSpec().num_slaves

LEGACY = {"crashes": 1, "container_kills": 2, "degraded": 1}
NETWORK = {"link_degraded": 1, "link_flaky": 1, "rack_partitions": 1}
ELASTIC = {"decommissions": 1, "joins": 1, "spot_preempts": 1}
CONTROL = {"tuner_crashes": 1, "monitor_outages": 1, "stats_gaps": 1}


def draw(seed=7, horizon=60.0, **knobs):
    return generate_fault_plan(
        RngRegistry(seed).stream("faults", "plan"),
        num_nodes=NUM_NODES,
        horizon=horizon,
        **knobs,
    )


class TestDrawOrdering:
    @pytest.mark.parametrize(
        "base_knobs",
        [LEGACY, {**LEGACY, **NETWORK}, {**LEGACY, **NETWORK, **ELASTIC}],
        ids=["legacy", "legacy+network", "legacy+network+elastic"],
    )
    def test_control_draws_never_perturb_earlier_families(self, base_knobs):
        base = draw(**base_knobs)
        extended = draw(**base_knobs, **CONTROL)
        # The plan is time-sorted, so compare by family: the earlier
        # families' faults must be byte-identical (control kinds draw
        # strictly after them on the stream)...
        earlier = tuple(
            f for f in extended.faults if f.kind not in CONTROL_FAULT_KINDS
        )
        assert earlier == base.faults
        # ...and each control kind shows up exactly once.
        control = [f for f in extended.faults if f.kind in CONTROL_FAULT_KINDS]
        assert sorted(f.kind for f in control) == [
            "monitor_outage", "stats_gap", "tuner_crash"
        ]

    def test_same_seed_same_plan(self):
        knobs = {**LEGACY, **NETWORK, **ELASTIC, **CONTROL}
        assert draw(**knobs) == draw(**knobs)

    def test_control_windows_inside_horizon(self):
        plan = draw(tuner_crashes=2, monitor_outages=2, stats_gaps=2, horizon=50.0)
        for fault in plan.faults:
            assert 0.0 < fault.time < 50.0
            assert fault.duration > 0.0
        gaps = [f for f in plan.faults if f.kind == "stats_gap"]
        assert all(0 <= f.node_id < NUM_NODES for f in gaps)

    def test_has_control_faults_flag(self):
        assert draw(tuner_crashes=1).has_control_faults
        assert not draw(**LEGACY).has_control_faults
        assert not draw(**LEGACY).has_elastic_faults


class TestControlPlanSerialization:
    def test_json_round_trip(self):
        plan = draw(**LEGACY, **NETWORK, **ELASTIC, **CONTROL)
        assert plan_from_json(plan_to_json(plan)) == plan

    def test_control_kinds_registered(self):
        assert CONTROL_FAULT_KINDS <= set(FAULT_KINDS)
        assert CONTROL_FAULT_KINDS == {
            "tuner_crash", "monitor_outage", "stats_gap"
        }

    def test_control_fault_needs_duration(self):
        for kind in sorted(CONTROL_FAULT_KINDS):
            with pytest.raises(ValueError):
                Fault(time=1.0, kind=kind, node_id=0, duration=0.0)

    def test_describe_mentions_each_kind(self):
        crash = Fault(time=1.0, kind="tuner_crash", node_id=0, duration=2.0)
        outage = Fault(time=1.0, kind="monitor_outage", node_id=0, duration=2.0)
        gap = Fault(time=1.0, kind="stats_gap", node_id=3, duration=2.0)
        assert "tuner crash" in crash.describe()
        assert "monitor outage" in outage.describe()
        assert "stats gap" in gap.describe() and "node 3" in gap.describe()


class TestKindsFilter:
    def test_kind_to_knob_covers_control_kinds(self):
        for kind in CONTROL_FAULT_KINDS:
            assert kind in KIND_TO_KNOB

    def test_levels_for_control_kinds(self):
        levels = levels_for_kinds(("tuner_crash", "monitor_outage", "stats_gap"))
        assert levels["low"] == {
            "tuner_crashes": 1, "monitor_outages": 1, "stats_gaps": 1
        }
        # Control faults remove no nodes, so high doubles them.
        assert levels["high"] == {
            "tuner_crashes": 2, "monitor_outages": 2, "stats_gaps": 2
        }

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            draw(tuner_crashes=-1)
