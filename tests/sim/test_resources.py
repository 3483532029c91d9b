"""Tests for max-min fair flow scheduling, semaphores, and stores."""

import pytest

from repro.sim import FlowScheduler, Link, Semaphore, Simulator
from repro.sim.engine import SimulationError
from repro.sim.resources import Flow, maxmin_rates


def make(sim=None):
    sim = sim or Simulator()
    return sim, FlowScheduler(sim)


class TestMaxMin:
    def test_single_flow_gets_full_capacity(self):
        link = Link("l", 100.0)
        f = Flow([link], 10.0, event=None)
        assert maxmin_rates([f])[f] == pytest.approx(100.0)

    def test_equal_flows_split_evenly(self):
        link = Link("l", 100.0)
        flows = [Flow([link], 10.0, event=None) for _ in range(4)]
        rates = maxmin_rates(flows)
        for f in flows:
            assert rates[f] == pytest.approx(25.0)

    def test_cap_limits_flow_and_frees_bandwidth(self):
        link = Link("l", 100.0)
        capped = Flow([link], 10.0, event=None, cap=10.0)
        free = Flow([link], 10.0, event=None)
        rates = maxmin_rates([capped, free])
        assert rates[capped] == pytest.approx(10.0)
        assert rates[free] == pytest.approx(90.0)

    def test_multilink_flow_bottlenecked_by_tightest(self):
        a = Link("a", 100.0)
        b = Link("b", 30.0)
        f = Flow([a, b], 10.0, event=None)
        assert maxmin_rates([f])[f] == pytest.approx(30.0)

    def test_conservation_no_link_oversubscribed(self):
        a = Link("a", 100.0)
        b = Link("b", 50.0)
        flows = [
            Flow([a], 1, event=None),
            Flow([a, b], 1, event=None),
            Flow([b], 1, event=None, cap=10.0),
            Flow([a, b], 1, event=None),
        ]
        rates = maxmin_rates(flows)
        for link in (a, b):
            used = sum(r for f, r in rates.items() if link in f.links)
            assert used <= link.capacity + 1e-6

    def test_empty_input(self):
        assert maxmin_rates([]) == {}


class TestFlowScheduler:
    def test_single_transfer_duration(self):
        sim, sched = make()
        link = Link("disk", 100.0)
        done = sched.transfer([link], 500.0)
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(5.0)

    def test_two_equal_transfers_share_bandwidth(self):
        sim, sched = make()
        link = Link("disk", 100.0)
        d1 = sched.transfer([link], 500.0)
        d2 = sched.transfer([link], 500.0)
        sim.run_until_complete(d1)
        sim.run_until_complete(d2)
        # Both share 50 each until finishing together at t=10.
        assert sim.now == pytest.approx(10.0)

    def test_late_arrival_slows_first_flow(self):
        sim, sched = make()
        link = Link("disk", 100.0)
        d1 = sched.transfer([link], 1000.0)  # alone: 10s

        def second():
            yield sim.timeout(5.0)
            yield sched.transfer([link], 250.0)

        sim.process(second())
        sim.run_until_complete(d1)
        # First 5s at 100 => 500 left; then shared at 50 while the 250-unit
        # flow runs (5s), finishing it at t=10 with 250 left; then full
        # speed: 2.5s more => total 12.5s.
        assert sim.now == pytest.approx(12.5)

    def test_zero_transfer_completes_immediately(self):
        sim, sched = make()
        link = Link("disk", 100.0)
        done = sched.transfer([link], 0.0)
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(0.0)

    def test_capped_transfer_duration(self):
        sim, sched = make()
        link = Link("net", 100.0)
        done = sched.transfer([link], 100.0, cap=10.0)
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(10.0)

    def test_work_conservation_counter(self):
        sim, sched = make()
        link = Link("disk", 100.0)
        for amount in (100.0, 200.0, 50.0):
            sched.transfer([link], amount)
        sim.run()
        assert sched.completed_work == pytest.approx(350.0)
        assert sched.completed_flows == 3

    def test_negative_amount_rejected(self):
        sim, sched = make()
        link = Link("disk", 100.0)
        with pytest.raises(Exception):
            sched.transfer([link], -1.0)

    def test_utilization_reflects_active_flows(self):
        sim, sched = make()
        link = Link("disk", 100.0)
        assert sched.utilization(link) == 0.0
        sched.transfer([link], 1000.0, cap=40.0)
        sim.run(until=1.0)
        assert sched.utilization(link) == pytest.approx(0.4)

    def test_utilization_stable_across_repeated_polls(self):
        # The epoch cache must not change what pollers observe: repeated
        # reads without intervening mutations return identical values.
        sim, sched = make()
        link = Link("disk", 100.0)
        sched.transfer([link], 1000.0, cap=30.0)
        sim.run(until=1.0)
        first = sched.utilization(link)
        assert all(sched.utilization(link) == first for _ in range(5))
        # A mutation invalidates the cache and is observed immediately.
        sched.transfer([link], 1000.0)
        assert sched.utilization(link) == pytest.approx(1.0)

    def test_batched_utilizations_match_individual(self):
        sim, sched = make()
        a, b, c = Link("a", 100.0), Link("b", 50.0), Link("c", 80.0)
        sched.transfer([a, b], 1000.0)
        sched.transfer([b, c], 1000.0, cap=10.0)
        sched.transfer([a], 500.0)
        sim.run(until=1.0)
        batched = sched.utilizations((a, b, c))
        # Bit-identical, not approx: same flow-order accumulation.
        assert batched == tuple(sched.utilization(lnk) for lnk in (a, b, c))

    def test_link_counts_consistent_after_churn(self):
        sim, sched = make()
        a, b = Link("a", 100.0), Link("b", 100.0)
        sched.transfer([a], 100.0, label="x.1")
        sched.transfer([a, b], 100.0, label="y.1")
        sched.transfer([b], 300.0, label="x.2")
        assert sched.cancel_prefix("x.") == 2
        sim.run()
        assert sched.active_flows == 0
        assert sched._link_counts == {}
        # The scheduler keeps working after the churn.
        done = sched.transfer([a, b], 100.0)
        sim.run_until_complete(done)
        assert sched.completed_flows == 2

    def test_set_link_capacity_invalidates_cached_rates(self):
        sim, sched = make()
        link = Link("disk", 100.0)
        sched.transfer([link], 1000.0, cap=50.0)
        sim.run(until=1.0)
        assert sched.utilization(link) == pytest.approx(0.5)
        sched.set_link_capacity(link, 200.0)
        assert sched.utilization(link) == pytest.approx(0.25)

    def test_linkless_flow_runs_at_its_cap(self):
        # A flow traversing no links is bounded only by its own cap.
        sim, sched = make()
        done = sched.transfer([], 50.0, cap=10.0)
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(5.0)

    def test_zero_cap_flow_rejected_as_stalled(self):
        sim, sched = make()
        link = Link("disk", 100.0)
        with pytest.raises(Exception, match="none\\s+can make progress"):
            sched.transfer([link], 10.0, cap=0.0)

    def test_zero_cap_flow_rejected_mid_run_beside_a_progressing_flow(self):
        # Admitted, the stalled flow would ride along silently and the
        # error would surface later, from the sibling's completion.
        sim, sched = make()
        link = Link("disk", 100.0)
        sibling = sched.transfer([link], 100.0)
        sim.run(until=0.5)
        with pytest.raises(SimulationError, match="none can make progress"):
            sched.transfer([link], 10.0, cap=0.0)
        assert sched.active_flows == 1
        assert sched._link_counts == {link: 1}
        assert sim.run_until_complete(sibling) == pytest.approx(1.0)
        assert sim.now == pytest.approx(1.0)

    def test_capacity_too_small_for_any_progress_raises_at_settle(self):
        sim, sched = make()
        link = Link("disk", 100.0)
        sched.transfer([link], 10.0)
        with pytest.raises(SimulationError, match="none\\s+can make progress"):
            sched.set_link_capacity(link, 1e-13)

    @pytest.mark.parametrize("cap", [-5.0, float("nan")])
    def test_negative_or_nan_cap_rejected_before_any_state_change(self, cap):
        # Admitted, a -5 cap on a capacity-10 link would hand the
        # sibling flow a rate of 15.
        sim, sched = make()
        link = Link("net", 10.0)
        sibling = sched.transfer([link], 100.0)
        with pytest.raises(SimulationError, match="cap must be >= 0"):
            sched.transfer([link], 10.0, cap=cap)
        assert sched.active_flows == 1
        assert sched._link_counts == {link: 1}
        assert sched.utilization(link) == 1.0
        sim.run_until_complete(sibling)
        assert sim.now == pytest.approx(10.0)

    def test_nan_amount_rejected_before_any_state_change(self):
        # Admitted, a NaN amount never completes: the transfer raised
        # "none can make progress" and left the flow registered.
        sim, sched = make()
        link = Link("disk", 100.0)
        with pytest.raises(SimulationError, match="amount must be >= 0"):
            sched.transfer([link], float("nan"))
        assert sched.active_flows == 0
        assert sched._link_counts == {}
        done = sched.transfer([link], 100.0)
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(1.0)

    def test_link_rejects_nan_capacity(self):
        with pytest.raises(ValueError, match="positive capacity"):
            Link("l", float("nan"))

    def test_set_link_capacity_rejects_nan(self):
        sim, sched = make()
        link = Link("disk", 100.0)
        sched.transfer([link], 1000.0)
        with pytest.raises(SimulationError, match="positive capacity"):
            sched.set_link_capacity(link, float("nan"))
        assert link.capacity == 100.0
        assert sched.utilization(link) == 1.0

    def test_simultaneous_completions_fire_in_insertion_order(self):
        sim, sched = make()
        link = Link("disk", 100.0)
        order = []
        for tag in ("a", "b", "c"):
            done = sched.transfer([link], 300.0, label=tag)
            done.add_callback(lambda ev, tag=tag: order.append(tag))
        sim.run()
        assert order == ["a", "b", "c"]


class TestSemaphore:
    def test_acquire_release_cycle(self):
        sim = Simulator()
        sem = Semaphore(sim, capacity=2)
        order = []

        def worker(tag, hold):
            yield sem.acquire()
            order.append(("start", tag, sim.now))
            yield sim.timeout(hold)
            sem.release()
            order.append(("end", tag, sim.now))

        for tag, hold in (("a", 5.0), ("b", 5.0), ("c", 5.0)):
            sim.process(worker(tag, hold))
        sim.run()
        starts = {tag: t for kind, tag, t in order if kind == "start"}
        assert starts["a"] == 0.0
        assert starts["b"] == 0.0
        assert starts["c"] == 5.0  # had to wait for a slot

    def test_fifo_ordering(self):
        sim = Simulator()
        sem = Semaphore(sim, capacity=1)
        got = []

        def worker(tag):
            yield sem.acquire()
            got.append(tag)
            yield sim.timeout(1.0)
            sem.release()

        for tag in "abcd":
            sim.process(worker(tag))
        sim.run()
        assert got == list("abcd")

    def test_over_release_raises(self):
        sim = Simulator()
        sem = Semaphore(sim, capacity=1)
        with pytest.raises(Exception):
            sem.release()

    def test_oversized_request_rejected(self):
        sim = Simulator()
        sem = Semaphore(sim, capacity=2)
        with pytest.raises(Exception):
            sem.acquire(3)

    def test_cancel_mid_queue_preserves_fifo(self):
        # Cancel the middle waiter; the rest must still be served in
        # their original arrival order.
        sim = Simulator()
        sem = Semaphore(sim, capacity=1)
        holder = sem.acquire()
        waiters = {tag: sem.acquire() for tag in "abc"}
        assert sem.cancel(waiters["b"]) is True
        sim.run()
        assert holder.triggered

        got = []

        def collect(tag, ev):
            ev.add_callback(lambda _e: got.append(tag))

        for tag in ("a", "c"):
            collect(tag, waiters[tag])
        sem.release()  # frees the slot; 'a' is granted
        sim.run()
        assert got == ["a"]
        sem.release()
        sim.run()
        assert got == ["a", "c"]
        assert not waiters["b"].triggered

    def test_cancel_granted_but_unfired_returns_false(self):
        # An acquire that was granted (permits charged, event scheduled)
        # but has not fired yet is no longer cancellable: the caller
        # holds the permits and must release them.
        sim = Simulator()
        sem = Semaphore(sim, capacity=1)
        ev = sem.acquire()
        assert not ev.triggered  # granted, scheduled, not yet fired
        assert sem.cancel(ev) is False
        assert sem.in_use == 1
        sim.run()
        assert ev.triggered
        sem.release()
        assert sem.available == 1

    def test_cancel_unknown_event_returns_false(self):
        sim = Simulator()
        sem = Semaphore(sim, capacity=1)
        stranger = sim.event()
        assert sem.cancel(stranger) is False

    def test_cancelled_waiter_never_charged(self):
        sim = Simulator()
        sem = Semaphore(sim, capacity=2)
        a = sem.acquire(2)
        b = sem.acquire(2)
        assert sem.cancel(b) is True
        sim.run()
        assert a.triggered and not b.triggered
        assert sem.in_use == 2
        sem.release(2)
        assert sem.available == 2

    def test_multi_permit_fifo_blocks_smaller_later_request(self):
        # Strict FIFO: a 2-permit request at the head blocks a later
        # 1-permit request even when 1 permit is free.
        sim = Simulator()
        sem = Semaphore(sim, capacity=2)
        first = sem.acquire(1)
        big = sem.acquire(2)
        small = sem.acquire(1)
        sim.run()
        assert first.triggered and not big.triggered and not small.triggered
        sem.release(1)
        sim.run()
        assert big.triggered and not small.triggered
        sem.release(2)
        sim.run()
        assert small.triggered
