"""Tests for the event calendar and clock."""

import pytest

from repro.sim import Simulator
from repro.sim.engine import SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    for delay in (3.0, 1.0, 2.0):
        ev = sim.timeout(delay, value=delay)
        ev.add_callback(lambda e: fired.append(e.value))
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_ties_broken_by_schedule_order():
    sim = Simulator()
    fired = []
    for tag in "abc":
        ev = sim.timeout(1.0, value=tag)
        ev.add_callback(lambda e: fired.append(e.value))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(sim.event(), delay=-1.0)


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.timeout(10.0).add_callback(lambda e: fired.append("late"))
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert fired == []
    sim.run()
    assert fired == ["late"]
    assert sim.now == 10.0


def test_run_until_complete_returns_value():
    sim = Simulator()
    ev = sim.timeout(2.0, value="done")
    assert sim.run_until_complete(ev) == "done"


def test_run_until_complete_raises_on_drained_calendar():
    sim = Simulator()
    ev = sim.event()  # never triggered
    with pytest.raises(SimulationError):
        sim.run_until_complete(ev)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.timeout(1.0)
    ev.add_callback(lambda e: fired.append(1))
    ev.cancel()
    sim.run()
    assert fired == []


def test_call_at_runs_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.call_at(4.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.0]


def test_call_at_rejects_past():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_event_cannot_fire_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    sim.run()
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_under_reserved_seq_pops_before_later_schedules():
    sim = Simulator()
    fired = []
    seq = sim.reserve_seq()
    later = sim.timeout(1.0, value="scheduled after the reservation")
    later.add_callback(lambda e: fired.append(e.value))
    reserved = sim.event()
    reserved.value = "pushed late under the reserved seq"
    reserved.add_callback(lambda e: fired.append(e.value))
    sim.schedule_reserved(reserved, 1.0, seq)
    sim.run()
    assert fired == [
        "pushed late under the reserved seq",
        "scheduled after the reservation",
    ]


@pytest.mark.parametrize("when", [1.0, float("nan")])
def test_schedule_reserved_rejects_past_time(when):
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    ev = sim.event()
    with pytest.raises(SimulationError, match="in the past"):
        sim.schedule_reserved(ev, when, sim.reserve_seq())
    assert not ev.scheduled
    assert sim.pending_events == 0


def test_schedule_reserved_rejects_scheduled_event():
    sim = Simulator()
    ev = sim.timeout(1.0)
    with pytest.raises(SimulationError, match="already scheduled"):
        sim.schedule_reserved(ev, 2.0, sim.reserve_seq())
