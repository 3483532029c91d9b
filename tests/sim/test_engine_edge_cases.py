"""Edge-case coverage for the simulation kernel."""

import pytest

from repro.sim import AllOf, Simulator
from repro.sim.engine import SimulationError


class TestEventStates:
    def test_failed_event_flags(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(ValueError("boom"))
        sim.run()
        assert ev.failed and not ev.ok

    def test_succeed_after_fail_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(ValueError("x"))
        with pytest.raises(SimulationError):
            ev.succeed(1)

    def test_callback_after_trigger_runs_immediately(self):
        sim = Simulator()
        ev = sim.timeout(1.0, value=7)
        sim.run()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        assert got == [7]

    def test_cancel_triggered_event_rejected(self):
        sim = Simulator()
        ev = sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            ev.cancel()


class TestRunSafety:
    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            while True:
                yield sim.timeout(1.0)

        sim.process(forever())
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_reentrancy_guard(self):
        sim = Simulator()

        def sneaky():
            yield sim.timeout(1.0)
            sim.run()  # illegal: run inside run

        p = sim.process(sneaky())
        sim.run()
        assert p.failed
        assert isinstance(p.exception, SimulationError)

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.timeout(1.0)
        sim.run()
        assert sim.events_executed == 5

    def test_run_until_complete_propagates_failure(self):
        sim = Simulator()

        def boom():
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")

        p = sim.process(boom())
        with pytest.raises(RuntimeError, match="kaput"):
            sim.run_until_complete(p)


class TestProcessComposition:
    def test_nested_three_levels(self):
        sim = Simulator()

        def leaf():
            yield sim.timeout(1.0)
            return 1

        def middle():
            v = yield sim.process(leaf())
            return v + 1

        def root():
            v = yield sim.process(middle())
            return v + 1

        assert sim.run_until_complete(sim.process(root())) == 3

    def test_allof_with_processes(self):
        sim = Simulator()

        def worker(d):
            yield sim.timeout(d)
            return d

        ev = AllOf(sim, [sim.process(worker(d)) for d in (3.0, 1.0, 2.0)])
        assert sim.run_until_complete(ev) == [3.0, 1.0, 2.0]

    def test_process_waiting_on_never_event_leaves_calendar_empty(self):
        sim = Simulator()
        never = sim.event()

        def waiter():
            yield never

        p = sim.process(waiter())
        sim.run()
        assert not p.triggered  # parked, not crashed
        assert sim.pending_events == 0
