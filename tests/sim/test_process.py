"""Tests for generator-based processes."""


from repro.sim import AllOf, AnyOf, Interrupt, Simulator


def test_process_runs_and_returns():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        return "finished"

    p = sim.process(proc())
    assert sim.run_until_complete(p) == "finished"
    assert sim.now == 3.0


def test_yield_receives_event_value():
    sim = Simulator()
    got = []

    def proc():
        v = yield sim.timeout(1.0, value=42)
        got.append(v)

    sim.process(proc())
    sim.run()
    assert got == [42]


def test_processes_compose():
    sim = Simulator()

    def child():
        yield sim.timeout(3.0)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        return result

    p = sim.process(parent())
    assert sim.run_until_complete(p) == "child-result"


def test_failed_child_propagates_exception():
    sim = Simulator()

    class Boom(Exception):
        pass

    def child():
        yield sim.timeout(1.0)
        raise Boom()

    def parent():
        yield sim.process(child())

    p = sim.process(parent())
    sim.run()
    assert p.failed
    assert isinstance(p.exception, Boom)


def test_parent_can_catch_child_failure():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("x")

    def parent():
        try:
            yield sim.process(child())
        except ValueError:
            return "caught"
        return "not caught"

    p = sim.process(parent())
    assert sim.run_until_complete(p) == "caught"


def test_yield_non_event_fails_process():
    sim = Simulator()

    def proc():
        yield 5  # type: ignore[misc]

    p = sim.process(proc())
    sim.run()
    assert p.failed


def test_interrupt_wakes_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            log.append("slept full")
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, sim.now))

    p = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(2.0)
        p.interrupt(cause="wakeup")

    sim.process(interrupter())
    sim.run()
    assert ("interrupted", "wakeup", 2.0) in log


def test_interrupt_before_first_resume_detaches_the_first_wait():
    """An interrupt issued before the start kick lands at the first
    yield; the event that yield waits on must not resume the process."""
    sim = Simulator()

    def sleeper():
        yield sim.timeout(5.0)

    p = sim.process(sleeper())
    p.interrupt("x")
    sim.run()
    assert p.failed and isinstance(p.exception, Interrupt)
    assert p.exception.cause == "x"
    assert sim.now == 5.0


def test_interrupt_before_first_resume_then_cleanup_wait():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(5.0, value="first")
        except Interrupt:
            got = yield sim.timeout(10.0, value="cleanup")
            log.append((sim.now, got))

    p = sim.process(sleeper())
    p.interrupt("x")
    sim.run()
    assert log == [(10.0, "cleanup")]
    assert p.ok


def test_second_interrupt_lands_at_the_handlers_wait():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(5.0)
        except Interrupt as first:
            try:
                yield sim.timeout(10.0)
            except Interrupt as second:
                log.append((sim.now, first.cause, second.cause))

    p = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(1.0)
        p.interrupt("a")
        p.interrupt("b")

    sim.process(interrupter())
    sim.run()
    assert log == [(1.0, "a", "b")]
    assert p.ok


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return 1

    p = sim.process(quick())
    sim.run()
    p.interrupt()  # must not raise
    assert p.ok


def test_allof_waits_for_every_event():
    sim = Simulator()
    evs = [sim.timeout(d, value=d) for d in (1.0, 3.0, 2.0)]
    both = AllOf(sim, evs)
    assert sim.run_until_complete(both) == [1.0, 3.0, 2.0]
    assert sim.now == 3.0


def test_allof_empty_succeeds_immediately():
    sim = Simulator()
    ev = AllOf(sim, [])
    assert sim.run_until_complete(ev) == []


def test_anyof_fires_on_first():
    sim = Simulator()
    evs = [sim.timeout(5.0, value="slow"), sim.timeout(1.0, value="fast")]
    first = AnyOf(sim, evs)
    assert sim.run_until_complete(first) == (1, "fast")
    assert sim.now == 1.0
