"""Events, timeouts, and generator-based processes.

This is a deliberately small simpy-like kernel.  A :class:`Process`
wraps a generator; each value the generator yields must be an
:class:`Event`, and the process resumes when that event fires.  A
process is itself an event that fires with the generator's return
value, so processes compose (``yield other_process``).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.sim.engine import SimulationError, Simulator

EventCallback = Callable[["Event"], None]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the simulation calendar.

    An event is *triggered* once it has either succeeded (carrying a
    value) or failed (carrying an exception).  Callbacks registered
    before triggering run when the event fires; callbacks added after
    are invoked immediately.
    """

    __slots__ = ("sim", "callbacks", "value", "exception", "triggered", "scheduled", "cancelled")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.callbacks: List[EventCallback] = []
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self.triggered = False
        self.scheduled = False
        self.cancelled = False

    # -- state transitions ---------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule it to fire now."""
        if self.triggered or self.scheduled:
            raise SimulationError(f"{self!r} already triggered or scheduled")
        self.value = value
        self.sim.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed and schedule it to fire now."""
        if self.triggered or self.scheduled:
            raise SimulationError(f"{self!r} already triggered or scheduled")
        self.exception = exception
        self.sim.schedule(self)
        return self

    def cancel(self) -> None:
        """Prevent a scheduled-but-unfired event from firing."""
        if self.triggered:
            raise SimulationError("cannot cancel a triggered event")
        self.cancelled = True

    def fire(self) -> None:
        """Invoke callbacks.

        The simulator calls this when it pops the event.  The one other
        caller is ``MRAppMaster._recheck_headroom``, on a parked
        reducer's event that was never scheduled.  The recheck runs in
        the calendar slot of the first of the per-reducer wakeups it
        replaces, and no other event could sort between those wakeups,
        so firing the event in place runs its callbacks where its own
        wakeup would have.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} fired twice")
        self.triggered = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    # -- introspection ---------------------------------------------------
    @property
    def failed(self) -> bool:
        return self.triggered and self.exception is not None

    @property
    def ok(self) -> bool:
        return self.triggered and self.exception is None

    def add_callback(self, cb: EventCallback) -> None:
        """Register *cb*; runs immediately if the event already fired."""
        if self.triggered:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "triggered" if self.triggered else ("scheduled" if self.scheduled else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires a fixed delay after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: float, value: Any = None) -> None:
        super().__init__(sim)
        self.delay = delay
        self.value = value
        sim.schedule(self, delay)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Timeout delay={self.delay}>"


class Process(Event):
    """A generator-driven simulation process.

    The wrapped generator yields :class:`Event` instances.  When the
    generator returns, this process (itself an event) succeeds with the
    return value; an uncaught exception fails it.
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Kick off on the next calendar step so construction order does
        # not leak into execution order.
        start = Timeout(sim, 0.0)
        start.callbacks.append(self._resume)

    def _resume(self, fired: Event) -> None:
        self._waiting_on = None
        try:
            if fired.exception is not None:
                # A failed event (or child process) propagates its exception.
                target = self.generator.throw(fired.exception)
            else:
                target = self.generator.send(fired.value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
            )
            return
        self._waiting_on = target
        target.add_callback(self._resume)

    def _detach(self) -> None:
        """Stop waiting: the event waited on may still fire; ignore it."""
        waiting = self._waiting_on
        self._waiting_on = None
        if waiting is not None and not waiting.triggered:
            try:
                waiting.callbacks.remove(self._resume)
            except ValueError:
                pass

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self.triggered:
            return
        self._detach()
        kicker = Timeout(self.sim, 0.0)

        def _throw(_ev: Event) -> None:
            if self.triggered:
                return
            # The process may have moved to a new wait point since the
            # call: its start kick ran it to a first yield, or an
            # earlier interrupt's handler yielded again.
            self._detach()
            try:
                target = self.generator.throw(Interrupt(cause))
            except StopIteration as stop:
                self.succeed(getattr(stop, "value", None))
                return
            except BaseException as exc:
                self.fail(exc)
                return
            if not isinstance(target, Event):
                self.fail(SimulationError("process yielded a non-event after interrupt"))
                return
            self._waiting_on = target
            target.add_callback(self._resume)

        kicker.callbacks.append(_throw)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Process {self.name!r} {'done' if self.triggered else 'running'}>"


def reraise_failure(event: Event) -> None:
    """Raise a failed *event*'s exception out of the simulator's run loop.

    A process that raises only fails its own event.  Attach this to a
    process nothing yields on (a timer, a task lifecycle), so that its
    failure stops the run instead of vanishing.
    """
    if event.exception is not None:
        raise event.exception


class AllOf(Event):
    """Fires once every child event has fired; value is the list of values.

    Fails fast with the first child failure.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered or self.scheduled:
            return
        if child.exception is not None:
            self.fail(child.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(Event):
    """Fires as soon as any child fires; value is ``(index, value)``."""

    __slots__ = ("_children",)

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for idx, ev in enumerate(self._children):
            ev.add_callback(lambda child, idx=idx: self._on_child(idx, child))

    def _on_child(self, idx: int, child: Event) -> None:
        if self.triggered or self.scheduled:
            return
        if child.exception is not None:
            self.fail(child.exception)
        else:
            self.succeed((idx, child.value))
