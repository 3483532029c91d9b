"""The deferred settle point against the eager scheduler it replaced.

``FlowScheduler`` solves at most once per settle point: a mutation
reserves the sequence number an eager solve would give the completion
event, and while other events are queued at the same instant the solve
waits in a settle event at ``(now, seq)``.  ``EagerFlowScheduler``
keeps the token-based ``_reschedule``/``_on_completion`` that solved at
every mutation, and the utilization reads that summed the flows on every
call, verbatim.  Seeded scripts drive both through the same mutations
and reads at shared instants, and the ordered log of every fired
callback must match exactly: same sim times, same order, same values.
So the settle point and the per-epoch read memo must both be exact.
"""

import random
from typing import Dict, Iterable, Optional, Tuple

from repro.sim import Simulator
from repro.sim.engine import SimulationError
from repro.sim.resources import _EPS, Flow, FlowScheduler, Link
from tests.sim.test_solver_scale_pins import count_solves

FROZEN = 1e-9

SCRIPTS = 240


class EagerFlowScheduler(FlowScheduler):
    """The scheduler that solved at every mutation (token-based), verbatim.

    Its utilization reads are the uncached ones, verbatim too, so the
    memo that ``FlowScheduler`` now keeps is compared with them, not
    with itself.
    """

    def __init__(self, sim: Simulator, name: str = "flows") -> None:
        super().__init__(sim, name)
        self._token: int = 0  # invalidates stale completion events

    def utilization(self, link: Link) -> float:
        """Fraction of *link* capacity currently allocated."""
        self._refresh_rates()
        used = sum(f.rate for f in self._flows if link in f.links)
        return min(1.0, used / link.capacity)

    def utilizations(self, links: Iterable[Link]) -> Tuple[float, ...]:
        """Utilization for several links in one pass over active flows.

        Equivalent to ``tuple(self.utilization(l) for l in links)`` --
        including bit-identical float sums, since per-link accumulation
        follows the same active-flow order -- but scans the flow list
        once instead of once per link.
        """
        wanted = tuple(links)
        self._refresh_rates()
        used: Dict[Link, float] = {link: 0.0 for link in wanted}
        for f in self._flows:
            r = f.rate
            for link in f.links:
                if link in used:
                    used[link] += r
        return tuple(min(1.0, used[link] / link.capacity) for link in wanted)

    def _reschedule(self) -> None:
        """Recompute rates and schedule the next completion."""
        self._token += 1
        token = self._token
        self._refresh_rates()
        soonest: Optional[Flow] = None
        soonest_t = float("inf")
        for f in self._flows:
            r = f.rate
            if r > _EPS:
                t = f.remaining / r
                if t < soonest_t:
                    soonest_t = t
                    soonest = f
        if soonest is None:
            if self._flows:
                raise SimulationError(
                    f"scheduler {self.name!r} has {len(self._flows)} flows but none "
                    "can make progress (all rates zero)"
                )
            return
        self.sim.call_at(self.sim.now + soonest_t, lambda: self._on_completion(token))

    def _on_completion(self, token: int) -> None:
        if token != self._token:
            return  # stale wakeup; a newer reschedule superseded it
        self._advance()
        flows = self._flows
        finished = [f for f in flows if f.remaining <= f.done_below]
        if not finished:
            # Numerical slack: finish the closest flow.
            finished = [min(flows, key=lambda f: f.remaining)]
        if len(finished) == len(flows):
            self._flows = []
        else:
            done = set(finished)
            self._flows = [f for f in flows if f not in done]
        for f in finished:
            self._untrack(f)
            self.completed_work += f.total
            self.completed_flows += 1
            f.event.succeed(self.sim.now - f.started_at)
        self._reschedule()


def count_reads(monkeypatch) -> dict:
    """Tally ``FlowScheduler`` utilization reads.

    ``memo`` counts reads answered from the memo of the current epoch,
    ``empty`` reads on a scheduler with no flows.
    """
    tally = {"reads": 0, "memo": 0, "empty": 0}

    def counting(read):
        def counted(self, arg):
            key = arg if isinstance(arg, Link) else tuple(arg)
            tally["reads"] += 1
            if not self._flows:
                tally["empty"] += 1
            elif self._reads_epoch == self._epoch and key in self._reads:
                tally["memo"] += 1
            return read(self, arg)

        return counted

    for name in ("utilization", "utilizations"):
        monkeypatch.setattr(FlowScheduler, name, counting(getattr(FlowScheduler, name)))
    return tally


def run_script(scheduler_cls, seed: int) -> list:
    """Drive one seeded script; return the ``(time, tag, value)`` log.

    The RNG is drawn while the script runs, so two schedulers that
    behave alike draw alike; the first divergence shows in the log.
    Timed operations land on a 0.5 s grid, several per instant, and
    amounts and capacities come from small sets, so completions share
    instants with each other and with the timed operations.  Half the
    scripts start at ``2**30`` s, where one ulp is ~2.4e-7 s: there a
    completion can round to the instant it was scheduled at.
    """
    rng = random.Random(seed)
    sim = Simulator()
    sched = scheduler_cls(sim, name=scheduler_cls.__name__)
    base_caps = [rng.choice((10.0, 20.0, 40.0)) for _ in range(rng.randint(2, 4))]
    links = [Link(f"l{i}", cap) for i, cap in enumerate(base_caps)]
    base = rng.choice((0.0, 2.0**30))
    log = []
    budget = [rng.randint(20, 60)]  # transfers left to start

    def transfer(group: int) -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        label = f"g{group}.{budget[0]}"
        picks = rng.sample(links, rng.randint(1, len(links)))
        amount = rng.choice((2.5, 5.0, 10.0, 20.0, 40.0))
        cap = None if rng.random() < 0.5 else rng.choice((2.5, 5.0, 10.0, 15.0))
        done = sched.transfer(picks, amount, cap=cap, label=label)

        def on_done(ev):
            log.append((sim.now, "done " + label, ev.value))
            for _ in range(rng.choice((0, 0, 1, 2))):
                action()

        done.add_callback(on_done)

    def set_capacity() -> None:
        i = rng.randrange(len(links))
        capacity = rng.choice((FROZEN, FROZEN, 5.0, 10.0, 20.0))
        sched.set_link_capacity(links[i], capacity)
        log.append((sim.now, f"cap l{i}", capacity))
        if capacity == FROZEN:
            def restore():
                sched.set_link_capacity(links[i], base_caps[i])
                log.append((sim.now, f"restore l{i}", base_caps[i]))

            sim.call_at(sim.now + 0.5 * rng.randint(0, 4), restore)

    def read(tag: str) -> None:
        log.append((sim.now, tag, (sched.utilizations(links), sched.utilization(links[0]))))

    def action() -> None:
        kind = rng.random()
        if kind < 0.4:
            transfer(rng.randrange(3))
        elif kind < 0.5:
            prefix = f"g{rng.randrange(3)}."
            log.append((sim.now, "cancel " + prefix, sched.cancel_prefix(prefix)))
            read("read " + prefix)
            # Again at this instant, after whatever is queued beside it.
            sim.timeout(0.0).add_callback(lambda _ev: read("reread " + prefix))
        elif kind < 0.65:
            set_capacity()
        elif kind < 0.8:
            i = rng.randrange(len(links))
            log.append((sim.now, f"util l{i}", sched.utilization(links[i])))
        elif kind < 0.9:
            log.append((sim.now, "utils", sched.utilizations(links)))
        else:
            # A zero-delay event beside whatever else fires this instant.
            sim.timeout(0.0).add_callback(lambda _ev: action())

    def worker(group: int):
        for _ in range(rng.randint(1, 4)):
            label = f"g{group}.w{len(log)}"
            duration = yield sched.transfer(
                rng.sample(links, rng.randint(1, len(links))),
                rng.choice((5.0, 10.0, 20.0)),
                label=label,
            )
            log.append((sim.now, "worker " + label, duration))

    for _ in range(rng.randint(8, 24)):
        sim.call_at(base + 0.5 * rng.randint(0, 30), action)
    for group in range(rng.randint(0, 3)):
        sim.call_at(base + 0.5 * rng.randint(0, 10), lambda g=group: sim.process(worker(g)))
    sim.run()
    # Not ``sim.now``: a stale wakeup of the eager scheduler still moves
    # the clock when it pops, where a cancelled settle point does not.
    log.append((None, "end", (sched.completed_flows, sched.completed_work)))
    return log


def test_settle_point_matches_eager_scheduler_on_seeded_scripts(monkeypatch):
    solves = count_solves(monkeypatch)
    reads = count_reads(monkeypatch)
    completions = 0
    for seed in range(SCRIPTS):
        expected = run_script(EagerFlowScheduler, seed)
        got = run_script(FlowScheduler, seed)
        assert got == expected, f"seed {seed}: the settle point changed the log"
        completions += sum(1 for _t, tag, _v in got if tag.startswith(("done", "worker")))
    # Not vacuous: many flows completed, and deferral skipped solves.
    assert completions > 10 * SCRIPTS
    assert solves["FlowScheduler"] < 0.9 * solves["EagerFlowScheduler"]
    # ...and reads were answered from the memo and on empty schedulers.
    assert reads["memo"] > 2 * SCRIPTS
    assert reads["empty"] > 4 * SCRIPTS


def test_completion_rounding_to_now_keeps_its_slot():
    # At 2**30 s one ulp is ~2.4e-7 s.  A flow left with 1e-8 units at
    # rate ~1 finishes 1e-8 s later, which rounds to the mutation's own
    # instant, so its completion shares ``now`` with the events queued
    # beside the mutation and must keep its place among them.
    t0 = 2.0**30

    def run(scheduler_cls):
        sim = Simulator()
        sched = scheduler_cls(sim)
        slow = Link("slow", 1.0 - 1e-8)
        other = Link("other", 1.0)
        log = []

        def start():
            sched.transfer([slow], 1.0, label="a").add_callback(
                lambda ev: log.append((sim.now, "a", ev.value))
            )

        def mutate():
            sched.transfer([other], 4.0, label="b").add_callback(
                lambda ev: log.append((sim.now, "b", ev.value))
            )
            log.append((sim.now, "mutate", sched._flows[0].remaining))

        sim.call_at(t0, start)
        sim.call_at(t0 + 1.0, mutate)
        sim.call_at(t0 + 1.0, lambda: log.append((sim.now, "beside", None)))
        sim.run()
        return log

    log = run(FlowScheduler)
    assert log == run(EagerFlowScheduler)
    (t_mutate, _, remaining), _beside, (t_a, _, _), _b = log
    assert 1e-12 < remaining < 1e-7  # not done when the mutation advanced it
    assert t_a == t_mutate == t0 + 1.0  # ...yet its completion rounds to now
    assert [tag for _t, tag, _v in log] == ["mutate", "beside", "a", "b"]


def test_mutations_at_one_instant_solve_once(monkeypatch):
    sim = Simulator()
    sched = FlowScheduler(sim)
    links = [Link("a", 10.0), Link("b", 10.0)]
    sim.timeout(0.0)  # another event at this instant defers the solve
    solves = count_solves(monkeypatch)
    first = sched.transfer(links, 10.0)
    second = sched.transfer(links[:1], 10.0)
    sched.set_link_capacity(links[1], 20.0)
    assert solves == {}
    sim.run()
    # One solve for the instant; the completion that empties the
    # scheduler solves nothing.
    assert solves == {"flows": 1}
    assert first.value == second.value == 2.0
