"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import SimulationError, Simulator


class TestScheduling:
    def test_simple_order(self, sim):
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_fifo_ties(self, sim):
        log = []
        for i in range(10):
            sim.schedule(1.0, log.append, i)
        sim.run()
        assert log == list(range(10))

    def test_priority_breaks_ties(self, sim):
        log = []
        sim.schedule(1.0, log.append, "low", priority=5)
        sim.schedule(1.0, log.append, "high", priority=-5)
        sim.run()
        assert log == ["high", "low"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_args_passed(self, sim):
        out = []
        sim.schedule(0.0, lambda a, b: out.append(a + b), 2, 3)
        sim.run()
        assert out == [5]


class TestClock:
    def test_now_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(4.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.5]
        assert sim.now == 4.5

    def test_run_until_inclusive(self, sim):
        log = []
        sim.schedule(1.0, log.append, 1)
        sim.schedule(2.0, log.append, 2)
        sim.schedule(2.0001, log.append, 3)
        sim.run(until=2.0)
        assert log == [1, 2]
        assert sim.now == 2.0

    def test_run_until_advances_clock_without_events(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_events_scheduled_during_run(self, sim):
        log = []

        def chain(k):
            log.append(k)
            if k < 3:
                sim.schedule(1.0, chain, k + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert log == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestCancellation:
    def test_cancelled_event_skipped(self, sim):
        log = []
        ev = sim.schedule(1.0, log.append, "x")
        sim.schedule(2.0, log.append, "y")
        ev.cancel()
        sim.run()
        assert log == ["y"]

    def test_pending_counts_only_live(self, sim):
        ev1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        ev1.cancel()
        assert sim.pending == 1


class TestRunControl:
    def test_stop(self, sim):
        log = []
        sim.schedule(1.0, lambda: (log.append(1), sim.stop()))
        sim.schedule(2.0, log.append, 2)
        sim.run()
        assert log[0] == 1 and 2 not in log

    def test_step(self, sim):
        log = []
        sim.schedule(1.0, log.append, 1)
        sim.schedule(2.0, log.append, 2)
        assert sim.step() is True
        assert log == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_max_events(self, sim):
        log = []
        for i in range(10):
            sim.schedule(float(i), log.append, i)
        sim.run(max_events=4)
        assert log == [0, 1, 2, 3]

    def test_nested_run_rejected(self, sim):
        def inner():
            sim.run()

        sim.schedule(1.0, inner)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_executed_counter(self, sim):
        for i in range(7):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 7

    def test_peek(self, sim):
        assert sim.peek() is None
        sim.schedule(3.0, lambda: None)
        assert sim.peek() == 3.0

    def test_until_stops_at_cancelled_head_beyond_it(self, sim):
        log = []
        sim.schedule(5.0, log.append, "cancelled").cancel()
        sim.schedule(7.0, log.append, "live")
        sim.run(until=3.0)
        assert log == [] and sim.now == 3.0
        sim.run()
        assert log == ["live"] and sim.now == 7.0

    def test_until_skips_cancelled_head_inside_it(self, sim):
        log = []
        sim.schedule(1.0, log.append, "cancelled").cancel()
        sim.schedule(2.0, log.append, "live")
        sim.schedule(4.0, log.append, "late")
        sim.run(until=3.0)
        assert log == ["live"] and sim.now == 3.0
        assert sim.events_executed == 1

    def test_step_peek_pending_ignore_cancelled(self, sim):
        log = []
        sim.schedule(1.0, log.append, 1).cancel()
        sim.schedule(2.0, log.append, 2)
        sim.schedule(3.0, log.append, 3).cancel()
        assert sim.pending == 1
        assert sim.peek() == 2.0
        assert sim.step() is True
        assert log == [2] and sim.now == 2.0
        assert sim.peek() is None and sim.pending == 0
        assert sim.step() is False
        assert sim.events_executed == 1


# One action of a script: schedule (delay, priority) or cancel handle k.
_ACTION = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.integers(-1, 1),
    ),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
)


class TestOrderingProperty:
    """A reference model of the heap: every event that fires is the least
    pending, non-cancelled ``(time, priority, seq)`` key at that moment,
    with ``seq`` counting schedule calls.  ``scripts[0]`` runs before the
    simulation and ``scripts[seq + 1]`` when event ``seq`` fires; each
    schedules and cancels further events, ties in time and priority are
    common, and ``run(until=)`` splits the run in two."""

    CAP = 60  # schedule calls per example

    @settings(max_examples=200, deadline=None)
    @given(
        scripts=st.lists(st.lists(_ACTION, max_size=4), min_size=1, max_size=40),
        until=st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]),
    )
    def test_fires_in_key_order(self, scripts, until):
        sim = Simulator()
        handles = []
        pending = {}  # seq -> (time, priority, seq) of live events
        fired = []

        def act(action):
            if action[0] == "schedule":
                if len(handles) >= self.CAP:
                    return
                _, delay, prio = action
                seq = len(handles)
                pending[seq] = (sim.now + delay, prio, seq)
                handles.append(
                    sim.schedule(delay, fire, seq, priority=prio)
                )
            elif handles:
                k = action[1] % len(handles)
                handles[k].cancel()
                pending.pop(k, None)

        def fire(seq):
            assert pending[seq] == min(pending.values())
            assert sim.now == pending.pop(seq)[0]
            fired.append(seq)
            if seq + 1 < len(scripts):
                for action in scripts[seq + 1]:
                    act(action)

        for action in scripts[0]:
            act(action)
        sim.run(until=until)
        assert sim.now == until
        assert all(key[0] > until for key in pending.values())
        assert sim.pending == len(pending)
        assert sim.peek() == (
            min(pending.values())[0] if pending else None
        )
        sim.run()
        assert not pending and sim.pending == 0
        assert sim.events_executed == len(fired)
