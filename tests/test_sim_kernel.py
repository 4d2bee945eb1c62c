"""Unit tests for the discrete-event simulation kernel."""

import gc
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    Event,
    RatePipe,
    SimError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_succeed_fires_callbacks_with_value(self, sim):
        seen = []
        ev = Event(sim)
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed(42)
        sim.run()
        assert seen == [42]

    def test_succeed_twice_raises(self, sim):
        ev = Event(sim)
        ev.succeed()
        with pytest.raises(SimError):
            ev.succeed()

    def test_callback_on_processed_event_still_runs(self, sim):
        ev = Event(sim)
        ev.succeed("late")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["late"]

    def test_fail_requires_exception(self, sim):
        ev = Event(sim)
        with pytest.raises(SimError):
            ev.fail("not an exception")


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        def proc():
            yield 100
            yield 250
            return sim.now

        assert sim.run_process(proc()) == 350

    def test_zero_timeout_allowed(self, sim):
        def proc():
            yield 0
            return sim.now

        assert sim.run_process(proc()) == 0

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimError):
            sim.call_later(-1, lambda: None)

    def test_timeout_carries_value(self, sim):
        ev = Event(sim)
        sim.call_later(10, lambda: ev.succeed("payload"))

        def proc():
            got = yield ev
            return got

        assert sim.run_process(proc()) == "payload"


class TestProcess:
    def test_return_value_propagates(self, sim):
        def proc():
            yield 1
            return "done"

        assert sim.run_process(proc()) == "done"

    def test_exception_propagates(self, sim):
        def proc():
            yield 1
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            sim.run_process(proc())

    def test_failed_event_thrown_into_process(self, sim):
        ev = Event(sim)

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught {exc}"

        ev.fail(RuntimeError("net error"))
        assert sim.run_process(proc()) == "caught net error"

    def test_process_is_waitable_event(self, sim):
        def child():
            yield 100
            return "child result"

        def parent():
            result = yield sim.process(child())
            return (sim.now, result)

        assert sim.run_process(parent()) == (100, "child result")

    def test_yielding_an_int_sleeps_and_resumes_with_none(self, sim):
        def proc():
            first = yield 42
            second = yield 0
            return (sim.now, first, second)

        assert sim.run_process(proc()) == (42, None, None)
        assert sim.process_wakeups == 2  # start + the 42 ns sleep

    def test_zero_sleep_continues_in_place(self, sim):
        """``yield 0`` queues nothing: a same-instant peer queued
        earlier does not get to run in between."""
        order = []

        def a():
            order.append("a1")
            yield 0
            order.append("a2")
            yield 5

        def b():
            order.append("b")
            yield 5

        sim.process(a())
        sim.process(b())
        sim.run()
        assert order == ["a1", "a2", "b"]
        # Two starts, two 5 ns sleeps, two terminations: nothing for
        # the zero sleep.
        assert sim.events_dispatched == 6
        assert sim.process_wakeups == 4

    def test_bad_yield_after_a_zero_sleep_is_thrown_in(self, sim):
        log = []

        def proc():
            yield 0
            try:
                yield "x"
            except SimError:
                log.append("caught")
            yield 3
            return sim.now

        process = sim.process(proc())
        sim.run()
        assert log == ["caught"]
        assert process.value == 3

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "x", None],
                             ids=["negative", "float", "bool", "str", "none"])
    def test_bad_yield_is_thrown_into_the_process(self, sim, bad):
        """A yield that is neither an Event nor an int >= 0 raises
        SimError inside the generator; one that catches it carries on,
        and what it yields next is waited on as usual."""
        log = []

        def proc():
            try:
                yield bad
            except SimError as exc:
                log.append(str(exc))
            yield 5
            log.append("resumed")
            return sim.now

        process = sim.process(proc())
        sim.run()
        assert log[1:] == ["resumed"] and "yielded" in log[0]
        assert process.triggered and process.value == 5

    def test_uncaught_bad_yield_fails_the_process(self, sim):
        def proc():
            yield "x"

        with pytest.raises(SimError, match="must yield an Event or an int"):
            sim.run_process(proc())

    def test_unobserved_process_failure_raises_from_run(self, sim):
        def proc():
            yield 5
            raise KeyError("lost")

        sim.process(proc())
        with pytest.raises(KeyError):
            sim.run()

    def test_interleaving_is_deterministic(self, sim):
        order = []

        def proc(name, delays):
            for d in delays:
                yield d
                order.append((sim.now, name))

        sim.process(proc("a", [10, 10]))
        sim.process(proc("b", [5, 10]))
        sim.run()
        assert order == [(5, "b"), (10, "a"), (15, "b"), (20, "a")]

    def test_same_time_events_fire_in_schedule_order(self, sim):
        order = []

        def proc(name):
            yield 10
            order.append(name)

        sim.process(proc("first"))
        sim.process(proc("second"))
        sim.run()
        assert order == ["first", "second"]


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        def sleeper(delay, value):
            yield delay
            return value

        def proc():
            values = yield AllOf(sim, [
                sim.process(sleeper(10, "a")), sim.process(sleeper(30, "b")),
                sim.process(sleeper(20, "c"))])
            return (sim.now, values)

        assert sim.run_process(proc()) == (30, ["a", "b", "c"])

    def test_empty_all_of_fires_immediately(self, sim):
        def proc():
            values = yield AllOf(sim, [])
            return values

        assert sim.run_process(proc()) == []

    def test_all_of_failure_propagates(self, sim):
        bad = Event(sim)

        def sleeper():
            yield 100

        def proc():
            yield AllOf(sim, [sim.process(sleeper()), bad])

        bad.fail(OSError("link down"))
        with pytest.raises(OSError):
            sim.run_process(proc())


class TestRunUntil:
    def test_run_until_stops_clock(self, sim):
        ticks = []

        def proc():
            while True:
                yield 10
                ticks.append(sim.now)

        sim.process(proc())
        assert sim.run(until=35) == 35
        assert ticks == [10, 20, 30]

    def test_run_returns_final_time(self, sim):
        def proc():
            yield 123

        sim.process(proc())
        assert sim.run() == 123

    def test_run_process_detects_deadlock(self, sim):
        def proc():
            yield Event(sim)  # nobody ever triggers this

        with pytest.raises(SimError, match="deadlock"):
            sim.run_process(proc())

    def test_call_at(self, sim):
        fired = []
        sim.call_at(42, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [42]

    def test_call_at_rejects_a_float_time(self, sim):
        # The clock takes ``when`` as is once the entry runs: a float
        # here would make simulated time a float.
        with pytest.raises(SimError, match="10.7"):
            sim.call_at(10.7, lambda: None)
        assert sim.run() == 0

    def test_run_until_rejects_a_float_bound(self, sim):
        with pytest.raises(SimError, match="2.5"):
            sim.run(until=2.5)
        assert sim.now == 0
        fired = []
        sim.call_later(1, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1] and type(fired[0]) is int

    def test_call_later_truncates_a_float_delay(self, sim):
        fired = []
        sim.call_later(1.9, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1] and type(fired[0]) is int


# -- same-timestamp FIFO ----------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=15),
                min_size=1, max_size=80))
def test_batched_same_timestamp_dispatch_is_fifo(delays):
    """Callbacks fire in (time, schedule order) — batching a timestamp's
    entries into one bucket must not reorder them."""
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delays):
        sim.call_at(delay, lambda d=delay, i=index: fired.append((d, i)))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


def test_mid_batch_same_time_entries_run_after_the_batch():
    """An entry scheduled *during* a batch for the same timestamp runs
    after everything already queued for that timestamp."""
    sim = Simulator()
    fired = []
    sim.call_at(5, lambda: (fired.append("a"),
                            sim.call_soon(lambda: fired.append("late"))))
    sim.call_at(5, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "late"]
    assert sim.now == 5


def test_run_process_preserves_rest_of_final_batch():
    """Entries queued behind the stop event at the same timestamp must
    survive ``run_process`` returning and fire on the next run."""
    sim = Simulator()
    fired = []
    ev = Event(sim)

    def other():
        yield 5
        ev.succeed()

    def sched():
        yield 5
        sim.call_soon(lambda: sim.call_soon(lambda: fired.append("tail")))

    def main():
        yield ev

    sim.process(other())
    sim.process(sched())
    sim.run_process(main())
    assert fired == []
    assert sim.now == 5
    sim.run()
    assert fired == ["tail"]
    assert sim.now == 5


# -- in-place scheduling -------------------------------------------------------

#: the per-message schedulers that append to a bucket in place, and the
#: two kernel calls beside them.
_FUTURE_KINDS = ("sleep", "train", "occupy", "later")
_NOW_KINDS = ("soon", "train", "occupy", "later")


@pytest.mark.parametrize("order", list(itertools.permutations(_FUTURE_KINDS)))
def test_in_place_entries_for_a_later_instant_keep_schedule_order(order):
    """A CPU sleep, a pipe train, an engine occupancy and a
    ``call_later`` all due at t=10 run in the order they were
    scheduled, followed by what is scheduled at t=10 itself."""
    sim = Simulator()
    fired = []
    link, engine = RatePipe(sim, 1.0), RatePipe(sim, 1.0)

    def note(what):
        return lambda: fired.append((sim.now, what))

    def act(kind):
        if kind == "sleep":
            yield 10
            fired.append((sim.now, "sleep"))
            return
        if kind == "train":
            link.submit_train(10, note("train"))
        elif kind == "occupy":
            engine.submit_occupy(10, note("occupy"))
        else:
            sim.call_later(10, note("later"))
        yield 0

    for kind in order:
        sim.process(act(kind))
    sim.call_at(10, lambda: sim.call_soon(note("soon")))
    sim.run()
    assert fired == [(10, kind) for kind in order] + [(10, "soon")]
    # Four first steps, three ends at t=0; at t=10 the four entries,
    # the sleeper's end, the call_at entry and its call_soon.
    assert sim.events_dispatched == 14


@pytest.mark.parametrize("order", list(itertools.permutations(_NOW_KINDS)))
def test_in_place_entries_for_the_current_instant_keep_schedule_order(order):
    """Zero-length pipe charges on idle pipes, ``call_later(0)`` and
    ``call_soon`` made by one entry run after the entries already queued
    for that instant, in the order they were made."""
    sim = Simulator()
    fired = []
    link, engine = RatePipe(sim, 1.0), RatePipe(sim, 1.0)

    def note(what):
        return lambda: fired.append((sim.now, what))

    def schedule():
        for kind in order:
            if kind == "soon":
                sim.call_soon(note("soon"))
            elif kind == "train":
                link.submit_train(0, note("train"))
            elif kind == "occupy":
                engine.submit_occupy(0, note("occupy"))
            else:
                sim.call_later(0, note("later"))

    sim.call_at(3, schedule)
    sim.call_at(3, note("queued"))
    sim.run()
    assert fired == [(3, "queued")] + [(3, kind) for kind in order]


def test_submit_occupy_truncates_a_float_duration(sim):
    engine = RatePipe(sim, 1.0)
    fired = []
    engine.submit_occupy(1.9, lambda: fired.append(sim.now))
    engine.submit_occupy(2, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1, 3] and all(type(t) is int for t in fired)
    assert engine.busy_ns == 3 and type(engine.busy_ns) is int


def test_a_pipe_charge_into_the_past_is_refused(sim):
    """A negative duration on an idle pipe schedules into the past,
    which ``call_later`` refuses for a pipe charge too."""
    with pytest.raises(SimError, match="into the past"):
        RatePipe(sim, 1.0).submit_occupy(-5, lambda: None)
    with pytest.raises(SimError, match="into the past"):
        RatePipe(sim, 1.0).submit_train(4, lambda: None, extra_ns=-9)


def test_events_dispatched_counts_a_stop_mid_bucket():
    """``run_process`` stopping inside a bucket counts the entries it
    ran, not the ones it leaves queued for the next run."""
    sim = Simulator()
    fired = []

    def helper():
        yield 1
        # Due at t=5 right behind main's wakeup.
        sim.call_later(4, lambda: sim.call_soon(lambda: fired.append("h")))

    def main():
        yield 5

    sim.process(helper())
    sim.run_process(main())
    # t=0: both first steps; t=1: helper's wakeup and end event; t=5:
    # main's wakeup, the helper's entry, then main's end event, where
    # the run stops with the helper's call_soon still queued.
    assert sim.events_dispatched == 7
    assert fired == []
    sim.run()
    assert fired == ["h"]
    assert sim.events_dispatched == 8


def test_events_dispatched_counts_an_entry_that_raises_mid_bucket(sim):
    fired = []

    def boom():
        raise RuntimeError("boom")

    sim.call_at(5, lambda: fired.append("a"))
    sim.call_at(5, boom)
    sim.call_at(5, lambda: fired.append("c"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert fired == ["a"]
    assert sim.events_dispatched == 2


def test_an_unobserved_failure_surfaces_mid_bucket(sim):
    """A process that fails with nobody waiting raises out of the run
    once its end event has run, and the count includes that entry."""
    def bad():
        yield 2
        raise ValueError("bad")

    sim.process(bad())
    sim.call_at(2, lambda: None)
    with pytest.raises(ValueError, match="bad"):
        sim.run()
    # t=0: first step; t=2: the wakeup, the callback, the end event.
    assert sim.events_dispatched == 4


# -- run(until=...) boundary ------------------------------------------------

def test_run_until_bound_is_exclusive():
    sim = Simulator()
    fired = []
    sim.call_at(10, lambda: fired.append("at10"))
    assert sim.run(until=10) == 10
    assert sim.now == 10
    assert fired == [], "event exactly at the bound must stay queued"
    # A later run picks the boundary event up at the current time.
    assert sim.run(until=11) == 11
    assert fired == ["at10"]


def test_run_until_advances_clock_on_early_drain():
    sim = Simulator()
    sim.call_at(3, lambda: None)
    assert sim.run(until=100) == 100
    assert sim.now == 100


def test_run_until_never_moves_clock_backwards():
    sim = Simulator()
    sim.call_at(7, lambda: None)
    sim.run()
    assert sim.now == 7
    fired = []
    sim.call_at(20, lambda: fired.append("later"))
    assert sim.run(until=5) == 7, "until <= now is a no-op"
    assert fired == []
    sim.run()
    assert fired == ["later"]


# -- the drain pauses the cyclic collector and puts it back -----------------

def _exhaust(sim):
    inside = []
    sim.call_later(1, lambda: inside.append(gc.isenabled()))
    sim.run()
    assert inside == [False], "the collector is off inside a callback"


def _stop_at_until(sim):
    fired = []
    sim.call_at(50, lambda: fired.append("late"))
    sim.run(until=20)
    assert fired == [] and sim.now == 20


def _stop_mid_bucket(sim):
    fired = []
    done = Event(sim)

    def main():
        yield done

    def finish():
        done.succeed()
        # Lands in the bucket of main's termination event, behind it.
        sim.call_soon(lambda: sim.call_soon(lambda: fired.append("tail")))

    sim.call_at(5, finish)
    sim.run_process(main())
    assert fired == []
    sim.run()
    assert fired == ["tail"]


def _callback_raises(sim):
    def boom():
        raise ValueError("boom")

    sim.call_later(1, boom)
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def _unobserved_process_fails(sim):
    def bad():
        yield 1
        raise KeyError("unobserved")

    sim.process(bad())
    with pytest.raises(KeyError, match="unobserved"):
        sim.run()


def _deadlock(sim):
    def stuck():
        yield Event(sim)

    with pytest.raises(SimError, match="deadlocked"):
        sim.run_process(stuck())


DRAIN_EXITS = [_exhaust, _stop_at_until, _stop_mid_bucket, _callback_raises,
               _unobserved_process_fails, _deadlock]


@pytest.fixture
def collector():
    """Set the collector's state for a test; put it back afterwards."""
    was_enabled = gc.isenabled()

    def set_enabled(enabled):
        (gc.enable if enabled else gc.disable)()

    yield set_enabled
    set_enabled(was_enabled)


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("drive", DRAIN_EXITS,
                         ids=[f.__name__.strip("_") for f in DRAIN_EXITS])
def test_drain_leaves_the_collector_as_it_found_it(collector, drive, enabled):
    collector(enabled)
    drive(Simulator())
    assert gc.isenabled() is enabled


def test_collector_makes_no_pass_during_a_drain(collector):
    """50 000 events that each allocate containers: far past the young
    generation's threshold, and yet no collection has started by the
    time the last event runs.  (Re-enabling on exit lets the overdue
    young pass run, so the count is read from inside the drain.)"""
    def passes():
        return sum(s["collections"] for s in gc.get_stats())

    sim = Simulator()
    kept = []
    for i in range(50_000):
        sim.call_at(i // 8, lambda: kept.append([{}, []]))
    at_last_event = []
    sim.call_at(50_000, lambda: at_last_event.append(passes()))
    collector(True)
    gc.collect()  # start the allocation counts from zero
    before = passes()
    sim.run()
    assert len(kept) == 50_000
    assert at_last_event == [before]
    assert gc.isenabled()
