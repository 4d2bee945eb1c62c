"""Unit tests for simulation primitives (queues, mutexes, pipes)."""

import pytest

from repro.sim import (
    Event,
    Mutex,
    Notify,
    Queue,
    RatePipe,
    SimError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestQueue:
    def test_put_then_get(self, sim):
        q = Queue(sim)
        q.put("x")

        def proc():
            item = yield q.get()
            return item

        assert sim.run_process(proc()) == "x"

    def test_get_blocks_until_put(self, sim):
        q = Queue(sim)

        def getter():
            item = yield q.get()
            return (sim.now, item)

        def putter():
            yield 50
            q.put("late")

        sim.process(putter())
        assert sim.run_process(getter()) == (50, "late")

    def test_fifo_order_items(self, sim):
        q = Queue(sim)
        for i in range(5):
            q.put(i)

        def proc():
            out = []
            for _ in range(5):
                out.append((yield q.get()))
            return out

        assert sim.run_process(proc()) == [0, 1, 2, 3, 4]

    def test_fifo_order_getters(self, sim):
        q = Queue(sim)
        results = []

        def getter(name):
            item = yield q.get()
            results.append((name, item))

        sim.process(getter("first"))
        sim.process(getter("second"))

        def putter():
            yield 1
            q.put("a")
            q.put("b")

        sim.process(putter())
        sim.run()
        assert results == [("first", "a"), ("second", "b")]

    def test_try_get(self, sim):
        q = Queue(sim)
        assert q.try_get() == (False, None)
        q.put(7)
        assert q.try_get() == (True, 7)
        assert len(q) == 0


class TestMutex:
    def test_contended_section_waits_for_the_holder(self, sim):
        mutex = Mutex(sim)
        log = []

        def holder():
            yield from mutex.critical_section(100)

        def waiter():
            yield from mutex.critical_section(0)
            log.append(sim.now)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert log == [100]

    def test_waiters_take_the_lock_in_arrival_order(self, sim):
        mutex = Mutex(sim)
        order = []

        def proc(name, start, hold):
            yield start
            yield from mutex.critical_section(hold)
            order.append((name, sim.now))

        # The holder enters at 0; a, b and c queue behind it at 1, 2, 3
        # and each takes the lock the instant its predecessor leaves.
        sim.process(proc("holder", 0, 10))
        sim.process(proc("a", 1, 5))
        sim.process(proc("b", 2, 5))
        sim.process(proc("c", 3, 0))
        sim.run()
        assert order == [("holder", 10), ("a", 15), ("b", 20), ("c", 20)]

    def test_critical_section_serializes(self, sim):
        mutex = Mutex(sim)
        spans = []

        def proc(name):
            start = sim.now
            yield from mutex.critical_section(100)
            spans.append((name, start, sim.now))

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        # b cannot finish its critical section before a releases.
        assert spans == [("a", 0, 100), ("b", 0, 200)]


class TestNotify:
    def test_notify_all_wakes_every_waiter(self, sim):
        cond = Notify(sim)
        woken = []

        def waiter(name):
            value = yield cond.wait()
            woken.append((name, value, sim.now))

        sim.process(waiter("x"))
        sim.process(waiter("y"))
        sim.call_at(30, cond.notify_all)
        sim.run()
        assert woken == [("x", None, 30), ("y", None, 30)]

    def test_waiters_registered_after_notify_need_new_notify(self, sim):
        cond = Notify(sim)
        cond.notify_all()
        woken = []

        def waiter():
            yield cond.wait()
            woken.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert woken == []  # missed the earlier broadcast


def _sent(sim, pipe, units, extra_ns=0):
    """Charge one message; the Event a test thread waits on (the pipe
    itself is callback-only: it constructs no Event)."""
    done = Event(sim)
    pipe.submit_train(units, done.succeed, extra_ns=extra_ns)
    return done


class TestRatePipe:
    def test_single_transfer_duration(self, sim):
        pipe = RatePipe(sim, rate=1.0)  # 1 byte/ns

        def proc():
            yield _sent(sim, pipe, 1000)
            return sim.now

        assert sim.run_process(proc()) == 1000

    def test_fifo_serialization(self, sim):
        pipe = RatePipe(sim, rate=2.0)
        done = []

        def sender(name, nbytes):
            yield _sent(sim, pipe, nbytes)
            done.append((name, sim.now))

        sim.process(sender("a", 1000))  # 500 ns
        sim.process(sender("b", 1000))  # queued behind a
        sim.run()
        assert done == [("a", 500), ("b", 1000)]

    def test_extra_ns_overhead(self, sim):
        pipe = RatePipe(sim, rate=1.0)

        def proc():
            yield _sent(sim, pipe, 100, extra_ns=50)
            return sim.now

        assert sim.run_process(proc()) == 150

    def test_idle_pipe_starts_immediately(self, sim):
        pipe = RatePipe(sim, rate=1.0)

        def proc():
            yield 500
            yield _sent(sim, pipe, 100)
            return sim.now

        assert sim.run_process(proc()) == 600

    def test_occupy(self, sim):
        pipe = RatePipe(sim, rate=1.0)

        def proc():
            done = Event(sim)
            pipe.submit_occupy(42, done.succeed)
            yield done
            return sim.now

        assert sim.run_process(proc()) == 42
        assert pipe.busy_ns == 42 and pipe.total_units == 0

    def test_rejects_bad_rate(self, sim):
        with pytest.raises(SimError):
            RatePipe(sim, rate=0)

    def test_total_units_accounting(self, sim):
        pipe = RatePipe(sim, rate=1.0)

        def proc():
            yield _sent(sim, pipe, 100)
            yield _sent(sim, pipe, 200)
            yield _sent(sim, pipe, 0)  # zero duration: fires at once

        sim.run_process(proc())
        assert pipe.total_units == 300
        assert pipe.busy_ns == sim.now == 300
        with pytest.raises(SimError):
            pipe.submit_train(-1, lambda: None)
