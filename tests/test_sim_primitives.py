"""Unit tests for simulation primitives (queues, mutexes, pipes)."""

import gc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


_QUEUE_OPS = st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers(0, 99)),
    st.tuples(st.sampled_from(["get", "try_get", "len"]), st.none()),
), max_size=40)


def _drive(run_items: int, waiting: int, ops, lazy: bool):
    """Park ``waiting`` getters on a fresh queue, give it ``run_items``
    items ``("run", k)`` (one run, or that many puts) and apply ``ops``.
    Returns what every operation observed, the run items made by then,
    and what is left in the queue."""
    sim = Simulator()
    q = Queue(sim)
    made = []

    def make(k):
        made.append(k)
        return ("run", k)

    seen = [q.get() for _ in range(waiting)]
    if lazy:
        q.put_run(run_items, make)
    else:
        for k in range(run_items):
            q.put(make(k))
    for op, arg in ops:
        if op == "put":
            q.put(arg)
        elif op == "get":
            seen.append(q.get())
        elif op == "try_get":
            seen.append(q.try_get())
        else:
            seen.append(len(q))
    sim.run()
    observed = [(s.triggered, s.value if s.triggered else None)
                if isinstance(s, Event) else s for s in seen]
    taken = list(made)
    left = []
    while len(q):
        left.append(q.try_get()[1])
    return observed, taken, left


class _TwoDequeQueue:
    """Reference: the queue as two deques, one of items and one of
    waiting getters, each built with the queue.  ``clear`` drops both
    and the pending run."""

    def __init__(self, sim):
        self.sim = sim
        self._items = deque()
        self._getters = deque()
        self._run_left = 0
        self._run_next = 0
        self._run_make = None

    def __len__(self):
        return self._run_left + len(self._items)

    def put(self, item):
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def put_run(self, n, make):
        if self._run_left or self._items:
            raise SimError("put_run needs a queue that holds no items")
        k = 0
        while k < n and self._getters:
            self._getters.popleft().succeed(make(k))
            k += 1
        if k < n:
            self._run_left = n - k
            self._run_next = k
            self._run_make = make

    def _take_run(self):
        k = self._run_next
        self._run_next = k + 1
        self._run_left -= 1
        make = self._run_make
        if not self._run_left:
            self._run_make = None
        return make(k)

    def get(self):
        event = Event(self.sim)
        if self._run_left:
            event.succeed(self._take_run())
        elif self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self):
        if self._run_left:
            return True, self._take_run()
        if self._items:
            return True, self._items.popleft()
        return False, None

    def clear(self):
        self._items.clear()
        self._getters.clear()
        self._run_left = 0
        self._run_make = None


_ALL_QUEUE_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["put", "put_run"]), st.integers(0, 6)),
    st.tuples(st.sampled_from(["get", "try_get", "len", "clear"]),
              st.none()),
), max_size=60)


def _replay(queue_cls, ops):
    """Apply ``ops`` to a fresh ``queue_cls``; returns what every
    operation observed and the order run items were made in."""
    sim = Simulator()
    q = queue_cls(sim)
    made = []
    seen = []

    def make(k, tag):
        made.append((tag, k))
        return ("run", tag, k)

    for step, (op, arg) in enumerate(ops):
        if op == "put":
            q.put(arg)
        elif op == "put_run":
            try:
                q.put_run(arg, lambda k, tag=step: make(k, tag))
            except SimError:
                seen.append("refused")
        elif op == "get":
            seen.append(q.get())
        elif op == "try_get":
            seen.append(q.try_get())
        elif op == "len":
            seen.append(len(q))
        else:
            q.clear()
    sim.run()
    return [(s.triggered, s.value) if isinstance(s, Event) else s
            for s in seen], made


class TestQueueModel:
    @settings(max_examples=300, deadline=None)
    @given(ops=_ALL_QUEUE_OPS)
    def test_one_deque_matches_two_deques(self, ops):
        """Holding items and waiting getters in one deque answers every
        put, put_run, get, try_get, len and clear as separate deques
        do, and makes run items in the same order."""
        assert _replay(Queue, ops) == _replay(_TwoDequeQueue, ops)


@pytest.mark.parametrize("primitive", [Queue, Mutex, Notify])
def test_idle_primitive_holds_no_container(sim, primitive):
    held = gc.get_referents(primitive(sim))
    assert not [obj for obj in held if isinstance(obj, (deque, list, dict))]


class TestQueueRun:
    @settings(max_examples=200, deadline=None)
    @given(run_items=st.integers(0, 12), waiting=st.integers(0, 4),
           ops=_QUEUE_OPS)
    def test_run_matches_the_eager_puts(self, run_items, waiting, ops):
        """A queue started with a run answers every put, get, try_get,
        len and parked getter exactly as the same items put one by one,
        and makes only the items that were taken, in order."""
        lazy, made, lazy_left = _drive(run_items, waiting, ops, True)
        eager, _made, eager_left = _drive(run_items, waiting, ops, False)
        assert lazy == eager
        assert lazy_left == eager_left
        untaken = sum(1 for item in lazy_left
                      if isinstance(item, tuple) and item[0] == "run")
        assert made == list(range(run_items - untaken))

    def test_run_needs_an_itemless_queue(self, sim):
        q = Queue(sim)
        q.put("x")
        with pytest.raises(SimError):
            q.put_run(2, lambda k: k)


def critical_section(mutex, hold_ns):
    """The acquire / hold / release protocol every lock user writes out."""
    wait = mutex.acquire()
    if wait is not None:
        yield wait
    yield hold_ns
    mutex.release()


class TestMutex:
    def test_contended_section_waits_for_the_holder(self, sim):
        mutex = Mutex(sim)
        log = []

        def holder():
            yield from critical_section(mutex, 100)

        def waiter():
            yield from critical_section(mutex, 0)
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
            yield from critical_section(mutex, hold)
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
            yield from critical_section(mutex, 100)
            spans.append((name, start, sim.now))

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        # b cannot finish its critical section before a releases.
        assert spans == [("a", 0, 100), ("b", 0, 200)]

    def test_an_uncontended_acquire_takes_the_lock_in_place(self, sim):
        mutex = Mutex(sim)
        assert mutex.acquire() is None
        wait = mutex.acquire()
        assert wait is not None and not wait.triggered
        mutex.release()  # handed straight to the waiter
        assert wait.triggered
        assert mutex.acquire() is not None
        mutex.release()
        mutex.release()
        assert mutex.acquire() is None
        assert sim.events_dispatched == 0


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
