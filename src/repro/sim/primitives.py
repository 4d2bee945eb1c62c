"""Blocking primitives built on the simulation kernel.

These are the concurrency building blocks the fabric, verbs layer and
shuffle endpoints are written against: FIFO queues, mutexes, broadcast
signals, barriers, and rate-limited pipes that model link serialization
without per-packet events.

Nothing here holds or reads an observer.  A site that charges a pipe
and wants the interval recorded (the NIC and the switch trunks) hands
it to the telemetry bundle just before the charge; the interval starts
at the pipe's ``_busy_until`` or now, whichever is later.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.sim.kernel import Event, SimError, Simulator

__all__ = ["Queue", "Mutex", "Notify", "Barrier", "RatePipe"]


class Queue:
    """An unbounded FIFO channel between processes.

    ``put`` never blocks; ``get`` returns an event that fires with the next
    item.  Items are delivered in FIFO order to getters in FIFO order.

    An empty queue may be given a *run* (:meth:`put_run`): ``n`` items
    that are made one at a time, ``make(k)`` for the ``k``-th, when they
    are taken, and that stay ahead of anything put later — the same
    order as ``n`` puts, without building the items nobody takes.

    Items and waiting getters never coexist — ``put`` hands its item to
    a waiting getter, ``get`` takes a waiting item — so one deque, built
    on first use, holds whichever there are; an idle queue holds none.
    """

    __slots__ = ("sim", "_fifo", "_getting", "_run_left", "_run_next",
                 "_run_make")

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: waiting items, or waiting getters when ``_getting`` is set.
        self._fifo: Optional[Deque[Any]] = None
        self._getting = False
        #: the pending run: items left, index of the next, and its maker.
        self._run_left = 0
        self._run_next = 0
        self._run_make: Optional[Callable[[int], Any]] = None

    def __len__(self) -> int:
        if self._getting or self._fifo is None:
            return self._run_left
        return self._run_left + len(self._fifo)

    def _next_getter(self) -> Event:
        """Remove and return the oldest waiting getter."""
        fifo = self._fifo
        assert fifo is not None  # callers checked _getting
        event = fifo.popleft()
        if not fifo:
            self._getting = False
        return event

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getting:
            self._next_getter().succeed(item)
        elif self._fifo is not None:
            self._fifo.append(item)
        else:
            self._fifo = deque((item,))

    def put_run(self, n: int, make: Callable[[int], Any]) -> None:
        """Deposit ``n`` items, ``make(0) ... make(n - 1)``, as ``n`` puts
        would: waiting getters take the first ones now, the rest are made
        when taken.  The queue must hold no items.  ``make`` must not
        reach back to whatever owns this queue: it lives as long as the
        run does, and a reference back would be a cycle."""
        if len(self):
            raise SimError("put_run needs a queue that holds no items")
        k = 0
        while k < n and self._getting:
            self._next_getter().succeed(make(k))
            k += 1
        if k < n:
            self._run_left = n - k
            self._run_next = k
            self._run_make = make

    def _take_run(self) -> Any:
        """Make and remove the run's next item."""
        make = self._run_make
        assert make is not None  # callers checked _run_left
        k = self._run_next
        self._run_next = k + 1
        self._run_left -= 1
        if not self._run_left:
            self._run_make = None
        return make(k)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim)
        if self._run_left:
            event.succeed(self._take_run())
        elif self._fifo and not self._getting:
            event.succeed(self._fifo.popleft())
        else:
            if self._fifo is None:
                self._fifo = deque()
            self._fifo.append(event)
            self._getting = True
        return event

    def try_get(self):
        """Non-blocking get; returns ``(True, item)`` or ``(False, None)``."""
        if self._run_left:
            return True, self._take_run()
        if self._fifo and not self._getting:
            return True, self._fifo.popleft()
        return False, None

    def clear(self) -> None:
        """Drop every waiting item, pending run item and waiting getter."""
        self._fifo = None
        self._getting = False
        self._run_left = 0
        self._run_next = 0
        self._run_make = None


class Mutex:
    """A lock whose waiters take it in arrival order.

    The waiter deque is built on first contention; an uncontended lock
    holds none."""

    __slots__ = ("sim", "_held", "_waiters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._held = False
        self._waiters: Optional[Deque[Event]] = None

    def critical_section(self, hold_ns: int):
        """A process fragment: acquire, hold for ``hold_ns``, release.

        Usage: ``yield from mutex.critical_section(250)``.  Models a short
        serialized critical section such as posting to a shared Queue Pair.
        An uncontended acquire takes the lock in place; a contended one
        blocks until the holder hands the lock straight to the oldest
        waiter.
        """
        if self._held:
            event = Event(self.sim)
            waiters = self._waiters
            if waiters is None:
                waiters = self._waiters = deque()
            waiters.append(event)
            yield event
        else:
            self._held = True
        if hold_ns:
            yield hold_ns
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._held = False


class Notify:
    """A broadcast signal: ``wait()`` events all fire on ``notify_all()``.

    Unlike :class:`Queue`, a notification wakes *every* current waiter
    and carries no value.  Used for condition-variable style "state
    changed, re-check your predicate" wakeups.  The waiter list is made
    on the first ``wait`` after a notification; an idle signal holds
    none.  ``len()`` is the number of current waiters.
    """

    __slots__ = ("sim", "_waiters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._waiters: Optional[List[Event]] = None

    def __len__(self) -> int:
        waiters = self._waiters
        return 0 if waiters is None else len(waiters)

    def wait(self) -> Event:
        event = Event(self.sim)
        waiters = self._waiters
        if waiters is None:
            waiters = self._waiters = []
        waiters.append(event)
        return event

    def notify_all(self) -> None:
        waiters, self._waiters = self._waiters, None
        if waiters:
            for event in waiters:
                event.succeed()


class Barrier:
    """A cyclic barrier for a fixed number of parties.

    ``arrive()`` returns an event that fires once all parties of the
    current generation have arrived; the barrier then resets for reuse.
    """

    def __init__(self, sim: Simulator, parties: int):
        if parties < 1:
            raise SimError(f"barrier needs >= 1 parties, got {parties}")
        self.sim = sim
        self.parties = parties
        self._waiting: List[Event] = []

    def arrive(self) -> Event:
        event = Event(self.sim)
        self._waiting.append(event)
        if len(self._waiting) == self.parties:
            waiting, self._waiting = self._waiting, []
            for waiter in waiting:
                waiter.succeed()
        return event


class RatePipe:
    """A FIFO, rate-limited transmission resource.

    Models a link (or a NIC processing engine) that serializes work at a
    fixed rate without simulating individual packets: a transfer of ``n``
    units begins when all previously submitted transfers have drained and
    completes ``n / rate`` later.

    Rates are expressed in units per nanosecond (e.g. bytes/ns, which is
    numerically equal to GB/s).

    :meth:`submit_train` charges a whole message (all its back-to-back
    MTU packets) in a single event.
    """

    def __init__(self, sim: Simulator, rate: float, name: str = ""):
        if rate <= 0:
            raise SimError(f"rate must be positive, got {rate}")
        self.sim = sim
        self.rate = rate
        self.name = name
        self._busy_until: int = 0
        # Serialization delays by unit count.  Real traffic uses a handful
        # of distinct message sizes, so the division in the hot path is
        # almost always a dict hit; bounded so adversarial size mixes
        # cannot grow it without limit.
        self._ser_cache: Dict[float, int] = {}
        self.total_units: float = 0.0
        #: cumulative occupied time (drives utilization telemetry).
        self.busy_ns: int = 0

    def _serialization_ns(self, units: float) -> int:
        cache = self._ser_cache
        duration = cache.get(units)
        if duration is None:
            duration = int(units / self.rate)
            if len(cache) < 1024:
                cache[units] = duration
        return duration

    def _charge(self, units: float, duration: int) -> int:
        """Queue ``duration`` ns carrying ``units`` behind everything
        already submitted; returns the delay until it completes."""
        now = self.sim.now
        start = self._busy_until
        if start < now:
            start = now
        end = self._busy_until = start + duration
        self.total_units += units
        self.busy_ns += duration
        return end - now

    def submit_train(self, units: float, func: Callable[[], None],
                     extra_ns: int = 0) -> None:
        """Charge one message's train; runs ``func()`` at train arrival.

        A train *is* one ``units``-sized transfer: one charge, one
        completion.  ``extra_ns`` adds fixed per-item overhead that also
        occupies the pipe (e.g. per-work-request processing time).
        """
        if units < 0:
            raise SimError(f"cannot transmit negative units: {units}")
        delay = self._charge(units,
                             self._serialization_ns(units) + int(extra_ns))
        self.sim.call_later(delay, func)

    def submit_occupy(self, duration_ns: int,
                      func: Callable[[], None]) -> None:
        """Occupy the pipe for a fixed duration (rate-independent work);
        runs ``func()`` at completion."""
        self.sim.call_later(self._charge(0, int(duration_ns)), func)
