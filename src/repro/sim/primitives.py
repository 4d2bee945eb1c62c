"""Blocking primitives built on the simulation kernel.

These are the concurrency building blocks the fabric, verbs layer and
shuffle endpoints are written against: FIFO queues, mutexes, broadcast
signals, barriers, and rate-limited pipes that model link serialization
without per-packet events.

Nothing here holds or reads an observer.  A site that charges a pipe
and wants the interval recorded (the NIC, the fabric walk, the kernel
stacks) hands it to the telemetry bundle just before the charge; the
interval starts at the pipe's ``_busy_until`` or now, whichever is
later.

A pipe charge is one call: :meth:`RatePipe.submit_train` (a train's
duration is a hit in the pipe's :class:`Durations` table) and
:meth:`RatePipe.submit_occupy` (a fixed duration) queue the duration
behind the pipe's backlog and append the completion to the simulator's
timestamp bucket in place, since every message crosses three to five
pipes.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Any, Callable, Deque, List, Optional

from repro.sim.kernel import Event, SimError, Simulator

__all__ = ["Queue", "Mutex", "Notify", "Barrier", "Durations", "RatePipe"]


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

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim)
        ok, item = self.try_get()
        if ok:
            event.succeed(item)
        else:
            if self._fifo is None:
                self._fifo = deque()
            self._fifo.append(event)
            self._getting = True
        return event

    def try_get(self):
        """Non-blocking get; returns ``(True, item)`` or ``(False, None)``.
        A pending run's next item is made and removed first."""
        left = self._run_left
        if left:
            k = self._run_next
            self._run_next = k + 1
            self._run_left = left - 1
            make = self._run_make
            if left == 1:
                self._run_make = None
            return True, make(k)
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

    def acquire(self) -> Optional[Event]:
        """Take the lock: ``None`` when it was free (taken in place), else
        an event that fires once the holder hands the lock straight to
        this waiter, the oldest first.

        A critical section is ``acquire``, the hold, ``release``::

            wait = mutex.acquire()
            if wait is not None:
                yield wait
            yield hold_ns
            mutex.release()

        It models a short serialized section such as posting to a shared
        Queue Pair; an uncontended one costs no event and no generator.
        """
        if not self._held:
            self._held = True
            return None
        event = Event(self.sim)
        waiters = self._waiters
        if waiters is None:
            waiters = self._waiters = deque()
        waiters.append(event)
        return event

    def release(self) -> None:
        """Hand the lock to the oldest waiter, or free it."""
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


class Durations(dict):
    """A pipe's serialization time by unit count, in integer ns: traffic
    has few sizes, so ``int(units / rate)`` runs once per size (at most
    1024 are kept) and a charge is a dict hit.  Refuses negative units."""

    __slots__ = ("rate",)

    def __init__(self, rate: float):
        super().__init__()
        self.rate = rate

    def __missing__(self, units: float) -> int:
        if units < 0:
            raise SimError(f"cannot transmit negative units: {units}")
        duration = int(units / self.rate)
        if len(self) < 1024:
            self[units] = duration
        return duration


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
        #: ``durations[units]``, read by a charge and by its observer.
        self.durations = Durations(rate)
        self.total_units: float = 0.0
        #: cumulative occupied time (drives utilization telemetry).
        self.busy_ns: int = 0

    def submit_train(self, units: float, func: Callable[[], None],
                     extra_ns: int = 0) -> None:
        """Charge one message's train; runs ``func()`` at train arrival.

        A train *is* one ``units``-sized transfer: one charge, one
        completion.  ``extra_ns`` adds fixed per-item overhead that also
        occupies the pipe (e.g. per-work-request processing time).  The
        transfer starts once everything submitted before it has drained.
        Negative ``units``, or an ``extra_ns`` that makes the charge
        negative, raise :class:`SimError` before anything is charged.
        """
        duration = self.durations[units]
        if extra_ns:
            if type(extra_ns) is not int:
                extra_ns = int(extra_ns)
            duration += extra_ns
            if duration < 0:
                raise SimError(f"cannot schedule into the past (a charge "
                               f"of {duration} ns)")
        sim = self.sim
        now = sim.now
        start = self._busy_until
        if start < now:
            start = now
        when = self._busy_until = start + duration
        self.total_units += units
        self.busy_ns += duration
        # call_later(when - now, func), written in place.
        bucket = sim._buckets.get(when)
        if bucket is None:
            sim._buckets[when] = [func]
            _heappush(sim._heap, when)
        else:
            bucket.append(func)

    def submit_occupy(self, duration_ns: int,
                      func: Callable[[], None]) -> None:
        """Occupy the pipe for a fixed duration (rate-independent work),
        queued like a train; runs ``func()`` at completion.  A float
        duration is truncated to integer ns, as ``call_later`` does; a
        negative one raises :class:`SimError` before anything is
        charged."""
        if type(duration_ns) is not int:
            duration_ns = int(duration_ns)
        if duration_ns < 0:
            raise SimError(f"cannot schedule into the past (a charge of "
                           f"{duration_ns} ns)")
        sim = self.sim
        now = sim.now
        start = self._busy_until
        if start < now:
            start = now
        when = self._busy_until = start + duration_ns
        self.busy_ns += duration_ns
        # call_later(when - now, func), written in place.
        bucket = sim._buckets.get(when)
        if bucket is None:
            sim._buckets[when] = [func]
            _heappush(sim._heap, when)
        else:
            bucket.append(func)
