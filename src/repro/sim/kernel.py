"""Core discrete-event simulation kernel.

Time is an integer number of simulated nanoseconds.  The design follows the
classic event-loop model: a priority queue of ``(time, sequence, entry)``
entries is drained in order, and each entry runs its callbacks when popped.
Processes are generators; yielding an :class:`Event` suspends the process
until the event fires, and yielding a plain ``int`` n > 0 sleeps n ns
and resumes with ``None``; a zero sleep continues in place.

One rule says what becomes a queue entry (DESIGN.md, "The wire rule"):
an entry is either a **time advance** — a CPU sleep of n > 0 ns, a pipe
completion, a hop latency — or a **thread's wakeup**: its first step, or
its resumption from an :class:`Event` it blocked on.  Every other
same-instant step runs in place.

Hot-path notes (see DESIGN.md, "Execution path"):

* :meth:`Simulator.run` and :meth:`Simulator.run_process` share the one
  batched drain loop, which pops all entries of one timestamp in an inner
  loop with locally bound heap operations, and flushes the telemetry
  counters once per drain instead of once per event.
* Every payload is a bare callable (:meth:`Simulator.call_soon` /
  :meth:`Simulator.call_at` / :meth:`Simulator.call_later`) — no carrier
  object, no callback list — and the drain loop calls each one.  A
  triggered :class:`Event` queues its bound ``_run_callbacks``.
* A CPU sleep (``yield n``) is one such bare entry, the process's bound
  ``_step`` appended to the bucket of ``now + n`` in place — the one way
  to wait for time to pass.  Starting a :class:`Process` schedules the
  same ``_step`` instead of allocating a bootstrap :class:`Event`.  The
  per-message schedulers (that sleep and the two :class:`RatePipe`
  charges) write the calendar insert out where they run instead of
  calling :meth:`Simulator.call_later`; nothing outside this package
  touches the queue (lint rule VS111).
* The drain pauses CPython's cyclic garbage collector and restores the
  state it found: a run creates no reference cycles, so reference
  counting frees everything and a collector pass only traverses.
"""

from __future__ import annotations

import gc
import heapq
from operator import length_hint as _length_hint
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = [
    "SimError",
    "Event",
    "Process",
    "AllOf",
    "Simulator",
]


class SimError(Exception):
    """Raised for misuse of the simulation kernel."""


# Event lifecycle states.
_PENDING = 0  # not triggered yet
_TRIGGERED = 1  # queued, callbacks will run when popped
_PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence that processes can wait on.

    Events move through three states: pending, triggered (scheduled on the
    event queue) and processed (callbacks executed).  Waiting on an already
    processed event resumes the waiter immediately (at the current simulated
    time) rather than blocking forever.
    """

    __slots__ = ("sim", "_state", "_ok", "_value", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._state = _PENDING
        self._ok = True
        self._value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (not failed)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, firing at the current time."""
        if self._state != _PENDING:
            raise SimError(f"{self!r} has already been triggered")
        self._state = _TRIGGERED
        self._ok = True
        self._value = value
        self.sim.call_soon(self._run_callbacks)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with a failure; waiters get ``exc`` thrown."""
        if self._state != _PENDING:
            raise SimError(f"{self!r} has already been triggered")
        if not isinstance(exc, BaseException):
            raise SimError("fail() requires an exception instance")
        self._state = _TRIGGERED
        self._ok = False
        self._value = exc
        self.sim.call_soon(self._run_callbacks)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event has already been processed, the callback is scheduled
        to run immediately (at the current simulated time).
        """
        if self._state == _PROCESSED:
            self.sim.call_soon(lambda: callback(self))
        else:
            self._callbacks.append(callback)

    def _run_callbacks(self) -> None:
        self._state = _PROCESSED
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at t={self.sim.now}>"


class Process(Event):
    """A running generator; doubles as the event fired at termination.

    The process resumes each time what it yielded comes due: an
    :class:`Event` when it fires (a failed event is thrown into the
    generator), a plain ``int`` n > 0 after n ns, resuming with
    ``None``.  A zero sleep lets no time pass, so the process continues
    in place with ``None``: no queue entry, no wakeup, no same-instant
    peer running first.  Yielding anything else throws
    :class:`SimError` into the generator, which may catch it and go
    on.  An uncaught exception fails the process event, and escapes to
    :meth:`Simulator.run` if nothing waits on the process.
    """

    __slots__ = ("_generator", "_send", "_throw", "_observed", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self._observed = False
        self.name = name or getattr(generator, "__name__", "process")
        sim.processes_started += 1
        # The first resumption is a bare entry at the current time.
        sim.call_soon(self._step)

    def _resume(self, event: Event) -> None:
        self._step(event._ok, event._value)

    def _step(self, ok: bool = True, value: Any = None) -> None:
        # Only what the generator last yielded holds a way back here
        # (the event's callback or the sleep's entry), so every call is
        # a live wakeup.  A queue entry calls it bare: resume with None.
        sim = self.sim
        sim.process_wakeups += 1
        while True:
            try:
                if ok:
                    target = self._send(value)
                else:
                    target = self._throw(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return
            if type(target) is int:
                if target > 0:
                    # call_later(target, self._step), written in place.
                    when = sim.now + target
                    bucket = sim._buckets.get(when)
                    if bucket is None:
                        sim._buckets[when] = [self._step]
                        _heappush(sim._heap, when)
                    else:
                        bucket.append(self._step)
                    return
                if target == 0:
                    # A zero sleep lets no time pass: continue in place.
                    ok = True
                    value = None
                    continue
            elif isinstance(target, Event):
                target.add_callback(self._resume)
                return
            ok = False
            value = SimError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield an Event or an int >= 0 (ns to sleep)"
            )

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        self._observed = True
        super().add_callback(callback)

    # A failed process, and the one ``run_process`` waits for, join the
    # simulator's defunct list when they end; the drain reaps each once
    # its end event has run.
    def succeed(self, value: Any = None) -> "Event":
        super().succeed(value)
        sim = self.sim
        if sim._awaited is self:
            sim._defunct.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        super().fail(exc)
        self.sim._defunct.append(self)
        return self


class AllOf(Event):
    """Fires when every given event has fired; value is the value list.

    A failing child event fails the condition.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        if not self._events:
            self.succeed([])
            return
        for event in self._events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed([e.value for e in self._events])


class Simulator:
    """The event loop: owns the clock and runs events in timestamp order."""

    def __init__(self):
        self.now: int = 0
        # Calendar-bucket queue: ``_heap`` holds one plain-int entry per
        # distinct pending timestamp; ``_buckets`` maps each timestamp to
        # its entries in schedule order.  Dispatch order — timestamps
        # ascending, insertion order within a timestamp — is exactly the
        # order of the classic ``(time, sequence)`` heap, but a burst of
        # same-time entries costs one heap operation instead of one each,
        # and heap comparisons are int-int instead of tuple-tuple.
        self._heap: List[int] = []
        self._buckets: Dict[int, List] = {}
        self._defunct: List[Process] = []
        #: the process ``run_process`` is waiting for, while it waits.
        self._awaited: Optional[Process] = None
        # Telemetry counters, harvested lazily by repro.telemetry (the
        # kernel stays dependency-free): plain int adds per event.  The
        # batched drain loop accumulates them locally and flushes once per
        # drain, so mid-drain reads may lag.
        self.events_dispatched = 0
        self.process_wakeups = 0
        self.processes_started = 0
        self.max_queue_depth = 0

    # -- scheduling ------------------------------------------------------

    def dispose(self) -> None:
        """Drop every pending event and parked process.

        End-of-simulation teardown: pending entries (unexpired drain
        watches, parked processes) hold generator frames whose locals
        reach most of the model, so clearing them here lets reference
        counting reclaim a dead cluster instead of leaving one giant
        cycle for the garbage collector to traverse.  The simulator
        itself stays usable for a fresh run.
        """
        self._heap.clear()
        self._buckets.clear()
        self._defunct.clear()

    def call_soon(self, func: Callable[[], None]) -> None:
        """Run ``func()`` at the current simulated time, after everything
        already queued for this timestamp."""
        when = self.now
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [func]
            _heappush(self._heap, when)
        else:
            bucket.append(func)

    def call_at(self, when: int, func: Callable[[], None]) -> None:
        """Run ``func()`` at absolute simulated time ``when`` (>= now).

        ``when`` must be an ``int``: simulated time is integer ns, and a
        float here would become the clock once its entry runs.
        """
        if not isinstance(when, int):
            raise SimError(f"simulated time must be integer ns, got "
                           f"{when!r} ({type(when).__name__})")
        if when < self.now:
            raise SimError(
                f"cannot schedule into the past (when={when} < now={self.now})"
            )
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [func]
            _heappush(self._heap, when)
        else:
            bucket.append(func)

    def call_later(self, delay: int, func: Callable[[], None]) -> None:
        """Run ``func()`` after ``delay`` ns of simulated time; a float
        ``delay`` is truncated to integer ns."""
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        if type(delay) is not int:
            delay = int(delay)
        when = self.now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [func]
            _heappush(self._heap, when)
        else:
            bucket.append(func)

    # -- processes -------------------------------------------------------

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    # -- execution -------------------------------------------------------

    def _reap_defunct(self) -> None:
        # Surface exceptions from processes nobody waits on, so bugs do not
        # vanish silently.  An ended process stays on the defunct list until
        # its own termination event has been processed; if no waiter
        # consumed its failure by then, re-raise it here.
        # Mutated in place: _drain holds a reference to the same list.
        defunct = self._defunct
        still_pending = []
        for proc in defunct:
            if proc._state != _PROCESSED:
                still_pending.append(proc)
            elif not proc.ok and not proc._observed:
                defunct[:] = still_pending
                raise proc.value
        defunct[:] = still_pending

    def _drain(self, until: Optional[int], stop: Optional[Process]) -> None:
        """The shared hot loop: dispatch entries in (time, sequence) order.

        ``until`` bounds simulated time (exclusive); ``stop`` (the
        awaited process) halts the loop once its end event has been
        processed, which can only happen while it is on the defunct
        list, so an entry after which the list is empty needs no
        further test.  All entries of one
        timestamp are popped in the inner loop so the time comparison and
        attribute loads happen once per timestamp, not once per event.
        Telemetry counters are accumulated in locals and flushed on exit
        (including on exceptions); dispatched entries are counted once
        per bucket, and a stop or an exception mid-bucket takes back the
        entries it left unrun.

        The cyclic garbage collector is paused for the drain and left as
        it was found on every exit: a run creates no reference cycles
        (``tests/test_collector_free.py`` pins it), so the passes the
        allocation rate would trigger traverse the whole model to free
        nothing.  Restoring the found state rather than forcing it on
        lets this nest under a caller's own pause.
        """
        heap = self._heap
        buckets = self._buckets
        pop = _heappop
        defunct = self._defunct
        # Entries of the buckets taken so far; ``entries`` iterates the
        # bucket being dispatched, so what a stop or an exception leaves
        # in it is exactly what did not run.
        dispatched = 0
        entries: Any = iter(())
        max_depth = self.max_queue_depth
        # Batches until the next depth sample: this one.
        sample = 1
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while heap:
                if until is None:
                    when = pop(heap)
                else:
                    when = heap[0]
                    if when >= until:
                        break
                    pop(heap)
                self.now = when
                # Queue depth is sampled every 64th timestamp batch (not
                # before every pop) and counts distinct pending
                # timestamps, to keep the loop lean; the gauge stays
                # deterministic but is an approximation — it is one of
                # the interpreter self-counters the golden digests
                # exclude (see DESIGN.md).
                if not (sample := sample - 1):
                    sample = 64
                    depth = len(heap)
                    if depth > max_depth:
                        max_depth = depth
                # Entries scheduled for ``when`` mid-batch go to a fresh
                # bucket that the outer loop dispatches next, exactly
                # where their sequence numbers would have placed them;
                # this bucket cannot grow under us.
                bucket = buckets.pop(when)
                dispatched += len(bucket)
                entries = iter(bucket)
                for entry in entries:
                    entry()
                    if defunct:
                        self._reap_defunct()
                        if stop is not None and stop._state == _PROCESSED:
                            # Preserve the rest of the batch for a later
                            # run; mid-batch entries at ``when`` may have
                            # re-created the bucket and must come after.
                            rest = list(entries)
                            if rest:
                                dispatched -= len(rest)
                                existing = buckets.get(when)
                                if existing is None:
                                    buckets[when] = rest
                                    _heappush(heap, when)
                                else:
                                    existing[:0] = rest
                            return
        except BaseException:
            dispatched -= _length_hint(entries)
            raise
        finally:
            if gc_was_enabled:
                gc.enable()
            self.events_dispatched += dispatched
            self.max_queue_depth = max_depth

    def run(self, until: Optional[int] = None) -> int:
        """Run until the event queue drains or ``until`` is reached.

        Contract — the bound is **exclusive**: every event scheduled
        strictly before ``until`` is processed; an event scheduled exactly
        at ``until`` stays queued, and the clock stops at ``until`` so a
        subsequent ``run()`` resumes with those events due at the current
        time.  The clock advances to ``until`` even when the queue drains
        early, and never moves backwards: ``until <= now`` processes
        nothing and leaves the clock unchanged.

        ``until`` must be an ``int`` (or ``None``): the clock is set to it.

        Returns the simulated time at which the run stopped.
        """
        if until is not None and not isinstance(until, int):
            raise SimError(f"run(until=) must be integer ns, got "
                           f"{until!r} ({type(until).__name__})")
        self._drain(until, None)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: run ``generator`` as a process to completion.

        Returns the process return value; re-raises its exception on
        failure.  Other already-scheduled activities keep running alongside.
        """
        proc = self.process(generator, name=name)
        awaited, self._awaited = self._awaited, proc
        try:
            self._drain(None, proc)
        finally:
            self._awaited = awaited
        if proc._state != _PROCESSED:
            raise SimError(f"process {proc.name!r} deadlocked (event queue empty)")
        if not proc.ok:
            raise proc.value
        return proc.value
