"""Completion queues and work completions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.sim import Event, Queue, Simulator
from repro.telemetry.core import Telemetry
from repro.verbs.constants import WC_SUCCESS, Opcode, VerbsError, WCStatus

__all__ = ["WorkCompletion", "CompletionQueue"]


@dataclass(slots=True)
class WorkCompletion:
    """One completion entry (``ibv_wc``).

    ``wr_id`` is the opaque value the application attached to the work
    request — the endpoints use it to map completions back to buffers.
    The verbs layer builds one per message, positionally: keywords cost
    more (DESIGN.md, "Execution path").
    """

    wr_id: Any
    opcode: Opcode
    status: WCStatus = WCStatus.SUCCESS
    byte_len: int = 0
    qpn: int = 0
    #: source node/QP for incoming messages (UD receive reports these).
    src_node: int = -1
    src_qpn: int = -1
    #: causal flow id of the message this completion closes (0 = untracked).
    flow: int = 0

    @property
    def ok(self) -> bool:
        return self.status is WC_SUCCESS


class CompletionQueue:
    """A completion queue shared by any number of Queue Pairs.

    The paper associates all of an endpoint's QPs with a single CQ to
    amortize polling (§4.4.1); this class supports that directly.  Three
    consumption styles are offered:

    * :meth:`poll` — the non-blocking ``ibv_poll_cq`` equivalent;
    * :meth:`wait` — a blocking get used by simulation processes instead of
      spinning (a real thread busy-polls; burning simulated events to model
      an idle spin would add nothing but cost);
    * :meth:`subscribe` — the event-driven hot path: one callback consumes
      every completion, inside the push that deposits it, without a
      process or a getter event.  A CQ is either subscribed or
      polled/waited on, never both.
    """

    def __init__(self, sim: Simulator, telemetry: Telemetry,
                 depth: int = 4096):
        if depth < 1:
            raise VerbsError(f"CQ depth must be >= 1, got {depth}")
        self.sim = sim
        self.depth = depth
        self._entries = Queue(sim)
        self.pushed = 0
        self.polled = 0
        #: event-driven consumer (see :meth:`subscribe`).
        self._subscriber: Optional[Callable[[WorkCompletion], None]] = None
        #: the owning cluster's observer bundle.
        self.telemetry = telemetry
        #: owning node, stamped by VerbsContext.create_cq for reporting.
        self.node_id = -1

    def __len__(self) -> int:
        return len(self._entries)

    def dispose(self) -> None:
        """Drop queued completions and the subscriber callback.

        The subscriber is a bound endpoint method, which makes every
        CQ<->endpoint pair a reference cycle; teardown breaks it so a
        finished cluster can be reclaimed by reference counting."""
        self._subscriber = None
        self._entries.clear()

    def push(self, wc: WorkCompletion) -> None:
        """Deposit a completion (called by the simulated NIC)."""
        san = self.telemetry.sanitizer
        consumer = self._subscriber
        if consumer is None:
            if san is not None:
                san.on_cq_push(self, wc)
            if len(self._entries) >= self.depth:
                # A real adapter raises a fatal async "CQ overrun" event.
                raise VerbsError(f"CQ overrun (depth={self.depth})")
            self.pushed += 1
            self._entries.put(wc)
            return
        # A subscribed CQ holds nothing (the consumer takes each
        # completion inside this push), so it cannot overrun.
        # ``polled`` counts deliveries the consumer has returned from, so
        # the two counters differ only while the consumer is running.
        if self.polled != self.pushed:
            if san is not None:
                san.on_cq_push(self, wc)
            raise VerbsError(
                "completion pushed onto a subscribed CQ from inside its "
                "own consumer")
        self.pushed += 1
        if san is not None:
            san.on_cq_delivered(self, wc)
        consumer(wc)
        self.polled += 1

    def subscribe(self, consumer: Callable[[WorkCompletion], None]) -> None:
        """Consume every completion with ``consumer(wc)``, event-driven.

        Each push calls the consumer in place, inside :meth:`push`, so
        completions reach it in FIFO order.  A completion only arrives
        at a pipe or hop completion, never inside a consumer, so a push
        from inside the consumer is a ``VerbsError``, as is subscribing
        a CQ that already holds completions (see DESIGN.md, "Execution
        path").
        """
        if self._subscriber is not None:
            raise VerbsError("CQ already has a subscriber")
        if self.polled != self.pushed:
            raise VerbsError("cannot subscribe a CQ that holds completions")
        self._subscriber = consumer

    def poll(self, max_entries: int = 16) -> List[WorkCompletion]:
        """Non-blocking poll; returns up to ``max_entries`` completions."""
        if self._subscriber is not None:
            raise VerbsError("cannot poll() a subscribed CQ")
        out: List[WorkCompletion] = []
        while len(out) < max_entries:
            ok, wc = self._entries.try_get()
            if not ok:
                break
            out.append(wc)
        self.polled += len(out)
        san = self.telemetry.sanitizer
        if san is not None:
            for wc in out:
                san.on_cq_consumed(self, wc)
        return out

    def wait(self) -> Event:
        """An event firing with the next completion (blocking poll).

        The bookkeeping callback runs at trigger time, *before* the
        waiting process resumes, so the sanitizer sees a completion as
        consumed by the time a dispatcher handler touches its buffer.
        """
        if self._subscriber is not None:
            raise VerbsError("cannot wait() on a subscribed CQ")
        event = self._entries.get()
        event.add_callback(self._on_waited)
        return event

    def _on_waited(self, event: Event) -> None:
        self.polled += 1
        san = self.telemetry.sanitizer
        if san is not None:
            san.on_cq_consumed(self, event.value)
