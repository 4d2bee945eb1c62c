"""The shared completion-dispatch loop.

:class:`CompletionDispatcher` is every endpoint design's CQ polling
loop with the routing made declarative: handlers are registered per
opcode, unhandled completions are drained silently (the RDMA Read
sender, whose only active work is draining Write completions, registers
no handlers at all).

Handlers run in the CQ's delivery tick and must not block — they are
host-side reactions (recycle a buffer, grant credit, deliver to the
inbox), mirroring how the real implementation keeps its CQ polling loop
free of waits.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.verbs.constants import Opcode

__all__ = ["CompletionDispatcher"]


class CompletionDispatcher:
    """Routes work completions of one CQ to per-opcode handlers.

    Handlers are keyed by the opcode's name: a string hashes in C, while
    hashing the :class:`Opcode` member itself runs ``Enum.__hash__`` in
    Python once per completion.
    """

    __slots__ = ("cq", "_handlers")

    def __init__(self, ep):
        self.cq = ep.cq
        self._handlers: Dict[str, Callable] = {}

    def on(self, opcode: Opcode, handler: Callable) -> "CompletionDispatcher":
        """Register ``handler(wc)`` for completions of ``opcode``."""
        self._handlers[opcode._name_] = handler
        return self

    def start(self) -> "CompletionDispatcher":
        """Begin consuming the CQ: subscribe to it directly (event-driven,
        no process or per-completion wait event — see
        :meth:`CompletionQueue.subscribe`)."""
        self.cq.subscribe(self._dispatch)
        return self

    def _dispatch(self, wc) -> None:
        handler = self._handlers.get(wc.opcode._name_)
        if handler is not None:
            handler(wc)
