"""Simulated-time tracing with Chrome trace-event JSON export.

The :class:`Tracer` records spans and instants stamped in **simulated
nanoseconds** and exports the Chrome trace-event format, loadable in
``chrome://tracing`` or https://ui.perfetto.dev.  The mapping follows the
hardware structure of the simulation:

* one trace **process** (pid) per cluster node, plus one pseudo-process
  per switch of the fabric topology (pid ``num_nodes + switch_index``),
* one trace **thread** (tid) per serialized resource on that node — a QP,
  an endpoint, a NIC pipe (``egress``/``ingress``/``nicproc``), or a
  switch trunk port.

Two span styles are used deliberately:

* resources that are serial by construction (the NIC's FIFO
  :class:`~repro.sim.primitives.RatePipe` pipes) emit paired ``B``/``E``
  events with explicit timestamps — their occupancy intervals never
  overlap, so the begin/end stack discipline always holds;
* everything else (per-message verbs state machines, endpoint stalls,
  where operations on one track interleave freely) emits ``X``
  *complete* events carrying their own duration.

A shared :class:`TraceBudget` bounds the total event count across every
tracer of a session, so ``repro-bench --trace`` on a full-scale figure
produces a file a browser can still open; once exhausted, further events
are counted as dropped, not recorded.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator

__all__ = ["TraceBudget", "Tracer"]


class TraceBudget:
    """A shared cap on recorded events (one per session, many tracers)."""

    __slots__ = ("remaining", "dropped")

    def __init__(self, max_events: int = 500_000):
        self.remaining = max_events
        self.dropped = 0

    def take(self, count: int = 1) -> bool:
        """Reserve ``count`` events atomically (all or none)."""
        if self.remaining >= count:
            self.remaining -= count
            return True
        self.dropped += count
        return False


class Tracer:
    """Records trace events in simulated nanoseconds.

    ``pid_base`` offsets every node id, giving each simulated cluster of
    a multi-run session a disjoint pid namespace; ``label`` prefixes the
    process names so runs stay tellable apart in the viewer.
    """

    def __init__(self, sim: "Simulator", budget: Optional[TraceBudget] = None,
                 pid_base: int = 0, label: str = ""):
        self.sim = sim
        self.budget = budget if budget is not None else TraceBudget()
        self.pid_base = pid_base
        self.label = label
        self.events: List[Dict[str, Any]] = []
        self._tids: Dict[Tuple[int, str], int] = {}
        self._pids: Dict[int, str] = {}
        self._next_tid = 1

    # -- identity ---------------------------------------------------------

    def _pid(self, node_id: int) -> int:
        pid = self.pid_base + node_id
        if pid not in self._pids:
            name = f"{self.label}/node{node_id}" if self.label else f"node{node_id}"
            self._pids[pid] = name
        return pid

    def name_process(self, node_id: int, name: str) -> None:
        """Pre-name a trace process before any event lands on it.

        Used for pseudo-nodes that are not cluster machines — switches
        get pid ``num_nodes + switch_index`` with their graph name, so
        trunk-port spans group under e.g. ``leaf0`` instead of a
        phantom ``node9``.  A name set here wins over the ``node{id}``
        auto-naming."""
        pid = self.pid_base + node_id
        self._pids[pid] = f"{self.label}/{name}" if self.label else name

    def _tid(self, pid: int, track: str) -> int:
        key = (pid, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._tids[key] = self._next_tid
            self._next_tid += 1
        return tid

    # -- emission ---------------------------------------------------------

    def _emit(self, event: Dict[str, Any]) -> None:
        if self.budget.take():
            self.events.append(event)

    def complete(self, node_id: int, track: str, name: str, start_ns: int,
                 dur_ns: int, cat: str = "", args: Optional[dict] = None) -> None:
        """One ``X`` span with explicit start and duration."""
        pid = self._pid(node_id)
        event = {"ph": "X", "pid": pid, "tid": self._tid(pid, track),
                 "name": name, "cat": cat, "ts": start_ns / 1000.0,
                 "dur": dur_ns / 1000.0}
        if args:
            event["args"] = args
        self._emit(event)

    def span(self, node_id: int, track: str, name: str, start_ns: int,
             end_ns: int, cat: str = "", args: Optional[dict] = None) -> None:
        """A ``B``/``E`` pair with both timestamps known up front.

        Budgeted atomically so a trace never ends on an unmatched begin.
        Only valid on tracks whose spans never nest or overlap (the FIFO
        RatePipes); interleaving operations must use :meth:`complete`.
        """
        if not self.budget.take(2):
            return
        pid = self._pid(node_id)
        tid = self._tid(pid, track)
        begin = {"ph": "B", "pid": pid, "tid": tid, "name": name,
                 "cat": cat, "ts": start_ns / 1000.0}
        if args:
            begin["args"] = args
        self.events.append(begin)
        self.events.append({"ph": "E", "pid": pid, "tid": tid, "name": name,
                            "cat": cat, "ts": end_ns / 1000.0})

    def begin(self, node_id: int, track: str, name: str,
              ts_ns: Optional[int] = None, cat: str = "",
              args: Optional[dict] = None) -> None:
        pid = self._pid(node_id)
        ts = self.sim.now if ts_ns is None else ts_ns
        event = {"ph": "B", "pid": pid, "tid": self._tid(pid, track),
                 "name": name, "cat": cat, "ts": ts / 1000.0}
        if args:
            event["args"] = args
        self._emit(event)

    def end(self, node_id: int, track: str, name: str,
            ts_ns: Optional[int] = None, cat: str = "") -> None:
        pid = self._pid(node_id)
        ts = self.sim.now if ts_ns is None else ts_ns
        self._emit({"ph": "E", "pid": pid, "tid": self._tid(pid, track),
                    "name": name, "cat": cat, "ts": ts / 1000.0})

    def instant(self, node_id: int, track: str, name: str,
                ts_ns: Optional[int] = None, cat: str = "",
                args: Optional[dict] = None) -> None:
        pid = self._pid(node_id)
        ts = self.sim.now if ts_ns is None else ts_ns
        event = {"ph": "i", "pid": pid, "tid": self._tid(pid, track),
                 "name": name, "cat": cat, "ts": ts / 1000.0, "s": "t"}
        if args:
            event["args"] = args
        self._emit(event)

    def counter(self, node_id: int, name: str, values: Dict[str, float],
                ts_ns: Optional[int] = None) -> None:
        """One sample of a ``C`` counter timeline (e.g. queue depth)."""
        pid = self._pid(node_id)
        ts = self.sim.now if ts_ns is None else ts_ns
        self._emit({"ph": "C", "pid": pid, "tid": 0, "name": name,
                    "ts": ts / 1000.0, "args": dict(values)})

    # -- export -----------------------------------------------------------

    def _metadata_events(self) -> List[Dict[str, Any]]:
        meta: List[Dict[str, Any]] = []
        for pid, name in sorted(self._pids.items()):
            meta.append({"ph": "M", "pid": pid, "tid": 0, "ts": 0,
                         "name": "process_name", "args": {"name": name}})
        for (pid, track), tid in sorted(self._tids.items()):
            meta.append({"ph": "M", "pid": pid, "tid": tid, "ts": 0,
                         "name": "thread_name", "args": {"name": track}})
        return meta

    def sorted_events(self) -> List[Dict[str, Any]]:
        """Data events in non-decreasing ``ts`` order (stable)."""
        return sorted(self.events, key=lambda e: e["ts"])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "traceEvents": self._metadata_events() + self.sorted_events(),
            "displayTimeUnit": "ns",
            "otherData": {
                "clock": "simulated nanoseconds (exported as microseconds)",
                "dropped_events": self.budget.dropped,
            },
        }

    def export(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)
