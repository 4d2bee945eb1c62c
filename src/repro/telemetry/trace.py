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

Every observer record is a row of a :class:`RecordRows` (the link
recorder's too).  A tracer call appends one row of four int64 fields,
``series, ts_ns, dur_or_end_ns, args``: ``series`` codes the call's
``(ph, node_id, track, name, cat)`` in the tracer's :class:`Codes`, so
a row costs 32 bytes; ``ph`` ``"B"`` is a whole span.  ``args`` is
``-1`` for none, ``n >= 0`` for a byte count (rendered ``{"bytes":
n}``) and ``-2 - i`` for the ``i``-th recorded dict.  Pids
(``pid_base + node_id``) and tids (``(node_id, track)`` in first-use
order) are derived from the series only when the trace is read;
:func:`write_trace` writes a document one event at a time.

A shared :class:`TraceBudget` bounds the total event count across every
tracer of a session, so ``repro-bench --trace`` on a full-scale figure
produces a file a browser can still open; once exhausted, further events
are counted as dropped, not recorded.  A span counts as two events.
"""

from __future__ import annotations

import json
import struct
from array import array
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    Optional, TextIO, Tuple)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator

__all__ = ["Codes", "RecordRows", "TraceBudget", "Tracer", "write_trace"]


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


class Codes(Dict[Any, int]):
    """Interns values to small ints in first-use order: ``codes[value]``
    is the code, ``codes.names[code]`` the value back."""

    __slots__ = ("names",)

    def __init__(self) -> None:
        super().__init__()
        self.names: List[Any] = []

    def __missing__(self, name: Any) -> int:
        code = self[name] = len(self.names)
        self.names.append(name)
        return code


class RecordRows:
    """One append-only record stream as fixed-width int64 rows.

    A hook appends a row in one call, ``data.frombytes(pack(...))``.  It
    iterates as tuples and :meth:`extend` takes the same tuples; the
    fields at ``coded`` are stored as their :class:`Codes` code.
    """

    __slots__ = ("data", "width", "pack", "_codes", "_coded")

    def __init__(self, codes: Codes, width: int, coded: Tuple[int, ...]):
        #: the rows, flat: record ``i`` is ``data[i * width:(i + 1) * width]``.
        self.data = array("q")
        self.width = width
        #: ``width`` int64 fields as the bytes of one row.
        self.pack = struct.Struct(f"{width}q").pack
        self._codes = codes
        self._coded = coded

    def __len__(self) -> int:
        return len(self.data) // self.width

    def __iter__(self) -> Iterator[tuple]:
        rows = iter(self.data)
        for row in zip(*[rows] * self.width):
            yield self._decode(row)

    def _decode(self, row) -> tuple:
        names = self._codes.names
        record = list(row)
        for i in self._coded:
            record[i] = names[record[i]]
        return tuple(record)

    def extend(self, records: Iterable[tuple]) -> None:
        codes = self._codes
        for record in records:
            if len(record) != self.width:
                raise ValueError(f"a record has {self.width} fields, "
                                 f"got {len(record)}")
            row = list(record)
            for i in self._coded:
                row[i] = codes[row[i]]
            self.data.extend(row)

    def columns(self) -> np.ndarray:
        """The rows as an ``(n, width)`` int64 view of :attr:`data` (no
        copy: drop it before the stream grows again)."""
        return np.frombuffer(self.data, dtype=np.int64).reshape(
            -1, self.width)


class TraceEvents:
    """A tracer's events, read-only: ``len()`` counts a span as two
    events and builds nothing; iterating yields each event's Chrome
    dict in recording order (a span's ``E`` right after its ``B``),
    parsed from the text :func:`write_trace` writes for it."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer.rows) + self._tracer._spans

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        events = _Events([self._tracer])
        for row in events.rows.tolist():
            yield json.loads(events.render(*row))
            if events.series[row[0]][0] == "B":
                yield json.loads(events.render(*row, end=True))


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
        #: (ph, node_id, track, name, cat) of each series, by its code.
        self.series = Codes()
        #: one row per record: series, ts_ns, dur_or_end_ns, args.
        self.rows = RecordRows(self.series, 4, coded=(0,))
        #: how many records are spans (each is two events).
        self._spans = 0
        #: the dict ``args`` recorded, by the index their rows encode.
        self._arg_dicts: List[Dict[str, Any]] = []
        #: pid -> the process name :meth:`name_process` gave it.
        self._names: Dict[int, str] = {}

    @property
    def events(self) -> TraceEvents:
        """Every recorded event, in recording order (read-only)."""
        return TraceEvents(self)

    # -- identity ---------------------------------------------------------

    def name_process(self, node_id: int, name: str) -> None:
        """Name a trace process, whether or not an event lands on it.

        Used for pseudo-nodes that are not cluster machines — switches
        get pid ``num_nodes + switch_index`` with their graph name, so
        trunk-port spans group under e.g. ``leaf0`` instead of a
        phantom ``node9``.  A name set here wins over the ``node{id}``
        auto-naming."""
        pid = self.pid_base + node_id
        self._names[pid] = f"{self.label}/{name}" if self.label else name

    def _arg(self, args: Any) -> int:
        """``args`` other than ``None`` or an int ``>= 0`` as its row
        field (module docstring); a negative byte count is kept as the
        dict it renders to."""
        if type(args) is not dict:
            count = int(args)
            if count >= 0:
                return count
            args = {"bytes": count}
        elif not args:
            return -1
        self._arg_dicts.append(args)
        return -1 - len(self._arg_dicts)

    # -- emission ---------------------------------------------------------

    def complete(self, node_id: int, track: str, name: str, start_ns: int,
                 dur_ns: int, cat: str = "", args: Any = None) -> None:
        """One ``X`` span with explicit start and duration."""
        code = self.series["X", node_id, track, name, cat]
        if self.budget.take():
            if type(args) is not int or args < 0:
                args = -1 if args is None else self._arg(args)
            rows = self.rows
            rows.data.frombytes(rows.pack(code, start_ns, dur_ns, args))

    def span(self, node_id: int, track: str, name: str, start_ns: int,
             end_ns: int, cat: str = "", args: Any = None) -> None:
        """A ``B``/``E`` pair with both timestamps known up front.

        Budgeted atomically so a trace never ends on an unmatched begin.
        Only valid on tracks whose spans never nest or overlap (the FIFO
        RatePipes); interleaving operations must use :meth:`complete`.
        """
        if not self.budget.take(2):
            return
        code = self.series["B", node_id, track, name, cat]
        self._spans += 1
        if type(args) is not int or args < 0:
            args = -1 if args is None else self._arg(args)
        self.rows.data.frombytes(self.rows.pack(code, start_ns, end_ns, args))

    def instant(self, node_id: int, track: str, name: str,
                ts_ns: Optional[int] = None, cat: str = "",
                args: Any = None) -> None:
        code = self.series["i", node_id, track, name, cat]
        ts = self.sim.now if ts_ns is None else ts_ns
        if self.budget.take():
            if type(args) is not int or args < 0:
                args = -1 if args is None else self._arg(args)
            self.rows.data.frombytes(self.rows.pack(code, ts, 0, args))

    # -- export -----------------------------------------------------------

    def export(self, path: str) -> None:
        with open(path, "w") as fh:
            write_trace(fh, [self], self.budget.dropped)


class _Events:
    """The events of ``tracers`` as one table: their metadata events,
    and their rows renumbered so that one list of series and one of
    dict args serve them all, each row rendered to JSON text on demand.
    """

    def __init__(self, tracers: List[Tracer]):
        self.meta: List[Dict[str, Any]] = []
        #: per series: its ph, and the JSON text of its event and of a
        #: span's ``E`` up to the ``ts`` value.
        self.series: List[Tuple[str, str, str]] = []
        self.dicts: List[Dict[str, Any]] = []
        views = [tracer.rows.columns() for tracer in tracers]
        self.rows = (np.concatenate(views) if views
                     else np.empty((0, 4), np.int64))
        first = 0
        for tracer, view in zip(tracers, views):
            block = self.rows[first:first + len(view)]
            first += len(view)
            block[:, 0] += len(self.series)
            block[block[:, 3] < -1, 3] -= len(self.dicts)
            self.dicts.extend(tracer._arg_dicts)
            self._add(tracer)

    def _add(self, tracer: Tracer) -> None:
        """``tracer``'s metadata and series; its tids count the
        ``(node_id, track)`` pairs up in first-use order."""
        tids: Dict[Tuple[int, str], int] = {}
        for _ph, node_id, track, _name, _cat in tracer.series.names:
            tids.setdefault((node_id, track), len(tids) + 1)
        base = tracer.pid_base
        label = f"{tracer.label}/" if tracer.label else ""
        names = {base + node_id: f"{label}node{node_id}"
                 for node_id, _track in tids}
        names.update(tracer._names)
        self.meta += [{"ph": "M", "pid": pid, "tid": 0, "ts": 0,
                       "name": "process_name", "args": {"name": name}}
                      for pid, name in sorted(names.items())]
        self.meta += [{"ph": "M", "pid": pid, "tid": tid, "ts": 0,
                       "name": "thread_name", "args": {"name": track}}
                      for pid, track, tid in sorted(
                          (base + node_id, track, tid)
                          for (node_id, track), tid in tids.items())]
        for ph, node_id, track, name, cat in tracer.series.names:
            ident = {"pid": base + node_id, "tid": tids[node_id, track],
                     "name": name, "cat": cat}
            head, end = (json.dumps({"ph": p, **ident})[:-1] + ', "ts": '
                         for p in (ph, "E"))
            self.series.append((ph, head, end))

    def render(self, code: int, ts_ns: int, dur_or_end_ns: int, args: int,
               end: bool = False) -> str:
        """The JSON text of one row's event (of its ``E`` when ``end``)."""
        ph, head, end_head = self.series[code]
        if end:
            return f"{end_head}{dur_or_end_ns / 1000.0!r}}}"
        text = f"{head}{ts_ns / 1000.0!r}"
        if ph == "X":
            text += f', "dur": {dur_or_end_ns / 1000.0!r}'
        elif ph == "i":
            text += ', "s": "t"'
        if args >= 0:
            text += f', "args": {{"bytes": {args}}}'
        elif args != -1:
            text += ', "args": ' + json.dumps(self.dicts[-2 - args])
        return text + "}"


#: rows :func:`write_trace` turns into Python values at a time, so that
#: writing holds little beside the rows and their order.
_CHUNK = 4096


def write_trace(fh: TextIO, tracers: Iterable[Tracer], dropped: int,
                **other_data: Any) -> None:
    """Write one Chrome trace-event document over ``tracers`` to ``fh``,
    one event at a time: every tracer's metadata, then all data events
    by ``ts``, ties in recording order (a span's ``E`` keyed at its end,
    right after its ``B``).  The text is what ``json.dump`` writes for
    the document; ``other_data`` joins its ``otherData``."""
    events = _Events(list(tracers))
    fh.write('{"traceEvents": [')
    sep = ""
    for event in events.meta:
        fh.write(sep + json.dumps(event))
        sep = ", "
    rows = events.rows
    is_span = np.array([ph == "B" for ph, _, _ in events.series], dtype=bool)
    spans = np.flatnonzero(is_span[rows[:, 0]])
    # Event 2r is row r, 2r + 1 the E of a span at row r.
    ids = np.concatenate((2 * np.arange(len(rows)), 2 * spans + 1))
    ts = np.concatenate((rows[:, 1], rows[spans, 2]))
    ids = ids[np.lexsort((ids, ts))]
    for first in range(0, len(ids), _CHUNK):
        chunk = ids[first:first + _CHUNK]
        for row, end in zip(rows[chunk >> 1].tolist(), (chunk & 1).tolist()):
            fh.write(sep + events.render(*row, end))
            sep = ", "
    fh.write('], "displayTimeUnit": "ns", "otherData": ')
    json.dump({"clock": "simulated nanoseconds (exported as microseconds)",
               **other_data, "dropped_events": dropped}, fh)
    fh.write("}")
