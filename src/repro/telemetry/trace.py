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

A span is one ``X`` *complete* event carrying its own duration,
whether it is a pipe's occupancy interval, a verbs state machine step
or an endpoint stall; an instant is an ``i`` event.

Every observer record is a row of a :class:`RecordRows` (the link
recorder's too).  A tracer call appends one row of four int64 fields,
``series, ts_ns, dur_ns, args``: ``series`` codes the call's ``(ph,
node_id, track, name, cat)`` in the tracer's :class:`Codes`, so a row
costs 32 bytes and is one event.  ``args`` is ``-1`` for none, ``n >=
0`` for a byte count (rendered ``{"bytes": n}``) and ``-2 - i`` for the
``i``-th recorded dict.  A pipe charge is a row of the cluster's
:class:`PipeRows` instead, which the link recorder reads too; its span
is rendered from it when the trace is read.  Pids (``pid_base +
node_id``) and tids (``(node_id, track)`` in first-use order) are
derived from the series only then; :func:`write_trace` writes a
document one event at a time.

A shared :class:`TraceBudget` bounds the total event count across every
tracer of a session, so ``repro-bench --trace`` on a full-scale figure
produces a file a browser can still open; once exhausted, further events
are counted as dropped, not recorded.
"""

from __future__ import annotations

import json
import struct
from array import array
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    Optional, Set, TextIO, Tuple)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator

__all__ = ["Codes", "RecordRows", "TraceBudget", "Tracer", "write_trace"]


class TraceBudget:
    """A shared cap on recorded events (one per session, many tracers).

    The per-message hooks write :meth:`take` in place: a compare on
    ``remaining``, and ``dropped`` counted on a refusal."""

    __slots__ = ("remaining", "dropped")

    def __init__(self, max_events: int = 500_000):
        self.remaining = max_events
        self.dropped = 0

    def take(self) -> bool:
        """Reserve one event; count it as dropped if none is left."""
        if self.remaining > 0:
            self.remaining -= 1
            return True
        self.dropped += 1
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

    __slots__ = ("data", "width", "pack", "codes", "_coded")

    def __init__(self, codes: Codes, width: int, coded: Tuple[int, ...]):
        #: the rows, flat: record ``i`` is ``data[i * width:(i + 1) * width]``.
        self.data = array("q")
        self.width = width
        #: ``width`` int64 fields as the bytes of one row.
        self.pack = struct.Struct(f"{width}q").pack
        self.codes = codes
        self._coded = coded

    def __len__(self) -> int:
        return len(self.data) // self.width

    def __iter__(self) -> Iterator[tuple]:
        return map(self._decode, self.columns().tolist())

    def _decode(self, row) -> tuple:
        names = self.codes.names
        record = list(row)
        for i in self._coded:
            record[i] = names[record[i]]
        return tuple(record)

    def extend(self, records: Iterable[tuple]) -> None:
        codes = self.codes
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


class PipeRows(RecordRows):
    """A cluster's pipe charges (``Telemetry.pipe``), a 72-byte row each:
    ``kind, owner, start, base_ns, penalty_ns, extra_ns, waited_ns, size,
    seq``.  The tracer and the link recorder each read the rows they
    kept as a :class:`KeptRows`.  ``tracks`` gives a pipe's trace node,
    track and span name; ``names`` a switch node's process name."""

    __slots__ = ("tracks", "names")

    def __init__(self) -> None:
        super().__init__(Codes(), 9, coded=(0, 1))
        self.tracks: Dict[Tuple[str, Any], Tuple[int, str, str]] = {}
        self.names: Dict[int, str] = {}


class KeptRows(RecordRows):
    """The rows of ``store`` one observer kept, read in place: ``part``,
    from the row count when it was enabled."""

    __slots__ = ("store", "part")

    def __init__(self, store: PipeRows):
        super().__init__(store.codes, store.width, store._coded)
        self.data, self.store = store.data, store
        self.part = slice(len(store), None)

    def end(self) -> None:
        """The observer's budget refused a charge; a budget never
        refills, so the rows kept end at the store's row count."""
        if self.part.stop is None:
            self.part = slice(self.part.start, len(self.store))

    def __len__(self) -> int:
        return len(self.columns())

    def columns(self) -> np.ndarray:
        return super().columns()[self.part]


class Tracer:
    """Records trace events in simulated nanoseconds.

    ``pid_base`` offsets every node id, giving each simulated cluster of
    a multi-run session a disjoint pid namespace; ``label`` prefixes the
    process names so runs stay tellable apart in the viewer.
    """

    def __init__(self, sim: "Simulator", budget: Optional[TraceBudget] = None,
                 pid_base: int = 0, label: str = "",
                 pipes: Optional[PipeRows] = None):
        self.sim = sim
        self.budget = budget if budget is not None else TraceBudget()
        self.pid_base = pid_base
        self.label = label
        #: (ph, node_id, track, name, cat) of each series, by its code.
        self.series = Codes()
        #: one row per event: series, ts_ns, dur_ns, args.
        self.rows = RecordRows(self.series, 4, coded=(0,))
        #: the dict ``args`` recorded, by the index their rows encode.
        self._arg_dicts: List[Dict[str, Any]] = []
        #: pid -> the process name :meth:`name_process` gave it.
        self._names: Dict[int, str] = {}
        #: the pipe charges this tracer kept.
        self.pipes = KeptRows(pipes if pipes is not None else PipeRows())
        #: the ``(kind, owner)`` of every pipe whose series is interned.
        self.pipe_series: Set[Tuple[str, Any]] = set()
        #: a QP's work-request span series, by ``(qpn, span name)``.
        self._wr_series: Dict[Tuple[int, str], int] = {}

    @property
    def events(self) -> "_Events":
        """Every recorded event, as Chrome dicts in recording order."""
        return _Events([self])

    # -- identity ---------------------------------------------------------

    def name_process(self, node_id: int, name: str) -> None:
        """Name a trace process, whether or not an event lands on it; the
        name wins over ``node{id}`` and over the pipe store's names."""
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
        budget = self.budget
        if budget.remaining <= 0:
            budget.dropped += 1
            return
        budget.remaining -= 1
        if type(args) is not int or args < 0:
            args = -1 if args is None else self._arg(args)
        rows = self.rows
        rows.data.frombytes(rows.pack(code, start_ns, dur_ns, args))

    def work_request(self, qp, name: str, start_ns: int, size: int) -> None:
        """The ``verbs`` span ``name`` of a work request on ``qp``, from
        ``start_ns`` to now: :meth:`complete` on the QP's track, with the
        series interned once per ``(qpn, name)``."""
        try:
            code = self._wr_series[qp.qpn, name]
        except KeyError:
            code = self._wr_series[qp.qpn, name] = self.series[
                "X", qp.ctx.node_id, qp.track, name, "verbs"]
        budget = self.budget
        if budget.remaining <= 0:
            budget.dropped += 1
            return
        budget.remaining -= 1
        rows = self.rows
        rows.data.frombytes(rows.pack(code, start_ns, self.sim.now - start_ns,
                                      size))

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

    def table(self) -> np.ndarray:
        """Every event as a row ``series, ts_ns, dur_ns, args``: the
        tracer's rows, and a span per pipe row it kept, put back at its
        ``seq`` (recording order) if it occupies the pipe."""
        pipes = self.pipes.columns()
        dur = pipes[:, 3:6].sum(axis=1)
        span = dur > 0
        pairs, which = np.unique(pipes[span, :2], axis=0, return_inverse=True)
        names, tracks = self.pipes.codes.names, self.pipes.store.tracks
        series = np.array(
            [self.series[("X", *tracks[names[kind], names[owner]], "fabric")]
             for kind, owner in pairs.tolist()], dtype=np.int64)
        spans = np.column_stack((series[which.reshape(-1)], pipes[span, 2],
                                 dur[span], pipes[span, 7]))
        return np.insert(self.rows.columns(), pipes[span, 8], spans, axis=0)

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
        #: per series: its ph, and the JSON text of its event up to the
        #: ``ts`` value.
        self.series: List[Tuple[str, str]] = []
        self.dicts: List[Dict[str, Any]] = []
        # One tracer's table at a time, into room for every row kept.
        rows = np.empty((sum(len(tracer.rows) + len(tracer.pipes)
                             for tracer in tracers), 4), np.int64)
        end = 0
        for tracer in tracers:
            table = tracer.table()
            table[:, 0] += len(self.series)
            table[table[:, 3] < -1, 3] -= len(self.dicts)
            rows[end:end + len(table)] = table
            end += len(table)
            self.dicts.extend(tracer._arg_dicts)
            self._add(tracer)
        self.rows = rows[:end]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        for row in self.rows.tolist():
            yield json.loads(self.render(*row))

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
        names.update((base + node_id, label + name)
                     for node_id, name in tracer.pipes.store.names.items())
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
            head = json.dumps({"ph": ph, "pid": base + node_id,
                               "tid": tids[node_id, track], "name": name,
                               "cat": cat})[:-1] + ', "ts": '
            self.series.append((ph, head))

    def render(self, code: int, ts_ns: int, dur_ns: int, args: int) -> str:
        """The JSON text of one row's event."""
        ph, head = self.series[code]
        text = f"{head}{ts_ns / 1000.0!r}"
        if ph == "X":
            text += f', "dur": {dur_ns / 1000.0!r}'
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
    in one stable sort by ``ts`` (ties in recording order).  The text is
    what ``json.dump`` writes for the document; ``other_data`` joins its
    ``otherData``."""
    events = _Events(list(tracers))
    fh.write('{"traceEvents": [')
    sep = ""
    for event in events.meta:
        fh.write(sep + json.dumps(event))
        sep = ", "
    rows = events.rows
    order = np.argsort(rows[:, 1], kind="stable")
    for first in range(0, len(order), _CHUNK):
        for row in rows[order[first:first + _CHUNK]].tolist():
            fh.write(sep + events.render(*row))
            sep = ", "
    fh.write('], "displayTimeUnit": "ns", "otherData": ')
    json.dump({"clock": "simulated nanoseconds (exported as microseconds)",
               **other_data, "dropped_events": dropped}, fh)
    fh.write("}")
