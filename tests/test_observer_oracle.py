"""The flat observer records against the object-per-record originals.

The tracer keeps one row per call, the link recorder one per flow or
stall, and one store serves both with a row per pipe charge; Chrome
event dicts, the attribution sweep, the critical path and the latency
list are built from them only when read.  The reference functions below
are the earlier implementations — a dict per trace event, an object per
link record swept by a per-interval closure or walked in Python, a row
store per observer fed at ``Telemetry.pipe`` — kept, like
``tests/test_engine.py::TestKernelOracle`` keeps the row loops, so the
exported trace, the attribution, the critical path and the latencies
are required to be identical.
"""

import io
import json
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Cluster, ClusterConfig, EDR
from repro.bench.workloads import run_repartition
from repro.obs.critical_path import CATEGORIES, attribute, critical_path
from repro.obs.report import build_run_report
from repro.sim import RatePipe, Simulator
from repro.telemetry import Telemetry, TraceBudget, Tracer, latency_summary
from repro.telemetry.trace import write_trace


# -- reference tracer: one dict per event, built at emission --------------


class ReferenceTracer:
    def __init__(self, sim, budget=None, pid_base=0, label=""):
        self.sim = sim
        self.budget = budget if budget is not None else TraceBudget()
        self.pid_base = pid_base
        self.label = label
        self.events = []
        self._tids = {}
        self._pids = {}
        self._next_tid = 1

    def _pid(self, node_id):
        pid = self.pid_base + node_id
        if pid not in self._pids:
            name = f"{self.label}/node{node_id}" if self.label else f"node{node_id}"
            self._pids[pid] = name
        return pid

    def name_process(self, node_id, name):
        pid = self.pid_base + node_id
        self._pids[pid] = f"{self.label}/{name}" if self.label else name

    def _tid(self, pid, track):
        key = (pid, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._tids[key] = self._next_tid
            self._next_tid += 1
        return tid

    def _emit(self, event):
        if self.budget.take():
            self.events.append(event)

    def complete(self, node_id, track, name, start_ns, dur_ns, cat="",
                 args=None):
        pid = self._pid(node_id)
        event = {"ph": "X", "pid": pid, "tid": self._tid(pid, track),
                 "name": name, "cat": cat, "ts": start_ns / 1000.0,
                 "dur": dur_ns / 1000.0}
        if args:
            event["args"] = args
        self._emit(event)

    def instant(self, node_id, track, name, ts_ns=None, cat="", args=None):
        pid = self._pid(node_id)
        ts = self.sim.now if ts_ns is None else ts_ns
        event = {"ph": "i", "pid": pid, "tid": self._tid(pid, track),
                 "name": name, "cat": cat, "ts": ts / 1000.0, "s": "t"}
        if args:
            event["args"] = args
        self._emit(event)

    def _metadata_events(self):
        meta = []
        for pid, name in sorted(self._pids.items()):
            meta.append({"ph": "M", "pid": pid, "tid": 0, "ts": 0,
                         "name": "process_name", "args": {"name": name}})
        for (pid, track), tid in sorted(self._tids.items()):
            meta.append({"ph": "M", "pid": pid, "tid": tid, "ts": 0,
                         "name": "thread_name", "args": {"name": track}})
        return meta

    def sorted_events(self):
        return sorted(self.events, key=lambda e: e["ts"])

    def to_dict(self):
        return {
            "traceEvents": self._metadata_events() + self.sorted_events(),
            "displayTimeUnit": "ns",
            "otherData": {
                "clock": "simulated nanoseconds (exported as microseconds)",
                "dropped_events": self.budget.dropped,
            },
        }


def reference_document(refs, dropped, **other_data):
    """The session's merged document over reference tracers: all their
    metadata, then all their events in one stable sort by ``ts``."""
    return {
        "traceEvents": ([e for ref in refs for e in ref._metadata_events()]
                        + sorted((e for ref in refs for e in ref.events),
                                 key=lambda e: e["ts"])),
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "simulated nanoseconds (exported as microseconds)",
            **other_data,
            "dropped_events": dropped,
        },
    }


def written(tracers, dropped, **other_data):
    """The text :func:`write_trace` writes over ``tracers``."""
    fh = io.StringIO()
    write_trace(fh, tracers, dropped, **other_data)
    return fh.getvalue()


class CallSiteTracer(ReferenceTracer):
    """The reference fed by today's hook sites: a bare byte count in
    ``args`` is what the sites used to wrap as ``{"bytes": n}`` (a pipe
    span passes its wire bytes, a QP its ``wr.length``)."""

    @staticmethod
    def _args(args):
        if args is None or type(args) is dict:
            return args
        return {"bytes": int(args)}

    def complete(self, node_id, track, name, start_ns, dur_ns, cat="",
                 args=None):
        super().complete(node_id, track, name, start_ns, dur_ns, cat,
                         self._args(args))

    def work_request(self, qp, name, start_ns, size):
        """A QP's work-request span, as the QP used to pass it."""
        self.complete(qp.ctx.node_id, f"qp{qp.qpn}", name, start_ns,
                      self.sim.now - start_ns, "verbs", size)


# -- reference attribution: an object per record, a closure per add -------


class ReferencePipe:
    __slots__ = ("kind", "owner", "start", "base_ns", "penalty_ns",
                 "extra_ns", "waited_ns", "size", "seq")

    def __init__(self, kind, owner, start, base_ns, penalty_ns, extra_ns,
                 waited_ns, size, seq):
        self.kind = kind
        self.owner = owner
        self.start = start
        self.base_ns = base_ns
        self.penalty_ns = penalty_ns
        self.extra_ns = extra_ns
        self.waited_ns = waited_ns
        self.size = size
        self.seq = seq


class ReferenceStall:
    __slots__ = ("node", "ep", "kind", "start", "duration")

    def __init__(self, node, ep, kind, start, duration):
        self.node = node
        self.ep = ep
        self.kind = kind
        self.start = start
        self.duration = duration


class ReferenceFlow:
    __slots__ = ("id", "kind", "src", "dst", "size", "posted_ns",
                 "delivered_ns", "prev", "trigger")

    def __init__(self, flow_id, kind, src, dst, size, posted_ns,
                 delivered_ns, prev, trigger):
        self.id = flow_id
        self.kind = kind
        self.src = src
        self.dst = dst
        self.size = size
        self.posted_ns = posted_ns
        self.delivered_ns = None if delivered_ns == -1 else delivered_ns
        self.prev = prev
        self.trigger = trigger


def reference_flows(recorder):
    """Flow id -> one object per flow, as the recorder kept them."""
    return {i: ReferenceFlow(i, *flow)
            for i, flow in enumerate(recorder.flows, start=1)}


_STALL_PRIO = {"credit-stall": 5, "rnr-stall": 5, "free-wait": 6}
_NUM_PRIOS = 7


def reference_flow_bounds(recorder, t0, t1):
    first_post = t1
    last_delivery = t0
    any_post = False
    any_delivery = False
    for flow in reference_flows(recorder).values():
        any_post = True
        if flow.posted_ns < first_post:
            first_post = flow.posted_ns
        if flow.delivered_ns is not None:
            any_delivery = True
            if flow.delivered_ns > last_delivery:
                last_delivery = flow.delivered_ns
    if not any_post:
        first_post = t1
    if not any_delivery:
        last_delivery = t1
    return (max(t0, min(first_post, t1)),
            max(t0, min(last_delivery, t1)))


def reference_attribute(recorder, t0, t1):
    total = t1 - t0
    categories = {name: 0 for name in CATEGORIES}
    first_post, last_delivery = reference_flow_bounds(recorder, t0, t1)
    events = []

    def add(start, end, prio):
        start = max(start, t0)
        end = min(end, t1)
        if end > start:
            events.append((start, prio, 1))
            events.append((end, prio, -1))

    for rec in (ReferencePipe(*pipe) for pipe in recorder.pipes):
        base_end = rec.start + rec.base_ns
        if rec.kind == "proc":
            add(rec.start, base_end, 4)
        elif rec.kind == "trunk":
            prio = 2 if rec.waited_ns >= rec.base_ns else 3
            add(rec.start, base_end, prio)
        else:
            add(rec.start, base_end, 3)
        penalty_end = base_end + rec.penalty_ns
        if rec.penalty_ns:
            add(base_end, penalty_end, 0)
        if rec.extra_ns:
            add(penalty_end, penalty_end + rec.extra_ns, 1)
    for stall in (ReferenceStall(*stall) for stall in recorder.stalls):
        prio = _STALL_PRIO.get(stall.kind)
        if prio is not None:
            add(stall.start, stall.start + stall.duration, prio)
    for cut in (first_post, last_delivery):
        if t0 < cut < t1:
            events.append((cut, _NUM_PRIOS, 0))

    def remainder_at(t):
        if t < first_post:
            return "setup"
        if t >= last_delivery:
            return "receiver_drain"
        return "sender_compute"

    events.sort(key=lambda e: e[0])
    counts = [0] * _NUM_PRIOS
    prev = t0
    i = 0
    n = len(events)
    while i < n:
        t = events[i][0]
        if t > prev:
            width = t - prev
            for prio in range(_NUM_PRIOS):
                if counts[prio]:
                    categories[CATEGORIES[prio]] += width
                    break
            else:
                categories[remainder_at(prev)] += width
            prev = t
        while i < n and events[i][0] == t:
            _, prio, delta = events[i]
            if delta:
                counts[prio] += delta
            i += 1
    if t1 > prev:
        width = t1 - prev
        for prio in range(_NUM_PRIOS):
            if counts[prio]:
                categories[CATEGORIES[prio]] += width
                break
        else:
            categories[remainder_at(prev)] += width
    return {
        "t0": t0,
        "t1": t1,
        "total_ns": total,
        "categories": categories,
        "shares": {name: (ns / total if total else 0.0)
                   for name, ns in categories.items()},
        "top": max(CATEGORIES, key=lambda name: categories[name]),
        "conserved": sum(categories.values()) == total,
    }


def reference_critical_path(recorder):
    flows = reference_flows(recorder)
    last = None
    last_t = -1
    for flow in flows.values():
        if flow.delivered_ns is not None and flow.delivered_ns > last_t:
            last_t = flow.delivered_ns
            last = flow.id
    chain = []
    seen = set()
    cursor = last
    while cursor and cursor not in seen and len(chain) < 32:
        seen.add(cursor)
        flow = flows.get(cursor)
        if flow is None:
            break
        nxt = flow.trigger or flow.prev
        chain.append({
            "flow": flow.id,
            "kind": flow.kind,
            "src": flow.src,
            "dst": flow.dst,
            "size": flow.size,
            "posted_ns": flow.posted_ns,
            "delivered_ns": flow.delivered_ns,
            "edge": ("trigger" if flow.trigger and nxt == flow.trigger
                     else "prev"),
        })
        cursor = nxt
    chain.reverse()
    return chain


def reference_latencies(recorder):
    return [flow.delivered_ns - flow.posted_ns
            for flow in reference_flows(recorder).values()
            if flow.kind in ("data", "read")
            and flow.delivered_ns is not None]


# -- tracer oracle ----------------------------------------------------------

#: (method, tracer index, node, track, name, start, length, args); a
#: complete's args are a byte count or a dict.
trace_calls = st.lists(st.tuples(
    st.sampled_from(["complete", "instant", "instant-now"]),
    st.integers(0, 1), st.integers(0, 2),
    st.sampled_from(["qp1", "egress", "ep0"]), st.sampled_from(["a", "b"]),
    st.integers(0, 3000), st.integers(0, 400),
    st.sampled_from([None, {}, {"message": "m"}, 0, 1, 4096, 0.5, 65536.0]),
), max_size=40)


def replay(cls, calls, max_events):
    """Two tracers (two runs of a session) on one budget."""
    sim = Simulator()
    budget = TraceBudget(max_events)
    tracers = [cls(sim, budget), cls(sim, budget, pid_base=1000,
                                     label="run1")]
    tracers[1].name_process(3, "leaf0")
    for method, which, node, track, name, start, length, args in calls:
        tracer = tracers[which]
        if method == "complete":
            if type(args) is float:
                args = int(args)
            tracer.complete(node, track, name, start, length, "verbs", args)
        elif method == "instant":
            tracer.instant(node, track, name, start, cat="sanitizer",
                           args=args if type(args) is dict else None)
        else:
            tracer.instant(node, track, name)
    return tracers


class TestTracerOracle:
    @given(calls=trace_calls, max_events=st.integers(0, 12))
    @example(calls=[("complete", 0, 0, "egress", "a", 0, 10, 64),
                    ("complete", 0, 0, "egress", "a", 10, 10, 64),
                    ("complete", 0, 1, "qp1", "b", 5, 5, 8),
                    ("instant", 1, 0, "ep0", "a", 5, 0, None)],
             max_events=3)
    @settings(deadline=None, max_examples=300)
    def test_export_equals_dict_per_event_reference(self, calls, max_events):
        flat = replay(Tracer, calls, max_events)
        reference = replay(CallSiteTracer, calls, max_events)
        dropped = flat[0].budget.dropped
        assert dropped == reference[0].budget.dropped
        for tracer, ref in zip(flat, reference):
            assert len(tracer.events) == len(ref.events)
            assert list(tracer.events) == ref.events
            assert (written([tracer], dropped)
                    == json.dumps(ref.to_dict()))
        assert (written(flat, dropped, runs=2)
                == json.dumps(reference_document(reference, dropped,
                                                 runs=2)))

    def test_refused_span_takes_nothing(self):
        # 2 slots: a span takes 1 whatever its track, the third call is
        # refused and leaves no row and no args dict behind.
        tracer = Tracer(Simulator(), TraceBudget(2))
        tracer.complete(0, "egress", "tx", 0, 10, "fabric", 64)
        tracer.complete(0, "qp1", "send", 5, 5, "verbs", 8)
        tracer.complete(0, "egress", "tx", 10, 10, "fabric", {"m": 1})
        assert [e["ph"] for e in tracer.events] == ["X", "X"]
        assert len(tracer.rows) == 2 and tracer._arg_dicts == []
        assert tracer.budget.dropped == 1


# -- attribution oracle -----------------------------------------------------

ns = st.integers(0, 400)
pipe_records = st.lists(st.tuples(
    st.sampled_from(["proc", "egress", "ingress", "trunk"]),
    st.sampled_from([0, "leaf0:p1"]), ns, st.integers(0, 60),
    st.sampled_from([0, 0, 7, 40]), st.sampled_from([0, 0, 5, 33]),
    st.integers(0, 80), st.integers(-1, 9), st.integers(0, 9),
), max_size=30)
stall_records = st.lists(st.tuples(
    st.sampled_from(["credit-stall", "rnr-stall", "free-wait", "data-wait"]),
    ns, st.integers(1, 120),
), max_size=12)
flow_records = st.lists(st.tuples(ns, st.one_of(st.none(), ns)),
                        max_size=6)
#: (kind, src, dst, size, posted, delivered or None, prev, trigger): small
#: ranges make delivery ties and edges to 0, to a flow itself, to a later
#: flow (cycles) and past the last flow common.
flow_dags = st.lists(st.tuples(
    st.sampled_from(["data", "read", "credit"]), st.integers(0, 3),
    st.integers(0, 3), st.sampled_from([0, 64, 4096]), st.integers(0, 9),
    st.one_of(st.none(), st.integers(0, 12)), st.integers(0, 9),
    st.sampled_from([0, 0, 1, 2, 5, 9]),
), max_size=40)


def telemetry_of(pipes, stalls, flows):
    """A telemetry bundle whose link recorder holds exactly ``flows``
    (delivered ``None``: never delivered) and the given records."""
    telemetry = Telemetry(Simulator(), 0)
    recorder = telemetry.enable_links()
    telemetry.pipe_rows.extend(pipes)
    recorder.stalls.extend((0, 0, kind, start, duration)
                           for kind, start, duration in stalls)
    recorder.flows.extend(
        (kind, src, dst, size, posted, -1 if delivered is None else
         delivered, prev, trigger)
        for kind, src, dst, size, posted, delivered, prev, trigger in flows)
    return telemetry


def recorder_of(pipes, stalls, flows):
    return telemetry_of(pipes, stalls, [
        ("data", 0, 1, 64, posted, delivered, 0, 0)
        for posted, delivered in flows]).links


class TestAttributionOracle:
    @given(pipes=pipe_records, stalls=stall_records, flows=flow_records,
           t0=st.integers(0, 150), span=st.integers(0, 400))
    @example(pipes=[("trunk", "leaf0:p1", 10, 20, 0, 0, 20, 1, 0),
                    ("trunk", "leaf0:p1", 30, 20, 0, 0, 19, 2, 0),
                    ("proc", 0, 0, 0, 7, 5, 0, -1, 0)],
             stalls=[("free-wait", 5, 100)], flows=[(8, 90)], t0=12,
             span=60)
    @settings(deadline=None, max_examples=300)
    def test_sweep_equals_object_reference(self, pipes, stalls, flows, t0,
                                           span):
        recorder = recorder_of(pipes, stalls, flows)
        assert (attribute(recorder, t0, t0 + span)
                == reference_attribute(recorder, t0, t0 + span))


class TestFlowOracle:
    @given(flows=flow_dags)
    # A delivery tie (flows 2 and 4), a self edge, a never-delivered
    # credit flow and a trigger cycle back to the start.
    @example(flows=[("credit", 1, 0, 0, 1, None, 3, 2),
                    ("data", 0, 1, 64, 0, 7, 2, 3),
                    ("data", 0, 1, 64, 2, 5, 1, 0),
                    ("read", 1, 0, 64, 3, 7, 2, 0)])
    # A FIFO chain longer than the 32 links a path keeps.
    @example(flows=[("data", 0, 1, 64, i, i, i, 0) for i in range(40)])
    @settings(deadline=None, max_examples=300)
    def test_chain_and_latencies_equal_object_walks(self, flows):
        telemetry = telemetry_of([], [], flows)
        links = telemetry.links
        chain = critical_path(links)
        assert chain == reference_critical_path(links)
        latency = build_run_report(telemetry)["latency_ns"]
        assert latency == latency_summary(reference_latencies(links))
        assert json.dumps([chain, latency])  # Python values only


# -- pipe charges: the one store against one row store per observer -------


def reference_pipe(telemetry, kind, owner, pipe, base_ns, penalty_ns,
                   extra_ns, size=-1):
    """``Telemetry.pipe`` as it was before the pipe store, feeding the
    references: the link recorder's row, less the flow id it carried,
    into ``telemetry.reference_pipes``, and the tracer's ``X`` span,
    each on its own budget; ``telemetry.reference_kept`` counts the
    charges either observer kept."""
    now = telemetry.sim.now
    start = max(pipe._busy_until, now)
    kept = False
    links = telemetry.links
    if links is not None:
        if links.budget.take():
            kept = True
            telemetry.reference_pipes.append(
                (kind, owner, start, base_ns, penalty_ns, extra_ns,
                 start - now))
        else:
            links.truncated = True
    duration = base_ns + penalty_ns + extra_ns
    tracer = telemetry.tracer
    if tracer is not None and duration > 0:
        kept = kept or tracer.budget.remaining > 0
        node, track, name = telemetry.pipe_rows.tracks[kind, owner]
        tracer.complete(node, track, name, start, duration, "fabric",
                        None if size < 0 else size)
    telemetry.reference_kept += kept


def referenced(telemetry):
    """Route ``telemetry``'s pipe charges to :func:`reference_pipe`."""
    telemetry.pipe = partial(reference_pipe, telemetry)
    telemetry.reference_pipes, telemetry.reference_kept = [], 0
    return telemetry


def reference_tracing(telemetry, budget, switches=()):
    """A :class:`CallSiteTracer` on ``budget`` as the bundle's tracer."""
    tracer = telemetry.tracer = CallSiteTracer(telemetry.sim, budget)
    telemetry.pipes_observed = True
    for switch in switches:
        if switch.ports:
            tracer.name_process(telemetry.num_nodes + switch.index,
                                switch.name)
    return tracer


def assert_pipes_match(telemetry, reference):
    """The trace, the link recorder's pipe rows and the drop counts of
    ``telemetry`` equal those of a ``referenced`` bundle, and the pipe
    store holds one row per charge either observer kept."""
    tracer, ref = telemetry.tracer, reference.tracer
    if ref is not None:
        dropped = ref.budget.dropped
        assert tracer.budget.dropped == dropped
        assert written([tracer], dropped) == json.dumps(ref.to_dict())
        assert "fabric" not in {tracer.series.names[code][4]
                                for code in tracer.rows.columns()[:, 0]}
    links, ref_links = telemetry.links, reference.links
    if ref_links is not None:
        assert ([row[:7] for row in links.pipes]
                == reference.reference_pipes)
        assert ((links.dropped_records, links.truncated)
                == (ref_links.dropped_records, ref_links.truncated))
    assert len(telemetry.pipe_rows) == reference.reference_kept


#: one step of a bundle's life: a pipe charge (pipe, base, penalty, its
#: backlog, size), a verbs span, enabling the tracer or the link
#: recorder with a budget of that many slots, or time moving on.
pipe_steps = st.lists(st.one_of(
    st.tuples(st.just("pipe"), st.integers(0, 1), st.sampled_from([0, 3, 9]),
              st.sampled_from([0, 0, 7]), st.sampled_from([0, 0, 4, 20]),
              st.sampled_from([-1, 64])),
    st.tuples(st.just("span"), st.integers(0, 20)),
    st.tuples(st.just("tracer"), st.integers(0, 12)),
    st.tuples(st.just("links"), st.integers(0, 12)),
    st.tuples(st.just("advance"), st.integers(0, 10)),
), max_size=40)
PIPES = (("egress", 0), ("trunk", "leaf0:p1"))


def replay_pipes(steps, reference):
    telemetry = Telemetry(Simulator(), 2)
    telemetry.pipe_rows.tracks.update({("egress", 0): (0, "egress", "tx"),
                                       ("trunk", "leaf0:p1"): (2, "p1", "fwd")})
    if reference:
        referenced(telemetry)
    pipe = RatePipe(telemetry.sim, 1.0)
    for step, *args in steps:
        if step == "pipe":
            which, base, penalty, backlog, size = args
            pipe._busy_until = telemetry.sim.now + backlog
            telemetry.pipe(*PIPES[which], pipe, base, penalty, 0, size)
        elif step == "span" and telemetry.tracer is not None:
            telemetry.tracer.complete(1, "qp1", "send", telemetry.sim.now,
                                      args[0], "verbs", 8)
        elif step == "tracer" and telemetry.tracer is None:
            if reference:
                reference_tracing(telemetry, TraceBudget(args[0]))
            else:
                telemetry.enable_tracing(TraceBudget(args[0]))
        elif step == "links":
            telemetry.enable_links(TraceBudget(args[0]))
        elif step == "advance":
            telemetry.sim.now += args[0]
    return telemetry


class TestPipeStoreOracle:
    @given(steps=pipe_steps)
    # Each observer enabled mid-run, a zero-length charge only the link
    # recorder keeps, and spans at the instant of a pipe charge, before
    # and after it.
    @example(steps=[("links", 4), ("pipe", 0, 0, 0, 0, 64),
                    ("tracer", 4), ("span", 5), ("pipe", 1, 3, 7, 0, 64),
                    ("span", 0), ("pipe", 0, 9, 0, 4, -1),
                    ("pipe", 0, 9, 0, 4, 64), ("pipe", 1, 3, 0, 0, 64)])
    @settings(deadline=None, max_examples=300)
    def test_store_equals_a_row_store_per_observer(self, steps):
        assert_pipes_match(replay_pipes(steps, False),
                           replay_pipes(steps, True))


# -- end to end: a traced, reported run matches both references -----------

#: the default budgets of a tracer and a link recorder, from the start.
UNCAPPED = {"tracer": (500_000, 0), "links": (2_000_000, 0)}


def observed_run(design, tracer=None, links=None, reference=False):
    """A 4-node run of ``design``.  ``tracer`` and ``links`` are each
    ``(slots, at_ns)``: that observer's budget and the simulated time it
    is enabled at (0: before the run; None: off).  With ``reference``,
    pipe charges go to :func:`reference_pipe` and the tracer is a
    :class:`CallSiteTracer`."""
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
    telemetry = cluster.telemetry
    if reference:
        referenced(telemetry)

    def enable_tracer(slots):
        if reference:
            reference_tracing(telemetry, TraceBudget(slots),
                              cluster.fabric.topology.switches)
        else:
            telemetry.enable_tracing(TraceBudget(slots))

    def enable_links(slots):
        telemetry.enable_links(TraceBudget(slots))

    for enable, setting in ((enable_tracer, tracer), (enable_links, links)):
        if setting is not None:
            slots, at_ns = setting
            if at_ns:
                cluster.sim.call_later(at_ns, partial(enable, slots))
            else:
                enable(slots)
    run_repartition(cluster, design, bytes_per_node=1 << 20)
    return cluster


@pytest.mark.parametrize("tracer, links, premise", [
    ((600, 0), (1000, 0),
     lambda tr, links: tr.pipes.part.stop < links.pipes.part.stop),
    ((1000, 0), (600, 0),
     lambda tr, links: links.pipes.part.stop < tr.pipes.part.stop),
    # Data moves from 10.27 ms on, after connection setup.
    ((300, 10_400_000), (1000, 0), lambda tr, links: tr.pipes.part.start),
    ((900, 0), (300, 10_400_000), lambda tr, links: links.pipes.part.start),
], ids=["tracer-dry-first", "links-dry-first", "tracer-later",
        "links-later"])
def test_each_observer_keeps_one_range_of_the_pipe_store(tracer, links,
                                                         premise):
    telemetry = observed_run("SEMQ/SR", tracer, links).telemetry
    reference = observed_run("SEMQ/SR", tracer, links, True).telemetry
    assert premise(telemetry.tracer, telemetry.links)
    assert telemetry.tracer.budget.dropped and telemetry.links.truncated
    assert_pipes_match(telemetry, reference)
    # The links change nothing in the trace.
    alone = observed_run("SEMQ/SR", tracer).telemetry.tracer
    assert (written([alone], alone.budget.dropped)
            == written([telemetry.tracer], telemetry.tracer.budget.dropped))


def test_traced_run_matches_references():
    runs = []
    for design in ("SEMQ/SR", "MESQ/SR", "MEMQ/RD"):
        cluster = observed_run(design, **UNCAPPED)
        tracer = cluster.telemetry.tracer
        reference = observed_run(design, reference=True,
                                 **UNCAPPED).telemetry.tracer
        runs.append((tracer, reference))
        text = written([tracer], 0)
        data = [e for e in json.loads(text)["traceEvents"] if e["ph"] != "M"]
        assert len(tracer.events) == len(data) == len(reference.events) > 0
        assert text == json.dumps(reference.to_dict())
        links = cluster.telemetry.links
        report = cluster.run_report()
        assert (report["attribution"]
                == reference_attribute(links, 0, cluster.sim.now))
        assert report["critical_path"] == reference_critical_path(links)
        assert report["latency_ns"] == latency_summary(
            reference_latencies(links))
    # Two runs in one document, as a session writes them: their events
    # interleave by ts, ties in run order.
    flat, reference = zip(*runs[:2])
    assert (written(flat, 0, runs=2)
            == json.dumps(reference_document(reference, 0, runs=2)))
