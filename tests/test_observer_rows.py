"""An observed run stores its records as typed rows.

The tracer and the link recorder keep each record as one fixed-width row
of int64 fields, with every string interned to a small code, and build
the Chrome dicts and the flow/interval/stall tuples only when read.
These tests pin the byte budget of a record, that reading gives back
exactly what was recorded, that writing a trace holds no event list,
and that the sanitizer's in-flight table is keyed per node.
"""

import json
import tracemalloc

import pytest

from repro import Cluster, ClusterConfig, EDR
from repro.bench.workloads import run_repartition
from repro.sim import RatePipe, Simulator
from repro.telemetry import Telemetry, TraceBudget, Tracer
from repro.telemetry.links import FlowRecorder

APPENDS = 20_000
#: ns around one simulated second, so no value is a cached small int.
T0 = 10**9


def bytes_per_record(make, record):
    """Traced bytes one more record costs, over :data:`APPENDS` calls
    (after a first call, so interning a string is not counted)."""
    sink = make()
    record(sink, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(1, APPENDS + 1):
            record(sink, T0 + 1000 * i)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / APPENDS


def tracer():
    return Tracer(Simulator(), TraceBudget(10 * APPENDS))


def recorder():
    return FlowRecorder(Simulator(), TraceBudget(10 * APPENDS))


PIPE = RatePipe(Simulator(), 1.0)


def pipe_observers(*enable):
    """A bundle whose one pipe-observer call lands in the observers
    ``enable`` turns on, and in the one pipe store."""
    def make():
        telemetry = Telemetry(Simulator(), 4)
        telemetry.pipe_rows.tracks["egress", 0] = (0, "egress", "tx")
        for on in enable:
            on(telemetry, TraceBudget(10 * APPENDS))
        return telemetry
    return make


def pipe_charge(telemetry, t):
    PIPE._busy_until = t
    telemetry.pipe("egress", 0, PIPE, 700 + t % 5000, 0, 0, 64 + t % 5000)


@pytest.mark.parametrize("make, record", [
    (pipe_observers(Telemetry.enable_tracing), pipe_charge),
    (tracer, lambda tr, t: tr.complete(0, "qp1", "send", t, 700 + t % 5000,
                                       "verbs", 64 + t % 5000)),
    (pipe_observers(Telemetry.enable_links), pipe_charge),
    (pipe_observers(Telemetry.enable_tracing, Telemetry.enable_links),
     pipe_charge),
    (recorder, lambda links, t: links.stall(0, 1, "credit-stall", t,
                                            700 + t % 5000)),
    (recorder, lambda links, t: links.new_flow("data", 0, 1, 64 + t % 5000,
                                               prev=t // 1000)),
], ids=["span", "complete", "pipe", "pipe-and-span", "stall", "flow"])
def test_a_record_costs_at_most_80_bytes(make, record):
    """A tuple of boxed ints cost 152 to 240 B a record; a row of nine
    int64 fields at most is 72, and a pipe charge both observers keep is
    one row."""
    assert bytes_per_record(make, record) <= 80


def test_trace_reads_back_what_was_recorded(tmp_path):
    sim = Simulator()
    # 5 slots: three spans and two instants; the fourth span is refused.
    tr = Tracer(sim, TraceBudget(5))
    tr.name_process(5, "leaf0")
    tr.complete(0, "egress", "tx", T0, 700, "fabric", 4096)
    tr.complete(1, "qp1", "send", T0 + 5, 300, "verbs", 65536.0)
    tr.complete(5, "p1", "hop", T0 + 10, 10, "fabric")
    tr.instant(0, "sanitizer", "qp-state", cat="sanitizer",
               args={"message": "m"})
    tr.instant(1, "scheduler", "decision", ts_ns=T0 + 30, args={})
    tr.complete(0, "egress", "tx", T0 + 700, 200, "fabric", 64)
    assert tr.budget.dropped == 1
    assert list(tr.events) == [
        {"ph": "X", "pid": 0, "tid": 1, "name": "tx", "cat": "fabric",
         "ts": T0 / 1000, "dur": 0.7, "args": {"bytes": 4096}},
        {"ph": "X", "pid": 1, "tid": 2, "name": "send", "cat": "verbs",
         "ts": (T0 + 5) / 1000, "dur": 0.3, "args": {"bytes": 65536}},
        {"ph": "X", "pid": 5, "tid": 3, "name": "hop", "cat": "fabric",
         "ts": (T0 + 10) / 1000, "dur": 0.01},
        {"ph": "i", "pid": 0, "tid": 4, "name": "qp-state",
         "cat": "sanitizer", "ts": 0.0, "s": "t",
         "args": {"message": "m"}},
        {"ph": "i", "pid": 1, "tid": 5, "name": "decision", "cat": "",
         "ts": (T0 + 30) / 1000, "s": "t"},
    ]
    assert len(tr.events) == 5
    path = tmp_path / "trace.json"
    tr.export(str(path))
    names = [e["args"]["name"]
             for e in json.loads(path.read_text())["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"]
    assert names == ["node0", "node1", "leaf0"]


def test_writing_a_trace_holds_no_event_list(tmp_path):
    """Exporting this run (96,270 events when a pipe span was a B/E
    pair, 57,873 X events now) built and sorted a dict per event, a
    37.0 MiB peak; rendering them one at a time in the order of a sort
    of the rows' ts column needs the rows and that order."""
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=8))
    tracer = cluster.enable_tracing()
    run_repartition(cluster, "MESQ/SR", bytes_per_node=4 << 20)
    assert len(tracer.events) == 57_873
    tracemalloc.start()
    try:
        tracer.export(str(tmp_path / "trace.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 << 20


def test_link_records_read_back_and_extend_as_tuples():
    telemetry = Telemetry(Simulator(), 4)
    links = telemetry.enable_links(TraceBudget(4))
    PIPE._busy_until = T0 + 40
    telemetry.pipe("proc", 2, PIPE, 300, 2_000, 700)
    telemetry.pipe("trunk", "leaf0:p1", PIPE, 4096, 0, 0, 4160)
    links.stall(2, 7, "credit-stall", T0, 500)
    links.stall(2, -1, "rnr-stall", T0 + 9, 0)  # zero: not a record
    links.stall(3, 1, "data-wait", T0 + 3, 60)
    links.stall(3, 1, "free-wait", T0 + 4, 70)
    telemetry.pipe("egress", 0, PIPE, 64, 0, 0, 64)  # over budget
    assert links.truncated and links.dropped_records == 2
    pipes = [("proc", 2, T0 + 40, 300, 2_000, 700, T0 + 40, -1, 0),
             ("trunk", "leaf0:p1", T0 + 40, 4096, 0, 0, T0 + 40, 4160, 0)]
    stalls = [(2, 7, "credit-stall", T0, 500), (3, 1, "data-wait", T0 + 3, 60)]
    assert list(links.pipes) == pipes and list(links.stalls) == stalls
    assert list(telemetry.pipe_rows) == pipes  # a refused charge: no row

    copy = FlowRecorder(telemetry.sim)
    copy.pipes.extend(links.pipes)
    copy.stalls.extend(stalls + [(0, 0, "free-wait", 5, 6)])
    copy.pipes.extend([("ingress", -4, 1, 2, 3, 4, 5, 6, 7)])
    assert list(copy.pipes) == pipes + [("ingress", -4, 1, 2, 3, 4, 5, 6, 7)]
    assert list(copy.stalls) == stalls + [(0, 0, "free-wait", 5, 6)]
    with pytest.raises(ValueError):
        copy.stalls.extend([(0, 0, "free-wait", 5)])


def test_flows_read_back_with_delivery_stamped_in_place():
    sim = Simulator()
    links = FlowRecorder(sim, TraceBudget(3))
    sim.now = T0
    data = links.new_flow("data", 0, 1, 4096)
    links.pending_trigger = data
    credit = links.new_flow("credit", 1, 0, 0, prev=7)
    sim.now = T0 + 900
    links.on_deliver(data, buf="slot")
    read = links.new_flow("read", 2, 3, 64, prev=credit)
    assert links.new_flow("data", 0, 1, 64) == 0  # over budget
    assert (data, credit, read) == (1, 2, 3) and links.truncated
    assert links.buffer_flow("slot") == data
    assert list(links.flows) == [
        ("data", 0, 1, 4096, T0, T0 + 900, 0, 0),
        ("credit", 1, 0, 0, T0, -1, 7, data),
        ("read", 2, 3, 64, T0 + 900, -1, credit, 0)]


def test_sanitizer_counts_in_flight_per_node_by_address():
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
    san = cluster.enable_sanitizer()
    run_repartition(cluster, "MESQ/SR", bytes_per_node=1 << 20)
    assert not san.violations
    assert san._by_node and all(
        type(node) is int and all(type(addr) is int for addr in counts)
        for node, counts in san._by_node.items())
