"""One observer call per pipe charge feeds the tracer and the link recorder.

The NIC's three pipes and the switch trunks hold no observer; the site
that charges one makes a single ``Telemetry.pipe`` call first, while
either observer is on.  So every endpoint kind, the MPI runtime's
work requests included, leaves a trace span for each link-recorder
interval, and the two agree to the nanosecond.
"""

import io
import json
from collections import Counter, defaultdict

import pytest

from repro import Cluster, ClusterConfig, EDR
from repro.bench.workloads import run_repartition
from repro.core.designs import ENDPOINT_KINDS, Design
from repro.fabric import LEAF_SPINE
from repro.sim import RatePipe, Simulator
from repro.telemetry import Telemetry
from repro.telemetry.trace import write_trace

NODES = 4
#: trace track of a NIC pipe -> the link recorder's kind for it.
NIC_KINDS = {"nicproc": "proc", "egress": "egress", "ingress": "ingress"}


def count_calls(monkeypatch):
    """Count pipe charges and observer calls, per pipe."""
    charges, calls = Counter(), Counter()
    charge, observe = RatePipe._charge, Telemetry.pipe

    def counted_charge(pipe, units, duration):
        charges[id(pipe)] += 1
        return charge(pipe, units, duration)

    def counted_observe(telemetry, kind, owner, pipe, *args):
        calls[id(pipe)] += 1
        observe(telemetry, kind, owner, pipe, *args)

    monkeypatch.setattr(RatePipe, "_charge", counted_charge)
    monkeypatch.setattr(Telemetry, "pipe", counted_observe)
    return charges, calls


def fabric_pipes(cluster):
    fabric = cluster.fabric
    pipes = [pipe for node in fabric.nodes
             for pipe in (node.nic.processor, node.nic.egress,
                          node.nic.ingress)]
    return pipes + [port.pipe for port in fabric.topology.ports()]


def trace_spans(tracer):
    """(kind, owner) -> the ``[start, end)`` ns of its fabric spans."""
    fh = io.StringIO()
    write_trace(fh, [tracer], tracer.budget.dropped)
    events = json.loads(fh.getvalue())["traceEvents"]
    processes = {e["pid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
    threads = {(e["pid"], e["tid"]): e["args"]["name"] for e in events
               if e["ph"] == "M" and e["name"] == "thread_name"}
    spans = defaultdict(list)
    for e in events:
        if e["ph"] == "X" and e["cat"] == "fabric":
            pid, track = e["pid"], threads[e["pid"], e["tid"]]
            key = ((NIC_KINDS[track], pid) if pid < NODES
                   else ("trunk", f"{processes[pid]}.{track}"))
            start = round(e["ts"] * 1000)
            spans[key].append((start, start + round(e["dur"] * 1000)))
    return spans


def link_intervals(links):
    """(kind, owner) -> the ``[start, start + base + penalty + extra)``
    ns of its link-recorder rows that occupy the pipe at all."""
    intervals = defaultdict(list)
    for kind, owner, start, base, penalty, extra, _waited, _flow \
            in links.pipes:
        if base + penalty + extra > 0:
            intervals[kind, owner].append(
                (start, start + base + penalty + extra))
    return intervals


@pytest.mark.parametrize("kind", sorted(ENDPOINT_KINDS))
def test_each_charge_makes_one_call_and_spans_equal_rows(kind,
                                                         monkeypatch):
    charges, calls = count_calls(monkeypatch)
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=NODES,
                                    topology=LEAF_SPINE(2, 2)))
    tracer = cluster.enable_tracing()
    cluster.enable_reporting()
    design = Design(kind, ENDPOINT_KINDS[kind], multi_endpoint=True)
    run_repartition(cluster, design, bytes_per_node=256 << 10)
    pipes = fabric_pipes(cluster)
    assert [calls[id(p)] for p in pipes] == [charges[id(p)] for p in pipes]
    spans = trace_spans(tracer)
    intervals = link_intervals(cluster.telemetry.links)
    assert spans == intervals
    # Every kind crosses both directions of the links and the
    # leaf-spine trunks; all but IPoIB's kernel stack post NIC work
    # requests, MPI's runtime too.
    kinds = {"egress", "ingress", "trunk"} | (
        set() if kind == "IPOIB" else {"proc"})
    assert {k for k, _owner in spans} == kinds


def test_no_observer_no_call(monkeypatch):
    charges, calls = count_calls(monkeypatch)
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=NODES,
                                    topology=LEAF_SPINE(2, 2)))
    run_repartition(cluster, "MPI", bytes_per_node=64 << 10)
    assert sum(charges[id(p)] for p in fabric_pipes(cluster)) > 0
    assert not calls


def test_pipes_hold_no_observer():
    pipe = RatePipe(Simulator(), 1.0)
    assert not hasattr(pipe, "bind_trace")
    assert not [name for name in vars(pipe) if name.startswith("_trace")]
