"""Properties of the packet-train / per-packet-oracle equivalence.

The contract (see :mod:`repro.sim.trains`): how a message's wire bytes
are split into train boundaries is *unobservable* — delivery times,
pipe occupancy, per-port byte counts and drop decisions depend only on
the total, never on ``n_packets``.  These properties drive the pipe and
the fabric with arbitrary sizes and boundary counts to pin that down,
including the boundary cases called out in the design: one-packet
trains, trains interleaved with other traffic, and multicast trains
split between trunk and legs mid-path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import (
    DUAL_RAIL,
    EDR,
    LEAF_SPINE,
    SINGLE_SWITCH,
    ClusterConfig,
    Fabric,
)
from repro.fabric.packet import Packet, make_train
from repro.sim import RatePipe, Simulator

TOPOLOGIES = [SINGLE_SWITCH, LEAF_SPINE(oversubscription=2), DUAL_RAIL]
TOPOLOGY_IDS = ["single-switch", "leaf-spine", "dual-rail"]


# -- pipe-level equivalence --------------------------------------------------

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 20),
                          st.integers(min_value=1, max_value=300),
                          st.integers(min_value=0, max_value=5000)),
                min_size=1, max_size=20),
       st.sampled_from([0.5, 1.0, 6.2, 12.4]))
@settings(deadline=None)
def test_oracle_pipe_completions_match_single_event(jobs, rate):
    """For any submission sequence, charging each train in one event and
    ticking it at every packet boundary complete at identical times,
    with identical occupancy counters."""
    sim_a, sim_b = Simulator(), Simulator()
    pipe_a = RatePipe(sim_a, rate)
    pipe_b = RatePipe(sim_b, rate)
    pipe_a.split_packets = False
    pipe_b.split_packets = True
    done_a, done_b = [], []
    for units, n_packets, extra in jobs:
        pipe_a.submit_train(units, n_packets,
                            lambda: done_a.append(sim_a.now), extra_ns=extra)
        pipe_b.submit_train(units, n_packets,
                            lambda: done_b.append(sim_b.now), extra_ns=extra)
    sim_a.run()
    sim_b.run()
    assert done_a == done_b
    assert sim_a.now == sim_b.now
    assert pipe_a.busy_until == pipe_b.busy_until
    assert pipe_a.busy_ns == pipe_b.busy_ns
    assert pipe_a.total_units == pipe_b.total_units


@given(st.integers(min_value=0, max_value=1 << 20),
       st.integers(min_value=2, max_value=300))
@settings(deadline=None)
def test_oracle_packet_boundaries_are_monotone_and_end_at_busy_until(
        units, n_packets):
    """The oracle's intermediate ticks are monotone non-decreasing and
    the final completion lands exactly at the pipe's ``busy_until``."""
    sim = Simulator()
    pipe = RatePipe(sim, 6.2)
    pipe.split_packets = True
    times = []
    # Intermediate no-op ticks are invisible; recover the boundaries by
    # reading the closed-form the oracle uses.
    ser = pipe._serialization_ns(units)
    boundaries = [(ser * i) // n_packets for i in range(1, n_packets)]
    pipe.submit_train(units, n_packets, lambda: times.append(sim.now))
    sim.run()
    assert boundaries == sorted(boundaries)
    assert all(0 <= b <= ser for b in boundaries)
    assert times == [pipe.busy_until]
    assert sim.now == pipe.busy_until


def test_one_packet_train_is_exactly_transmit():
    """Boundary case: n == 1 schedules precisely one completion, even in
    oracle mode — a single-MTU message has no internal boundaries."""
    sim = Simulator()
    pipe = RatePipe(sim, 12.4)
    pipe.split_packets = True
    fired = []
    pipe.submit_train(4096, 1, lambda: fired.append(sim.now))
    sim.run()
    reference = Simulator()
    ref_pipe = RatePipe(reference, 12.4)
    ref_fired = []
    ref_pipe.submit_train(4096, 1, lambda: ref_fired.append(reference.now))
    reference.run()
    assert fired == ref_fired == [int(4096 / 12.4)]
    assert sim.now == reference.now
    assert sim.events_dispatched == reference.events_dispatched == 1


# -- fabric-level equivalence ------------------------------------------------

def _route_train(topology, wire_bytes, n_packets, oracle, pairs):
    """Route one train per (src, dst) pair; returns (arrival times,
    per-port byte counts, NIC pipe byte counts)."""
    sim = Simulator()
    config = ClusterConfig(network=EDR, num_nodes=8, topology=topology)
    fabric = Fabric(sim, config)
    if oracle:
        fabric.use_packet_oracle()
    arrivals = []
    for src, dst in pairs:
        pkt = Packet(src, dst, 11, 22, "SEND", 0, wire_bytes,
                          n_packets=n_packets)
        fabric.route(pkt, lambda p: arrivals.append((sim.now, p.dst_node)))
    sim.run()
    ports = {p.name: p.pipe.total_units for p in fabric.topology.ports()}
    nics = [(n.nic.egress.total_units, n.nic.ingress.total_units)
            for n in fabric.nodes]
    return arrivals, ports, nics


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPOLOGY_IDS)
@given(wire_bytes=st.integers(min_value=1, max_value=1 << 20),
       n_packets=st.integers(min_value=1, max_value=256))
@settings(deadline=None, max_examples=20)
def test_train_boundaries_unobservable_end_to_end(topology, wire_bytes,
                                                  n_packets):
    """Splitting a message into arbitrary train boundaries changes
    neither delivery times nor per-port byte counts, on any preset —
    incast pairs included so trains queue behind each other."""
    pairs = [(0, 6), (1, 6), (5, 2), (6, 6)]  # cross-leaf, incast, loopback
    train = _route_train(topology, wire_bytes, 1, False, pairs)
    oracle = _route_train(topology, wire_bytes, n_packets, True, pairs)
    assert train == oracle


# -- multicast: trunk/leg split mid-train ------------------------------------

def _mcast_trains(topology, oracle):
    """Blast multicast trains with jitter and loss; returns every
    per-leg outcome in completion order."""
    sim = Simulator()
    config = ClusterConfig(network=EDR, num_nodes=8,
                           topology=topology).with_network(
        ud_jitter_ns=2600, ud_loss_probability=0.25)
    fabric = Fabric(sim, config)
    if oracle:
        fabric.use_packet_oracle()
    mgid = 7
    for node in range(1, 8):
        fabric.mcast_attach(mgid, node, 200 + node)
    outcomes = []

    def on_leg(copy):
        outcomes.append((sim.now, copy.dst_node, copy.dropped,
                         copy.n_packets))

    for seq in range(16):
        pkt = Packet(0, 0, 11, 0, "SEND", 12288, 12378,
                          meta={"seq": seq}, n_packets=3)
        fabric.route_mcast(pkt, mgid, on_leg)
    sim.run()
    return (tuple(outcomes), sim.now,
            fabric.delivered_messages, fabric.delivered_packets,
            fabric.dropped_messages)


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPOLOGY_IDS)
def test_mcast_trunk_leg_split_mid_train(topology):
    """A replicated train is split between shared trunk and per-member
    legs; each leg must carry the full train shape, and the oracle must
    agree on arrival times, drop draws and packet accounting."""
    train = _mcast_trains(topology, False)
    oracle = _mcast_trains(topology, True)
    assert train == oracle
    outcomes, _now, delivered, packets, dropped = train
    assert delivered + dropped == len(outcomes) == 16 * 7
    assert all(n == 3 for (_t, _d, _drop, n) in outcomes), \
        "legs must preserve the train shape"
    assert packets == 3 * delivered
    assert dropped > 0 and delivered > 0


def test_make_train_segments_rc_by_mtu():
    net = EDR
    t = make_train(net, src_node=0, dst_node=1, src_qpn=1, dst_qpn=2,
                   kind="SEND", length=1 << 20, transport="RC")
    assert t.n_packets == (1 << 20) // net.mtu
    assert t.wire_bytes == net.wire_bytes(1 << 20, "RC")
    small = make_train(net, src_node=0, dst_node=1, src_qpn=1, dst_qpn=2,
                       kind="SEND", length=0, transport="RC")
    assert small.n_packets == 1
    ud = make_train(net, src_node=0, dst_node=1, src_qpn=1, dst_qpn=2,
                    kind="SEND", length=4096, transport="UD")
    assert ud.n_packets == 1
    ack = make_train(net, src_node=0, dst_node=1, src_qpn=1, dst_qpn=2,
                     kind="ACK", length=0, wire_bytes=net.rc_ack_bytes)
    assert ack.n_packets == 1
    with pytest.raises(ValueError):
        make_train(net, src_node=0, dst_node=1, src_qpn=1, dst_qpn=2,
                   kind="SEND", length=64)
    with pytest.raises(ValueError):
        Packet(0, 1, 1, 2, "SEND", 0, 30, n_packets=0)
