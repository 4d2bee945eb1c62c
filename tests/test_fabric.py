"""Unit tests for the simulated fabric (NIC, links, routing)."""

import random
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.fabric import EDR, FDR, ClusterConfig, Fabric, Packet, QPContextCache
from repro.fabric.packet import make_train
from repro.fabric.routing import Flight
from repro.fabric.topology import Hop
from repro.sim import Event, RatePipe, Simulator


@pytest.fixture
def sim():
    return Simulator()


def make_fabric(sim, nodes=2, network=EDR, **net_overrides):
    cluster = ClusterConfig(network=network, num_nodes=nodes)
    if net_overrides:
        cluster = cluster.with_network(**net_overrides)
    return Fabric(sim, cluster)


class TestQPContextCache:
    def test_first_touch_misses_then_hits(self):
        cache = QPContextCache(4)
        assert cache.touch(1) is False
        assert cache.touch(1) is True
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = QPContextCache(2)
        cache.touch(1)
        cache.touch(2)
        cache.touch(1)  # 1 most recent
        cache.touch(3)  # evicts 2
        assert cache.touch(1) is True
        assert cache.touch(2) is False

    def test_occupancy_bounded_by_capacity(self):
        cache = QPContextCache(3)
        for qpn in range(10):
            cache.touch(qpn)
        assert cache.occupancy == 3

    def test_evict(self):
        cache = QPContextCache(4)
        cache.touch(5)
        cache.evict(5)
        assert cache.touch(5) is False

    def test_miss_rate(self):
        cache = QPContextCache(8)
        cache.touch(1)
        cache.touch(1)
        assert cache.miss_rate == 0.5

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            QPContextCache(0)


class TestPacket:
    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            Packet(0, 1, 1, 2, "SEND", -1, 10)

    def test_rejects_wire_smaller_than_payload(self):
        with pytest.raises(ValueError):
            Packet(0, 1, 1, 2, "SEND", 100, 50)


class TestWireBytes:
    def test_ud_adds_header(self):
        assert EDR.wire_bytes(4096, "UD") == 4096 + EDR.ud_header_bytes

    def test_rc_segments_by_mtu(self):
        # 64 KiB = 16 MTU packets, each with an RC header
        assert EDR.wire_bytes(65536, "RC") == 65536 + 16 * EDR.rc_header_bytes

    def test_rc_small_message_single_packet(self):
        assert EDR.wire_bytes(100, "RC") == 100 + EDR.rc_header_bytes

    def test_make_train_derives_wire_bytes_from_transport(self):
        ends = dict(src_node=0, dst_node=1, src_qpn=1, dst_qpn=2,
                    kind="SEND")
        rc = make_train(EDR, length=1 << 20, transport="RC", **ends)
        assert rc.wire_bytes == EDR.wire_bytes(1 << 20, "RC")
        ud = make_train(EDR, length=4096, transport="UD", **ends)
        assert ud.wire_bytes == EDR.wire_bytes(4096, "UD")

    def test_make_train_needs_transport_or_wire_bytes(self):
        with pytest.raises(ValueError):
            make_train(EDR, src_node=0, dst_node=1, src_qpn=1, dst_qpn=2,
                       kind="SEND", length=64)


def routed(sim, fabric, pkt, **kwargs):
    """Route ``pkt``; the Event a test thread waits on for its arrival
    (the fabric itself takes continuations and constructs no Event)."""
    arrival = Event(sim)
    fabric.route(pkt, arrival.succeed, **kwargs)
    return arrival


class TestRouting:
    def test_delivery_latency_includes_serialization_and_switch(self, sim):
        fabric = make_fabric(sim, network=EDR, ud_jitter_ns=0)
        pkt = Packet(0, 1, 1, 2, "SEND", 65536, 65536)

        def proc():
            arrived = yield routed(sim, fabric, pkt)
            return (sim.now, arrived)

        t, arrived = sim.run_process(proc())
        serialization = int(65536 / EDR.link_bytes_per_ns)
        # egress + switch + ingress (+ QP-cache miss on first ingress touch)
        expected = 2 * serialization + EDR.switch_latency_ns + EDR.qp_cache_miss_ns
        assert t == expected
        assert arrived is pkt and not pkt.dropped

    def test_egress_event_fires_before_arrival(self, sim):
        fabric = make_fabric(sim, ud_jitter_ns=0)
        pkt = Packet(0, 1, 1, 2, "SEND", 4096, 4096)
        times = {}

        def proc():
            yield routed(
                sim, fabric, pkt,
                on_egress=lambda: times.setdefault("egress", sim.now))
            times["arrival"] = sim.now

        sim.run_process(proc())
        assert times["egress"] < times["arrival"]

    def test_sender_egress_serializes_concurrent_messages(self, sim):
        fabric = make_fabric(sim, ud_jitter_ns=0)
        done = []

        def send(dst):
            pkt = Packet(0, dst, 1, 2, "SEND", 65536, 65536)
            yield routed(sim, fabric, pkt)
            done.append(sim.now)

        # Two messages to different destinations share node 0's egress port.
        fabric2 = make_fabric(Simulator(), nodes=3)  # unused, shape check
        fabric = make_fabric(sim, nodes=3, ud_jitter_ns=0)
        sim.process(send(1))
        sim.process(send(2))
        sim.run()
        serialization = int(65536 / EDR.link_bytes_per_ns)
        # The second message could not start serializing until the first
        # finished: arrivals at least one serialization apart.
        assert done[1] - done[0] >= serialization

    def test_loopback_charges_hca_but_not_switch(self, sim):
        fabric = make_fabric(sim)
        pkt = Packet(0, 0, 1, 2, "SEND", 1 << 20, 1 << 20)

        def proc():
            yield routed(sim, fabric, pkt)
            return sim.now

        t = sim.run_process(proc())
        serialization = int((1 << 20) / EDR.link_bytes_per_ns)
        # DMA out and back in through the adapter, but no switch hop.
        assert t >= 2 * serialization
        assert t < 2 * serialization + EDR.qp_cache_miss_ns + 100
        assert t < 2 * serialization + EDR.switch_latency_ns + EDR.qp_cache_miss_ns

    def test_loss_injection_drops_packets(self, sim):
        fabric = make_fabric(sim, ud_loss_probability=1.0, ud_jitter_ns=0)
        pkt = Packet(0, 1, 1, 2, "SEND", 100, 160)

        def proc():
            arrived = yield routed(sim, fabric, pkt, lossy=True)
            return arrived

        arrived = sim.run_process(proc())
        assert arrived.dropped
        assert fabric.dropped_messages == 1

    def test_no_loss_when_not_lossy(self, sim):
        fabric = make_fabric(sim, ud_loss_probability=1.0, ud_jitter_ns=0)
        pkt = Packet(0, 1, 1, 2, "SEND", 100, 160)

        def proc():
            arrived = yield routed(sim, fabric, pkt, lossy=False)
            return arrived

        assert not sim.run_process(proc()).dropped

    def test_unordered_jitter_reorders_messages(self):
        # With jitter, some pair of back-to-back small messages must be
        # reordered across enough trials.
        sim = Simulator()
        fabric = make_fabric(sim, ud_jitter_ns=5000)
        arrivals = []

        def send(seq):
            pkt = Packet(0, 1, 1, 2, "SEND", 64, 124, meta={"seq": seq})
            arrived = yield routed(sim, fabric, pkt, unordered=True)
            arrivals.append(arrived.meta["seq"])

        for seq in range(50):
            sim.process(send(seq))
        sim.run()
        assert sorted(arrivals) == list(range(50))
        assert arrivals != list(range(50)), "jitter should reorder someone"

    def test_the_wire_allocates_no_event(self, sim, monkeypatch):
        """Below the verbs API a completion is a continuation: routing
        packets (unicast and multicast) and charging a pipe construct
        no Event — those are what CPU threads wait on."""
        fabric = make_fabric(sim, nodes=3)
        for node in (1, 2):
            fabric.mcast_attach(9, node, 100 + node)
        pipe = RatePipe(sim, 2.0)
        created = []
        init = Event.__init__

        def counting_init(self, *args, **kwargs):
            created.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Event, "__init__", counting_init)
        arrivals, left = [], []
        for seq in range(20):
            fabric.route(Packet(0, 1, 1, 2, "SEND", 4096, 4156),
                         arrivals.append, unordered=True, lossy=True,
                         on_egress=lambda: left.append(sim.now))
            fabric.route_mcast(Packet(0, 0, 1, 0, "SEND", 2048, 2108), 9,
                               arrivals.append)
            pipe.submit_train(8192, lambda: None, extra_ns=5)
            pipe.submit_occupy(40, lambda: None)
        sim.run()
        assert len(arrivals) == 20 * 3 and len(left) == 20
        assert created == []

    def test_cluster_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(network=EDR, num_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(network=EDR, num_nodes=2, threads_per_node=-1)

    def test_threads_default_to_cores(self):
        cluster = ClusterConfig(network=FDR, num_nodes=2)
        assert cluster.threads_per_node == FDR.cores_per_node


@pytest.mark.parametrize("jitter", [1, 2, 3, 7, 1000, 2048, 2200, 2600,
                                    4097])
def test_jitter_draws_are_randrange(jitter):
    """A datagram's first-hop jitter, drawn in place from the fabric's
    generator, is the value and leaves the stream where
    ``Random.randrange(jitter)`` would, seed by seed."""
    for seed in range(100):
        delays = []
        fabric = SimpleNamespace(
            config=SimpleNamespace(ud_jitter_ns=jitter),
            _rng=random.Random(seed),
            sim=SimpleNamespace(
                call_later=lambda delay, _step: delays.append(delay)))
        for _ in range(4):
            Flight(fabric, None, [Hop(None, 0)], True, False, None).advance()
        reference = random.Random(seed)
        assert delays == [reference.randrange(jitter) for _ in range(4)]
        assert fabric._rng.random() == reference.random()


def stage_calls(unordered):
    """The Python calls one warm 2-node train makes from ``Packet`` to
    its arrival, by function: a second train on a pair whose QP context
    is cached, with the drain loop and the caller's callbacks left out."""
    sim = Simulator()
    fabric = make_fabric(sim)
    arrived = []

    def route():
        fabric.route(Packet(0, 1, 1, 2, "SEND", 4096, 4160), arrived.append,
                     unordered=unordered, lossy=unordered,
                     on_egress=(lambda: None) if unordered else None)
        sim.run()

    route()
    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call" and "/repro/" in frame.f_code.co_filename:
            calls[frame.f_code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        route()
    finally:
        sys.setprofile(None)
    assert len(arrived) == 2
    del calls["Simulator.run"], calls["Simulator._drain"]
    return calls


#: every stage of a train is a call that does work: no frame only passes
#: the train along (route lookup, NIC wrappers, a hop that only walks on).
TRAIN_STAGES = Counter({
    "Packet.__init__": 1, "Fabric.route": 1, "Flight.__init__": 1,
    "RatePipe.submit_train": 2, "Flight._egressed": 1,
    "Simulator.call_later": 1, "Flight._finish": 1, "QPContextCache.touch": 1,
    "Flight._deliver": 1})


def test_an_ordered_one_hop_train_makes_ten_calls():
    assert stage_calls(unordered=False) == TRAIN_STAGES


def test_a_datagram_adds_only_its_jitter_hop():
    assert stage_calls(unordered=True) == TRAIN_STAGES + Counter(
        {"Flight.advance": 1})


class TestCpuScaling:
    def test_fdr_cpu_slower_than_edr(self):
        assert FDR.cpu(1000) > EDR.cpu(1000)

    def test_a_thread_sleeps_the_scaled_cost(self, sim):
        def proc():
            yield FDR.cpu(1000)
            return sim.now

        assert sim.run_process(proc()) == FDR.cpu(1000) == 1400
