"""Unit tests for the MPI, IPoIB and qperf baselines."""

import pytest

from repro import Cluster, ClusterConfig, EDR, FDR
from repro.baselines import run_qperf
from repro.baselines.mpi import MPIRuntime
from repro.bench.workloads import run_repartition

MIB = 1 << 20


class TestQperf:
    def test_edr_peak_near_line_rate(self):
        gib = run_qperf(EDR)
        assert 10.5 < gib < 12.0  # paper: ~11.5 GiB/s

    def test_fdr_peak_near_line_rate(self):
        gib = run_qperf(FDR)
        assert 5.2 < gib < 6.2  # paper: ~5.9 GiB/s

    def test_tiny_messages_become_rate_bound(self):
        # At 256 B the per-work-request NIC processing dominates the
        # serialization time and throughput collapses.
        assert run_qperf(EDR, message_size=256, messages=4096) < \
            0.5 * run_qperf(EDR, message_size=65536)

    def test_rejects_empty_run(self):
        """One message times nothing: the first arrival only starts the
        span, so ``messages=1`` used to return 0.0 GiB/s."""
        for messages in (0, 1):
            with pytest.raises(ValueError, match="^messages must be >= 2"):
                run_qperf(EDR, messages=messages)


class TestMPIRuntime:
    def test_runtime_is_per_node_singleton(self):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                        threads_per_node=2))
        a = MPIRuntime.get(cluster.contexts[0])
        b = MPIRuntime.get(cluster.contexts[0])
        c = MPIRuntime.get(cluster.contexts[1])
        assert a is b
        assert a is not c

    def test_eager_send_recv_roundtrip(self):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                        threads_per_node=1))
        rt0 = MPIRuntime.get(cluster.contexts[0])
        rt1 = MPIRuntime.get(cluster.contexts[1])

        def sender():
            yield from rt0.mpi_send(1, tag=7, payload="hello", length=64)

        def receiver():
            src, payload, length = yield from rt1.mpi_recv(tag=7)
            return (src, payload, length)

        cluster.sim.process(sender())
        got = cluster.run_process(receiver())
        assert got == (0, "hello", 64)

    def test_rendezvous_waits_for_matching_recv(self):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                        threads_per_node=1))
        rt0 = MPIRuntime.get(cluster.contexts[0])
        rt1 = MPIRuntime.get(cluster.contexts[1])
        big = 256 * 1024  # far beyond the eager threshold
        send_done = {}

        def sender():
            yield from rt0.mpi_send(1, tag=3, payload="bulk", length=big)
            send_done["at"] = cluster.sim.now

        def receiver():
            yield 200_000  # receiver shows up late
            src, payload, length = yield from rt1.mpi_recv(tag=3)
            return length

        cluster.sim.process(sender())
        assert cluster.run_process(receiver()) == big
        # The blocking send cannot complete before the receiver matched.
        assert send_done["at"] >= 200_000

    def test_rendezvous_ids_of_two_senders_do_not_collide(self):
        """Request ids are per runtime, so two nodes' first rendezvous
        both carry id 1; the receiver keys them with the source node and
        hands each data message to the receive its own RTS matched."""
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=3,
                                        threads_per_node=2))
        runtimes = [MPIRuntime.get(ctx) for ctx in cluster.contexts]
        got = {}

        def sender(node, tag, length):
            yield from runtimes[node].mpi_send(
                2, tag=tag, payload=f"from-{node}", length=length)

        def receiver(tag):
            got[tag] = yield from runtimes[2].mpi_recv(tag=tag)

        # Node 1's smaller message overtakes node 0's on the wire.
        cluster.sim.process(sender(0, 3, 1024 * 1024))
        cluster.sim.process(sender(1, 4, 64 * 1024))
        cluster.sim.process(receiver(3))
        cluster.sim.process(receiver(4))
        cluster.run()
        assert got == {3: (0, "from-0", 1024 * 1024),
                       4: (1, "from-1", 64 * 1024)}

    def test_progress_gated_on_mpi_calls(self):
        """An arriving message is not matched while no thread is inside
        the MPI library (the overlap-failure mechanism)."""
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                        threads_per_node=1))
        rt1 = MPIRuntime.get(cluster.contexts[1])
        assert rt1.in_mpi == 0
        # Inject a wire-level arrival while nobody is in an MPI call: it
        # must park in the backlog, not be processed.
        from repro.fabric.packet import Packet
        pkt = Packet(0, 1, 0, 0, "MPI_EAGER", 10, 64, payload="x",
                     meta={"tag": 9})
        rt1._on_wire(pkt)
        assert len(rt1._backlog) == 1

        def receiver():
            src, payload, _len = yield from rt1.mpi_recv(tag=9)
            return payload

        assert cluster.run_process(receiver()) == "x"
        assert len(rt1._backlog) == 0


class TestBaselineShuffles:
    def test_mpi_slower_than_rdma(self):
        def thr(design):
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
            return run_repartition(
                cluster, design,
                bytes_per_node=8 * MIB).receive_throughput_gib_per_node()

        assert thr("MESQ/SR") > thr("MPI")

    @pytest.mark.parametrize("design", ["MPI", "IPoIB"])
    def test_baselines_account_through_the_shared_points(self, design):
        """record_send and the data-wait helper are the same ones every
        RDMA design reports through: per-destination bytes reach the
        snapshot, data-wait stalls reach the link recorder."""
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4,
                                        threads_per_node=2))
        links = cluster.enable_reporting()
        result = run_repartition(cluster, design, bytes_per_node=1 * MIB)
        for metrics in cluster.metrics_snapshot()["nodes"].values():
            by_dest = metrics["ep.bytes_by_dest"]
            assert sorted(by_dest) == ["0", "1", "2", "3"]
            assert sum(by_dest.values()) == metrics["ep.bytes_sent"]
            assert metrics["ep.dest_skew"] >= 1.0
        waits = [duration for _node, _ep, kind, _start, duration
                 in links.stalls if kind == "data-wait"]
        assert waits
        assert sum(waits) == result.recv_data_wait_ns

    def test_ipoib_slowest(self):
        def thr(design):
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
            return run_repartition(
                cluster, design,
                bytes_per_node=6 * MIB).receive_throughput_gib_per_node()

        ipoib = thr("IPoIB")
        assert ipoib < thr("MPI")
        # IPoIB is capped by the kernel stack, far below line rate.
        assert ipoib < 0.5 * EDR.link_bytes_per_ns
