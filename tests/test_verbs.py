"""Unit tests for the verbs layer (QPs, CQs, MRs, transports)."""

from types import SimpleNamespace

import pytest

from repro.core.transport.dispatch import CompletionDispatcher
from repro.fabric import EDR, ClusterConfig, Fabric
from repro.memory import BufferPool
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.verbs import (
    AddressHandle,
    CompletionQueue,
    Opcode,
    QPType,
    RecvWR,
    SendWR,
    VerbsContext,
    VerbsError,
    WorkCompletion,
)


@pytest.fixture
def sim():
    return Simulator()


def make_cluster(sim, nodes=2, **net_overrides):
    cluster = ClusterConfig(network=EDR, num_nodes=nodes)
    cluster = cluster.with_network(ud_jitter_ns=0, **net_overrides)
    fabric = Fabric(sim, cluster)
    return fabric, [VerbsContext(sim, fabric, i) for i in range(nodes)]


def built(pool):
    """The pool slots that have a Buffer so far."""
    return [i for i, buf in enumerate(pool._slots) if buf is not None]


def rc_pair(ctxs, a=0, b=1):
    """Create and connect an RC QP pair between two contexts."""
    cqs = []
    qps = []
    for ctx in (ctxs[a], ctxs[b]):
        cq = ctx.create_cq()
        qp = ctx.create_qp(QPType.RC, cq, cq)
        cqs.append(cq)
        qps.append(qp)
    qps[0].connect(AddressHandle(ctxs[b].node_id, qps[1].qpn))
    qps[1].connect(AddressHandle(ctxs[a].node_id, qps[0].qpn))
    return qps, cqs


class TestMemoryRegion:
    def test_register_and_account(self, sim):
        _, ctxs = make_cluster(sim)
        mr = ctxs[0].reg_mr(8192)
        assert ctxs[0].registered_bytes == 8192
        ctxs[0].dereg_mr(mr)
        assert ctxs[0].registered_bytes == 0
        assert ctxs[0].peak_registered_bytes == 8192

    def test_word_roundtrip(self, sim):
        _, ctxs = make_cluster(sim)
        mr = ctxs[0].reg_mr(64)
        mr.write_u64(mr.addr + 8, 12345)
        assert mr.read_u64(mr.addr + 8) == 12345
        assert mr.read_u64(mr.addr) == 0  # untouched words read zero

    def test_out_of_bounds_access_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        mr = ctxs[0].reg_mr(64)
        with pytest.raises(VerbsError):
            mr.read_u64(mr.addr + 60)  # 8-byte read crossing the end
        with pytest.raises(VerbsError):
            mr.write_u64(mr.addr - 8, 1)

    def test_deregistered_access_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        mr = ctxs[0].reg_mr(64)
        ctxs[0].dereg_mr(mr)
        with pytest.raises(VerbsError):
            mr.write_u64(mr.addr, 1)

    def test_resolve_finds_owning_region(self, sim):
        _, ctxs = make_cluster(sim)
        mr1 = ctxs[0].reg_mr(100)
        mr2 = ctxs[0].reg_mr(100)
        assert ctxs[0].memory.resolve(mr2.addr + 50) is mr2
        assert ctxs[0].memory.resolve(mr1.addr) is mr1

    def test_resolve_unregistered_raises(self, sim):
        _, ctxs = make_cluster(sim)
        with pytest.raises(VerbsError):
            ctxs[0].memory.resolve(0xDEAD)

    @pytest.mark.parametrize("where", [
        "below the first region", "in a guard gap", "past the last region",
        "in a deregistered region"])
    def test_resolve_rejects_an_address_outside_every_live_region(
            self, sim, where):
        _, ctxs = make_cluster(sim)
        first, middle, last = (ctxs[0].reg_mr(100) for _ in range(3))
        ctxs[0].dereg_mr(middle)
        addr = {
            "below the first region": first.addr - 1,
            "in a guard gap": first.addr + first.length,
            "past the last region": last.addr + last.length,
            "in a deregistered region": middle.addr + 50,
        }[where]
        with pytest.raises(VerbsError, match=(
                f"address {addr:#x} not in any registered region of node 0")):
            ctxs[0].memory.resolve(addr)

    def test_resolve_after_deregistering_a_middle_region(self, sim):
        _, ctxs = make_cluster(sim)
        memory = ctxs[0].memory
        regions = [ctxs[0].reg_mr(64 * (i + 1)) for i in range(5)]
        ctxs[0].dereg_mr(regions[2])
        ctxs[0].dereg_mr(regions[0])
        for mr in (regions[1], regions[3], regions[4]):
            assert memory.resolve(mr.addr) is mr
            assert memory.resolve(mr.addr + mr.length - 1) is mr
        later = ctxs[0].reg_mr(32)
        assert memory.resolve(later.addr + 31) is later
        with pytest.raises(VerbsError, match="not registered"):
            ctxs[0].dereg_mr(regions[2])

    def test_timed_registration_charges_time(self, sim):
        _, ctxs = make_cluster(sim)

        def proc():
            yield from ctxs[0].reg_mr_timed(1 << 20)  # 256 pages
            return sim.now

        t = sim.run_process(proc())
        assert t == EDR.mr_register_base_ns + 256 * EDR.mr_register_ns_per_page


class TestBufferPool:
    def test_pool_carves_distinct_buffers(self, sim):
        _, ctxs = make_cluster(sim)
        pool = BufferPool(ctxs[0], count=4, size=4096)
        addrs = {pool.buffer(i).addr for i in range(4)}
        assert len(addrs) == 4
        assert sorted(addrs) == list(pool.addrs)
        assert ctxs[0].registered_bytes == 4 * 4096
        assert all(a is b for a, b in zip(
            pool.buffers, [pool.buffer(i) for i in range(4)]))

    def test_a_slot_is_built_on_first_use_and_cached(self, sim):
        _, ctxs = make_cluster(sim)
        pool = BufferPool(ctxs[0], count=1000, size=64)
        assert pool.mr.length == 1000 * 64  # the region is whole at once
        assert built(pool) == []
        buf = pool.buffer(7)
        assert pool.buffer(7) is buf
        assert (buf.addr, buf.capacity) == (pool.mr.addr + 7 * 64, 64)
        assert built(pool) == [7]
        for index in (-1, 1000):
            with pytest.raises(IndexError):
                pool.buffer(index)

    def test_a_built_pool_still_rejects_an_index_outside_it(self, sim):
        """A built slot is returned before the range check; a negative
        index or one at ``count`` or past it still raises, however much
        of the pool is built."""
        _, ctxs = make_cluster(sim)
        pool = BufferPool(ctxs[0], count=4, size=64)
        for built_up_to in (0, 1, 4):
            for i in range(built_up_to):
                assert pool.buffer(i) is pool.buffer(i)
            for index in (-1, -4, -5, 4, 5):
                with pytest.raises(IndexError, match="outside a pool of 4"):
                    pool.buffer(index)
        assert built(pool) == [0, 1, 2, 3]

    @pytest.mark.parametrize("at_first", [True, False])
    def test_at_and_buffer_agree_whichever_comes_first(self, sim, at_first):
        _, ctxs = make_cluster(sim)
        pool = BufferPool(ctxs[0], count=8, size=64)
        addr = pool.addrs[5]
        if at_first:
            first = pool.at(addr)
            assert pool.buffer(5) is first
        else:
            first = pool.buffer(5)
            assert pool.at(addr) is first
        assert built(pool) == [5]

    def test_at_resolves_by_address(self, sim):
        _, ctxs = make_cluster(sim)
        pool = BufferPool(ctxs[0], count=2, size=64)
        assert pool.at(pool.buffer(1).addr) is pool.buffer(1)
        with pytest.raises(ValueError):
            pool.at(12345)

    def test_at_rejects_what_is_not_a_buffer_start(self, sim):
        _, ctxs = make_cluster(sim)
        ahead = BufferPool(ctxs[0], count=1, size=64)
        pool = BufferPool(ctxs[0], count=3, size=64)
        first, last = pool.buffer(0).addr, pool.buffer(2).addr
        assert pool.at(first) is pool.buffer(0)
        assert pool.at(last) is pool.buffer(2)
        for addr in (first + 1, last - 1,      # inside a buffer
                     first - 64, last + 64,    # one slot off either end
                     ahead.buffer(0).addr):   # another pool's buffer
            with pytest.raises(ValueError, match="not a buffer start"):
                pool.at(addr)

    def test_fill_publishes_for_rdma_read(self, sim):
        _, ctxs = make_cluster(sim)
        pool = BufferPool(ctxs[0], count=1, size=64)
        buf = pool.buffer(0)
        buf.fill("payload", 10)
        assert pool.mr.get_object(buf.addr) == "payload"
        buf.reset()
        assert pool.mr.get_object(buf.addr) is None

    def test_fill_overflow_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        pool = BufferPool(ctxs[0], count=1, size=64)
        with pytest.raises(ValueError):
            pool.buffer(0).fill("x", 65)


class TestRecvRun:
    """``post_recv_run`` posts a pool's slots as ``post_recv_buffer`` in
    slot order would, building each slot only when a message takes it."""

    def test_run_delivers_into_slots_in_order_building_only_those(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, qp1), (_cq0, cq1) = rc_pair(ctxs)
        rpool = BufferPool(ctxs[1], 6, 4096)
        qp1.post_recv_run(rpool, 4096, range(2, 6))
        assert (qp1.recvs_posted, qp1._recv_posted) == (4, 4)
        assert built(rpool) == []
        for i in range(3):
            qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=100))

        def proc():
            taken = []
            for _ in range(3):
                taken.append((yield cq1.wait()).wr_id)
            return taken

        taken = sim.run_process(proc())
        assert taken == [rpool.buffer(i) for i in (2, 3, 4)]
        assert built(rpool) == [2, 3, 4]
        assert qp1._recv_posted == 1

    def test_run_longer_than_the_slots_is_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        (_qp0, qp1), _cqs = rc_pair(ctxs)
        with pytest.raises(VerbsError, match="into a 64 B buffer"):
            qp1.post_recv_run(BufferPool(ctxs[1], 4, 64), 65536)
        assert qp1.recvs_posted == 0

    def test_run_past_the_queue_depth_posts_nothing(self, sim):
        _, ctxs = make_cluster(sim)
        cq = ctxs[0].create_cq()
        qp = ctxs[0].create_qp(QPType.UD, cq, cq, max_recv_wr=4)
        pool = BufferPool(ctxs[0], 5, 64)
        with pytest.raises(VerbsError, match="receive queue full"):
            qp.post_recv_run(pool, 64)
        assert (qp.recvs_posted, len(qp._recvs)) == (0, 0)
        qp.post_recv_run(pool, 64, range(1, 5))
        assert (qp.recvs_posted, len(qp._recvs)) == (4, 4)
        with pytest.raises(VerbsError, match="receive queue full"):
            qp.post_recv(RecvWR(wr_id=0, buffer=None, length=64))

    def test_run_goes_into_an_empty_receive_queue(self, sim):
        _, ctxs = make_cluster(sim)
        cq = ctxs[0].create_cq()
        qp = ctxs[0].create_qp(QPType.UD, cq, cq)
        qp.post_recv(RecvWR(wr_id=0, buffer=None, length=64))
        with pytest.raises(VerbsError, match="empty receive queue"):
            qp.post_recv_run(BufferPool(ctxs[0], 4, 64), 64)
        assert qp.recvs_posted == 1


class TestCompletionQueue:
    def test_poll_drains_in_order(self, sim):
        cq = CompletionQueue(sim, Telemetry(sim, 0))
        for i in range(3):
            cq.push(WorkCompletion(wr_id=i, opcode=Opcode.SEND))
        assert [wc.wr_id for wc in cq.poll()] == [0, 1, 2]
        assert cq.poll() == []

    def test_poll_respects_max_entries(self, sim):
        cq = CompletionQueue(sim, Telemetry(sim, 0))
        for i in range(5):
            cq.push(WorkCompletion(wr_id=i, opcode=Opcode.SEND))
        assert len(cq.poll(max_entries=2)) == 2
        assert len(cq) == 3

    def test_overrun_raises(self, sim):
        cq = CompletionQueue(sim, Telemetry(sim, 0), depth=1)
        cq.push(WorkCompletion(wr_id=0, opcode=Opcode.SEND))
        with pytest.raises(VerbsError):
            cq.push(WorkCompletion(wr_id=1, opcode=Opcode.SEND))

    def test_polled_cq_at_its_depth_overruns(self, sim):
        cq = CompletionQueue(sim, Telemetry(sim, 0), depth=3)
        for i in range(3):
            cq.push(WorkCompletion(wr_id=i, opcode=Opcode.SEND))
        with pytest.raises(VerbsError, match="CQ overrun"):
            cq.push(WorkCompletion(wr_id=3, opcode=Opcode.SEND))
        assert len(cq.poll()) == 3
        cq.push(WorkCompletion(wr_id=4, opcode=Opcode.SEND))

    def test_subscribed_cq_holds_nothing_to_overrun(self, sim):
        cq = CompletionQueue(sim, Telemetry(sim, 0), depth=1)
        seen = []
        cq.subscribe(lambda wc: seen.append(wc.wr_id))
        for i in range(5):
            cq.push(WorkCompletion(wr_id=i, opcode=Opcode.SEND))
        assert seen == [0, 1, 2, 3, 4]
        assert len(cq) == 0

    def test_blocking_wait(self, sim):
        cq = CompletionQueue(sim, Telemetry(sim, 0))

        def proc():
            wc = yield cq.wait()
            return (sim.now, wc.wr_id)

        late = WorkCompletion(wr_id="late", opcode=Opcode.SEND)
        sim.call_at(100, lambda: cq.push(late))
        assert sim.run_process(proc()) == (100, "late")

    def test_subscribed_push_is_delivered_in_place(self, sim):
        """A push onto a subscribed CQ reaches the consumer inside
        ``push``, so what the consumer schedules lands before anything
        a later push brings."""
        cq = CompletionQueue(sim, Telemetry(sim, 0))
        seen = []

        def consumer(wc):
            seen.append(wc.wr_id)
            sim.call_soon(lambda: seen.append(f"after {wc.wr_id}"))

        cq.subscribe(consumer)
        cq.push(WorkCompletion(wr_id=0, opcode=Opcode.SEND))
        assert seen == [0]
        sim.call_soon(lambda: cq.push(
            WorkCompletion(wr_id=1, opcode=Opcode.SEND)))
        sim.run()
        assert seen == [0, "after 0", 1, "after 1"]
        assert cq.pushed == cq.polled == 2 and len(cq) == 0

    def test_push_from_inside_the_consumer_raises(self, sim):
        cq = CompletionQueue(sim, Telemetry(sim, 0))

        def consumer(wc):
            cq.push(WorkCompletion(wr_id=1, opcode=Opcode.SEND))

        cq.subscribe(consumer)
        with pytest.raises(VerbsError, match="inside its own consumer"):
            cq.push(WorkCompletion(wr_id=0, opcode=Opcode.SEND))

    def test_subscribing_a_cq_that_holds_completions_raises(self, sim):
        cq = CompletionQueue(sim, Telemetry(sim, 0))
        cq.push(WorkCompletion(wr_id=0, opcode=Opcode.SEND))
        with pytest.raises(VerbsError, match="holds completions"):
            cq.subscribe(lambda wc: None)
        cq.poll()
        cq.subscribe(lambda wc: None)

    def test_dispatcher_routes_by_opcode_and_hashes_no_enum(
            self, sim, monkeypatch):
        """Handlers are found per opcode, an opcode with none is drained,
        and no completion hashes its ``Opcode`` member on the way."""
        cq = CompletionQueue(sim, Telemetry(sim, 0))
        seen = []
        CompletionDispatcher(SimpleNamespace(cq=cq)) \
            .on(Opcode.RECV, lambda wc: seen.append(("recv", wc.wr_id))) \
            .on(Opcode.WRITE, lambda wc: seen.append(("write", wc.wr_id))) \
            .start()

        def unhashable(member):
            raise AssertionError(f"hashed {member!r}")

        monkeypatch.setattr(Opcode, "__hash__", unhashable)
        for wr_id, opcode in enumerate((Opcode.RECV, Opcode.SEND,
                                        Opcode.WRITE, Opcode.READ)):
            cq.push(WorkCompletion(wr_id, opcode))
        assert seen == [("recv", 0), ("write", 2)]
        assert cq.pushed == cq.polled == 4


class TestRCSendRecv:
    def test_roundtrip_delivers_payload(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, qp1), (cq0, cq1) = rc_pair(ctxs)
        spool = BufferPool(ctxs[0], 1, 65536)
        rpool = BufferPool(ctxs[1], 1, 65536)
        sbuf, rbuf = spool.buffer(0), rpool.buffer(0)
        sbuf.fill(["tuple1", "tuple2"], 4096)
        qp1.post_recv(RecvWR(wr_id="r", buffer=rbuf, length=65536))
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, buffer=sbuf, length=4096))

        def proc():
            recv_wc = yield cq1.wait()
            send_wc = yield cq0.wait()
            return recv_wc, send_wc

        recv_wc, send_wc = sim.run_process(proc())
        assert recv_wc.opcode is Opcode.RECV and recv_wc.byte_len == 4096
        assert rbuf.payload == ["tuple1", "tuple2"]
        assert send_wc.opcode is Opcode.SEND and send_wc.wr_id == "s"

    def test_receive_longer_than_its_buffer_is_rejected(self, sim):
        """A Receive may not claim more bytes than its buffer holds: the
        NIC would deposit past the registered slot (a local length error
        on real verbs), so a 4 KiB Send could land in a 64 B buffer."""
        _, ctxs = make_cluster(sim)
        (_qp0, qp1), _cqs = rc_pair(ctxs)
        buf = BufferPool(ctxs[1], 4, 64).buffer(0)
        with pytest.raises(VerbsError, match="into a 64 B buffer"):
            qp1.post_recv(RecvWR(wr_id="r", buffer=buf, length=65536))
        assert qp1.recvs_posted == 0
        qp1.post_recv(RecvWR(wr_id="r", buffer=buf, length=64))
        assert qp1.recvs_posted == 1

    def test_send_blocks_until_recv_posted(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, qp1), (cq0, cq1) = rc_pair(ctxs)
        spool = BufferPool(ctxs[0], 1, 4096)
        rpool = BufferPool(ctxs[1], 1, 4096)
        spool.buffer(0).fill("x", 100)
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND,
                             buffer=spool.buffer(0), length=100))

        def late_recv():
            yield 50_000
            qp1.post_recv(RecvWR(wr_id="r", buffer=rpool.buffer(0), length=4096))

        sim.process(late_recv())

        def proc():
            wc = yield cq1.wait()
            return (sim.now, wc)

        t, wc = sim.run_process(proc())
        assert t >= 50_000
        assert wc.ok

    def test_in_order_delivery(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, qp1), (cq0, cq1) = rc_pair(ctxs)
        spool = BufferPool(ctxs[0], 8, 4096)
        rpool = BufferPool(ctxs[1], 8, 4096)
        for i in range(8):
            rbuf = rpool.buffer(i)
            qp1.post_recv(RecvWR(wr_id=i, buffer=rbuf, length=4096))
        for i in range(8):
            sbuf = spool.buffer(i)
            sbuf.fill(f"msg{i}", 4096)
            qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, buffer=sbuf, length=4096))

        def proc():
            order = []
            for _ in range(8):
                wc = yield cq1.wait()
                order.append(wc.wr_id)
            return order

        assert sim.run_process(proc()) == list(range(8))

    def test_send_on_unconnected_qp_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        cq = ctxs[0].create_cq()
        qp = ctxs[0].create_qp(QPType.RC, cq, cq)
        with pytest.raises(VerbsError, match="post send"):
            qp.post_send(SendWR(wr_id=0, opcode=Opcode.SEND, length=0))

    def test_oversized_rc_message_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, _), _ = rc_pair(ctxs)
        with pytest.raises(VerbsError, match="1 GiB"):
            qp0.post_send(SendWR(wr_id=0, opcode=Opcode.SEND, length=(1 << 30) + 1))


class TestReceiverNotReady:
    """An RC Send takes an already-posted Receive at once; one that
    arrives before any is posted stalls the connection until the post."""

    def send_and_receive(self, sim, post_recv_at=None):
        """Post one 100 B RC Send at t=0, and its Receive either before
        it (``None``) or at ``post_recv_at``; returns the receiving QP,
        the receive completion, its time and the receive buffer."""
        _, ctxs = make_cluster(sim)
        (qp0, qp1), (_, cq1) = rc_pair(ctxs)
        sbuf = BufferPool(ctxs[0], 1, 4096).buffer(0)
        rbuf = BufferPool(ctxs[1], 1, 4096).buffer(0)
        sbuf.fill("payload", 100)

        def post_recv():
            qp1.post_recv(RecvWR(wr_id="r", buffer=rbuf, length=4096))

        if post_recv_at is None:
            post_recv()
        else:
            sim.call_at(post_recv_at, post_recv)
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, buffer=sbuf,
                             length=100))

        def proc():
            wc = yield cq1.wait()
            return sim.now, wc

        t, wc = sim.run_process(proc())
        return qp1, wc, t, rbuf

    def test_posted_receive_is_taken_without_a_stall(self, sim):
        qp, wc, _t, rbuf = self.send_and_receive(sim)
        assert (qp.rnr_events, qp.rnr_stall_ns) == (0, 0)
        assert wc.ok and wc.byte_len == 100 and rbuf.payload == "payload"

    def test_send_before_any_receive_stalls_until_the_post(self, sim):
        _, _, arrival, _ = self.send_and_receive(Simulator())
        post_at = arrival + 50_000
        qp, wc, t, rbuf = self.send_and_receive(sim, post_recv_at=post_at)
        assert t == post_at
        assert (qp.rnr_events, qp.rnr_stall_ns) == (1, post_at - arrival)
        assert wc.ok and wc.byte_len == 100 and rbuf.payload == "payload"

    @staticmethod
    def two_sends(sim, post_recvs_at=None):
        """Two RC Sends posted at t=0; both Receives posted before them
        (``None``) or together at ``post_recvs_at``.  Returns the
        receive completions as (time, wr_id) and the payloads landed."""
        _, ctxs = make_cluster(sim)
        (qp0, qp1), (_, cq1) = rc_pair(ctxs)
        rpool = BufferPool(ctxs[1], 2, 4096)

        def post_recvs():
            for i in range(2):
                qp1.post_recv(RecvWR(wr_id=i, buffer=rpool.buffer(i),
                                     length=4096))

        if post_recvs_at is None:
            post_recvs()
        else:
            sim.call_at(post_recvs_at, post_recvs)
        spool = BufferPool(ctxs[0], 2, 4096)
        for i in range(2):
            sbuf = spool.buffer(i)
            sbuf.fill(f"msg{i}", 100)
            qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, buffer=sbuf,
                                 length=100))

        def proc():
            seen = []
            for _ in range(2):
                wc = yield cq1.wait()
                seen.append((sim.now, wc.wr_id))
            return seen

        return sim.run_process(proc()), [rpool.buffer(i).payload
                                         for i in range(2)]

    def test_a_send_behind_a_stalled_one_waits_its_turn(self, sim):
        """The Receives are posted at the instant the second Send
        arrives, while the first is still stalled: the second must not
        overtake it, though a Receive is already there for it."""
        (_, (second_arrival, _)), _ = self.two_sends(Simulator())
        seen, payloads = self.two_sends(sim, post_recvs_at=second_arrival)
        assert seen == [(second_arrival, 0), (second_arrival, 1)]
        assert payloads == ["msg0", "msg1"]


class TestRdmaWrite:
    def test_write_word_to_remote_memory(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, qp1), (cq0, _) = rc_pair(ctxs)
        target = ctxs[1].reg_mr(64)
        qp0.post_send(SendWR(wr_id="w", opcode=Opcode.WRITE,
                             remote_addr=target.addr + 16, value=99, inline=True))

        def proc():
            wc = yield cq0.wait()
            # The completion follows the ack: the word has landed.
            return wc, target.read_u64(target.addr + 16)

        wc, seen = sim.run_process(proc())
        assert wc.opcode is Opcode.WRITE and wc.ok
        assert wc.wr_id == "w" and seen == 99
        sim.run()
        assert cq0.pushed == 1 and cq0.poll() == []
        # The QP is hardware: the only process is the test's own.
        assert sim.processes_started == 1

    def test_write_to_unregistered_memory_fails(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, _), (cq0, _) = rc_pair(ctxs)
        qp0.post_send(SendWR(wr_id="w", opcode=Opcode.WRITE,
                             remote_addr=0xBAD, value=1))
        with pytest.raises(VerbsError):
            sim.run()
        assert cq0.pushed == 0

    def test_write_requires_value_or_buffer(self, sim):
        with pytest.raises(VerbsError):
            SendWR(wr_id=0, opcode=Opcode.WRITE, remote_addr=100)


class TestRdmaRead:
    def test_read_pulls_remote_buffer(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, qp1), (cq0, _) = rc_pair(ctxs)
        rpool = BufferPool(ctxs[1], 1, 65536)  # remote (passive) side
        lpool = BufferPool(ctxs[0], 1, 65536)  # local destination
        rpool.buffer(0).fill({"rows": [1, 2, 3]}, 65536)
        qp0.post_send(SendWR(wr_id="rd", opcode=Opcode.READ,
                             buffer=lpool.buffer(0), length=65536,
                             remote_addr=rpool.buffer(0).addr))

        def proc():
            wc = yield cq0.wait()
            # The completion follows the response: the data is local.
            return wc, lpool.buffer(0).payload

        wc, seen = sim.run_process(proc())
        assert wc.opcode is Opcode.READ and wc.ok
        assert wc.wr_id == "rd" and seen == {"rows": [1, 2, 3]}
        sim.run()
        assert cq0.pushed == 1 and cq0.poll() == []
        assert sim.processes_started == 1

    def test_read_from_unregistered_memory_fails(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, _), (cq0, _) = rc_pair(ctxs)
        lpool = BufferPool(ctxs[0], 1, 4096)
        qp0.post_send(SendWR(wr_id="rd", opcode=Opcode.READ,
                             buffer=lpool.buffer(0), length=4096,
                             remote_addr=0xBAD))
        with pytest.raises(VerbsError):
            sim.run()
        assert cq0.pushed == 0

    def test_read_needs_local_buffer(self):
        with pytest.raises(VerbsError):
            SendWR(wr_id=0, opcode=Opcode.READ, length=10, remote_addr=100)


class TestUD:
    def make_ud_pair(self, sim, **net_overrides):
        _, ctxs = make_cluster(sim, **net_overrides)
        cqs, qps = [], []
        for ctx in ctxs:
            cq = ctx.create_cq()
            qp = ctx.create_qp(QPType.UD, cq, cq)
            qp.activate()
            cqs.append(cq)
            qps.append(qp)
        return ctxs, qps, cqs

    def test_roundtrip(self, sim):
        ctxs, (qp0, qp1), (cq0, cq1) = self.make_ud_pair(sim)
        spool = BufferPool(ctxs[0], 1, 4096)
        rpool = BufferPool(ctxs[1], 1, 4096)
        spool.buffer(0).fill("datagram", 4096)
        qp1.post_recv(RecvWR(wr_id="r", buffer=rpool.buffer(0), length=4096))
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND,
                             buffer=spool.buffer(0), length=4096,
                             dest=AddressHandle(1, qp1.qpn)))

        def proc():
            wc = yield cq1.wait()
            return wc

        wc = sim.run_process(proc())
        assert wc.src_node == 0 and wc.src_qpn == qp0.qpn
        assert rpool.buffer(0).payload == "datagram"

    def test_send_completion_precedes_delivery(self, sim):
        ctxs, (qp0, qp1), (cq0, cq1) = self.make_ud_pair(sim)
        qp1.post_recv(RecvWR(wr_id="r", buffer=None, length=4096))
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=4096,
                             dest=AddressHandle(1, qp1.qpn)))

        def proc():
            swc = yield cq0.wait()
            t_send = sim.now
            rwc = yield cq1.wait()
            return t_send, sim.now

        t_send, t_recv = sim.run_process(proc())
        assert t_send < t_recv  # no ack round trip in UD

    def test_message_larger_than_mtu_rejected(self, sim):
        ctxs, (qp0, qp1), _ = self.make_ud_pair(sim)
        with pytest.raises(VerbsError, match="MTU"):
            qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=4097,
                                 dest=AddressHandle(1, qp1.qpn)))

    def test_rdma_read_unsupported_on_ud(self, sim):
        ctxs, (qp0, qp1), _ = self.make_ud_pair(sim)
        pool = BufferPool(ctxs[0], 1, 4096)
        with pytest.raises(VerbsError, match="Send/Receive"):
            qp0.post_send(SendWR(wr_id=0, opcode=Opcode.READ,
                                 buffer=pool.buffer(0), length=64,
                                 remote_addr=100,
                                 dest=AddressHandle(1, qp1.qpn)))

    def test_unmatched_send_silently_dropped(self, sim):
        ctxs, (qp0, qp1), (cq0, cq1) = self.make_ud_pair(sim)
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=100,
                             dest=AddressHandle(1, qp1.qpn)))
        sim.run()
        assert qp1.ud_drops == 1
        assert len(cq1) == 0
        assert len(cq0) == 1  # sender still completes

    def test_loss_injection_loses_datagram(self, sim):
        ctxs, (qp0, qp1), (cq0, cq1) = self.make_ud_pair(
            sim, ud_loss_probability=1.0)
        qp1.post_recv(RecvWR(wr_id="r", buffer=None, length=4096))
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=100,
                             dest=AddressHandle(1, qp1.qpn)))
        sim.run()
        assert len(cq1) == 0  # never delivered
        assert len(cq0) == 1  # sender unaware

    def test_one_ud_qp_talks_to_many_peers(self, sim):
        cluster = ClusterConfig(network=EDR, num_nodes=4)
        cluster = cluster.with_network(ud_jitter_ns=0)
        fabric = Fabric(sim, cluster)
        ctxs = [VerbsContext(sim, fabric, i) for i in range(4)]
        cqs, qps = [], []
        for ctx in ctxs:
            cq = ctx.create_cq()
            qp = ctx.create_qp(QPType.UD, cq, cq)
            qp.activate()
            cqs.append(cq)
            qps.append(qp)
        for i in range(1, 4):
            qps[i].post_recv(RecvWR(wr_id=i, buffer=None, length=4096))
            qps[0].post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=64,
                                    dest=AddressHandle(i, qps[i].qpn)))
        sim.run()
        for i in range(1, 4):
            assert len(cqs[i]) == 1


class TestQPLimits:
    def test_send_queue_depth_enforced(self, sim):
        _, ctxs = make_cluster(sim)
        cq = ctxs[0].create_cq()
        qp = ctxs[0].create_qp(QPType.UD, cq, cq, max_send_wr=2)
        qp.activate()
        for i in range(2):
            qp.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=10,
                                dest=AddressHandle(1, 999)))
        with pytest.raises(VerbsError, match="send queue full"):
            qp.post_send(SendWR(wr_id=9, opcode=Opcode.SEND, length=10,
                                dest=AddressHandle(1, 999)))

    def test_recv_queue_depth_enforced(self, sim):
        _, ctxs = make_cluster(sim)
        cq = ctxs[0].create_cq()
        qp = ctxs[0].create_qp(QPType.UD, cq, cq, max_recv_wr=1)
        qp.post_recv(RecvWR(wr_id=0, buffer=None, length=64))
        with pytest.raises(VerbsError, match="receive queue full"):
            qp.post_recv(RecvWR(wr_id=1, buffer=None, length=64))

    def test_depth_beyond_hardware_limit_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        cq = ctxs[0].create_cq()
        with pytest.raises(VerbsError, match="hardware limit"):
            ctxs[0].create_qp(QPType.RC, cq, cq, max_send_wr=1 << 20)

    def test_connect_wrong_transport_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        cq = ctxs[0].create_cq()
        ud = ctxs[0].create_qp(QPType.UD, cq, cq)
        rc = ctxs[0].create_qp(QPType.RC, cq, cq)
        with pytest.raises(VerbsError):
            ud.connect(AddressHandle(1, 5))
        with pytest.raises(VerbsError):
            rc.activate()
