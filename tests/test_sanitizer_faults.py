"""Fault injection: one planted bug per runtime sanitizer rule.

Every rule in ``repro.analysis.sanitizer.RUNTIME_RULES`` gets a negative
test that deliberately breaks the corresponding protocol invariant and
asserts the sanitizer reports *exactly that rule* — the companion to the
clean-tree conformance tests in test_sanitizer.py.
"""

from types import SimpleNamespace

import pytest

from repro import EDR, EndpointConfig
from repro.analysis import RUNTIME_RULES, Sanitizer
from repro.core.designs import Design, EndpointKind
from repro.core.sr_rc import SRRCReceiveEndpoint, SRRCSendEndpoint
from repro.core.transport.connections import RCCreditReceiver
from repro.core.transport.credit import RingBoard, post_credit_word
from repro.core.transport.rings import RingCursor, post_ring_write
from repro.fabric import ClusterConfig as FabricClusterConfig
from repro.fabric import Fabric
from repro.memory import BufferPool
from repro.sim import Simulator
from repro.verbs import (
    AddressHandle,
    Opcode,
    QPType,
    RecvWR,
    SendWR,
    VerbsContext,
    VerbsError,
    WorkCompletion,
)
from repro.verbs.constants import QPState

from tests.test_endpoints import make_cluster, run_stage_query


@pytest.fixture
def sim():
    return Simulator()


def sanitized_cluster(sim, nodes=2):
    """A bare fabric + contexts with an attached (non-strict) sanitizer."""
    cluster = FabricClusterConfig(network=EDR, num_nodes=nodes)
    cluster = cluster.with_network(ud_jitter_ns=0)
    fabric = Fabric(sim, cluster)
    ctxs = [VerbsContext(sim, fabric, i) for i in range(nodes)]
    san = fabric.telemetry.enable_sanitizer(Sanitizer(sim))
    return fabric, ctxs, san


def rc_pair(ctxs, a=0, b=1):
    cqs, qps = [], []
    for ctx in (ctxs[a], ctxs[b]):
        cq = ctx.create_cq()
        qp = ctx.create_qp(QPType.RC, cq, cq)
        cqs.append(cq)
        qps.append(qp)
    qps[0].connect(AddressHandle(ctxs[b].node_id, qps[1].qpn))
    qps[1].connect(AddressHandle(ctxs[a].node_id, qps[0].qpn))
    return qps, cqs


def rules_of(san):
    return [v.rule for v in san.violations]


class TestQPStateRule:
    def test_post_send_before_connect(self, sim):
        _, ctxs, san = sanitized_cluster(sim)
        cq = ctxs[0].create_cq()
        qp = ctxs[0].create_qp(QPType.RC, cq, cq)
        pool = BufferPool(ctxs[0], 1, 64)
        with pytest.raises(VerbsError):
            qp.post_send(SendWR(wr_id="x", opcode=Opcode.SEND,
                                buffer=pool.buffer(0), length=64))
        assert rules_of(san) == ["qp-state"]
        assert san.violations[0].details["state"] == "INIT"

    def test_post_send_on_unconnected_rts_qp(self, sim):
        _, ctxs, san = sanitized_cluster(sim)
        cq = ctxs[0].create_cq()
        qp = ctxs[0].create_qp(QPType.RC, cq, cq)
        qp.state = QPState.RTS  # forged transition: RTS with no peer
        with pytest.raises(VerbsError):
            qp.post_send(SendWR(wr_id="x", opcode=Opcode.SEND, length=16))
        assert rules_of(san) == ["qp-state"]
        assert "unconnected" in san.violations[0].message

    def test_post_recv_in_error_state(self, sim):
        _, ctxs, san = sanitized_cluster(sim)
        cq = ctxs[0].create_cq()
        qp = ctxs[0].create_qp(QPType.RC, cq, cq)
        pool = BufferPool(ctxs[0], 1, 64)
        qp.state = QPState.ERROR
        with pytest.raises(VerbsError):
            qp.post_recv(RecvWR(wr_id="r", buffer=pool.buffer(0), length=64))
        assert rules_of(san) == ["qp-state"]

    def test_post_recv_run_in_error_state(self, sim):
        _, ctxs, san = sanitized_cluster(sim)
        cq = ctxs[0].create_cq()
        qp = ctxs[0].create_qp(QPType.RC, cq, cq)
        pool = BufferPool(ctxs[0], 4, 64)
        qp.state = QPState.ERROR
        with pytest.raises(VerbsError, match="ERROR"):
            qp.post_recv_run(pool, 64)
        assert rules_of(san) == ["qp-state"]
        assert san.violations[0].details["state"] == "ERROR"
        assert qp.recvs_posted == 0

    def test_full_send_queue_on_unconnected_rts_qp(self, sim):
        """The queue-full error comes first, and the sanitizer still
        records the missing peer."""
        _, ctxs, san = sanitized_cluster(sim)
        cq = ctxs[0].create_cq()
        qp = ctxs[0].create_qp(QPType.RC, cq, cq, max_send_wr=1)
        qp.state = QPState.RTS  # forged transition: RTS with no peer
        qp._send_outstanding = 1  # forged: the one slot is taken
        with pytest.raises(VerbsError, match="send queue full"):
            qp.post_send(SendWR(wr_id="x", opcode=Opcode.SEND, length=16))
        assert rules_of(san) == ["qp-state"]
        assert "unconnected" in san.violations[0].message


class TestMRLifetimeRule:
    def test_use_after_deregister(self, sim):
        _, ctxs, san = sanitized_cluster(sim)
        mr = ctxs[0].reg_mr(64)
        ctxs[0].dereg_mr(mr)
        with pytest.raises(VerbsError):
            mr.read_u64(mr.addr)
        assert rules_of(san) == ["mr-lifetime"]
        assert san.violations[0].details["kind"] == "deregistered"

    def test_out_of_bounds_write(self, sim):
        _, ctxs, san = sanitized_cluster(sim)
        mr = ctxs[0].reg_mr(64)
        with pytest.raises(VerbsError):
            mr.write_u64(mr.addr + 64, 1)  # first byte past the end
        assert rules_of(san) == ["mr-lifetime"]
        assert san.violations[0].details["kind"] == "out-of-bounds"

    def test_double_deregister(self, sim):
        _, ctxs, san = sanitized_cluster(sim)
        mr = ctxs[0].reg_mr(64)
        ctxs[0].dereg_mr(mr)
        san.violations.clear()
        with pytest.raises(VerbsError):
            ctxs[0].dereg_mr(mr)
        assert rules_of(san) == ["mr-lifetime"]
        assert san.violations[0].details["kind"] == "double-deregister"


class TestBufferReuseRule:
    def test_fill_while_send_in_flight(self, sim):
        _, ctxs, san = sanitized_cluster(sim)
        qps, cqs = rc_pair(ctxs)
        spool = BufferPool(ctxs[0], 1, 256)
        rpool = BufferPool(ctxs[1], 1, 256)
        buf, rbuf = spool.buffer(0), rpool.buffer(0)

        qps[1].post_recv(RecvWR(wr_id=rbuf, buffer=rbuf, length=256))
        buf.fill("payload", 128)  # legal: nothing in flight yet
        qps[0].post_send(SendWR(wr_id=buf, opcode=Opcode.SEND,
                                buffer=buf, length=128))
        buf.fill("overwrite", 128)  # the race: completion not yet polled
        assert rules_of(san) == ["buffer-reuse"]
        assert san.violations[0].details["outstanding"] == 1

        # After the signaled completion is polled the buffer is free again.
        sim.run()
        assert cqs[0].poll()
        buf.fill("now legal", 128)
        assert rules_of(san) == ["buffer-reuse"]

    def test_repost_while_receive_in_flight(self, sim, monkeypatch):
        """A repost resets its buffer and tracks the Receive in one
        sanitizer call, which flags a buffer still posted."""
        _, ctxs, san = sanitized_cluster(sim)
        qps, _ = rc_pair(ctxs)
        rbuf = BufferPool(ctxs[1], 1, 256).buffer(0)
        calls = []
        for name in ("on_buffer_write", "track_post_recv"):
            hook = getattr(san, name)
            monkeypatch.setattr(
                san, name,
                lambda *args, _name=name, _hook=hook: (
                    calls.append(_name), _hook(*args)))
        qps[1].post_recv_buffer(rbuf, 256)  # legal: nothing in flight
        assert calls == ["track_post_recv"] and rules_of(san) == []
        qps[1].post_recv_buffer(rbuf, 256)  # the first is still posted
        assert rules_of(san) == ["buffer-reuse"]
        assert san.violations[0].details["op"] == "post_recv"
        assert san.violations[0].details["outstanding"] == 1


class TestCQRules:
    def test_cq_overflow(self, sim):
        _, ctxs, san = sanitized_cluster(sim)
        cq = ctxs[0].create_cq(depth=1)
        cq.push(WorkCompletion(wr_id="a", opcode=Opcode.SEND))
        with pytest.raises(VerbsError):
            cq.push(WorkCompletion(wr_id="b", opcode=Opcode.SEND))
        assert rules_of(san) == ["cq-overflow"]

    def test_double_completion(self, sim):
        _, ctxs, san = sanitized_cluster(sim)
        qps, cqs = rc_pair(ctxs)
        spool = BufferPool(ctxs[0], 1, 256)
        rpool = BufferPool(ctxs[1], 1, 256)
        buf, rbuf = spool.buffer(0), rpool.buffer(0)

        def proc():
            qps[1].post_recv(RecvWR(wr_id=rbuf, buffer=rbuf, length=256))
            buf.fill("payload", 128)
            qps[0].post_send(SendWR(wr_id=buf, opcode=Opcode.SEND,
                                    buffer=buf, length=128))
            wc = yield cqs[0].wait()  # consume the genuine completion
            return wc

        assert sim.run_process(proc()).wr_id is buf
        assert rules_of(san) == []
        # Forge a second completion for the same, now-idle buffer.
        cqs[0].push(WorkCompletion(wr_id=buf, opcode=Opcode.SEND))
        assert rules_of(san) == ["cq-double-completion"]
        assert san.violations[0].details["addr"] == buf.addr

    @pytest.mark.parametrize("tagged", [False, True])
    def test_double_completion_on_a_subscribed_cq(self, sim, tagged):
        """A subscribed CQ's consumer takes each completion inside its
        push, and the sanitizer still sees the second one for an idle
        buffer, whether the ``wr_id`` is the buffer or a tag tuple."""
        _, ctxs, san = sanitized_cluster(sim)
        qps, cqs = rc_pair(ctxs)
        consumed = []
        cqs[0].subscribe(consumed.append)
        spool = BufferPool(ctxs[0], 1, 256)
        rpool = BufferPool(ctxs[1], 1, 256)
        buf, rbuf = spool.buffer(0), rpool.buffer(0)
        wr_id = ("data", buf) if tagged else buf
        qps[1].post_recv(RecvWR(wr_id=rbuf, buffer=rbuf, length=256))
        buf.fill("payload", 128)
        qps[0].post_send(SendWR(wr_id=wr_id, opcode=Opcode.SEND,
                                buffer=buf, length=128))
        sim.run()
        assert [wc.wr_id for wc in consumed] == [wr_id]
        assert rules_of(san) == []
        buf.fill("legal again", 128)  # the completion released it
        assert rules_of(san) == []
        cqs[0].push(WorkCompletion(wr_id=wr_id, opcode=Opcode.SEND))
        assert rules_of(san) == ["cq-double-completion"]
        assert san.violations[0].details["addr"] == buf.addr
        assert len(consumed) == 2


# A send endpoint that skips the credit gate: the planted bug for the
# credit-underflow rule, run as a design of its own.
class GreedySRRCSendEndpoint(SRRCSendEndpoint):
    def _wait_credit(self, conn):
        return
        yield  # pragma: no cover  (keeps this a process fragment)


GREEDY_DESIGN = Design(
    "GREEDY/SR",
    EndpointKind("SR_RC_GREEDY", GreedySRRCSendEndpoint, SRRCReceiveEndpoint),
    multi_endpoint=True)


class TestCreditUnderflowRule:
    def test_greedy_sender_flagged(self):
        cluster = make_cluster()
        san = cluster.enable_sanitizer()
        cfg = EndpointConfig(message_size=1024, buffers_per_connection=4)
        _, sinks, _ = run_stage_query(cluster, GREEDY_DESIGN,
                                      rows_per_node=2000, config=cfg)
        assert sum(len(s.result()) for s in sinks) == 2 * 2000
        assert "credit-underflow" in rules_of(san)
        first = next(v for v in san.violations
                     if v.rule == "credit-underflow")
        assert first.details["sent"] > first.details["credit"]

    def test_honest_sender_clean(self):
        cluster = make_cluster()
        san = cluster.enable_sanitizer()
        cfg = EndpointConfig(message_size=1024, buffers_per_connection=4)
        run_stage_query(cluster, "MEMQ/SR", rows_per_node=2000, config=cfg)
        assert rules_of(san) == []


class TestCreditOvergrantRule:
    def test_overgrant_flagged(self, sim):
        _, ctxs, san = sanitized_cluster(sim)
        qps, _ = rc_pair(ctxs)
        word = ctxs[0].reg_mr(8)  # the credit word lives at the sender
        conn = RCCreditReceiver(7, 1, qps[1])
        conn.credit_addr = word.addr
        post_credit_word(conn, conn.posted)  # exactly `posted`: clean
        assert rules_of(san) == []
        # A receiver advertising credit it has no Receives behind would
        # let the sender overrun the receive queue (§4.4 invariant).
        post_credit_word(conn, conn.posted + 2)
        assert rules_of(san) == ["credit-overgrant"]
        violation = san.violations[0]
        assert violation.details["value"] == 3
        assert violation.details["posted"] == 1
        assert violation.details["endpoint"] == 7


class TestRingRules:
    def test_ring_overrun(self, sim):
        _, ctxs, san = sanitized_cluster(sim)
        qps, _ = rc_pair(ctxs)
        target = ctxs[1].reg_mr(8 * 2)
        cursor = RingCursor(target.addr, cap=2)
        post_ring_write(qps[0], cursor, value=0x10, wr_id=None)
        post_ring_write(qps[0], cursor, value=0x20, wr_id=None)
        assert rules_of(san) == []  # exactly at capacity
        post_ring_write(qps[0], cursor, value=0x30, wr_id=None)
        assert rules_of(san) == ["ring-overrun"]
        assert san.violations[0].details["outstanding"] == 3

    def test_unsolicited_ring_value(self, sim):
        _, ctxs, san = sanitized_cluster(sim)
        ep = SimpleNamespace(ctx=ctxs[1], aux_mrs=[])
        seen = []

        def proc():
            board = yield from RingBoard.install(
                ep, keys=[0], cap=4,
                on_value=lambda k, v: seen.append((k, v)), name="validarr")
            return board

        board = sim.run_process(proc())
        # A value lands that no producer cursor ever posted.
        board.mr.write_u64(board.base_by_key[0], 0x1234)
        assert rules_of(san) == ["ring-board-inconsistency"]
        assert "no producer posted" in san.violations[0].message
        assert seen == [(0, 0x1234)]  # delivery itself is not suppressed

    def test_validator_rejects_foreign_address(self, sim):
        _, ctxs, san = sanitized_cluster(sim)
        qps, _ = rc_pair(ctxs)
        ep = SimpleNamespace(ctx=ctxs[1], aux_mrs=[])

        def proc():
            board = yield from RingBoard.install(
                ep, keys=[0], cap=4, on_value=lambda k, v: None,
                name="freearr",
                validator=lambda key, value: False)  # exposes nothing
            return board

        board = sim.run_process(proc())
        cursor = RingCursor(board.base_by_key[0], cap=4)
        post_ring_write(qps[0], cursor, value=0x40, wr_id=None)
        sim.run()
        assert rules_of(san) == ["ring-board-inconsistency"]
        assert "never exposed" in san.violations[0].message


def test_every_runtime_rule_has_a_fault_test():
    """Keep this file honest: one planted bug per catalogue entry."""
    import pathlib
    source = pathlib.Path(__file__).read_text()
    for rule in RUNTIME_RULES:
        assert f'"{rule}"' in source, f"no fault test mentions {rule!r}"
