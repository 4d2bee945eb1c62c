"""Property tests (hypothesis) for the transport-runtime primitives.

Random interleavings over the credit policies (transport/credit.py),
the ring bookkeeping (transport/rings.py) and the send endpoint's
GETFREE free list (transport/runtime.py), executed under the
runtime sanitizer: whatever order posts, completions and recycles land
in, the protocol invariants must hold and the sanitizer must stay quiet.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.endpoint import EndpointConfig
from repro.core.transport.connections import UDCreditSender
from repro.core.transport.credit import grant_credit
from repro.core.transport.rings import PendingTable, RingCursor
from repro.core.transport.runtime import SendEndpoint
from repro.memory import BufferPool
from repro.sim import Notify, Simulator
from repro.verbs import Opcode, SendWR

from tests.test_sanitizer_faults import rc_pair, sanitized_cluster


class TestCreditPolicyProperties:
    @given(grants=st.lists(st.integers(0, 100), max_size=30))
    def test_credit_is_the_running_max_of_grants(self, grants):
        """Absolute-credit semantics (§4.4.1-2): stale or duplicated
        grants are superseded; credit never decreases."""
        sim = Simulator()
        conn = UDCreditSender(1)
        conn.notify = Notify(sim)
        for value in grants:
            conn.notify.wait()  # a stalled sender, parked on the notify
            before = conn.credit
            grant_credit(conn, value)
            assert conn.credit == max(before, value)
            if value > before:
                assert len(conn.notify) == 0, "increase must wake senders"
            else:
                assert len(conn.notify) == 1, \
                    "stale grant must not wake senders"
                conn.notify = Notify(sim)
        assert conn.credit == max([0] + grants)


class TestRingCursorProperties:
    @given(base=st.integers(0, 2 ** 20), cap=st.integers(1, 64),
           n=st.integers(1, 200))
    def test_slots_cycle_through_the_ring_in_order(self, base, cap, n):
        cursor = RingCursor(base, cap)
        slots = [cursor.next_slot() for _ in range(n)]
        assert slots == [base + (i % cap) * 8 for i in range(n)]
        assert cursor.produced == n
        assert all(base <= s < base + cap * 8 for s in slots)


class TestPendingTableProperties:
    @given(counts=st.dictionaries(st.integers(0, 20), st.integers(1, 5),
                                  min_size=1, max_size=8))
    def test_last_completion_and_only_it_releases_a_key(self, counts):
        table = PendingTable()
        for key, count in counts.items():
            table.add(key, count)
        assert len(table) == len(counts)
        for key, count in counts.items():
            for i in range(count):
                released = table.complete(key)
                assert released == (i == count - 1)
                assert (key in table) == (not released)
        assert not table
        assert len(table) == 0


class TestSendPoolUnderSanitizer:
    @given(ops=st.lists(st.sampled_from(["post", "drain"]), max_size=24))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_post_drain_interleavings_stay_clean(self, ops):
        """GETFREE -> fill -> post -> poll -> RELEASE in any interleaving
        conserves buffers and never trips a sanitizer rule."""
        sim = Simulator()
        _, ctxs, san = sanitized_cluster(sim)
        qps, cqs = rc_pair(ctxs)
        ep = SendEndpoint(
            ctxs[0], 1, EndpointConfig(message_size=256,
                                       buffers_per_connection=4),
            destinations=[1], num_groups=1, peers={1: 2})
        sim.run_process(ep.provision_send_pool())
        rpool = BufferPool(ctxs[1], len(ops) + 1, 256)

        # GETFREE hands out every transmission buffer exactly once.
        available = [ep._free.try_get()[1] for _ in range(len(ep.pool))]
        assert sorted(b.addr for b in available) == list(ep.pool.addrs)
        assert ep._free.try_get() == (False, None)
        in_flight = 0
        recv_idx = 0

        def drain():
            nonlocal in_flight
            sim.run()
            for wc in cqs[0].poll():
                ep.recycle(wc.wr_id)  # reset() runs under the sanitizer
                available.append(ep._free.try_get()[1])
                in_flight -= 1
            cqs[1].poll()

        for op in ops:
            if op == "post" and available:
                buf = available.pop()
                qps[1].post_recv_buffer(rpool.buffer(recv_idx), 256)
                recv_idx += 1
                buf.fill("x" * 8, 64)
                qps[0].post_send(SendWR(wr_id=buf, opcode=Opcode.SEND,
                                        buffer=buf, length=64))
                in_flight += 1
            elif op == "drain":
                drain()
        drain()

        assert in_flight == 0
        assert sorted(b.addr for b in available) == \
            list(ep.pool.addrs), "buffer leaked or duplicated"
        assert san.violations == []
