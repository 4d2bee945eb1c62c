"""Property-based tests (hypothesis) for core data structures & invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.model.core import ModelBound
from repro.bench.experiments import Options, Point
from repro.checks import CHECK
from repro.core.endpoint import EndpointConfig
from repro.core.groups import TransmissionGroups
from repro.core.policy import StagePlan
from repro.core.shuffle import (
    _take,
    hash_partitioner,
    striped_partitioner,
)
from repro.fabric import (
    EDR,
    FDR,
    ClusterConfig,
    NetworkConfig,
    QPContextCache,
    TopologySpec,
)
from repro.fabric.config import MAX_THREADS_PER_NODE
from repro.fabric.packet import make_train
from repro.service import ServiceConfig, TenantSpec
from repro.sim import AllOf, Barrier, RatePipe, Simulator
from repro.telemetry import Telemetry
from repro.verbs import Opcode, RecvWR, SendWR, VerbsError
from repro.verbs.memory import AddressSpace


class TestSimulatorProperties:
    @given(delays=st.lists(st.integers(0, 10_000), min_size=1, max_size=40))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.call_later(d, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(delays=st.lists(st.integers(0, 5_000), min_size=1, max_size=20))
    def test_all_of_completes_at_max_delay(self, delays):
        sim = Simulator()

        def sleeper(d):
            yield d

        def proc():
            yield AllOf(sim, [sim.process(sleeper(d)) for d in delays])
            return sim.now

        assert sim.run_process(proc()) == max(delays)

    @given(parties=st.integers(1, 12))
    def test_barrier_releases_everyone_together(self, parties):
        sim = Simulator()
        barrier = Barrier(sim, parties)
        times = []

        def waiter(i):
            yield i * 10
            yield barrier.arrive()
            times.append(sim.now)

        for i in range(parties):
            sim.process(waiter(i))
        sim.run()
        assert len(set(times)) == 1
        assert times[0] == (parties - 1) * 10


class TestRatePipeProperties:
    @given(units=st.lists(st.integers(1, 1_000_000), min_size=1,
                          max_size=30),
           rate=st.floats(0.5, 20.0))
    def test_fifo_serialization_conserves_work(self, units, rate):
        sim = Simulator()
        pipe = RatePipe(sim, rate)
        completions = []
        for size in units:
            pipe.submit_train(size, lambda: completions.append(sim.now))
        sim.run()
        # FIFO: completion times nondecreasing.
        assert completions == sorted(completions)
        # Total busy time is at least the work divided by the rate.
        assert completions[-1] >= int(sum(s / rate for s in units)) - len(units)
        assert pipe.total_units == sum(units)


class TestQPCacheProperties:
    @given(capacity=st.integers(1, 32),
           accesses=st.lists(st.integers(0, 64), min_size=1, max_size=300))
    def test_occupancy_bounded_and_counts_consistent(self, capacity,
                                                     accesses):
        cache = QPContextCache(capacity)
        for qpn in accesses:
            cache.touch(qpn)
        assert cache.occupancy <= capacity
        assert cache.hits + cache.misses == len(accesses)
        assert cache.misses >= len(set(accesses[:capacity]) | set())
        # Working set within capacity => only compulsory misses.
        if len(set(accesses)) <= capacity:
            assert cache.misses == len(set(accesses))


class TestPartitionerProperties:
    @given(keys=st.lists(st.one_of(st.integers(0, 1 << 60),
                                   st.integers(-(1 << 63), (1 << 63) - 1)),
                         min_size=1, max_size=500),
           groups=st.one_of(st.integers(1, 16), st.integers(17, 70_000)))
    def test_hash_partitioner_range_and_determinism(self, keys, groups):
        batch = np.array(keys, dtype=np.int64)
        part = hash_partitioner(lambda b: b, groups)
        a = part(batch)
        b = part(batch)
        np.testing.assert_array_equal(a, b)
        assert ((a >= 0) & (a < groups)).all()
        # The groups' dtype is the smallest that holds them (a radix
        # sort stages them), and the uint32 hash is exactly the uint64
        # formula, negative keys and keys of 2**32 and more included.
        assert a.dtype == np.min_scalar_type(groups - 1)
        reference = (batch.astype(np.uint64) * np.uint64(2654435761)
                     % np.uint64(1 << 32) % np.uint64(groups))
        np.testing.assert_array_equal(a.astype(np.uint64), reference)

    @given(rows=st.integers(1, 2000), groups=st.integers(1, 16),
           calls=st.integers(1, 5))
    def test_striped_partitioner_is_exact_partition(self, rows, groups,
                                                    calls):
        batch = np.arange(rows, dtype=np.int64)
        part = striped_partitioner(groups)
        for _ in range(calls):
            pieces = list(part.split(batch))
            covered = np.concatenate([p for _g, p in pieces])
            np.testing.assert_array_equal(np.sort(covered), batch)
            sizes = [len(p) for _g, p in pieces]
            assert max(sizes) - min(sizes) <= 1
            assert len({g for g, _p in pieces}) == len(pieces)

    @given(appends=st.lists(st.integers(1, 100), min_size=1, max_size=30),
           chunk=st.integers(1, 64))
    def test_group_accumulator_take_preserves_order(self, appends, chunk):
        staged, rows = [], 0
        appended = []
        counter = 0
        for n in appends:
            arr = np.arange(counter, counter + n, dtype=np.int64)
            counter += n
            staged.append(arr)
            rows += n
            appended.append(arr)
        messages = []
        while rows >= chunk:
            parts = _take(staged, chunk)
            rows -= chunk
            assert sum(len(p) for p in parts) == chunk
            messages.append(parts)
        if rows:
            messages.append(_take(staged, rows))
        assert staged == []
        # The parts are views of the appended arrays (no host copy) and,
        # concatenated, give back every tuple in append order.
        for parts in messages:
            for part in parts:
                assert any(np.shares_memory(part, arr) for arr in appended)
        taken = np.concatenate([p for parts in messages for p in parts])
        assert taken.tolist() == list(range(counter))


class TestGroupProperties:
    @given(n=st.integers(1, 32))
    def test_repartition_covers_every_node_once(self, n):
        g = TransmissionGroups.repartition(n)
        assert g.all_destinations == tuple(range(n))
        assert g.num_groups == n

    @given(n=st.integers(2, 32), exclude=st.integers(0, 31))
    def test_broadcast_excludes_exactly_one(self, n, exclude):
        exclude = exclude % n
        g = TransmissionGroups.broadcast(n, exclude=exclude)
        assert exclude not in g.all_destinations
        assert len(g.all_destinations) == n - 1


class TestMemoryProperties:
    @given(values=st.lists(
        st.tuples(st.integers(0, 120), st.integers(0, 1 << 62)),
        min_size=1, max_size=50))
    def test_word_store_last_write_wins(self, values):
        space = AddressSpace(0, Telemetry(Simulator(), 0))
        mr = space.register(1024)
        expected = {}
        for offset, value in values:
            addr = mr.addr + offset * 8
            mr.write_u64(addr, value)
            expected[addr] = value
        for addr, value in expected.items():
            assert mr.read_u64(addr) == value

    @given(lengths=st.lists(st.integers(1, 10_000), min_size=1,
                            max_size=30))
    def test_registration_accounting_balances(self, lengths):
        space = AddressSpace(0, Telemetry(Simulator(), 0))
        mrs = [space.register(length) for length in lengths]
        assert space.registered_bytes == sum(lengths)
        assert space.peak_registered_bytes == sum(lengths)
        for mr in mrs:
            space.deregister(mr)
        assert space.registered_bytes == 0
        assert space.peak_registered_bytes == sum(lengths)

    @given(lengths=st.lists(st.integers(1, 1000), min_size=2, max_size=20))
    def test_regions_never_overlap(self, lengths):
        space = AddressSpace(0, Telemetry(Simulator(), 0))
        mrs = [space.register(length) for length in lengths]
        spans = sorted((mr.addr, mr.addr + mr.length) for mr in mrs)
        for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
            assert hi1 <= lo2


class TestWireBytesProperties:
    @given(payload=st.integers(0, 1 << 26))
    def test_wire_bytes_monotone_and_bounded(self, payload):
        for net in (EDR, FDR):
            rc = net.wire_bytes(payload, "RC")
            assert rc >= payload
            assert rc <= payload + (payload // net.mtu + 1) * net.rc_header_bytes
            if payload <= net.mtu:
                ud = net.wire_bytes(payload, "UD")
                assert ud == payload + net.ud_header_bytes


#: edge values every checked field is drawn from: 0, -1, 1, a huge
#: value, inf, NaN, a float where an int belongs and an unknown string.
EDGE_VALUES = (0, -1, 1, 1 << 40, math.inf, math.nan, 1.5, "x")

#: the public configuration records, each built with one drawn field set
#: and the others at values that keep its cross-field rules whatever is
#: drawn: a window no credit frequency exceeds, a plain volume.
RECORDS = {
    "NetworkConfig": (NetworkConfig,
                      lambda **kw: dataclasses.replace(EDR, **kw)),
    "TopologySpec": (TopologySpec, TopologySpec),
    "ClusterConfig": (ClusterConfig, lambda **kw: ClusterConfig(
        **{"network": EDR, "num_nodes": 2, **kw})),
    "EndpointConfig": (EndpointConfig, lambda **kw: EndpointConfig(
        **{"buffers_per_connection": 1 << 41, "credit_frequency": 1, **kw})),
    "StagePlan": (StagePlan, lambda **kw: StagePlan("MESQ/SR", **kw)),
    "TenantSpec": (TenantSpec, lambda **kw: TenantSpec("t", **kw)),
    "ServiceConfig": (ServiceConfig, ServiceConfig),
    "Options": (Options, Options),
    "Point": (Point, lambda **kw: Point("MESQ/SR", **{"volume": 1, **kw})),
    "ModelBound": (ModelBound, lambda **kw: ModelBound(
        **{"window": 1 << 41, "credit_frequency": 1, **kw})),
}


#: values no checked field takes: an unknown string, NaN, inf and -1.
NEVER = ("x", math.nan, math.inf, -1)


class TestConstructionProperties:
    def test_every_number_field_declares_its_check(self):
        """An int-, float- or ``Optional[int]``-annotated field of a
        public record must say what values it takes."""
        unchecked = [f"{cls.__name__}.{f.name}"
                     for cls, _build in RECORDS.values()
                     for f in dataclasses.fields(cls)
                     if f.type in ("int", "float", "Optional[int]")
                     and CHECK not in f.metadata]
        assert not unchecked

    @pytest.mark.parametrize("name", sorted(RECORDS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_count_constructs_or_is_rejected_by_name(self, name, data):
        """Any checked field (a count, a real or a choice) set to an edge
        value, its value in a valid record, or ``None`` where that is its
        default, either constructs and keeps the value, or raises
        ``ValueError`` starting with the field's name.  :data:`NEVER`
        and a float where no float belongs are always refused; a valid
        record's value and a ``None`` default are always kept
        (ClusterConfig's 0 threads: the network's cores)."""
        cls, build = RECORDS[name]
        checked = {f.name: f for f in dataclasses.fields(cls)
                   if CHECK in f.metadata}
        f = checked[data.draw(st.sampled_from(sorted(checked)),
                              label="field")]
        valid = (getattr(build(), f.name),) + (
            (None,) if f.default is None else ())
        value = data.draw(st.sampled_from(EDGE_VALUES + valid),
                          label="value")
        try:
            built = build(**{f.name: value})
        except ValueError as exc:
            assert str(exc).startswith(f"{f.name} "), str(exc)
            assert value not in valid
            return
        assert value not in NEVER
        assert not (value == 1.5 and f.type != "float")
        expected = (EDR.cores_per_node if (name, f.name, value) ==
                    ("ClusterConfig", "threads_per_node", 0) else value)
        assert getattr(built, f.name) == expected

    @pytest.mark.parametrize("name, field", [
        ("NetworkConfig", "cores_per_node"),
        ("ClusterConfig", "threads_per_node"),
        ("Point", "threads"),
    ])
    @settings(max_examples=20, deadline=None)
    @given(excess=st.integers(1, 1 << 62))
    def test_a_thread_count_above_the_ceiling_fails_by_name(
            self, name, field, excess):
        """A count of threads sizes what a run starts, so it has a
        ceiling: one above it fails at construction, naming the field
        and the ceiling; the ceiling itself constructs.  Neither is run."""
        _cls, build = RECORDS[name]
        assert getattr(build(**{field: MAX_THREADS_PER_NODE}),
                       field) == MAX_THREADS_PER_NODE
        with pytest.raises(ValueError) as err:
            build(**{field: MAX_THREADS_PER_NODE + excess})
        assert str(err.value).startswith(f"{field} must be an int in [")
        assert f", {MAX_THREADS_PER_NODE}]" in str(err.value)

    @settings(max_examples=80, deadline=None)
    @given(length=st.integers(-(1 << 20), 1 << 20),
           transport=st.sampled_from([None, "RC", "UD"]),
           wire_bytes=st.none() | st.integers(-(1 << 20), 1 << 21))
    def test_a_train_builds_or_is_rejected(self, length, transport,
                                           wire_bytes):
        """``make_train`` needs ``transport`` or ``wire_bytes``; a
        negative length, or wire bytes below the length, raise
        ``ValueError``.  Every other draw builds that message."""
        def build():
            return make_train(EDR, src_node=0, dst_node=1, src_qpn=2,
                              dst_qpn=3, kind="SEND", length=length,
                              transport=transport, wire_bytes=wire_bytes)

        if wire_bytes is None and transport is None:
            with pytest.raises(ValueError, match="transport= or wire_bytes="):
                build()
            return
        wire = (EDR.wire_bytes(length, transport) if wire_bytes is None
                else wire_bytes)
        if length < 0 or wire < length:
            with pytest.raises(ValueError):
                build()
            return
        packet = build()
        assert (packet.length, packet.wire_bytes) == (length, wire)
        assert (packet.kind, packet.dst_qpn, packet.dropped) == \
            ("SEND", 3, False)

    @settings(max_examples=80, deadline=None)
    @given(opcode=st.sampled_from(list(Opcode)),
           length=st.integers(-4, 1 << 20),
           buffer=st.sampled_from([None, object()]),
           value=st.none() | st.integers(0, (1 << 64) - 1))
    def test_a_send_wr_builds_or_is_rejected(self, opcode, length, buffer,
                                             value):
        """A RECV opcode, a negative length, a WRITE with neither value
        nor buffer and a READ without a buffer raise ``VerbsError``;
        every other draw builds, by keywords or by position alike."""
        bad = (opcode is Opcode.RECV or length < 0
               or (opcode is Opcode.WRITE and value is None
                   and buffer is None)
               or (opcode is Opcode.READ and buffer is None))
        if bad:
            with pytest.raises(VerbsError):
                SendWR(wr_id=1, opcode=opcode, buffer=buffer,
                       length=length, value=value)
            with pytest.raises(VerbsError):
                SendWR(1, opcode, buffer, length, 0, None, value)
            return
        wr = SendWR(wr_id=1, opcode=opcode, buffer=buffer, length=length,
                    value=value)
        assert wr == SendWR(1, opcode, buffer, length, 0, None, value)

    @settings(max_examples=40, deadline=None)
    @given(length=st.integers(-(1 << 20), 1 << 20))
    def test_a_recv_wr_needs_a_positive_length(self, length):
        if length <= 0:
            with pytest.raises(VerbsError, match="must be positive"):
                RecvWR(1, None, length)
            return
        assert RecvWR(wr_id=1, buffer=None, length=length).length == length
