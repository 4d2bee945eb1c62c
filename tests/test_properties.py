"""Property-based tests (hypothesis) for core data structures & invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.endpoint import EndpointConfig
from repro.core.groups import TransmissionGroups
from repro.core.policy import StagePlan
from repro.core.shuffle import (
    _take,
    hash_partitioner,
    striped_partitioner,
)
from repro.fabric import EDR, FDR, ClusterConfig, QPContextCache, TopologySpec
from repro.sim import AllOf, Barrier, RatePipe, Simulator
from repro.telemetry import Telemetry
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
    @given(keys=st.lists(st.integers(0, 1 << 60), min_size=1, max_size=500),
           groups=st.integers(1, 16))
    def test_hash_partitioner_range_and_determinism(self, keys, groups):
        batch = np.array(keys, dtype=np.int64)
        part = hash_partitioner(lambda b: b, groups)
        a = part(batch)
        b = part(batch)
        np.testing.assert_array_equal(a, b)
        assert ((a >= 0) & (a < groups)).all()

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


#: edge values for a count field: 0, -1, valid ints, a huge value, a
#: float where an int belongs and a string.
EDGE_COUNTS = st.sampled_from([0, -1, 1, 3, 1 << 40, 1.5, "2"])

#: constructor -> its count fields and each field's minimum.
COUNT_FIELDS = {
    "TopologySpec": (lambda **kw: TopologySpec("leaf-spine", **kw),
                     {"oversubscription": 1, "nodes_per_leaf": 1}),
    "ClusterConfig": (lambda **kw: ClusterConfig(network=EDR, **kw),
                      {"num_nodes": 1, "threads_per_node": 0}),
    "StagePlan": (lambda **kw: StagePlan("MESQ/SR", **kw),
                  {"num_endpoints": 1}),
    "NetworkConfig": (lambda **kw: dataclasses.replace(EDR, **kw),
                      {"mtu": 64, "qp_cache_entries": 1, "max_qp_depth": 1,
                       "cores_per_node": 1}),
    # credit_frequency may not exceed buffers_per_connection, so each
    # entry holds the other one where every drawn value satisfies that.
    "EndpointConfig": (
        lambda **kw: EndpointConfig(credit_frequency=1, **kw),
        {"message_size": 64, "buffers_per_connection": 1,
         "ud_window_factor": 1}),
    "EndpointConfig.credit_frequency": (
        lambda **kw: EndpointConfig(buffers_per_connection=1 << 41, **kw),
        {"credit_frequency": 1}),
}


class TestConstructionProperties:
    @pytest.mark.parametrize("name", sorted(COUNT_FIELDS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_count_constructs_or_is_rejected_by_name(self, name, data):
        """A count that is not an int at or above its minimum raises
        ``ValueError`` naming the field; every other draw constructs
        and keeps the value (ClusterConfig's 0 threads: the cores)."""
        build, minimums = COUNT_FIELDS[name]
        values = {field: data.draw(EDGE_COUNTS, label=field)
                  for field in minimums}
        bad = [field for field, value in values.items()
               if not (type(value) is int and value >= minimums[field])]
        if bad:
            with pytest.raises(ValueError) as exc:
                build(**values)
            assert str(exc.value).split(" ")[0] in bad, str(exc.value)
            return
        built = build(**values)
        for field, value in values.items():
            assert getattr(built, field) == (value or EDR.cores_per_node)
