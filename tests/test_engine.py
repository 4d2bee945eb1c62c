"""Unit tests for the query-engine operators."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib import recfunctions as rfn

from repro import Cluster, ClusterConfig, EDR
from repro.core.shuffle import ShuffleOperator, hash_partitioner
from repro.engine import (
    CollectSink,
    ComputeOperator,
    FilterOperator,
    HashAggregateOperator,
    HashJoinOperator,
    OpState,
    ProjectOperator,
    QueryFragment,
    ScanOperator,
    run_fragments,
)
from repro.engine.fragment import CountSink
from repro.engine.map import MapOperator
from repro.engine.operator import (
    Operator,
    batch_nbytes,
    concat_batches,
    pack_columns,
)
from repro.engine.scan import RepeatedSourceOperator
from repro.sim import Event
from repro.tpch import generate, run_query
from repro.tpch.schema import LINEITEM_DTYPE

DTYPE = np.dtype([("k", np.int64), ("v", np.int64)])


@pytest.fixture
def cluster():
    return Cluster(ClusterConfig(network=EDR, num_nodes=1,
                                 threads_per_node=2))


def make_table(rows, seed=0):
    rng = np.random.default_rng(seed)
    t = np.empty(rows, dtype=DTYPE)
    t["k"] = rng.integers(0, 50, rows)
    t["v"] = np.arange(rows)
    return t


def drain(cluster, op, threads=2):
    """Run an operator tree to completion, returning collected rows."""
    sink = CollectSink()
    frag = QueryFragment(cluster.nodes[0], op, threads, sink=sink)
    cluster.run_process(run_fragments(cluster.sim, [frag]))
    return sink.result()


class BatchSource(Operator):
    """Serves each thread its own fixed list of batches (empty ones too)."""

    def __init__(self, node, per_thread):
        super().__init__(node)
        self._queues = [list(batches) for batches in per_thread]

    def next(self, tid):
        queue = self._queues[tid]
        batch = queue.pop(0) if queue else None
        return (OpState.MORE_DATA if queue else OpState.DEPLETED, batch)
        yield  # pragma: no cover


class TestBatchHelpers:
    def test_batch_nbytes(self):
        assert batch_nbytes(make_table(10)) == 160
        assert batch_nbytes(None) == 0

    def test_concat(self):
        t = make_table(4)
        assert concat_batches([]) is None
        assert concat_batches([t]) is t
        assert len(concat_batches([t, t])) == 8

    def test_concat_same_record_dtype_equals_numpy(self):
        t = make_table(7)
        parts = [t[:3], t[3:3], t[3:]]
        out = concat_batches(parts)
        assert out.dtype == DTYPE
        np.testing.assert_array_equal(out, np.concatenate(parts))
        np.testing.assert_array_equal(out, t)

    def test_concat_leaves_promotion_to_numpy(self):
        t = make_table(4)
        narrow = np.zeros(2, dtype=[("k", np.int32), ("v", np.int64)])
        out = concat_batches([t, narrow])
        assert out.dtype == np.result_type(t.dtype, narrow.dtype)
        assert len(out) == 6
        # Strided rows and plain (non-record) arrays are numpy's too.
        np.testing.assert_array_equal(concat_batches([t[::2], t]),
                                      np.concatenate([t[::2], t]))
        np.testing.assert_array_equal(concat_batches([t["v"], t["v"]]),
                                      np.concatenate([t["v"], t["v"]]))

    @pytest.mark.parametrize("rows", [(1, 1), (0, 5, 3), (7,) * 8,
                                      (2048, 2048), (256,) * 8])
    @pytest.mark.parametrize("fields", [
        [("k", "<i8"), ("v", "<i8")],
        [("k", "<i4"), ("f", "<f8"), ("s", "S3"), ("b", "?")],
        [("d", "<M8[D]"), ("m", "<f4", (2,))],
    ])
    def test_concat_one_record_dtype_is_numpy_concatenate(self, rows, fields):
        """One copy of the raw bytes gives what ``np.concatenate`` gives:
        the same bytes and dtype, in a writable array (the parts here
        are read-only, as RECEIVE's received views are)."""
        dtype = np.dtype(fields)
        raw = np.arange(sum(rows) * dtype.itemsize, dtype=np.uint8)
        whole = np.frombuffer(raw.tobytes(), dtype)
        bounds = np.cumsum((0,) + rows)
        parts = [whole[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        out = concat_batches(parts)
        expected = np.concatenate(parts)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
        assert out.flags.writeable

    def test_pack_columns_is_packed_and_ordered(self):
        out = pack_columns([("a", np.arange(3, dtype=np.int8)),
                            ("b", np.arange(3, dtype=np.float64)),
                            ("c", np.arange(3, dtype=np.int32))])
        assert out.dtype.names == ("a", "b", "c")
        assert out.dtype.itemsize == 13
        np.testing.assert_array_equal(out["c"], [0, 1, 2])
        with pytest.raises(ValueError):
            pack_columns([("a", np.zeros(1)), ("a", np.zeros(1))])


class TestScan:
    def test_scan_returns_all_rows_across_threads(self, cluster):
        table = make_table(1000)
        out = drain(cluster, ScanOperator(cluster.nodes[0], table, 2,
                                          batch_rows=64))
        assert len(out) == 1000
        np.testing.assert_array_equal(np.sort(out["v"]), np.arange(1000))

    def test_scan_threads_get_disjoint_ranges(self, cluster):
        table = make_table(100)
        scan = ScanOperator(cluster.nodes[0], table, 2, batch_rows=1000)

        def collect(tid):
            state, batch = yield from scan.next(tid)
            return batch

        b0 = cluster.run_process(collect(0))
        b1 = cluster.run_process(collect(1))
        assert len(b0) + len(b1) == 100
        assert not set(b0["v"]) & set(b1["v"])

    def test_empty_table(self, cluster):
        out = drain(cluster, ScanOperator(cluster.nodes[0],
                                          make_table(0), 2))
        assert out is None

    def test_bad_batch_rows(self, cluster):
        with pytest.raises(ValueError):
            ScanOperator(cluster.nodes[0], make_table(1), 2, batch_rows=0)

    def test_scan_charges_time(self, cluster):
        table = make_table(100_000)
        drain(cluster, ScanOperator(cluster.nodes[0], table, 2))
        assert cluster.sim.now > 0

    def test_repeated_source_respects_byte_budget(self, cluster):
        template = make_table(64)  # 1 KiB
        src = RepeatedSourceOperator(cluster.nodes[0], template, 2,
                                     total_bytes_per_thread=4096)
        out = drain(cluster, src)
        assert out.nbytes == 2 * 4096

    def test_repeated_source_truncates_final_batch(self, cluster):
        template = make_table(64)  # 1024 B
        src = RepeatedSourceOperator(cluster.nodes[0], template, 2,
                                     total_bytes_per_thread=1536)
        out = drain(cluster, src)
        assert out.nbytes == 2 * 1536


class TestFilterProjectMap:
    def test_filter_keeps_matching_rows(self, cluster):
        table = make_table(500)
        op = FilterOperator(cluster.nodes[0],
                            ScanOperator(cluster.nodes[0], table, 2),
                            lambda b: b["k"] < 10)
        out = drain(cluster, op)
        expected = np.sort(table[table["k"] < 10]["v"])
        np.testing.assert_array_equal(np.sort(out["v"]), expected)

    def test_filter_rejecting_everything(self, cluster):
        table = make_table(100)
        op = FilterOperator(cluster.nodes[0],
                            ScanOperator(cluster.nodes[0], table, 2),
                            lambda b: b["k"] < 0)
        assert drain(cluster, op) is None

    @pytest.mark.parametrize("flags", [99, 101])
    def test_filter_mask_of_another_length_is_an_error(self, cluster, flags):
        table = make_table(100)
        op = FilterOperator(cluster.nodes[0],
                            BatchSource(cluster.nodes[0], [[table]]),
                            lambda b: np.ones(flags, dtype=bool))
        with pytest.raises(ValueError, match=f"FilterOperator: the predicate "
                                             f"returned {flags} flags for a "
                                             f"batch of 100 rows"):
            cluster.run_process(op.next(0))

    def test_project_keeps_columns(self, cluster):
        table = make_table(50)
        op = ProjectOperator(cluster.nodes[0],
                             ScanOperator(cluster.nodes[0], table, 2), ["v"])
        out = drain(cluster, op)
        assert out.dtype.names == ("v",)
        assert out.dtype.itemsize == 8  # repacked, no padding

    @pytest.mark.parametrize("columns", [["v"], ["w", "k"], ["k", "v", "w"],
                                         ["s", "v"]])
    def test_project_matches_repack_fields(self, cluster, columns):
        # Mixed widths and a selection out of field order: the output
        # has the dtype and bytes numpy's own repack would give.
        dtype = np.dtype([("k", np.int64), ("w", np.int32),
                          ("s", "S3"), ("v", np.float64)])
        batch = np.zeros(7, dtype=dtype)
        batch["k"] = np.arange(7)
        batch["w"] = -np.arange(7)
        batch["s"] = b"ab"
        batch["v"] = np.arange(7) / 4
        op = ProjectOperator(cluster.nodes[0],
                             BatchSource(cluster.nodes[0], [[batch]]),
                             columns)
        _state, out = cluster.run_process(op.next(0))
        expected = rfn.repack_fields(batch[columns])
        assert out.dtype == expected.dtype
        assert out.dtype.descr == expected.dtype.descr
        assert out.tobytes() == expected.tobytes()

    def test_project_of_an_unknown_column_names_the_operator(self, cluster):
        op = ProjectOperator(cluster.nodes[0],
                             BatchSource(cluster.nodes[0], [[make_table(5)]]),
                             ["v", "nope"])
        with pytest.raises(ValueError, match="ProjectOperator: projected "
                                             "column 'nope'"):
            cluster.run_process(op.next(0))

    def test_project_requires_columns(self, cluster):
        with pytest.raises(ValueError):
            ProjectOperator(cluster.nodes[0],
                            ScanOperator(cluster.nodes[0], make_table(1), 2),
                            [])

    def test_map_adds_derived_column(self, cluster):
        table = make_table(50)

        def double(batch):
            return pack_columns([(c, batch[c]) for c in batch.dtype.names]
                                + [("d", batch["v"] * 2)])

        op = MapOperator(cluster.nodes[0],
                         ScanOperator(cluster.nodes[0], table, 2), double)
        out = drain(cluster, op)
        np.testing.assert_array_equal(out["d"], out["v"] * 2)

    def test_compute_burns_time_per_batch(self, cluster):
        table = make_table(1000)
        scan = ScanOperator(cluster.nodes[0], table, 2, batch_rows=100)
        op = ComputeOperator(cluster.nodes[0], scan, ns_per_batch=10_000)
        drain(cluster, op)
        assert op.batches == 10
        assert cluster.sim.now >= 5 * 10_000  # 5 batches per thread

    def test_compute_rejects_negative_cost(self, cluster):
        with pytest.raises(ValueError):
            ComputeOperator(cluster.nodes[0], None, ns_per_batch=-1)


class TestHashJoin:
    def make_sides(self, cluster, build_rows, probe_rows):
        build_dtype = np.dtype([("bk", np.int64), ("bv", np.int64)])
        probe_dtype = np.dtype([("pk", np.int64), ("pv", np.int64)])
        build = np.empty(build_rows, dtype=build_dtype)
        build["bk"] = np.arange(build_rows)
        build["bv"] = np.arange(build_rows) * 10
        probe = np.empty(probe_rows, dtype=probe_dtype)
        probe["pk"] = np.arange(probe_rows) % max(1, build_rows * 2)
        probe["pv"] = np.arange(probe_rows)
        node = cluster.nodes[0]
        return (build, probe,
                ScanOperator(node, build, 2), ScanOperator(node, probe, 2))

    def test_inner_join_matches(self, cluster):
        build, probe, bscan, pscan = self.make_sides(cluster, 20, 200)
        join = HashJoinOperator(cluster.nodes[0], bscan, pscan,
                                build_key="bk", probe_key="pk",
                                num_threads=2)
        out = drain(cluster, join)
        expected = np.sum(np.isin(probe["pk"], build["bk"]))
        assert len(out) == expected
        np.testing.assert_array_equal(out["bv"], out["pk"] * 10)

    def test_semi_join_keeps_probe_rows_once(self, cluster):
        build, probe, bscan, pscan = self.make_sides(cluster, 20, 200)
        join = HashJoinOperator(cluster.nodes[0], bscan, pscan,
                                build_key="bk", probe_key="pk",
                                num_threads=2, semi=True)
        out = drain(cluster, join)
        expected = np.sum(np.isin(probe["pk"], build["bk"]))
        assert len(out) == expected
        assert out.dtype.names == ("pk", "pv")  # no build columns

    def test_duplicate_build_keys_multiply(self, cluster):
        build_dtype = np.dtype([("bk", np.int64)])
        build = np.zeros(3, dtype=build_dtype)  # key 0 three times
        probe_dtype = np.dtype([("pk", np.int64)])
        probe = np.zeros(2, dtype=probe_dtype)
        node = cluster.nodes[0]
        join = HashJoinOperator(node, ScanOperator(node, build, 2),
                                ScanOperator(node, probe, 2),
                                build_key="bk", probe_key="pk",
                                num_threads=2)
        out = drain(cluster, join)
        assert len(out) == 6

    def test_empty_build_side(self, cluster):
        build, probe, bscan, pscan = self.make_sides(cluster, 0, 50)
        join = HashJoinOperator(cluster.nodes[0], bscan, pscan,
                                build_key="bk", probe_key="pk",
                                num_threads=2)
        assert drain(cluster, join) is None

    def test_misspelt_build_payload_is_an_error(self, cluster):
        build, probe, bscan, pscan = self.make_sides(cluster, 20, 50)
        join = HashJoinOperator(cluster.nodes[0], bscan, pscan,
                                build_key="bk", probe_key="pk",
                                num_threads=2, build_payload=["bv", "bw"])
        with pytest.raises(ValueError) as err:
            drain(cluster, join)
        message = str(err.value)
        assert "HashJoinOperator" in message and "build_payload" in message
        assert "['bw']" in message and "['bk', 'bv']" in message

    @pytest.mark.parametrize("keys, role", [
        ({"build_key": "nope", "probe_key": "pk"}, "build_key"),
        ({"build_key": "bk", "probe_key": "nope"}, "probe_key"),
    ])
    def test_unknown_key_column_names_the_operator(self, cluster, keys,
                                                   role):
        build, probe, bscan, pscan = self.make_sides(cluster, 20, 50)
        join = HashJoinOperator(cluster.nodes[0], bscan, pscan,
                                num_threads=2, **keys)
        with pytest.raises(ValueError, match=f"HashJoinOperator: {role} "
                                             "column 'nope'"):
            drain(cluster, join)


class TestHashAggregate:
    def test_count_and_sum(self, cluster):
        table = make_table(1000, seed=2)
        agg = HashAggregateOperator(
            cluster.nodes[0], ScanOperator(cluster.nodes[0], table, 2),
            ["k"], [("count", None, "cnt"), ("sum", "v", "total")], 2)
        out = drain(cluster, agg)
        assert out is not None
        for row in out:
            mask = table["k"] == row["k"]
            assert row["cnt"] == mask.sum()
            assert row["total"] == table["v"][mask].sum()

    def test_groups_complete(self, cluster):
        table = make_table(500, seed=3)
        agg = HashAggregateOperator(
            cluster.nodes[0], ScanOperator(cluster.nodes[0], table, 2),
            ["k"], [("count", None, "cnt")], 2)
        out = drain(cluster, agg)
        assert set(out["k"]) == set(table["k"])
        assert out["cnt"].sum() == len(table)

    def test_empty_input(self, cluster):
        agg = HashAggregateOperator(
            cluster.nodes[0], ScanOperator(cluster.nodes[0], make_table(0), 2),
            ["k"], [("count", None, "cnt")], 2)
        assert drain(cluster, agg) is None

    def test_unsupported_aggregate_rejected(self, cluster):
        with pytest.raises(ValueError):
            HashAggregateOperator(cluster.nodes[0], None, ["k"],
                                  [("avg", "v", "a")], 2)

    def test_unknown_group_column_names_the_operator(self, cluster):
        agg = HashAggregateOperator(
            cluster.nodes[0],
            ScanOperator(cluster.nodes[0], make_table(10), 2),
            ["nope"], [("count", None, "cnt")], 2)
        with pytest.raises(ValueError, match="HashAggregateOperator: group "
                                             "column 'nope'"):
            drain(cluster, agg)


class TestFragment:
    def test_count_sink(self, cluster):
        table = make_table(256)
        sink = CountSink()
        frag = QueryFragment(cluster.nodes[0],
                             ScanOperator(cluster.nodes[0], table, 2), 2,
                             sink=sink)
        cluster.run_process(run_fragments(cluster.sim, [frag]))
        assert (sink.rows, sink.nbytes) == (256, 256 * 16)

    def test_fragments_run_concurrently(self, cluster):
        table = make_table(100_000)
        node = cluster.nodes[0]

        def fragment():
            return QueryFragment(node, ScanOperator(node, table, 2), 2)

        def run(*fragments):
            return cluster.run_process(
                run_fragments(cluster.sim, list(fragments)))

        alone = run(fragment()) + run(fragment())
        # Concurrent, not sequential: total well under the sum.
        assert run(fragment(), fragment()) < alone

    def test_a_waiting_worker_holds_no_consumed_batch(self, cluster):
        """Once the sink consumed a batch, the worker waiting in the
        next ``next()`` must not keep it alive: on a shuffle workload
        that is one buffer-sized batch per thread for the whole wait."""
        sim = cluster.sim
        gate = Event(sim)

        class OneThenWait(Operator):
            calls = 0

            def next(self, tid):
                self.calls += 1
                if self.calls == 1:
                    return (OpState.MORE_DATA, make_table(2048))
                yield gate
                return (OpState.DEPLETED, None)

        class WeakSink:
            def consume(self, tid, batch):
                if batch is not None:
                    self.ref = weakref.ref(batch)
                    sim.call_later(1_000, check)

        alive = []

        def check():
            # The worker is parked on the gate, in its second next().
            alive.append(sink.ref() is not None)
            gate.succeed()

        sink = WeakSink()
        node = cluster.nodes[0]
        frag = QueryFragment(node, OneThenWait(node), 1, sink=sink)
        done = frag.start()
        cluster.run()
        assert done.processed
        assert alive == [False]


# -- differential oracle --------------------------------------------------------
#
# The row-at-a-time kernels the numpy ones replaced, kept as the reference:
# a dict of build-row lists probed key by key and glued with recfunctions,
# and a dict of Python-float accumulators fed through ``.item()``.  The
# operators must return *identical* arrays — same rows in the same order,
# same dtype and itemsize, and sums equal to the last bit (they add in the
# same order).


def reference_join(build, probe_batches, build_key, probe_key, semi,
                   build_payload):
    """Per probe batch, the joined batch or None."""
    if build is None:
        return [None] * len(probe_batches)
    table = {}
    for i, key in enumerate(build[build_key].tolist()):
        table.setdefault(key, []).append(i)
    payload = (build_payload if build_payload is not None
               else [c for c in build.dtype.names if c != build_key])
    right = rfn.repack_fields(build[payload]) if payload else None
    results = []
    for batch in probe_batches:
        keys = batch[probe_key].tolist()
        if semi:
            kept = batch[np.fromiter((k in table for k in keys), dtype=bool,
                                     count=len(keys))]
            results.append(kept if len(kept) else None)
            continue
        probe_idx, build_idx = [], []
        for i, key in enumerate(keys):
            for j in table.get(key, ()):
                probe_idx.append(i)
                build_idx.append(j)
        if not probe_idx:
            results.append(None)
            continue
        left = batch[np.asarray(probe_idx)]
        results.append(left if right is None else rfn.merge_arrays(
            (left, right[np.asarray(build_idx)]), flatten=True,
            usemask=False, asrecarray=False))
    return results


def reference_aggregate(per_thread, group_cols, aggregates):
    """Thread-local dict accumulation, then a merge in thread order."""
    partials = []
    for batches in per_thread:
        partial = {}
        for batch in batches:
            for i in range(len(batch)):
                key = tuple(batch[c][i].item() for c in group_cols)
                acc = partial.setdefault(key, [0.0] * len(aggregates))
                for j, (func, col, _name) in enumerate(aggregates):
                    acc[j] += 1 if func == "count" else batch[col][i].item()
        partials.append(partial)
    merged = {}
    for partial in partials:
        for key, acc in partial.items():
            into = merged.get(key)
            if into is None:
                merged[key] = list(acc)
            else:
                for j, value in enumerate(acc):
                    into[j] += value
    if not merged:
        return None
    sample = next(iter(merged))
    out = np.empty(len(merged), dtype=[
        (c, np.float64 if isinstance(sample[i], float) else np.int64)
        for i, c in enumerate(group_cols)
    ] + [(name, np.float64) for _f, _c, name in aggregates])
    for row, (key, acc) in enumerate(sorted(merged.items())):
        for i, col in enumerate(group_cols):
            out[row][col] = key[i]
        for j, (_f, _c, name) in enumerate(aggregates):
            out[row][name] = acc[j]
    return out


def reference_filter(batch, mask):
    """Boolean indexing, as the filter moved records before ``compress``."""
    kept = batch[mask]
    return kept if len(kept) else None


def reference_project(batch, columns):
    """A multi-field view cast to the packed dtype of the selection."""
    fields = batch.dtype.fields
    packed = np.dtype([(name, fields[name][0]) for name in columns])
    return batch[columns].astype(packed, copy=False)


def reference_scatter(batch, assignment, num_groups):
    """Each group's rows, in batch order: fancy indexing by a stable
    argsort, cut where ``searchsorted`` finds each group's start."""
    order = np.argsort(assignment, kind="stable")
    sorted_batch = batch[order]
    bounds = np.searchsorted(assignment[order], np.arange(num_groups + 1))
    return [sorted_batch[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def reference_hash(keys, num_groups):
    """Knuth's multiplicative hash in ``uint64``, reduced mod 2**32."""
    return (keys.astype(np.uint64) * np.uint64(2654435761)
            % np.uint64(1 << 32) % np.uint64(num_groups))


def assert_identical(actual, expected):
    if expected is None:
        assert actual is None
        return
    assert actual is not None
    assert actual.dtype == expected.dtype
    assert actual.dtype.itemsize == expected.dtype.itemsize
    assert actual.tobytes() == expected.tobytes()


def split_at(array, cuts):
    """Pieces of ``array`` cut at the given (unsorted, repeatable) points:
    batches of arbitrary length, some of them empty."""
    return np.split(array, sorted(c for c in cuts if c <= len(array)))


BUILD_DTYPE = np.dtype([("bk", np.int64), ("b1", np.int32),
                        ("b2", np.float64), ("b3", np.int8)])
PROBE_DTYPE = np.dtype([("pk", np.int64), ("p1", np.float64),
                        ("p2", np.int8)])
#: packed records of odd itemsize: 17 B, and lineitem's 37 B.
ODD_DTYPES = (np.dtype([("k", np.int64), ("v", np.float64), ("f", np.int8)]),
              LINEITEM_DTYPE)
GROUPED_DTYPE = np.dtype([("g8", np.int8), ("g32", np.int32),
                          ("g64", np.int64), ("gf", np.float64),
                          ("v", np.float64), ("w", np.int32)])

cut_points = st.lists(st.integers(0, 80), max_size=6)


def random_rows(rng, rows, dtype, key_range):
    """Small-domain columns (duplicates everywhere) with float columns
    whose sums depend on the order they are added in."""
    table = np.empty(rows, dtype=dtype)
    for name in dtype.names:
        if dtype[name].kind == "f" and name != "gf":
            table[name] = rng.uniform(-1e6, 1e6, rows)
        elif name == "gf":
            table[name] = rng.integers(0, key_range, rows) / 4.0
        else:
            table[name] = rng.integers(0, key_range, rows)
    return table


class TestKernelOracle:
    @given(seed=st.integers(0, 2 ** 32 - 1), build_rows=st.integers(0, 40),
           probe_rows=st.integers(0, 80), key_range=st.integers(1, 12),
           semi=st.booleans(),
           payload=st.sampled_from([None, [], ["b2"], ["b3", "b1"]]),
           build_cuts=cut_points, probe_cuts=cut_points)
    @settings(deadline=None, max_examples=150)
    def test_join_equals_row_at_a_time_reference(
            self, seed, build_rows, probe_rows, key_range, semi, payload,
            build_cuts, probe_cuts):
        rng = np.random.default_rng(seed)
        # Probe keys range twice as wide as build keys: about half miss.
        build = random_rows(rng, build_rows, BUILD_DTYPE, key_range)
        probe = random_rows(rng, probe_rows, PROBE_DTYPE, 2 * key_range)
        probe_batches = split_at(probe, probe_cuts)
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=1,
                                        threads_per_node=1))
        node = cluster.nodes[0]
        join = HashJoinOperator(
            node, BatchSource(node, [split_at(build, build_cuts)]),
            BatchSource(node, [probe_batches]), build_key="bk",
            probe_key="pk", num_threads=1, semi=semi, build_payload=payload)
        expected = reference_join(
            build if build_rows else None, probe_batches, "bk", "pk", semi,
            payload)
        assert_identical(
            drain(cluster, join, threads=1),
            concat_batches([b for b in expected if b is not None]))

    def test_join_output_records_are_packed(self, cluster):
        node = cluster.nodes[0]
        rng = np.random.default_rng(0)
        build = random_rows(rng, 30, BUILD_DTYPE, 5)
        probe = random_rows(rng, 30, PROBE_DTYPE, 5)
        join = HashJoinOperator(
            node, ScanOperator(node, build, 2), ScanOperator(node, probe, 2),
            build_key="bk", probe_key="pk", num_threads=2,
            build_payload=["b3", "b2"])
        out = drain(cluster, join)
        assert out.dtype.names == ("pk", "p1", "p2", "b3", "b2")
        assert out.dtype.itemsize == 17 + 1 + 8

    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 200),
           dtype=st.sampled_from(ODD_DTYPES), keep=st.floats(0, 1),
           groups=st.integers(1, 17), data=st.data())
    @settings(deadline=None, max_examples=100)
    def test_record_moves_equal_the_indexing_forms(
            self, seed, rows, dtype, keep, groups, data):
        """Filter, project and the hash scatter move records with
        ``compress``/``take``; the bytes are those of ``batch[mask]``,
        ``batch[columns]`` and ``batch[order]``."""
        rng = np.random.default_rng(seed)
        batch = np.frombuffer(bytearray(rng.bytes(rows * dtype.itemsize)),
                              dtype)
        key = dtype.names[0]
        batch[key] = rng.integers(-(1 << 40), 1 << 40, rows)
        mask = rng.random(rows) < keep
        columns = data.draw(st.permutations(dtype.names).flatmap(
            lambda names: st.integers(1, len(names)).map(
                lambda n: list(names[:n]))), label="columns")
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=1,
                                        threads_per_node=1))
        node = cluster.nodes[0]

        kept = cluster.run_process(FilterOperator(
            node, BatchSource(node, [[batch]]),
            lambda b: mask).next(0))[1]
        assert_identical(kept, reference_filter(batch, mask))

        projected = cluster.run_process(ProjectOperator(
            node, BatchSource(node, [[batch]]), columns).next(0))[1]
        assert_identical(projected, reference_project(batch, columns))

        partition = hash_partitioner(lambda b: b[key], groups)
        chunks, staged = [[] for _ in range(groups)], [0] * groups
        shuffle = ShuffleOperator.__new__(ShuffleOperator)
        shuffle.partition_fn = partition
        shuffle.groups = type("Groups", (), {"num_groups": groups})
        shuffle._scatter(chunks, staged, batch)
        expected = reference_scatter(batch, partition(batch), groups)
        for g in range(groups):
            assert all(len(part) for part in chunks[g])
            assert staged[g] == len(expected[g])
            assert_identical(concat_batches(chunks[g]) if chunks[g]
                             else expected[g][:0], expected[g])

    @pytest.mark.parametrize("groups", range(1, 18))
    def test_hash_partitioner_equals_the_uint64_formula(self, groups):
        rng = np.random.default_rng(groups)
        keys = np.concatenate([
            rng.integers(-(1 << 63), (1 << 63) - 1, 500, dtype=np.int64),
            rng.integers(0, 1 << 20, 500), [0, -1, (1 << 32) - 1, 1 << 32]])
        assigned = hash_partitioner(lambda b: b, groups)(keys)
        assert assigned.dtype == np.min_scalar_type(groups - 1)
        np.testing.assert_array_equal(assigned.astype(np.uint64),
                                      reference_hash(keys, groups))

    def test_hash_partitioner_needs_a_group(self):
        with pytest.raises(ValueError, match="num_groups must be >= 1"):
            hash_partitioner(lambda b: b, 0)

    @pytest.mark.parametrize("semi", [False, True])
    @pytest.mark.parametrize("build_keys, probe_batches", [
        # Below the smallest and above the largest build key: the
        # search index of the largest is clipped to the last run.
        ([5, 5, 7, 9], [[-3, 0, 5, 9, 10, 1 << 40, 7, 4, 6, 8]]),
        # One build key, repeated.
        ([4] * 6, [[4, 3, 4, 5], [4]]),
        # Empty probe batches around a full one, and only empty ones.
        ([1, 2, 3], [[], [3, 1, 0], []]),
        ([1, 2, 3], [[], []]),
    ])
    def test_join_edge_cases_equal_the_reference(self, semi, build_keys,
                                                 probe_batches):
        rng = np.random.default_rng(len(build_keys))
        build = random_rows(rng, len(build_keys), BUILD_DTYPE, 1)
        build["bk"] = build_keys
        batches = []
        for keys in probe_batches:
            batch = random_rows(rng, len(keys), PROBE_DTYPE, 1)
            batch["pk"] = keys
            batches.append(batch)
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=1,
                                        threads_per_node=1))
        node = cluster.nodes[0]
        join = HashJoinOperator(
            node, BatchSource(node, [[build]]), BatchSource(node, [batches]),
            build_key="bk", probe_key="pk", num_threads=1, semi=semi)
        expected = reference_join(build, batches, "bk", "pk", semi, None)
        assert_identical(
            drain(cluster, join, threads=1),
            concat_batches([b for b in expected if b is not None]))

    def test_misspelt_probe_key_raises_with_an_empty_build_side(self):
        """The probe column is looked up before the empty table is."""
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=1,
                                        threads_per_node=1))
        node = cluster.nodes[0]
        probe = random_rows(np.random.default_rng(0), 5, PROBE_DTYPE, 3)
        join = HashJoinOperator(
            node, BatchSource(node, [[np.empty(0, BUILD_DTYPE)]]),
            BatchSource(node, [[probe]]), build_key="bk",
            probe_key="nope", num_threads=1)
        with pytest.raises(ValueError, match="HashJoinOperator: probe_key "
                                             "column 'nope'"):
            drain(cluster, join, threads=1)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           rows=st.lists(st.integers(0, 80), min_size=1, max_size=3),
           key_range=st.integers(1, 9),
           group_cols=st.sampled_from([
               [], ["g8"], ["g32"], ["g64"], ["gf"], ["g32", "g8"],
               ["gf", "g64", "g8"]]),
           aggregates=st.sampled_from([
               [("count", None, "n")],
               [("sum", "v", "total")],
               [("count", None, "n"), ("sum", "v", "total"),
                ("sum", "w", "weight")]]),
           cuts=cut_points)
    @settings(deadline=None, max_examples=150)
    def test_aggregate_equals_row_at_a_time_reference(
            self, seed, rows, key_range, group_cols, aggregates, cuts):
        rng = np.random.default_rng(seed)
        threads = len(rows)
        per_thread = [
            split_at(random_rows(rng, n, GROUPED_DTYPE, key_range), cuts)
            for n in rows]
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=1,
                                        threads_per_node=threads))
        node = cluster.nodes[0]
        agg = HashAggregateOperator(node, BatchSource(node, per_thread),
                                    group_cols, aggregates, threads)
        assert_identical(
            drain(cluster, agg, threads=threads),
            reference_aggregate(per_thread, group_cols, aggregates))

    def test_tpch_response_times_are_those_of_the_row_loops(self):
        """The kernels are host-side only: simulated time may not move.
        Pinned from the last commit that ran the dict/.item() loops."""
        data = generate(0.01, 4)
        pinned = {"Q3": 175644, "Q4": 114787, "Q10": 107042}
        for query, response_time_ns in pinned.items():
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
            result = run_query(cluster, query, data)
            assert result.response_time_ns == response_time_ns, query
