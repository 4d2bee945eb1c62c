"""The ladder's rungs: one microbenchmark per layer, host time per op.

Every rung builds a 1- or 2-node cluster (16 for the stage rung), drives
one layer through its public functions for a fixed number of operations
and reports the best of ``BEST_OF`` timings.  Counts are fixed, so the
work repeats exactly; only the host clock varies.  ``scale`` shrinks the
counts (``--selftest`` runs at 1/16).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

from repro import EDR, FDR, Cluster, ClusterConfig, EndpointConfig
from repro.baselines.qperf import run_qperf
from repro.bench import kernel
from repro.bench.workloads import run_repartition
from repro.core.groups import TransmissionGroups
from repro.engine import (
    HashAggregateOperator,
    HashJoinOperator,
    QueryFragment,
    ScanOperator,
    run_fragments,
)
from repro.engine.fragment import CountSink
from repro.memory import BufferPool
from repro.service import QuotaManager, ServiceConfig, ShuffleService, TenantSpec
from repro.telemetry import is_enabled, set_enabled
from repro.tpch import generate
from repro.verbs import AddressHandle, Opcode, QPType, RecvWR, SendWR

BEST_OF = 3
KIB = 1 << 10
MIB = 1 << 20

#: one design per endpoint kind of ``repro.core`` for the transport-pair
#: rungs (importing the baselines registers MPI and IPoIB kinds as well;
#: they have no verbs endpoint pair to time).
KIND_DESIGNS = {"SR_UD": "MESQ/SR", "SR_UD_MC": "MESQ/SR+MC",
                "SR_RC": "MEMQ/SR", "RD_RC": "MEMQ/RD", "WR_RC": "MEMQ/WR"}


def best_of(fn: Callable[[], float], repeats: int = BEST_OF) -> float:
    """Smallest of ``repeats`` timings (each call returns its own seconds,
    so set-up inside ``fn`` stays outside the timed region)."""
    return min(fn() for _ in range(repeats))


def _count(base: int, scale: float, floor: int = 16) -> int:
    return max(floor, int(base * scale))


def _pair(network=EDR, **overrides) -> Cluster:
    config = ClusterConfig(network=network, num_nodes=2, threads_per_node=1)
    if overrides:
        config = config.with_network(**overrides)
    return Cluster(config)


# -- sim, fabric: the repo's own kernel helpers ------------------------------


def sim_and_fabric(scale: float) -> Dict[str, float]:
    events = _count(100_000, scale, 2_000)
    wakeups = _count(50_000, scale, 2_000)
    packets = _count(8_000, scale, 500)
    messages = _count(300, scale, 32)
    out = {
        "rung.sim.dispatch_ns": 1e9 / max(
            kernel.bench_dispatch_events(events)["value"]
            for _ in range(BEST_OF)),
        "rung.sim.wakeup_ns": 1e9 / max(
            kernel.bench_process_wakeups(wakeups)["value"]
            for _ in range(BEST_OF)),
        "rung.fabric.packet_ns": 1e9 / max(
            kernel.bench_fabric_packets(packets)["value"]
            for _ in range(BEST_OF)),
    }
    trains = [kernel.bench_train_events(messages) for _ in range(BEST_OF)]
    detail = trains[0]["detail"]
    # value is train events per second; the detail's wall-clock is rounded.
    out["rung.fabric.train_ns"] = min(
        t["detail"]["train_events"] / t["value"] for t in trains
    ) * 1e9 / messages
    out["rung.fabric.train_event_reduction"] = (
        detail["oracle_events"] / detail["train_events"])
    return out


# -- NIC: QP-context cache hit and miss --------------------------------------


def nic(scale: float) -> Dict[str, float]:
    wrs = _count(20_000, scale, 1_000)

    def run(working_set_factor: float) -> float:
        cluster = _pair()
        nic0 = cluster.nodes[0].nic
        qpns = max(1, int(EDR.qp_cache_entries * working_set_factor))

        def done() -> None:
            pass

        started = time.perf_counter()
        for i in range(wrs):
            nic0.submit_wr(1 + i % qpns, done)
        cluster.run()
        elapsed = time.perf_counter() - started
        cluster.dispose()
        return elapsed

    return {
        "rung.nic.wr_hit_ns": best_of(lambda: run(0.5)) * 1e9 / wrs,
        "rung.nic.wr_miss_ns": best_of(lambda: run(4.0)) * 1e9 / wrs,
    }


# -- verbs: post -> completion polled ----------------------------------------


def _rc_pair(cluster: Cluster):
    ctx_a, ctx_b = cluster.contexts
    cq_a, cq_b = ctx_a.create_cq(), ctx_b.create_cq()
    qp_a = ctx_a.create_qp(QPType.RC, cq_a, cq_a)
    qp_b = ctx_b.create_qp(QPType.RC, cq_b, cq_b)
    qp_a.connect(AddressHandle(1, qp_b.qpn))
    qp_b.connect(AddressHandle(0, qp_a.qpn))
    return (ctx_a, ctx_b), (qp_a, qp_b), (cq_a, cq_b)


def _drain(cq) -> None:
    while cq.poll():
        pass


def verbs_data_path(scale: float) -> Dict[str, float]:
    ops = _count(2_000, scale, 256)
    window = 16
    size = 4 * KIB

    def timed(post_window, cqs, cluster) -> float:
        started = time.perf_counter()
        done = 0
        while done < ops:
            post_window()
            cluster.run()
            for cq in cqs:
                _drain(cq)
            done += window
        elapsed = time.perf_counter() - started
        cluster.dispose()
        return elapsed / done

    def ud_send() -> float:
        cluster = _pair(ud_jitter_ns=0)
        ctx_a, ctx_b = cluster.contexts
        cq_a, cq_b = ctx_a.create_cq(), ctx_b.create_cq()
        qp_a = ctx_a.create_qp(QPType.UD, cq_a, cq_a)
        qp_b = ctx_b.create_qp(QPType.UD, cq_b, cq_b)
        qp_a.activate()
        qp_b.activate()
        dest = AddressHandle(1, qp_b.qpn)

        def post() -> None:
            for i in range(window):
                qp_b.post_recv(RecvWR(wr_id=i, buffer=None, length=size))
            for i in range(window):
                qp_a.post_send(SendWR(wr_id=i, opcode=Opcode.SEND,
                                      length=size, dest=dest))

        return timed(post, (cq_a, cq_b), cluster)

    def rc_send() -> float:
        cluster = _pair()
        (ctx_a, ctx_b), (qp_a, qp_b), cqs = _rc_pair(cluster)
        sbuf = BufferPool(ctx_a, 1, size).buffers[0]
        sbuf.fill(None, size)
        rbufs = BufferPool(ctx_b, window, size).buffers

        def post() -> None:
            for buf in rbufs:
                qp_b.post_recv_buffer(buf, size)
            for i in range(window):
                qp_a.post_send(SendWR(wr_id=i, opcode=Opcode.SEND,
                                      buffer=sbuf, length=size))

        return timed(post, cqs, cluster)

    def rc_read() -> float:
        cluster = _pair()
        (ctx_a, ctx_b), (qp_a, _qp_b), cqs = _rc_pair(cluster)
        remote = BufferPool(ctx_b, 1, size).buffers[0]
        remote.fill(None, size)
        local = BufferPool(ctx_a, window, size).buffers

        def post() -> None:
            for i, buf in enumerate(local):
                qp_a.post_send(SendWR(wr_id=i, opcode=Opcode.READ, buffer=buf,
                                      length=size, remote_addr=remote.addr))

        return timed(post, cqs, cluster)

    def rc_write() -> float:
        cluster = _pair()
        (ctx_a, ctx_b), (qp_a, _qp_b), cqs = _rc_pair(cluster)
        sbuf = BufferPool(ctx_a, 1, size).buffers[0]
        sbuf.fill(None, size)
        targets = BufferPool(ctx_b, window, size).buffers

        def post() -> None:
            for i, target in enumerate(targets):
                qp_a.post_send(SendWR(wr_id=i, opcode=Opcode.WRITE,
                                      buffer=sbuf, length=size,
                                      remote_addr=target.addr))

        return timed(post, cqs, cluster)

    return {
        "rung.verbs.ud_send_ns": best_of(ud_send) * 1e9,
        "rung.verbs.rc_send_ns": best_of(rc_send) * 1e9,
        "rung.verbs.rc_read_ns": best_of(rc_read) * 1e9,
        "rung.verbs.rc_write_ns": best_of(rc_write) * 1e9,
    }


def verbs_control_path(scale: float) -> Dict[str, float]:
    pairs = _count(1_000, scale, 64)

    def qp_lifecycle() -> float:
        cluster = _pair()
        ctx_a, ctx_b = cluster.contexts
        started = time.perf_counter()
        for _ in range(pairs):
            cq_a, cq_b = ctx_a.create_cq(), ctx_b.create_cq()
            qp_a = ctx_a.create_qp(QPType.RC, cq_a, cq_a)
            qp_b = ctx_b.create_qp(QPType.RC, cq_b, cq_b)
            qp_a.connect(AddressHandle(1, qp_b.qpn))
            qp_b.connect(AddressHandle(0, qp_a.qpn))
            ctx_a.destroy_qp(qp_a)
            ctx_b.destroy_qp(qp_b)
            ctx_a.release_cq(cq_a)
            ctx_b.release_cq(cq_b)
        elapsed = time.perf_counter() - started
        cluster.dispose()
        return elapsed / pairs

    def mr_reg() -> float:
        cluster = _pair()
        ctx = cluster.contexts[0]
        started = time.perf_counter()
        for _ in range(pairs):
            ctx.dereg_mr(ctx.reg_mr(64 * KIB))
        elapsed = time.perf_counter() - started
        cluster.dispose()
        return elapsed / pairs

    return {"rung.verbs.qp_lifecycle_us": best_of(qp_lifecycle) * 1e6,
            "rung.verbs.mr_reg_us": best_of(mr_reg) * 1e6}


# -- transport: one endpoint pair per registered kind ------------------------


def transport_pairs(scale: float) -> Dict[str, float]:
    volume = max(256 * KIB, int(1 * MIB * scale))
    out = {}
    for kind, design in KIND_DESIGNS.items():

        def run(design: str = design) -> float:
            cluster = _pair()
            started = time.perf_counter()
            result = run_repartition(
                cluster, design, bytes_per_node=volume,
                config=EndpointConfig(message_size=4 * KIB))
            elapsed = time.perf_counter() - started
            cluster.dispose()
            return elapsed / result.messages_sent

        out[f"rung.transport.pair_ns.{kind}"] = best_of(run) * 1e9
    return out


# -- stage: build + connect, then tear down ----------------------------------


def stage_lifecycle(scale: float) -> Dict[str, float]:
    nodes = 16 if scale >= 1 else 4

    def run() -> Tuple[float, float]:
        cluster = Cluster(ClusterConfig(network=FDR, num_nodes=nodes))
        started = time.perf_counter()
        stage = cluster.shuffle_stage(
            "MEMQ/SR", TransmissionGroups.repartition(nodes))
        cluster.run_process(stage.setup(), name="rung-stage-setup")
        built = time.perf_counter()
        stage.dispose()
        disposed = time.perf_counter()
        cluster.dispose()
        return built - started, disposed - built

    timings = [run() for _ in range(BEST_OF)]
    return {"rung.stage.setup_ms": min(t[0] for t in timings) * 1e3,
            "rung.stage.dispose_ms": min(t[1] for t in timings) * 1e3}


# -- engine, tpch, baselines, service ----------------------------------------


def engine_and_datagen(scale: float) -> Dict[str, float]:
    scale_factor = max(0.002, 0.02 * scale)
    datagen_s = []
    for _ in range(BEST_OF):
        started = time.perf_counter()
        data = generate(scale_factor, 8, seed=2017)
        datagen_s.append(time.perf_counter() - started)
    lineitem, orders = data.lineitem, data.orders

    def operator_rate(build_root, tuples: int) -> float:
        def run() -> float:
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=1))
            node, threads = cluster.nodes[0], cluster.threads_per_node
            fragment = QueryFragment(node, build_root(node, threads), threads,
                                     sink=CountSink())
            started = time.perf_counter()
            cluster.run_process(run_fragments(cluster.sim, [fragment]))
            elapsed = time.perf_counter() - started
            cluster.dispose()
            return elapsed

        return tuples / best_of(run) / 1e6

    return {
        "rung.tpch.datagen_s": min(datagen_s),
        "rung.engine.scan_mtuples_s": operator_rate(
            lambda node, t: ScanOperator(node, lineitem, t, batch_rows=4096),
            len(lineitem)),
        "rung.engine.join_mtuples_s": operator_rate(
            lambda node, t: HashJoinOperator(
                node, ScanOperator(node, lineitem, t),
                ScanOperator(node, orders, t), build_key="l_orderkey",
                probe_key="o_orderkey", num_threads=t, semi=True),
            len(lineitem) + len(orders)),
        "rung.engine.agg_mtuples_s": operator_rate(
            lambda node, t: HashAggregateOperator(
                node, ScanOperator(node, lineitem, t), ["l_returnflag"],
                [("sum", "l_extendedprice", "revenue")], t),
            len(lineitem)),
    }


def qperf_and_service(scale: float) -> Dict[str, float]:
    messages = _count(512, scale, 64)

    def qperf() -> float:
        started = time.perf_counter()
        run_qperf(EDR, messages=messages)
        return time.perf_counter() - started

    jobs = max(2, int(4 * scale))

    def service() -> float:
        cluster = Cluster(ClusterConfig(network=FDR, num_nodes=4,
                                        threads_per_node=2))
        spec = TenantSpec(name="rung", design="MESQ/SR",
                          bytes_per_job=512 * KIB,
                          mean_interarrival_ns=1_000_000, jobs=jobs)
        svc = ShuffleService(cluster, [spec],
                             config=ServiceConfig(max_concurrent=2, seed=1))
        started = time.perf_counter()
        report = svc.run()
        elapsed = time.perf_counter() - started
        cluster.dispose()
        if report["tenants"]["rung"]["jobs_completed"] != jobs:
            raise RuntimeError("service rung did not complete its jobs")
        return elapsed

    return {"rung.baselines.qperf_ns": best_of(qperf) * 1e9 / messages,
            "rung.service.jobs_per_s": jobs / best_of(service)}


# -- instrumentation tax: one hook on against all off ------------------------


def instrumentation_tax(scale: float) -> Dict[str, float]:
    volume = max(2 * MIB, int(8 * MIB * scale))
    hooks: Dict[str, Callable[[Cluster], object]] = {
        "tracer": lambda c: c.enable_tracing(),
        "links": lambda c: c.enable_reporting(),
        "sanitizer": lambda c: c.enable_sanitizer(),
        "quotas": lambda c: c.enable_quotas(QuotaManager()),
    }

    def run(metrics: bool, hook=None) -> float:
        set_enabled(metrics)
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=8))
        if hook is not None:
            hook(cluster)
        started = time.perf_counter()
        run_repartition(cluster, "SEMQ/SR", bytes_per_node=volume,
                        config=EndpointConfig(message_size=64 * KIB))
        elapsed = time.perf_counter() - started
        cluster.dispose()
        return elapsed

    was_enabled = is_enabled()
    try:
        # Interleaved so a noisy moment hits every variant alike.
        times: Dict[str, list] = {name: [] for name in ("off", "metrics", *hooks)}
        for _ in range(BEST_OF):
            times["off"].append(run(False))
            times["metrics"].append(run(True))
            for name, hook in hooks.items():
                times[name].append(run(False, hook))
    finally:
        set_enabled(was_enabled)
    off = min(times["off"])
    return {f"rung.tax.{name}": min(samples) / off
            for name, samples in times.items() if name != "off"}


GROUPS = (sim_and_fabric, nic, verbs_data_path, verbs_control_path,
          transport_pairs, stage_lifecycle, engine_and_datagen,
          qperf_and_service, instrumentation_tax)


def run_all(scale: float = 1.0) -> Dict[str, float]:
    """Every rung, in ladder order."""
    out: Dict[str, float] = {}
    for group in GROUPS:
        out.update(group(scale))
    return out
