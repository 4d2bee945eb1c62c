"""What the ladder benchmark declares: workloads, metrics, bounds, layers.

Everything ``BENCHMARK.json`` says is generated from this module
(``run.py --write-baseline``), and ``run.py --selftest`` checks that the
two still agree and that the emitted documents carry exactly the names
declared here.

Every metric is labelled **host** (what the simulator costs on this
machine), **sim** (what the modelled cluster did; repeats bit-identically
for one seed) or **check** (output validation).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Tuple

#: the directory that holds the benchmark and nothing else.
PATHS = ["benchmarks/ladder"]
COMMAND = ["python3", "benchmarks/ladder/run.py"]
#: seconds one driver run keeps starting fresh children (at least
#: MIN_CHILDREN are always run, so a slow workload overruns this).
RUN_SECONDS = 8
MIN_CHILDREN = 5

#: best time of child.machine_pace() on the authoring box (a two-core
#: Xeon VM at 2.1 GHz, CPython 3.11): the unit in which wall_s and setup_s
#: are reported is "seconds of a machine running at this pace".
REFERENCE_PACE_S = 0.0277

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# -- workloads ---------------------------------------------------------------

#: (name, why) in run order; configurations live in workloads.py.
WORKLOADS: List[Tuple[str, str]] = [
    ("rc_stream",
     "EDR 8 nodes SEMQ/SR 64 KiB msgs: per-message cost (RC SEND flat path, "
     "credit words, packet trains); few events per byte"),
    ("ud_mtu",
     "FDR 16x4 threads MESQ/SR 4 KiB datagrams: per-packet cost (sim dispatch, "
     "verbs UD, fabric route); bypasses trains, RC and rings"),
    ("rd_thrash",
     "FDR 16 nodes MEMQ/RD: one-sided READ on the generator path, "
     "FreeArr/ValidArr rings, QP-cache miss rate ~0.5, long connection setup"),
    ("tpch_mix",
     "EDR 8 nodes TPC-H Q3+Q4+Q10 on MESQ/SR and MPI: engine + numpy share "
     "of host time, baselines.mpi, datagen as the setup_s signal"),
    ("svc_churn",
     "FDR 8x4 threads, 64-entry QP cache, three tenants, open-loop jobs in "
     "simulated time: QP/MR create-destroy, quotas, scheduler beside data"),
    ("scaleout_64",
     "EDR 64 nodes leaf-spine 2:1 MESQ/SR, 1 thread: n^2 state, multi-hop "
     "topology and routing; the mesoscale target in miniature"),
    ("observed_pair",
     "EDR 8 nodes SEMQ/SR then MESQ/SR with tracer, reporting and sanitizer "
     "on: the instrumentation-on cost the other six never pay"),
]

# -- end-to-end metrics (tracing off; one value per run of >= 3 children) ----

#: name, kind, unit, better, bound, definition.
END_TO_END: List[Tuple[str, str, str, str, float, str]] = [
    ("wall_s", "host", "s", "lower", 0.25,
     "wall-clock of the workload's measured call(s), stage setup included"),
    ("setup_s", "host", "s", "lower", 0.25,
     "child spawn -> first measured call: interpreter, import repro, input "
     "generation, Cluster construction"),
    ("peak_rss_mib", "host", "MiB", "lower", 0.15, "child ru_maxrss"),
    ("sim_time_ms", "sim", "ms", "lower", 0.02,
     "simulated time of the measured work"),
    ("passed_share", "check", "ratio", "higher", 0.001,
     "passed output checks / attempted (1 - failed_share)"),
]

# -- layers ------------------------------------------------------------------

#: the repo's packages, in attribution order; a source path is folded to
#: the first layer whose fragment it contains.
LAYER_PATHS: List[Tuple[str, str]] = [
    ("core_transport", "/repro/core/transport/"),
    ("core", "/repro/core/"),
    ("sim", "/repro/sim/"),
    ("fabric", "/repro/fabric/"),
    ("verbs", "/repro/verbs/"),
    ("memory", "/repro/memory/"),
    ("engine", "/repro/engine/"),
    ("tpch", "/repro/tpch/"),
    ("baselines", "/repro/baselines/"),
    ("service", "/repro/service/"),
    ("telemetry", "/repro/telemetry/"),
    ("telemetry", "/repro/obs/"),
    ("analysis", "/repro/analysis/"),
    ("numpy", "/numpy/"),
]
LAYERS: List[str] = [
    "sim", "fabric", "verbs", "memory", "core_transport", "core", "engine",
    "tpch", "baselines", "service", "telemetry", "analysis", "numpy", "other",
]


def layer_of(path: str) -> str:
    """The layer a source file belongs to (``other`` for everything that
    is neither the program nor numpy: stdlib, this benchmark)."""
    path = path.replace("\\", "/")
    for layer, fragment in LAYER_PATHS:
        if fragment in path:
            return layer
    return "other"


# -- per-layer metrics -------------------------------------------------------

# The interaction table, written before measuring: which end-to-end
# metric a layer metric should move, on which workloads, and where the
# prediction is "no change".
_SIM = ("wall_s", "ud_mtu scaleout_64", "sim_time_ms anywhere")
_UD = ("wall_s", "ud_mtu scaleout_64", "rc_stream rd_thrash")
_RC = ("wall_s", "rc_stream svc_churn", "ud_mtu")
_ONE_SIDED = ("wall_s", "rd_thrash", "rc_stream ud_mtu")
_CONTROL = ("wall_s", "svc_churn rd_thrash", "tpch_mix")
_QUERY = ("wall_s", "tpch_mix", "the five shuffle workloads")
_DATAGEN = ("setup_s", "tpch_mix", "wall_s")
_OBSERVE = ("wall_s peak_rss_mib", "observed_pair", "the other six")
_MEMORY = ("peak_rss_mib", "scaleout_64 rd_thrash", "-")
_MODEL = ("sim_time_ms", "whichever workload it changed on",
          "a host-only change must leave every sim counter identical")
_TRANSPORT = ("wall_s", "the five shuffle workloads", "tpch_mix")
_GENERAL = ("wall_s", "every workload by its share", "sim_time_ms anywhere")

_HOST_MOVES = {
    "sim": _SIM, "fabric": _GENERAL, "verbs": _GENERAL, "memory": _MEMORY,
    "core_transport": _TRANSPORT, "core": _TRANSPORT, "engine": _QUERY,
    "tpch": _QUERY, "baselines": _QUERY, "service": _CONTROL,
    "telemetry": _OBSERVE, "analysis": _OBSERVE, "numpy": _QUERY,
    "other": _GENERAL,
}

#: counters harvested from metrics_snapshot() and the result objects:
#: name, unit, better, kind, moves.
COUNTERS: List[Tuple[str, str, str, str, Tuple[str, str, str]]] = [
    ("sim.events", "count", "lower", "sim", _SIM),
    ("sim.wakeups", "count", "lower", "sim", _SIM),
    ("sim.processes", "count", "lower", "sim", _SIM),
    ("sim.max_queue_depth", "count", "lower", "sim", _SIM),
    ("fabric.messages", "count", "lower", "sim", _MODEL),
    ("fabric.link_busy_share", "ratio", "higher", "sim", _MODEL),
    ("fabric.trunk_busy_share", "ratio", "lower", "sim", _MEMORY),
    ("nic.qp_cache_hits", "count", "higher", "sim", _MODEL),
    ("nic.qp_cache_misses", "count", "lower", "sim", _ONE_SIDED),
    ("nic.qp_cache_miss_rate", "ratio", "lower", "sim", _ONE_SIDED),
    ("nic.pcie_stall_ms", "ms", "lower", "sim", _MODEL),
    ("nic.busy_ms", "ms", "lower", "sim", _MODEL),
    ("verbs.sends_posted", "count", "lower", "sim", _MODEL),
    ("verbs.recvs_posted", "count", "lower", "sim", _MODEL),
    ("verbs.cqes", "count", "lower", "sim", _MODEL),
    ("verbs.qps_created", "count", "lower", "sim", _CONTROL),
    ("verbs.registered_mib_peak", "MiB", "lower", "sim", _MEMORY),
    ("verbs.mr_register_ms", "ms", "lower", "sim", _MODEL),
    ("verbs.rnr_events", "count", "lower", "sim", _MODEL),
    ("verbs.ud_drops", "count", "lower", "sim", _MODEL),
    ("ep.messages_sent", "count", "lower", "sim", _MODEL),
    ("ep.credit_stalls", "count", "lower", "sim", _RC),
    ("ep.credit_wait_ms", "ms", "lower", "sim", _RC),
    ("ep.free_wait_ms", "ms", "lower", "sim", _MODEL),
    ("ep.data_wait_ms", "ms", "lower", "sim", _MODEL),
    ("stage.sim_setup_ms", "ms", "lower", "sim", _MODEL),
    ("service.jobs_completed", "count", "higher", "sim", _MODEL),
    ("service.deferrals", "count", "lower", "sim", _MODEL),
    ("service.queue_wait_ms", "ms", "lower", "sim", _MODEL),
    ("service.p99_job_ms", "ms", "lower", "sim", _MODEL),
    ("obs.trace_events", "count", "lower", "sim", _OBSERVE),
    ("obs.link_records", "count", "lower", "sim", _OBSERVE),
    ("obs.report_build_s", "s", "lower", "host", _OBSERVE),
    ("analysis.sanitizer_violations", "count", "lower", "sim", _MODEL),
]

#: microbenchmarks of single layers: name, unit, better, kind, moves.
RUNGS: List[Tuple[str, str, str, str, Tuple[str, str, str]]] = [
    ("rung.sim.dispatch_ns", "ns", "lower", "host", _SIM),
    ("rung.sim.wakeup_ns", "ns", "lower", "host", _SIM),
    ("rung.fabric.packet_ns", "ns", "lower", "host", _UD),
    ("rung.fabric.train_ns", "ns", "lower", "host", _RC),
    ("rung.fabric.train_event_reduction", "ratio", "higher", "sim", _RC),
    ("rung.nic.wr_hit_ns", "ns", "lower", "host", _GENERAL),
    ("rung.nic.wr_miss_ns", "ns", "lower", "host", _ONE_SIDED),
    ("rung.verbs.ud_send_ns", "ns", "lower", "host", _UD),
    ("rung.verbs.rc_send_ns", "ns", "lower", "host", _RC),
    ("rung.verbs.rc_read_ns", "ns", "lower", "host", _ONE_SIDED),
    ("rung.verbs.rc_write_ns", "ns", "lower", "host", _ONE_SIDED),
    ("rung.verbs.qp_lifecycle_us", "us", "lower", "host", _CONTROL),
    ("rung.verbs.mr_reg_us", "us", "lower", "host", _CONTROL),
    ("rung.transport.pair_ns.SR_UD", "ns", "lower", "host", _UD),
    ("rung.transport.pair_ns.SR_UD_MC", "ns", "lower", "host", _UD),
    ("rung.transport.pair_ns.SR_RC", "ns", "lower", "host", _RC),
    ("rung.transport.pair_ns.RD_RC", "ns", "lower", "host", _ONE_SIDED),
    ("rung.transport.pair_ns.WR_RC", "ns", "lower", "host", _ONE_SIDED),
    ("rung.stage.setup_ms", "ms", "lower", "host", _CONTROL),
    ("rung.stage.dispose_ms", "ms", "lower", "host", _CONTROL),
    ("rung.engine.scan_mtuples_s", "Mtuples/s", "higher", "host", _QUERY),
    ("rung.engine.join_mtuples_s", "Mtuples/s", "higher", "host", _QUERY),
    ("rung.engine.agg_mtuples_s", "Mtuples/s", "higher", "host", _QUERY),
    ("rung.tpch.datagen_s", "s", "lower", "host", _DATAGEN),
    ("rung.baselines.qperf_ns", "ns", "lower", "host", _QUERY),
    ("rung.service.jobs_per_s", "1/s", "higher", "host", _CONTROL),
    ("rung.tax.metrics", "ratio", "lower", "host", _OBSERVE),
    ("rung.tax.tracer", "ratio", "lower", "host", _OBSERVE),
    ("rung.tax.links", "ratio", "lower", "host", _OBSERVE),
    ("rung.tax.sanitizer", "ratio", "lower", "host", _OBSERVE),
    ("rung.tax.quotas", "ratio", "lower", "host", _OBSERVE),
]


def _moves(moves: Tuple[str, str, str]) -> Dict[str, str]:
    return {"should_move": moves[0], "on": moves[1], "should_not_move": moves[2]}


def per_layer() -> List[Dict[str, Any]]:
    """Every per-layer metric: the traced pass, the counters, the rungs."""
    out: List[Dict[str, Any]] = []
    for layer in LAYERS:
        out.append({"name": f"host.self_s.{layer}", "unit": "s",
                    "better": "lower", "kind": "host", "source": "traced",
                    "moves": _moves(_HOST_MOVES[layer])})
    for layer in LAYERS:
        out.append({"name": f"host.calls_m.{layer}", "unit": "Mcalls",
                    "better": "lower", "kind": "host", "source": "traced",
                    "moves": _moves(_HOST_MOVES[layer])})
    out.append({"name": "host.calls_m.total", "unit": "Mcalls",
                "better": "lower", "kind": "host", "source": "traced",
                "moves": _moves(_GENERAL)})
    out.append({"name": "host.calls_per_event", "unit": "calls/event",
                "better": "lower", "kind": "host", "source": "traced",
                "moves": _moves(_SIM)})
    out.append({"name": "trace.overhead_ratio", "unit": "ratio",
                "better": "lower", "kind": "host", "source": "traced",
                "moves": _moves(("nothing: it qualifies host.self_s.*",
                                 "every workload", "-"))})
    for name, unit, better, kind, moves in COUNTERS:
        out.append({"name": name, "unit": unit, "better": better,
                    "kind": kind, "source": "counters",
                    "moves": _moves(moves)})
    for name, unit, better, kind, moves in RUNGS:
        out.append({"name": name, "unit": unit, "better": better,
                    "kind": kind, "source": "rungs", "moves": _moves(moves)})
    return out


def end_to_end() -> List[Dict[str, Any]]:
    return [{"name": name, "kind": kind, "unit": unit, "better": better,
             "bound": bound, "definition": definition}
            for name, kind, unit, better, bound, definition in END_TO_END]


def benchmark_json() -> Dict[str, Any]:
    """The root ``BENCHMARK.json`` document (the driver's contract keys
    only; kinds, definitions and ``moves`` stay in this module and in
    ``baseline.json``)."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m["name"], "unit": m["unit"], "better": m["better"],
             "bound": m["bound"]} for m in end_to_end()],
        "per_layer": [
            {"name": m["name"], "unit": m["unit"], "better": m["better"]}
            for m in per_layer()],
    }


def validate_declaration(doc: Dict[str, Any]) -> List[str]:
    """Problems with a ``BENCHMARK.json`` document against the driver's
    limits (empty when it conforms)."""
    problems: List[str] = []
    expected = {"command", "paths", "run_seconds", "workloads",
                "end_to_end", "per_layer"}
    if set(doc) != expected:
        problems.append(f"keys differ: {sorted(set(doc) ^ expected)}")
        return problems
    for key, low, high in (("workloads", 2, 8), ("end_to_end", 1, 16),
                           ("per_layer", 1, 128)):
        if not low <= len(doc[key]) <= high:
            problems.append(f"{key}: {len(doc[key])} entries, "
                            f"allowed {low}..{high}")
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in doc[key]]
    for name in names:
        if not NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for w in doc["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"why of {w['name']} is not one line <= 200 chars")
    for m in doc["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} outside (0, 0.25]")
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in doc["end_to_end"]):
        problems.append("setup_s (s, lower) is missing")
    if not 1 <= doc["run_seconds"] <= 60:
        problems.append("run_seconds outside 1..60")
    return problems
