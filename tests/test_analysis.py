"""Static protocol lint (repro.analysis): rules, CLI.

Two halves per rule: the clean-tree pass (the shipped ``src/repro`` has
zero violations) and a planted-bug negative test proving the rule fires
on exactly the pattern it documents.
"""

import json

import pytest

from repro.analysis import (
    STATIC_RULES,
    LintViolation,
    lint_paths,
    lint_source,
    package_root,
    parse_select,
)
from repro.analysis.__main__ import main as analysis_main


def rules_of(violations):
    return [v.rule for v in violations]


class TestCleanTree:
    def test_shipped_package_is_clean(self):
        assert lint_paths([package_root()]) == []

    def test_rule_catalogue_is_documented(self):
        for rule_id, description in STATIC_RULES.items():
            assert rule_id.startswith("VS")
            assert len(description) > 10


class TestVS101FabricBypass:
    """Core endpoint code must reach the network through verbs only."""

    def test_fabric_import_flagged(self):
        violations = lint_source("core/evil.py", "from repro.fabric import Fabric\n")
        assert rules_of(violations) == ["VS101"]

    def test_nic_attribute_access_flagged(self):
        source = (
            "def run(ctx):\n"
            "    ctx.fabric.deliver()\n"
            "    ctx.nic.egress()\n"
        )
        violations = lint_source("core/evil.py", source)
        assert rules_of(violations) == ["VS101", "VS101"]

    def test_stage_is_exempt(self):
        # stage.py owns setup wiring and legitimately touches the fabric.
        source = "from repro.fabric import Fabric\n"
        assert lint_source("core/stage.py", source) == []

    def test_outside_core_is_exempt(self):
        source = "from repro.fabric import Fabric\n"
        assert lint_source("bench/experiments.py", source) == []


class TestVS102ReceiveBeforeSend:
    """Within one function, the first post_send must not precede the
    first receive provisioning call (§4.2 discipline)."""

    BAD = (
        "def setup(self):\n"
        "    self.qp.post_send(wr)\n"
        "    self.qp.post_recv(rwr)\n"
    )
    GOOD = (
        "def setup(self):\n"
        "    self.qp.post_recv(rwr)\n"
        "    self.qp.post_send(wr)\n"
    )

    def test_send_first_flagged(self):
        violations = lint_source("core/evil.py", self.BAD)
        assert rules_of(violations) == ["VS102"]

    def test_recv_first_clean(self):
        assert lint_source("core/evil.py", self.GOOD) == []

    def test_send_only_function_clean(self):
        source = "def push(self):\n    self.qp.post_send(wr)\n"
        assert lint_source("core/evil.py", source) == []


class TestVS103RawBufferWrite:
    """Payload/length stores outside the buffer layer bypass the
    MemoryRegion bookkeeping (and the runtime buffer-reuse check)."""

    def test_raw_payload_store_flagged(self):
        source = (
            "def unwrap(buf, frame):\n"
            "    buf.payload = frame.payload\n"
            "    buf.length = frame.length\n"
        )
        violations = lint_source("core/evil.py", source)
        assert rules_of(violations) == ["VS103", "VS103"]

    def test_self_attribute_stores_clean(self):
        # An object may manage its *own* payload fields (Frame, Packet...).
        source = (
            "def __init__(self, payload, length):\n"
            "    self.payload = payload\n"
            "    self.length = length\n"
        )
        assert lint_source("core/evil.py", source) == []

    def test_buffer_layer_is_exempt(self):
        source = "def fill(buf, p):\n    buf.payload = p\n"
        assert lint_source("memory/buffer.py", source) == []
        assert lint_source("verbs/qp.py", source) == []


class TestVS104WallClockNondeterminism:
    def test_time_and_uuid_imports_flagged(self):
        source = "import time\nimport uuid\nfrom random import randint\n"
        violations = lint_source("sim/evil.py", source)
        assert rules_of(violations) == ["VS104", "VS104", "VS104"]

    def test_bare_random_calls_flagged(self):
        source = (
            "import random\n"
            "x = random.random()\n"
        )
        violations = lint_source("fabric/evil.py", source)
        assert rules_of(violations) == ["VS104"]

    def test_seeded_rng_is_clean(self):
        # The fabric's loss/jitter model uses a cluster-seeded Random.
        source = (
            "import random\n"
            "rng = random.Random(seed)\n"
        )
        assert lint_source("fabric/network.py", source) == []

    def test_bench_wall_clock_is_exempt(self):
        # Wall-clock timing of the *host* is fine outside the simulation.
        source = "import time\nstart = time.time()\n"
        assert lint_source("bench/cli.py", source) == []


class TestVS105SetIterationOrder:
    def test_set_literal_iteration_flagged(self):
        source = (
            "def scan(items):\n"
            "    for x in {1, 2, 3}:\n"
            "        pass\n"
            "    return [y for y in set(items)]\n"
        )
        violations = lint_source("core/evil.py", source)
        assert rules_of(violations) == ["VS105", "VS105"]

    def test_sorted_set_is_clean(self):
        source = (
            "def scan(items):\n"
            "    for x in sorted(set(items)):\n"
            "        pass\n"
        )
        assert lint_source("core/evil.py", source) == []


class TestVS106TopologyBypass:
    BAD = (
        "def blast(self, pkt):\n"
        "    self.fabric.route(pkt)\n"
        "    fabric.route_mcast(pkt, 7)\n"
    )

    def test_direct_route_calls_flagged(self):
        violations = lint_source("bench/evil.py", self.BAD)
        assert rules_of(violations) == ["VS106", "VS106"]
        assert "topology bypass" in violations[0].message

    def test_fabric_and_verbs_layers_are_exempt(self):
        assert lint_source("fabric/network.py", self.BAD) == []
        assert lint_source("verbs/qp.py", self.BAD) == []

    def test_baselines_and_kernel_bench_are_exempt(self):
        # The kernel-bypass baselines and the routing microbenchmark
        # legitimately drive the fabric without Queue Pairs.
        assert lint_source("baselines/ipoib.py", self.BAD) == []
        assert lint_source("bench/kernel.py", self.BAD) == []

    def test_unrelated_route_methods_are_clean(self):
        source = "app.route('/healthz')\nrouter.route(msg)\n"
        assert lint_source("bench/evil.py", source) == []


class TestVS107TimestamplessTracerEvents:
    """Instrumentation sites must pass explicit simulated-ns timestamps;
    the ts_ns default stamps the event at emission time, which skews the
    causal record the critical-path analyzer consumes."""

    BAD = (
        "def poll(self):\n"
        "    tracer = self.ctx.telemetry.tracer\n"
        "    if tracer is not None:\n"
        "        tracer.instant(0, 'qp', 'wakeup')\n"
        "        tracer.instant(0, 'qp', 'drain', cat='cq')\n"
    )

    def test_timestampless_events_flagged(self):
        violations = lint_source("verbs/evil.py", self.BAD)
        assert rules_of(violations) == ["VS107", "VS107"]
        assert "ts_ns" in violations[0].message

    def test_explicit_timestamp_is_clean(self):
        source = (
            "def poll(self, t0):\n"
            "    tracer = self.ctx.telemetry.tracer\n"
            "    if tracer is not None:\n"
            "        tracer.instant(0, 'qp', 'wakeup', t0)\n"
            "        tracer.instant(0, 'qp', 'drain', ts_ns=t0)\n"
        )
        assert lint_source("verbs/evil.py", source) == []

    def test_complete_and_span_are_clean(self):
        # complete()/span() carry explicit start times by construction.
        source = (
            "def poll(self, t0):\n"
            "    tracer = self.ctx.telemetry.tracer\n"
            "    if tracer is not None:\n"
            "        tracer.complete(0, 'qp', 'stall', t0, 10)\n"
            "        tracer.span(0, 'qp', 'stall', t0, t0 + 10)\n"
        )
        assert lint_source("verbs/evil.py", source) == []

    def test_outside_sim_ordered_code_is_exempt(self):
        assert lint_source("analysis/sanitizer.py", self.BAD) == []
        assert lint_source("bench/evil.py", self.BAD) == []


class TestVS108DirectPacketConstruction:
    """Only fabric/ may build Packets; everything above must go through
    make_train so wire bytes are derived from the transport."""

    BAD = (
        "def send(self, config):\n"
        "    pkt = Packet(0, 1, 11, 22, 'SEND', 4096, 4222)\n"
        "    train = packet.Packet(0, 1, 11, 22, 'SEND', 0, 64,\n"
        "                          flow=2)\n"
    )

    def test_direct_construction_flagged(self):
        violations = lint_source("core/evil.py", self.BAD)
        assert rules_of(violations) == ["VS108", "VS108"]
        assert "make_train" in violations[0].message

    def test_planted_bug_in_verbs_layer_is_caught(self):
        # The realistic regression: a verbs-layer send path hand-rolls a
        # Packet and computes a multi-MTU RC message's wire bytes itself.
        source = (
            "def _rc_send(self, wr):\n"
            "    pkt = Packet(self.node, peer, self.qpn, dqpn, 'SEND',\n"
            "                 wr.length, wire(wr.length))\n"
            "    self.ctx.fabric_route(pkt)\n"
        )
        violations = lint_source("verbs/qp.py", source)
        assert rules_of(violations) == ["VS108"]

    def test_fabric_layer_is_exempt(self):
        assert lint_source("fabric/packet.py", self.BAD) == []
        assert lint_source("fabric/network.py", self.BAD) == []

    def test_make_train_call_is_clean(self):
        source = (
            "def send(self, config):\n"
            "    pkt = make_train(config, src_node=0, dst_node=1,\n"
            "                     src_qpn=11, dst_qpn=22, kind='SEND',\n"
            "                     length=4096, transport='RC')\n"
        )
        assert lint_source("core/evil.py", source) == []


class TestVS109SelfReferentialClosures:
    """The per-train leak class: a callback that keeps itself (and its
    whole capture set) alive through a reference cycle."""

    def test_recursive_nested_function_flagged(self):
        # The original bug: a per-hop walker rescheduling itself by name.
        source = (
            "def start(self, sim):\n"
            "    def advance():\n"
            "        sim.call_at(sim.now + 1, advance)\n"
            "    advance()\n"
        )
        violations = lint_source("fabric/evil.py", source)
        assert rules_of(violations) == ["VS109"]
        assert "references itself" in violations[0].message

    def test_self_closure_assigned_onto_self_flagged(self):
        source = (
            "def start(self):\n"
            "    def on_cqe():\n"
            "        self.poll()\n"
            "    self._cb = on_cqe\n"
        )
        violations = lint_source("core/evil.py", source)
        assert rules_of(violations) == ["VS109"]
        assert "stored back onto self" in violations[0].message

    def test_self_closure_subscript_store_flagged(self):
        source = (
            "def start(self, key):\n"
            "    def on_cqe():\n"
            "        self.poll()\n"
            "    self._cbs[key] = on_cqe\n"
        )
        assert rules_of(lint_source("sim/evil.py", source)) == ["VS109"]

    def test_self_closure_appended_to_self_container_flagged(self):
        source = (
            "def start(self):\n"
            "    def on_cqe():\n"
            "        self.poll()\n"
            "    self.handlers.append(on_cqe)\n"
        )
        assert rules_of(lint_source("core/evil.py", source)) == ["VS109"]

    def test_local_capture_stored_onto_self_is_clean(self):
        # Capturing exactly what the callback needs is the fix.
        source = (
            "def start(self, qp):\n"
            "    def on_cqe():\n"
            "        qp.poll()\n"
            "    self._cb = on_cqe\n"
        )
        assert lint_source("core/evil.py", source) == []

    def test_self_capture_passed_elsewhere_is_clean(self):
        # self in the closure is fine if the closure is not stored back
        # onto self: the cycle needs both legs.
        source = (
            "def start(self, sim):\n"
            "    def on_cqe():\n"
            "        self.poll()\n"
            "    sim.call_soon(on_cqe)\n"
        )
        assert lint_source("core/evil.py", source) == []

    def test_bound_method_stored_onto_self_flagged(self):
        # No closure at all: the bound method holds self, so keeping it
        # on self is the same self -> attr -> self cycle.
        source = (
            "class Walker:\n"
            "    def __init__(self, sim):\n"
            "        self.step = self.advance\n"
            "    def advance(self):\n"
            "        pass\n"
        )
        violations = lint_source("fabric/evil.py", source)
        assert rules_of(violations) == ["VS109"]
        assert "bound method self.advance" in violations[0].message

    def test_bound_method_appended_to_self_container_flagged(self):
        source = (
            "class Walker:\n"
            "    def start(self):\n"
            "        self.handlers.append(self.advance)\n"
            "    def advance(self):\n"
            "        pass\n"
        )
        assert rules_of(lint_source("sim/evil.py", source)) == ["VS109"]

    def test_bound_method_passed_elsewhere_or_data_copied_is_clean(self):
        # Scheduling a bound method is the fix; copying a data
        # attribute or a property's value stores no method.
        source = (
            "class Walker:\n"
            "    def start(self, sim):\n"
            "        sim.call_later(1, self.advance)\n"
            "        self.total = self.count\n"
            "        self.size = self.width\n"
            "    def advance(self):\n"
            "        pass\n"
            "    @property\n"
            "    def width(self):\n"
            "        return 1\n"
        )
        assert lint_source("core/evil.py", source) == []

    def test_outside_simulation_code_is_exempt(self):
        source = (
            "def start(self):\n"
            "    def render():\n"
            "        self.draw(render)\n"
            "    self._cb = render\n"
        )
        assert lint_source("telemetry/evil.py", source) == []


class TestVS110EnumMemberLoads:
    """A member loaded through its enum class inside a function pays the
    enum metaclass's slow attribute path on every call."""

    def test_member_loads_in_function_bodies_flagged(self):
        source = (
            "from repro.verbs.constants import Opcode, QPState\n"
            "class Mode(enum.Enum):\n"
            "    FAST = 1\n"
            "def post(self, wr):\n"
            "    if self.state is not QPState.RTS:\n"
            "        raise VerbsError('not ready')\n"
            "    handler = lambda wc: wc.opcode is Opcode.RECV\n"
            "    return wr.opcode is Opcode.SEND and self.mode is Mode.FAST\n"
        )
        violations = lint_source("verbs/evil.py", source)
        assert rules_of(violations) == ["VS110"] * 4
        assert [v.line for v in violations] == [5, 7, 8, 8]
        assert "QPState.RTS" in violations[0].message

    def test_module_aliases_and_class_defaults_are_clean(self):
        source = (
            "from repro.verbs.constants import OP_SEND, Opcode, WCStatus\n"
            "SEND = Opcode.SEND\n"
            "class Completion:\n"
            "    status: WCStatus = WCStatus.SUCCESS\n"
            "    def is_send(self, opcode=Opcode.SEND):\n"
            "        return self.opcode is OP_SEND and Opcode.__members__\n"
        )
        assert lint_source("core/transport/evil.py", source) == []
        loads_in_a_function = "def f(wc):\n    return wc.op is Opcode.SEND\n"
        assert lint_source("bench/evil.py", loads_in_a_function) == []
        assert rules_of(lint_source("engine/evil.py", loads_in_a_function)) \
            == ["VS110"]


class TestVS111EventQueueOutsideTheKernel:
    """Only ``sim/`` may append to a timestamp's bucket in place."""

    def test_queue_touched_outside_sim_flagged(self):
        source = (
            "def schedule(sim, when, func):\n"
            "    bucket = sim._buckets.get(when)\n"
            "    if bucket is None:\n"
            "        sim._buckets[when] = [func]\n"
            "        heapq.heappush(sim._heap, when)\n"
            "    else:\n"
            "        bucket.append(func)\n"
        )
        violations = lint_source("fabric/evil.py", source)
        assert rules_of(violations) == ["VS111"] * 3
        assert [v.line for v in violations] == [2, 4, 5]
        assert "._heap" in violations[2].message
        assert rules_of(lint_source("bench/evil.py", source)) == ["VS111"] * 3

    def test_the_kernel_package_may_schedule_in_place(self):
        source = "def f(sim):\n    return len(sim._heap), sim._buckets\n"
        assert lint_source("sim/primitives.py", source) == []
        assert lint_source("sim/kernel.py", source) == []


class TestSelectValidation:
    """parse_select is the single gate for --select: a typo'd rule id
    must error, not lint nothing and exit green."""

    def test_none_means_run_everything(self):
        assert parse_select(None) is None

    def test_valid_selection_parses(self):
        assert parse_select("VS101, VS104") == ("VS101", "VS104")

    def test_unknown_rule_errors_and_names_the_catalogue(self):
        with pytest.raises(ValueError, match="VS999") as err:
            parse_select("VS999")
        assert "VS101" in str(err.value)

    def test_empty_selection_errors(self):
        with pytest.raises(ValueError, match="empty"):
            parse_select(" , ")

    def test_cli_rejects_unknown_rule(self):
        with pytest.raises(SystemExit):
            analysis_main(["--select", "VS999"])


class TestLintMachinery:
    def test_syntax_error_becomes_vs000(self):
        violations = lint_source("core/broken.py", "def f(:\n")
        assert rules_of(violations) == ["VS000"]

    def test_select_filters_rules(self):
        source = "import time\nbuf.payload = 1\n"
        only_104 = lint_source("core/evil.py", source, select=["VS104"])
        assert rules_of(only_104) == ["VS104"]

    def test_violations_sort_stably(self):
        source = "import time\nimport uuid\n"
        violations = lint_source("sim/evil.py", source)
        assert [v.line for v in violations] == [1, 2]

    def test_violation_str_names_rule_and_location(self):
        violation = LintViolation("VS104", "sim/evil.py", 3, "wall clock")
        assert "VS104" in str(violation)
        assert ":3" in str(violation)


class TestCLI:
    def test_clean_tree_exits_zero(self, capsys):
        assert analysis_main([]) == 0
        assert "0 violation(s)" in capsys.readouterr().err

    @staticmethod
    def planted(tmp_path, source):
        # Scopes key on the path after a "repro" segment, so plant the
        # file inside a fake package tree.
        bad = tmp_path / "repro" / "core" / "evil.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(source)
        return bad

    def test_planted_file_exits_one(self, tmp_path, capsys):
        bad = self.planted(tmp_path, "import time\n")
        assert analysis_main([str(bad)]) == 1
        out = capsys.readouterr()
        assert "VS104" in out.out

    def test_json_format(self, tmp_path, capsys):
        bad = self.planted(tmp_path, "import uuid\n")
        assert analysis_main([str(bad), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document[0]["rule"] == "VS104"
        assert document[0]["line"] == 1

    def test_select_limits_rules(self, tmp_path):
        bad = self.planted(tmp_path, "import time\nbuf.payload = 1\n")
        assert analysis_main([str(bad), "--select", "VS103"]) == 1
        assert analysis_main([str(bad), "--select", "VS101"]) == 0

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in STATIC_RULES:
            assert rule_id in out
        assert "qp-state" in out  # runtime catalogue printed too

    def test_missing_path_is_an_error(self):
        with pytest.raises(SystemExit):
            analysis_main(["/no/such/path.py"])
