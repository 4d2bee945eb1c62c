"""Bounded model checking of the shuffle flow-control protocols.

Covers the checker itself (exploration, bound validation, property
evaluation, counterexample rendering, CLI) and the protocol
facts it proves about the real designs:

* all five registered kinds verify clean at small bounds;
* the §4.4.1 starvation law: a write-back frequency above the window
  can starve the sender at end of stream, so a bound takes the
  endpoints' own guard and refuses it; below that rule every lossless
  stream verifies;
* a lost final-credit datagram silently wedges SR/UD (caught by
  eventual-delivery, not deadlock-freedom: keepalive cycles keep the
  system live but never delivering);
* a QP error is terminal for SR/RC at this layer (no recovery path —
  the ROADMAP direction-1(d) gate).
"""

import json

import pytest

from repro.analysis.__main__ import main
from repro.analysis.model import (
    ModelBound,
    RingProtocolModel,
    check_kind,
    extract_model,
    modeled_kinds,
    parse_bound,
    render_counterexample,
)
from repro.core.endpoint import EndpointConfig
from repro.core.transport.credit import merge_credit

#: UD kinds explore ~100x more states than RC at the default bound
#: (loss interleavings); one peer keeps the suite fast without losing
#: any per-stream behaviour (streams only couple through the pool).
FAST = {"SR_UD": parse_bound("peers=1"), "SR_UD_MC": parse_bound("peers=1")}

#: (states, transitions) of each kind's full state graph at its bound
#: above: a change to how a model is built must not change what it
#: explores.
SIZES = {"SR_UD": (720, 2738), "SR_UD_MC": (720, 2794),
         "RD_RC": (2080, 6226), "SR_RC": (562, 1548), "WR_RC": (3121, 11812)}

#: §4.4.1 starvation instance: 4 messages, window 2, write-back only
#: every 4th Receive — the sender would run dry two messages short.
STARVE = ("peers=1,messages=4,window=2,credit_frequency=4,"
          "data_loss=0,credit_loss=0")

#: one QP error on an RC link: no recovery path, so the stage wedges.
QP_ERROR = parse_bound("peers=1,qp_errors=1")


class TestRealKindsVerify:
    @pytest.mark.parametrize("kind", modeled_kinds())
    def test_kind_passes_at_bound(self, kind):
        result = check_kind(kind, FAST.get(kind))
        assert result.explored.complete
        assert result.passed, [
            (p.name, p.status, p.detail) for p in result.properties]
        assert (result.explored.states,
                result.explored.transitions) == SIZES[kind]

    def test_ring_consistency_not_applicable_to_credit_family(self):
        result = check_kind("SR_RC")
        assert result.status_of("ring-consistency").status == "n/a"
        ring = check_kind("RD_RC")
        assert ring.status_of("ring-consistency").status == "pass"


class TestStarvationLaw:
    def test_starvation_bound_is_refused(self):
        with pytest.raises(ValueError, match="credit_frequency"):
            parse_bound(STARVE)
        with pytest.raises(ValueError, match="credit_frequency"):
            EndpointConfig(buffers_per_connection=2, credit_frequency=4)
        with pytest.raises(SystemExit) as exit_info:
            main(["model", "--kind", "SR_RC", "--bound", STARVE])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("window, frequency", [
        (1, 1), (1, 2), (2, 1), (2, 3), (3, 3), (3, 4), (16, 16), (16, 17),
    ])
    def test_bound_and_endpoint_config_accept_together(self, window,
                                                       frequency):
        def accepts(build):
            try:
                build()
            except ValueError:
                return False
            return True

        endpoint = accepts(lambda: EndpointConfig(
            buffers_per_connection=window, credit_frequency=frequency))
        bound = accepts(lambda: parse_bound(
            f"window={window},credit_frequency={frequency}"))
        assert endpoint == bound == (frequency <= window)

    @pytest.mark.parametrize("kind", modeled_kinds())
    def test_every_accepted_lossless_stream_verifies(self, kind):
        for window in range(1, 4):
            for frequency in range(1, window + 1):
                for messages in range(1, 5):
                    spec = (f"peers=1,data_loss=0,credit_loss=0,"
                            f"window={window},credit_frequency={frequency},"
                            f"messages={messages}")
                    result = check_kind(kind, parse_bound(spec))
                    assert result.explored.complete, spec
                    assert result.passed, (spec, [
                        (p.name, p.status) for p in result.properties])


class TestFaultBudgets:
    def test_sr_ud_lost_final_credit_wedges_silently(self):
        result = check_kind("SR_UD", parse_bound("peers=1,final_loss=1"))
        assert result.status_of("eventual-delivery").status == "fail"

    def test_sr_rc_qp_error_is_terminal(self):
        result = check_kind("SR_RC", QP_ERROR)
        assert not result.passed
        assert result.status_of("eventual-delivery").status == "fail"


class TestBoundsAndExtraction:
    def test_parse_bound_overrides(self):
        bound = parse_bound("messages=4,window=3")
        assert (bound.messages, bound.window) == (4, 3)
        assert bound.peers == ModelBound().peers

    def test_parse_bound_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_bound("messages=4,wibble=1")

    def test_parse_bound_rejects_non_integer(self):
        with pytest.raises(ValueError):
            parse_bound("messages=two")

    @pytest.mark.parametrize("spec, field, value", [
        ("peers=0", "peers", 0),
        ("window=0", "window", 0),
        ("credit_frequency=0", "credit_frequency", 0),
        ("sender_buffers=0", "sender_buffers", 0),
        ("max_states=0", "max_states", 0),
        ("messages=-1", "messages", -1),
        ("data_loss=-1", "data_loss", -1),
        ("credit_loss=-1", "credit_loss", -1),
        ("final_loss=-1", "final_loss", -1),
        ("qp_errors=-1", "qp_errors", -1),
    ])
    def test_bound_rejects_out_of_range_values(self, spec, field, value,
                                               capsys):
        with pytest.raises(ValueError, match=f"{field} .*got {value}$"):
            parse_bound(spec)
        with pytest.raises(SystemExit) as exit_info:
            main(["model", "--kind", "SR_RC", "--bound", spec])
        assert exit_info.value.code == 2
        assert f"{field} must be >=" in capsys.readouterr().err

    def test_zero_messages_is_a_legal_bound(self):
        assert check_kind("SR_RC", parse_bound("messages=0")).passed

    def test_empty_spec_is_the_default_bound(self):
        assert parse_bound("") == ModelBound()

    def test_unmodeled_kind_raises(self):
        with pytest.raises(LookupError, match="'MPI'"):
            extract_model("MPI")
        assert "MPI" not in modeled_kinds()

    def test_ring_model_rejects_empty_ring(self):
        with pytest.raises(ValueError, match="at least one slot"):
            RingProtocolModel("RD_RC", ModelBound(), "read",
                              valid_cap=4, free_cap=0)

    def test_credit_merge_is_max_merge(self):
        assert merge_credit(5, 3) == 5  # stale arrival never regresses
        assert merge_credit(3, 5) == 5


class TestCounterexampleTraces:
    def test_trace_is_chrome_trace_shaped(self):
        result = check_kind("SR_RC", QP_ERROR)
        witness = result.status_of("deadlock-freedom").witness
        trace = render_counterexample(result.model, witness)
        events = trace["traceEvents"]
        assert {e["ph"] for e in events} <= {"M", "X", "i"}
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == len(witness)
        assert all("args" in e for e in spans)
        other = trace["otherData"]
        assert other["property"] == "deadlock-freedom"
        assert other["counterexample_steps"] == len(witness)


class TestCli:
    def test_single_kind_verifies(self):
        assert main(["model", "--kind", "SR_RC"]) == 0

    def test_unknown_kind_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["model", "--kind", "BOGUS"])

    def test_bad_bound_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["model", "--kind", "SR_RC", "--bound", "wibble=1"])

    def test_json_output_parses(self, capsys):
        assert main(["model", "--kind", "SR_RC", "--json"]) == 0
        verdicts = json.loads(capsys.readouterr().out)
        assert verdicts[0]["kind"] == "SR_RC"
        assert verdicts[0]["passed"] is True

    def test_failing_bound_writes_traces_and_fails(self, tmp_path, capsys):
        code = main(["model", "--kind", "SR_RC",
                     "--bound", "peers=1,qp_errors=1",
                     "--trace-dir", str(tmp_path)])
        assert code == 1
        written = list(tmp_path.glob("*.trace.json"))
        assert written
        for path in written:
            json.load(open(path))  # Perfetto-loadable JSON

    def test_list_kinds(self, capsys):
        assert main(["model", "--list-kinds"]) == 0
        out = capsys.readouterr().out
        for kind in modeled_kinds():
            assert kind in out
