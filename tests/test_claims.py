"""The paper-claims table: its structure, its evaluator, and — for the
entries whose check run takes under ~2 s — the claims themselves.

The full scorecard is ``benchmarks/test_claims.py`` (minutes); this file
keeps the table honest in tier-1.
"""

import dataclasses
import json

import pytest

from repro.bench import claims
from repro.bench.claims import Claim, at, evaluate, over, render, validate
from repro.bench.experiments import ALL_EXPERIMENTS, FIXED, Entry, Options
from repro.bench.report import ExperimentResult, Series

#: entries cheap enough to have their claims checked live in tier-1.
FAST = ["table1", "fig12", "fig14a", "fig14b", "setup-crossover"]


def demo_result():
    return ExperimentResult(
        experiment="fig12", title="Demo", x_label="nodes", x=[2, 16],
        y_label="ms", series=[Series("A", [10.0, 40.0]),
                              Series("B", [5.0, None])])


def demo_claims():
    return [
        Claim("fig12.grows", "fig12", "Fig 12", "A grows > 3x",
              over("A", 16, "A", 2), ">", 3.0, 7.5),
        Claim("fig12.small", "fig12", "Fig 12", "A stays under 30",
              at("A", 16), "<", 30.0),
        Claim("fig12.no-label", "fig12", "Fig 12", "", at("C", 2), ">", 0.0),
        Claim("fig12.no-x", "fig12", "Fig 12", "", at("A", 4), ">", 0.0),
        Claim("fig12.dash", "fig12", "Fig 12", "", over("B", 16, "B", 2),
              ">", 0.0),
        Claim("fig8-EDR.absent", "fig8-EDR", "Fig 8", "", at("A", 2), ">", 0.0),
    ]


class TestTable:
    def test_every_entry_is_scored_or_exempt_with_a_reason(self):
        scored = {claims.ENTRY_OF[c.experiment] for c in claims.CLAIMS}
        assert not scored & set(claims.EXEMPT)
        assert scored | set(claims.EXEMPT) == set(ALL_EXPERIMENTS)
        assert all(claims.EXEMPT.values())
        assert set(claims.FULL_SCALE) <= scored

    def test_claims_name_declared_results_and_unique_ids(self):
        declared = {r for entry in ALL_EXPERIMENTS.values()
                    for r in entry.results}
        assert {c.experiment for c in claims.CLAIMS} <= declared
        ids = [c.id for c in claims.CLAIMS]
        assert len(ids) == len(set(ids)) >= 110

    def test_unknown_result_id_names_claim_and_result(self):
        typo = Claim("fig8.flat", "fig8", "Fig 8", "", at("A", 1), "<", 1.0)
        with pytest.raises(ValueError, match="'fig8.flat'.*'fig8'"):
            validate([typo])

    def test_duplicate_claim_id_names_both_results(self):
        one, *_ = demo_claims()
        two = dataclasses.replace(one, experiment="table1")
        with pytest.raises(ValueError, match="'fig12.grows'.*'fig12'.*'table1'"):
            validate([one, two])

    def test_unknown_comparison_is_refused(self):
        bad = dataclasses.replace(demo_claims()[0], op="~")
        with pytest.raises(ValueError, match="fig12.grows"):
            validate([bad])

    def test_entry_refuses_result_ids_it_did_not_declare(self):
        entry = Entry(lambda opts, nodes: demo_result(), FIXED, 2, ("fig-12",))
        with pytest.raises(RuntimeError, match=r"fig12.*fig-12"):
            entry(Options())
        assert Entry(lambda opts, nodes: demo_result(), FIXED, 2,
                     ("fig12",))(Options())[0].experiment == "fig12"


class TestEvaluate:
    def test_holding_failing_and_unmeasurable_claims(self):
        grows, small, no_label, no_x, dash = evaluate([demo_result()],
                                                      demo_claims())
        assert grows.holds and grows.measured == 4.0 and grows.margin == 1.0
        assert not small.holds and small.measured == 40.0
        assert small.margin == -10.0  # 10 past a "<" gate
        for row in (no_label, no_x, dash):
            assert not row.holds and row.measured is None
            assert row.error.startswith(row.claim.id + ": ")
        assert "'C'" in no_label.error and "4" in no_x.error

    def test_claims_on_absent_results_are_not_rows(self):
        assert evaluate([], demo_claims()) == []

    def test_render_shows_every_column_and_what_failed(self):
        text = render(evaluate([demo_result()], demo_claims()))
        assert "5 claims, 4 failed" in text
        for column in ("claim", "paper", "gate", "measured", "margin"):
            assert column in text.splitlines()[2]
        assert "7.50" in text and "> 3" in text and "4.00" in text
        assert "FAIL fig12.small: A stays under 30 (Fig 12)" in text
        assert "FAIL fig12.no-label: KeyError" in text

    def test_json_round_trip_gives_identical_rows(self):
        live, table = [demo_result()], demo_claims()
        document = json.loads(json.dumps({"experiments": [
            {"name": "fig12",
             "results": [dataclasses.asdict(r) for r in live]}]}))
        assert evaluate(document, table) == evaluate(live, table)

    def test_main_exits_nonzero_when_a_claim_fails(self, tmp_path, capsys):
        def document(memq_qps):
            result = ExperimentResult(
                experiment="table1", title="", x_label="design",
                x=["MEMQ/SR", "SEMQ/SR", "MESQ/SR", "SESQ/SR"], y_label="",
                series=[Series("QPs/op", [memq_qps, 16, 8, 1])])
            path = tmp_path / f"{memq_qps}.json"
            path.write_text(json.dumps({"experiments": [
                {"name": "table1", "results": [dataclasses.asdict(result)]}]}))
            return str(path)

        assert claims.main([document(128)]) == 0
        assert "4 claims, 0 failed" in capsys.readouterr().out
        assert claims.main([document(127)]) == 1
        assert "FAIL table1.qps.MEMQ/SR" in capsys.readouterr().out
        assert claims.main([]) == 1  # nothing scored is not a pass


@pytest.mark.parametrize("name", FAST)
def test_paper_claims_hold(name):
    rows = evaluate(claims.check(name))
    expected = [c.id for c in claims.CLAIMS
                if claims.ENTRY_OF[c.experiment] == name]
    assert [row.claim.id for row in rows] == expected
    assert all(row.holds for row in rows), render(rows)
