"""``BENCH_host.json``: the host trajectory, one row per measured commit.

The file gates nothing (``benchmarks/host_row.py`` measures a row); this
checks that every row has the shape later rows are compared in, and,
where the commits are in local history, that each row's commit is an
ancestor of the next row's and of ``HEAD``.  ``benchmarks/opcodes.py``,
the deterministic bytecode count beside it, gets a smoke run.
"""

import datetime
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_host.json"

LADDER_METRICS = ("wall_s", "setup_s", "peak_rss_mib", "sim_time_ms")
POINTS = ("fig8_scale_0.05", "fig10_scaleout_256_mesq_sr")


def rows():
    document = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    assert document["schema"] == {"name": "repro-bench-host", "version": 1}
    return document["rows"]


def positive(value):
    return isinstance(value, (int, float)) and value > 0


def test_every_row_has_the_schema():
    workloads = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    found = rows()
    assert found, "the trajectory starts with the first measured parent"
    for row in found:
        assert re.fullmatch(r"[0-9a-f]{7,40}", row["commit"])
        datetime.date.fromisoformat(row["date"])
        assert isinstance(row["box"]["nproc"], int) and row["box"]["nproc"] > 0
        assert re.fullmatch(r"\d+\.\d+\.\d+", row["box"]["python"])
        assert row["runs"] >= 5
        assert sorted(row["ladder"]) == sorted(workloads)
        for metrics in row["ladder"].values():
            assert sorted(metrics) == sorted(LADDER_METRICS)
            assert all(positive(v) for v in metrics.values())
        for point in POINTS:
            assert sorted(row[point]) == ["peak_rss_mib", "wall_s"]
            assert all(positive(v) for v in row[point].values())
    commits = [row["commit"] for row in found]
    assert len(set(commits)) == len(commits)


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)


def test_rows_are_ancestors_in_order():
    try:
        shallow = _git("rev-parse", "--is-shallow-repository")
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if shallow.returncode != 0:
        pytest.skip("not a git checkout")
    if shallow.stdout.strip() != "false":
        pytest.skip("a shallow clone lacks the history")
    commits = [row["commit"] for row in rows()]
    missing = [c for c in commits
               if _git("cat-file", "-e", f"{c}^{{commit}}").returncode]
    if missing:
        pytest.skip(f"not in local history: {', '.join(missing)}")
    for older, newer in zip(commits, commits[1:] + ["HEAD"]):
        assert _git("merge-base", "--is-ancestor", older,
                    newer).returncode == 0, f"{older} is not before {newer}"


def test_opcode_count_smoke():
    """``benchmarks/opcodes.py --c-calls`` on ``rc_stream`` at 1/16
    scale: one JSON line whose layers add up to the per-message total,
    and whose calls into C, by name, add up to theirs."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "opcodes.py"),
         "rc_stream", "--scale", "0.0625", "--top", "5", "--c-calls"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert (result["workload"], result["seed"]) == ("rc_stream", 1)
    assert result["fabric_messages"] > 0 and result["bytecodes"] > 0
    assert result["per_message"] == round(
        result["bytecodes"] / result["fabric_messages"], 1)
    assert sum(result["by_layer"].values()) == pytest.approx(
        result["per_message"], abs=1.0)
    assert {"sim", "fabric", "verbs"} <= set(result["by_layer"])
    assert len(result["by_function"]) == 5
    assert all(re.fullmatch(r"\S+:\d+ \S+", name)
               for name in result["by_function"])
    assert result["c_calls_per_message"] == round(
        result["c_calls"] / result["fabric_messages"], 2)
    assert len(result["by_c_function"]) == 5
    assert "len" in result["by_c_function"]
    assert sum(result["by_c_function"].values()) <= (
        result["c_calls_per_message"])
