"""Golden experiments: every registry entry's results, frozen as data.

``tests/golden/experiments.json`` holds, for every entry of
``repro.bench.experiments.ALL_EXPERIMENTS``, ``dataclasses.asdict`` of
the results of calling the entry directly (no CLI, no telemetry
session) at ``scale=0.01, nodes=4`` — ``abl-adaptive`` at ``nodes=8``,
because its two-phase half needs more than one four-node leaf.  The 15
entries that predate the one-runner harness were generated before it was
written, so the fixture is the oracle the harness was refactored
against; like ``tests/golden/digests.json`` it changes only with a
deliberate modeling change.

Results do not depend on what ran earlier in the process: endpoint ids
are allocated per cluster and nothing iterates a set of them (the
hierarchical row of ``abl-adaptive`` once did, through the SR/UD credit
keepalive; ``tests/test_determinism.py`` pins the fix).

Tier-1 replays the entries that take under 2 s.  The full replay and
the regeneration are the module's command line:

    PYTHONPATH=src python -m tests.test_golden_experiments
    PYTHONPATH=src python -m tests.test_golden_experiments --regenerate
"""

import dataclasses
import json
import os
import sys

import pytest

from repro import LEAF_SPINE, EndpointConfig
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    HIER_NODES_PER_LEAF,
    HIER_OVERSUBSCRIPTION,
    Options,
    Point,
    _mesoscale_config,
    _scaled,
    _volume,
    measure,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "experiments.json")

#: entries cheap enough for tier-1 (the rest take 1-13 s each).
FAST = ["table1", "fig11", "fig12", "fig14a", "fig14b", "fig14c", "fig14d",
        "abl-oversub"]


def _load():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def replay(name, scale, nodes):
    """One entry's results as the JSON the fixture stores."""
    results = ALL_EXPERIMENTS[name](Options(scale=scale, nodes=nodes))
    return json.loads(json.dumps([dataclasses.asdict(r) for r in results]))


@pytest.mark.parametrize("name", FAST)
def test_entry_matches_golden(name):
    golden = _load()[name]
    assert replay(name, golden["scale"], golden["nodes"]) == golden["results"]


#: fig9a points at 4096 B that a same-instant reordering moves while
#: every tier-1 entry and ``digests.json`` stay green: a READ's remote
#: ``requested`` hop and a local post meet at one NIC processor
#: (DESIGN.md, "The wire rule").  fig9 itself is too slow for tier-1,
#: so these two of its points stand in for it.
FIG9_READ_DESIGNS = ["MEMQ/RD", "SEMQ/RD"]


@pytest.mark.parametrize("design", FIG9_READ_DESIGNS)
def test_fig9_read_point_matches_golden(design):
    golden = _load()["fig9"]
    fig9a = golden["results"][0]
    assert fig9a["experiment"] == "fig9a-EDR"
    size = 4096
    want = next(series["y"][fig9a["x"].index(size)]
                for series in fig9a["series"] if series["label"] == design)
    nodes, scale = golden["nodes"], golden["scale"]
    got = measure(Point(design, _volume(design, scale, nodes), nodes=nodes,
                        config=EndpointConfig(message_size=size)))
    assert got.gib_s == want


def test_hierarchical_point_matches_golden():
    """The two-phase cell of ``abl-adaptive``; the entry itself is too
    slow for tier-1."""
    golden = _load()["abl-adaptive"]
    hier = golden["results"][1]
    assert hier["experiment"] == "abl-hierarchical-EDR"
    k = HIER_OVERSUBSCRIPTION
    want = hier["series"][0]["y"][hier["x"].index(f"hier {k}:1")]
    got = measure(Point("MESQ/SR", _scaled(24, golden["scale"]),
                        nodes=golden["nodes"],
                        topology=LEAF_SPINE(k, HIER_NODES_PER_LEAF),
                        pattern="hierarchical",
                        config=_mesoscale_config(4096)))
    assert got.gib_s == want
    assert hier["notes"].startswith(f"{got.plan}; ")


def test_golden_covers_the_registry():
    assert sorted(_load()) == sorted(ALL_EXPERIMENTS)


def collect():
    """Every golden entry, recomputed from the current tree."""
    out = {}
    for name in ALL_EXPERIMENTS:
        nodes = 8 if name == "abl-adaptive" else 4
        out[name] = {"scale": 0.01, "nodes": nodes,
                     "results": replay(name, 0.01, nodes)}
    return out


def main(argv):
    if argv == ["--regenerate"]:
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(collect(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    mismatched = []
    for name, golden in _load().items():
        same = replay(name, golden["scale"],
                      golden["nodes"]) == golden["results"]
        print(f"{name}: {'ok' if same else 'MISMATCH'}", flush=True)
        if not same:
            mismatched.append(name)
    if mismatched:
        print(f"golden experiments differ: {', '.join(mismatched)}",
              file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
