"""Equivalence pin for Algorithm 1 and the halo analysis.

``grouping_pin.json`` was written by this file's ``__main__`` at the
commit *before* grouping was rebuilt on per-edge summaries, cached graph
facts and halo reuse (``PYTHONPATH=<that checkout>/src python
tests/compiler/test_grouping_pin.py``).  For all 8 apps at paper size,
with tight and naive overlap, plus one hinted configuration, it holds the
full decision log, the final groups in execution order and every stage's
halo; the test compares them field by field, so the rebuilt grouping is
pinned to the decisions of the tap-by-tap one.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro import CompileOptions
from repro.apps import ALL_APPS
from repro.bench.harness import DEFAULT_TILES
from repro.compiler.plan import compile_plan
from repro.schedule import ScheduleHints

FIXTURE = Path(__file__).with_name("grouping_pin.json")

#: a force that overrides an overlap rejection and a forbid that blocks
#: an otherwise accepted merge
HINTED_APP = "interpolate"
HINTS = ScheduleHints(force_group=[("interp4", "interp3")],
                      forbid_group=[("upx0", "interpolated")])

CONFIGS = [(name, tight, None) for name in sorted(ALL_APPS)
           for tight in (True, False)] + [(HINTED_APP, True, HINTS)]


def config_id(config) -> str:
    name, tight, hints = config
    return (f"{name}-{'tight' if tight else 'naive'}"
            f"{'-hinted' if hints is not None else ''}")


def snapshot(config) -> dict:
    name, tight, hints = config
    app = ALL_APPS[name]()
    options = replace(CompileOptions.optimized(DEFAULT_TILES[name]),
                      tight_overlap=tight)
    plan = compile_plan(app.outputs, app.default_estimates, options,
                        hints=hints)
    return {
        "decisions": [d.to_dict() for d in plan.grouping.decisions],
        "groups": [[s.name for s in gp.ordered_stages]
                   for gp in plan.group_plans],
        "halos": {
            stage.name: [[str(v) for v in halo.left],
                         [str(v) for v in halo.right]]
            for gp in plan.group_plans
            for stage, halo in gp.group.halos.items()},
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_grouping_matches_the_tap_by_tap_pin(config, pinned):
    want = pinned[config_id(config)]
    got = snapshot(config)
    assert len(got["decisions"]) == len(want["decisions"])
    for i, (g, w) in enumerate(zip(got["decisions"], want["decisions"])):
        for key in w:
            assert g[key] == w[key], f"decision {i}: {key}"
    assert got["groups"] == want["groups"]
    assert got["halos"].keys() == want["halos"].keys()
    for stage, halo in want["halos"].items():
        assert got["halos"][stage] == halo, f"halo of {stage}"


def test_the_pin_covers_rejections_hints_and_diagnostics(pinned):
    decisions = [d for entry in pinned.values() for d in entry["decisions"]]
    assert any(d["hinted"] and d["accepted"] for d in decisions)
    assert any(d["hinted"] and not d["accepted"] for d in decisions)
    assert any(d["diagnostic"] for d in decisions)
    assert any(d["overlap"] is not None and not d["accepted"]
               for d in decisions)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {config_id(c): snapshot(c) for c in CONFIGS},
        indent=1, sort_keys=True) + "\n")
