"""Byte-identity pin for the group bodies of the generated C.

``body_pin.json`` was written by this file's ``__main__`` at the commit
*before* the scratch arenas became per-call sets checked out of an idle
list (``PYTHONPATH=<that checkout>/src python
tests/codegen/test_body_pin.py``).  For all 8 apps at paper size, plain
and instrumented, it holds the sha256 of the group bodies: every line
from ``/* group 0: ... */`` up to the close of the entry's frame loop.
What surrounds them — the arena globals, the entry's prologue and
epilogue — may change; the tile nests may not.  The one call site that
changed on purpose is normalized before hashing: a tiled group now asks
its call's arena set for the thread's slot, ``repro_arena_get(_set,
_tid)``, where it used to index the global slot table,
``repro_arena_get(_tid)``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import CompileOptions
from repro.apps import ALL_APPS
from repro.bench.harness import DEFAULT_TILES
from repro.codegen.cgen import generate_c
from repro.compiler.plan import compile_plan

FIXTURE = Path(__file__).with_name("body_pin.json")

CONFIGS = [(name, instrument) for name in sorted(ALL_APPS)
           for instrument in (False, True)]

#: the frame loop's closing brace: the entry is at depth 0, its body at 1
FRAME_LOOP_CLOSE = "    }"


def config_id(config) -> str:
    name, instrument = config
    return f"{name}-{'instrumented' if instrument else 'plain'}"


def group_bodies(source: str) -> str:
    lines = source.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.lstrip().startswith("/* group 0: "))
    end = lines.index(FRAME_LOOP_CLOSE, start)
    body = "\n".join(lines[start:end])
    return body.replace("repro_arena_get(_set, _tid)",
                        "repro_arena_get(_tid)")


def snapshot(config) -> dict:
    name, instrument = config
    app = ALL_APPS[name]()
    plan = compile_plan(app.outputs, app.default_estimates,
                        CompileOptions.optimized(DEFAULT_TILES[name]))
    body = group_bodies(generate_c(plan, "pin", instrument=instrument))
    return {"sha256": hashlib.sha256(body.encode()).hexdigest(),
            "lines": body.count("\n") + 1}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_group_bodies_match_pin(config, pinned):
    assert snapshot(config) == pinned[config_id(config)]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {config_id(c): snapshot(c) for c in CONFIGS},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
