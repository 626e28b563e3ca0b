"""Byte-identity pins for the generated C.

``body_pin.json`` is written by this file's ``__main__``
(``PYTHONPATH=src python tests/codegen/test_body_pin.py``).  It covers
all 8 apps at paper size under ``CompileOptions.optimized`` with every
combination of ``specialize`` on/off, ``narrow`` on/off and a plain or
instrumented build: 64 configurations.  Each entry holds two digests:

* ``file_sha256`` — the sha256 of the whole translation unit, so any
  change to the emitted C, however small, fails its configuration;
* ``sha256``/``lines`` — the group bodies only: every line from
  ``/* group 0: ... */`` up to the close of the entry's frame loop.
  The 16 default-option entries (``<app>-plain``,
  ``<app>-instrumented``) were first recorded before the scratch arenas
  became per-call sets checked out of an idle list, so the one call
  site that changed on purpose then is normalized before hashing: a
  tiled group now asks its call's arena set for the thread's slot,
  ``repro_arena_get(_set, _tid)``, where it used to index the global
  slot table, ``repro_arena_get(_tid)``.

A refactor of the compiler that claims not to change the C must leave
every entry as it is; a change that means to alter the C regenerates
exactly the entries it names.
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

#: (app, specialize, narrow, instrument)
CONFIGS = [(name, specialize, narrow, instrument)
           for name in sorted(ALL_APPS)
           for specialize in (True, False)
           for narrow in (False, True)
           for instrument in (False, True)]

#: the frame loop's closing brace: the entry is at depth 0, its body at 1
FRAME_LOOP_CLOSE = "    }"


def config_id(config) -> str:
    name, specialize, narrow, instrument = config
    parts = [name]
    if not specialize:
        parts.append("nospec")
    if narrow:
        parts.append("narrow")
    parts.append("instrumented" if instrument else "plain")
    return "-".join(parts)


def group_bodies(source: str) -> str:
    lines = source.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.lstrip().startswith("/* group 0: "))
    end = lines.index(FRAME_LOOP_CLOSE, start)
    body = "\n".join(lines[start:end])
    return body.replace("repro_arena_get(_set, _tid)",
                        "repro_arena_get(_tid)")


def snapshot(config) -> dict:
    name, specialize, narrow, instrument = config
    app = ALL_APPS[name]()
    options = CompileOptions.optimized(DEFAULT_TILES[name]) \
        .with_specialize(specialize).with_narrow(narrow)
    plan = compile_plan(app.outputs, app.default_estimates, options)
    source = generate_c(plan, "pin", instrument=instrument)
    body = group_bodies(source)
    return {"sha256": hashlib.sha256(body.encode()).hexdigest(),
            "lines": body.count("\n") + 1,
            "file_sha256": hashlib.sha256(source.encode()).hexdigest()}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_group_bodies_match_pin(config, pinned):
    assert snapshot(config) == pinned[config_id(config)]


def test_pin_covers_every_config(pinned):
    assert sorted(pinned) == sorted(map(config_id, CONFIGS))


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {config_id(c): snapshot(c) for c in CONFIGS},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
