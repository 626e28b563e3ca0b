"""The settable values of the public surfaces, pinned by name.

Every knob doubles the configurations that tests and benchmarks have to
cover, so a surface only grows on purpose: adding (or bringing back) a
parameter means editing the pin below next to the caller that needs it.
"""

import dataclasses
import inspect

import pytest

from repro import CompileOptions, compile_pipeline
from repro.apps import harris
from repro.autotune import autotune, default_space
from repro.codegen.build import build_native, compile_artifact
from repro.compiler.grouping import group_pipeline
from repro.observe.metrics import LatencyWindow
from repro.runtime.buffers import BufferPool
from repro.serve import PipelineService, ShardedService
from repro.serve.fallback import FallbackPolicy


def _params(fn, skip=()) -> list[str]:
    return [name for name, p in inspect.signature(fn).parameters.items()
            if name not in ("self", *skip)
            and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]


def _keywords(fn) -> list[str]:
    """Parameters with a default: the ones a caller may leave out."""
    return [name for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty]


SURFACES = {
    "CompileOptions": (
        [f.name for f in dataclasses.fields(CompileOptions)],
        ["tile_sizes", "overlap_threshold", "inline", "group", "tile",
         "tight_overlap", "specialize", "simd", "narrow"]),
    "PipelineService": (
        _params(PipelineService.__init__, skip=("compiled",)),
        ["workers", "max_queue", "backend", "default_deadline_s",
         "n_threads", "max_batch", "sample_rate", "events_path",
         "build_kwargs", "name", "tracer"]),
    "ShardedService": (
        _params(ShardedService.__init__, skip=("compiled",)),
        ["workers", "max_queue", "backend", "default_deadline_s",
         "n_threads", "max_batch", "events_path", "build_kwargs", "name"]),
    "build_native": (
        _params(build_native, skip=("plan",)),
        ["name", "vectorize", "instrument", "cache_dir", "extra_flags",
         "store", "store_root"]),
    "compile_artifact": (
        _params(compile_artifact, skip=("plan",)),
        ["vectorize", "instrument", "cache_dir", "extra_flags"]),
    "autotune": (
        _keywords(autotune),
        ["space", "n_dims", "backend", "n_threads", "repeats", "name",
         "n_workers", "cache_dir", "profile", "hints", "store",
         "store_root"]),
    "default_space": (
        _keywords(default_space),
        ["tile_choices", "thresholds"]),
    "group_pipeline": (
        _keywords(group_pipeline),
        ["tight_overlap", "hints"]),
    "FallbackPolicy": (
        _params(FallbackPolicy.__init__),
        ["native_enabled", "on_transition"]),
    "BufferPool": (_params(BufferPool.__init__), []),
    "LatencyWindow": (_params(LatencyWindow.__init__), []),
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_settable_values_are_pinned(surface):
    actual, expected = SURFACES[surface]
    assert actual == expected


def test_serve_forwards_config_unchanged():
    """``CompiledPipeline.serve`` adds no keys of its own beyond
    ``processes``: the schedule store is reached through
    ``build_kwargs``, so a bare ``store=`` is an unknown service
    argument."""
    app = harris.build_pipeline()
    values = {app.params["R"]: 32, app.params["C"]: 32}
    compiled = compile_pipeline(app.outputs, values, name="surface")
    for extra in ({"store": "ro"}, {"store_root": "/nonexistent"}):
        with pytest.raises(TypeError):
            compiled.serve(backend="interpreter", **extra)


def test_options_written_with_removed_keys_still_load():
    """A schedule-store entry records ``CompileOptions.to_dict()``;
    entries written while ``min_group_size`` and ``unroll`` were
    options still load, and their defaults were the only values."""
    stored = {"tile_sizes": [16, 64], "overlap_threshold": 0.2,
              "inline": True, "group": True, "tile": True,
              "min_group_size": 0, "tight_overlap": True, "unroll": 0,
              "specialize": True, "simd": False, "narrow": False}
    options = CompileOptions.from_dict(stored)
    assert options == CompileOptions(tile_sizes=(16, 64),
                                     overlap_threshold=0.2, simd=False)
    assert options.to_dict() == {k: v for k, v in stored.items()
                                 if k not in ("min_group_size", "unroll")}
    assert CompileOptions.from_dict(options.to_dict()) == options
