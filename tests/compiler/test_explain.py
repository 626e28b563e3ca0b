"""Golden tests for ``CompiledPipeline.summary()`` and ``explain()``.

The summary must state each tiled group's tile sizes and halo widths;
the explain output must replay every Algorithm 1 merge decision with its
overlap cost.  Every paper application must produce a non-trivial
decision log (the acceptance property of the observability layer).
"""

import dataclasses
import hashlib
import re

import pytest

from repro import CompileOptions, compile_pipeline
from repro.apps import ALL_APPS as PAPER_APPS
from repro.bench.harness import DEFAULT_TILES, SMALL_BUILDERS

ALL_APPS = sorted(SMALL_BUILDERS)


def _compile(name: str, size: int = 128):
    app = SMALL_BUILDERS[name]()
    values = {app.params["R"]: size, app.params["C"]: size}
    options = CompileOptions.optimized(DEFAULT_TILES[name])
    return compile_pipeline(app.outputs, values, options, name=name)


# -- golden: harris ----------------------------------------------------------

@pytest.fixture(scope="module")
def harris():
    return _compile("harris")


def test_harris_summary_golden(harris):
    text = harris.summary()
    # one fused group of all 6 non-inlined stages, 32x256 tiles, halo 2,2
    assert re.search(r"group 0 \[tiled 32x256, halo 2,2\]", text), text
    for stage in ("Ix", "Iy", "Sxx", "Syy", "Sxy", "harris"):
        assert stage in text
    assert "scratch:" in text


def test_harris_explain_golden(harris):
    text = harris.explain()
    assert "== grouping decisions (Algorithm 1) ==" in text
    assert "== final groups ==" in text
    assert "== storage ==" in text
    assert "options: tiles=32x256" in text
    merges = [l for l in text.splitlines() if ": merge" in l]
    assert len(merges) == 5, text  # 6 stages fuse pairwise in 5 rounds
    # every merge line carries its measured overlap cost
    for line in merges:
        assert re.search(r"overlap \d", line), line
    assert "overlap within threshold" in text


# -- golden: pyramid_blend ---------------------------------------------------

@pytest.fixture(scope="module")
def pyramid():
    return _compile("pyramid_blend", size=256)


def test_pyramid_summary_golden(pyramid):
    text = pyramid.summary()
    assert re.search(r"group \d+ \[tiled ", text), text
    # pyramid halos are fractional at coarse levels: widths render as
    # fractions or integers, never empty
    for line in text.splitlines():
        m = re.search(r"halo ([\d,/ ]+)\]", line)
        if m:
            assert m.group(1).strip(), line


def test_pyramid_explain_golden(pyramid):
    text = pyramid.explain()
    assert "== grouping decisions (Algorithm 1) ==" in text
    merges = [l for l in text.splitlines() if ": merge" in l]
    # each accepted merge reduces the group count by exactly one, so the
    # log must account for every singleton that disappeared
    n_stages = len(pyramid.plan.ir.stages)
    n_groups = len(pyramid.plan.group_plans)
    assert len(merges) == n_stages - n_groups, text
    assert len(merges) >= 3, text
    assert n_groups < n_stages


# -- every paper app produces a non-trivial decision log ---------------------

@pytest.mark.parametrize("name", ALL_APPS)
def test_explain_nontrivial_for_every_app(name):
    compiled = _compile(name, size=256)
    decisions = compiled.plan.grouping.decisions
    assert decisions, f"{name}: no merge candidates evaluated"
    text = compiled.explain()
    assert "== grouping decisions (Algorithm 1) ==" in text
    # at least one decision line with a round marker
    assert re.search(r"round \d+: (merge|keep)", text), text
    # overlap costs appear for threshold-checked candidates
    overlap_lines = [l for l in text.splitlines() if "overlap" in l]
    assert overlap_lines, text


@pytest.mark.parametrize("name", ALL_APPS)
def test_summary_reports_tiles_and_halos(name):
    compiled = _compile(name, size=256)
    text = compiled.summary()
    tiled = [gp for gp in compiled.plan.group_plans if gp.is_tiled]
    if tiled:
        assert re.search(r"\[tiled \d+(x\d+)*, halo ", text), text


# -- pin: the full text at paper size ----------------------------------------

#: sha256 of ``summary() + explain()`` per app at its paper-size estimates
#: under ``CompileOptions.optimized``.  The text carries every grouping
#: decision, tile shape, storage class and fast-path interior fraction,
#: and does not depend on ``PYTHONHASHSEED``; a compiler refactor that
#: claims to change no decision must leave every digest as it is.
EXPLAIN_PIN = {
    "bilateral":
        "c5d0de19fd9306345ae3e1293db5f173834f5dddb3bc7a24029a4751861bb6d4",
    "camera":
        "98f8ec14e59aea4d1bcefaca04c4edda3e5ccc640d68cf29cf26d3e665b2ca31",
    "harris":
        "40a34a4528e32d72ed6f7f17957f2341f9795332820b5e900d61c5f73647b06f",
    "interpolate":
        "50fa3e0b66f288dc6ecc0df9059a8fce9f9ccb98e3203ce2f3c36d7732286965",
    "iunsharp":
        "a04ba6b3174fe7f65a2b4980229ece909b444b17ba8a6ebd42f5ba12cfc511d6",
    "local_laplacian":
        "fe4727de741033770662ffa37657fea620f2e5a75a778c981afdfda1c99f49ea",
    "pyramid_blend":
        "c27f84742150ef149ddea186b96b2a07c0007ddb1b6617763f6ea3c6470b2ca6",
    "unsharp":
        "4208e61840eb7fb78a07d1d1ecca1be770ae937358da77905c4190b9cb5790fa",
}


@pytest.mark.parametrize("name", sorted(PAPER_APPS))
def test_summary_and_explain_match_pin(name):
    app = PAPER_APPS[name]()
    compiled = compile_pipeline(app.outputs, app.default_estimates,
                                CompileOptions.optimized(DEFAULT_TILES[name]),
                                name=name)
    text = compiled.summary() + compiled.explain()
    assert hashlib.sha256(text.encode()).hexdigest() == EXPLAIN_PIN[name]


def test_proof_counts_do_not_depend_on_node_sharing():
    """The fast-path tallies count proof *sites*: bilateral without
    inlining shares index nodes across its taps, and its C is the same
    as the inlined build's, so its counts must be the same too."""
    app = PAPER_APPS["bilateral"]()
    lines = {}
    for inline in (True, False):
        options = dataclasses.replace(
            CompileOptions.optimized(DEFAULT_TILES["bilateral"]),
            inline=inline)
        compiled = compile_pipeline(app.outputs, app.default_estimates,
                                    options, name="bilateral")
        lines[inline] = [line for line in compiled.explain().splitlines()
                         if line.startswith("  bilateral: clamps")]
    assert lines[True] == lines[False]
    assert lines[True][0].startswith(
        "  bilateral: clamps eliminated 24/24, divisions reduced 66/66")


def test_summary_and_explain_derive_fast_path_once(monkeypatch):
    """``summary()`` and ``explain()`` render one fast-path report per
    plan: the case analysis behind it runs once, not once per call."""
    import repro.codegen.opt as opt

    compiled = _compile("harris")
    calls = []
    analyze = opt.analyze_case

    def counting(*args, **kwargs):
        calls.append(args[2])
        return analyze(*args, **kwargs)

    monkeypatch.setattr(opt, "analyze_case", counting)
    summary = compiled.summary()
    n_cases = len(calls)
    assert n_cases > 0
    explain = compiled.explain()
    assert len(calls) == n_cases
    assert compiled.summary() == summary
    assert compiled.explain() == explain
    assert len(calls) == n_cases
