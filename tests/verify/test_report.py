"""The diagnostics model, severity overrides, JSON round-trips, the CLI,
and the verifier's integration points (compile_plan, CompiledPipeline,
autotune, explain)."""

import json

import numpy as np
import pytest

from repro import CompileOptions, compile_pipeline
from repro.apps import bilateral, harris, unsharp
from repro.autotune.tuner import TuneConfig, autotune
from repro.compiler.deps import NonConstantDependence
from repro.compiler.plan import compile_plan
from repro.pipeline.boundscheck import BoundsViolation
from repro.verify import (
    CHECKS, CODES, Diagnostic, VerifyError, VerifyReport, code_table,
    severity_of, verify_plan,
)
from repro.verify.__main__ import main as verify_main
from repro.verify.diagnostics import Emitter


@pytest.fixture(scope="module")
def harris_plan():
    app = harris.build_pipeline()
    values = {app.params["R"]: 61, app.params["C"]: 45}
    return compile_plan(app.outputs, values, CompileOptions())


# -- the diagnostic model -------------------------------------------------

def test_code_table_covers_every_code():
    table = code_table()
    assert all(code in table for code in CODES)


def test_diagnostic_render_and_roundtrip():
    diag = Diagnostic("RV002", "error", "halo too small", stage="blurx",
                      related=("blury",), group=1, hint="widen it")
    text = diag.render()
    assert "RV002" in text and "[blurx]" in text and "(group 1)" in text
    assert "hint: widen it" in text
    assert Diagnostic.from_dict(diag.to_dict()) == diag


def test_severity_of_and_overrides():
    assert severity_of("RV001") == "error"
    assert severity_of("RV402") == "info"
    assert severity_of("RV402", {"RV402": "error"}) == "error"
    with pytest.raises(ValueError):
        severity_of("RV999")


def test_emitter_rejects_bad_overrides_and_drops_ignored():
    with pytest.raises(ValueError):
        Emitter({"RV999": "error"})
    with pytest.raises(ValueError):
        Emitter({"RV001": "fatal"})
    emit = Emitter({"RV402": "ignore"})
    emit.emit("RV402", "dropped")
    emit.emit("RV401", "kept")
    assert [d.code for d in emit.diagnostics] == ["RV401"]


def test_report_json_roundtrip(tmp_path, harris_plan):
    report = verify_plan(harris_plan, name="harris")
    data = json.loads(report.to_json())
    assert data["pipeline"] == "harris" and data["ok"] is True
    path = report.save(tmp_path / "harris.json")
    loaded = VerifyReport.from_json(path.read_text())
    assert loaded.pipeline == report.pipeline
    assert loaded.diagnostics == report.diagnostics
    assert loaded.checked == report.checked


def test_verify_plan_rejects_unknown_check(harris_plan):
    with pytest.raises(ValueError):
        verify_plan(harris_plan, checks=("legality", "vibes"))


def test_severity_overrides_flow_through_verify():
    app = bilateral.build_pipeline()
    values = {app.params["R"]: 64, app.params["C"]: 48}
    plan = compile_plan(app.outputs, values, CompileOptions())
    assert verify_plan(plan).by_code("RV402")  # the LUT access notes
    escalated = verify_plan(plan, severity_overrides={"RV402": "error"})
    assert not escalated.ok
    silenced = verify_plan(plan, severity_overrides={"RV402": "ignore"})
    assert not silenced.by_code("RV402")


# -- integration: compile_plan / api hooks --------------------------------

def test_compile_plan_check_warn_attaches_report():
    app = unsharp.build_pipeline()
    values = {app.params["R"]: 48, app.params["C"]: 40}
    plan = compile_plan(app.outputs, values, CompileOptions(), check="warn")
    assert plan.verify_report is not None and plan.verify_report.ok
    strict = compile_plan(app.outputs, values, CompileOptions(),
                          check="strict")
    assert strict.verify_report.ok
    with pytest.raises(ValueError):
        compile_plan(app.outputs, values, CompileOptions(), check="loose")


def test_compiled_pipeline_verify_caches():
    app = unsharp.build_pipeline()
    values = {app.params["R"]: 48, app.params["C"]: 40}
    compiled = compile_pipeline(app.outputs, values, CompileOptions())
    report = compiled.verify()
    assert report.ok and report.pipeline == compiled.name
    assert compiled.plan.verify_report is report  # stashed on the plan
    strict = compiled.verify(strict=True)
    assert strict.ok


def test_compiled_pipeline_verify_strict_raises(monkeypatch):
    app = unsharp.build_pipeline()
    values = {app.params["R"]: 48, app.params["C"]: 40}
    compiled = compile_pipeline(app.outputs, values, CompileOptions())
    compiled.plan.group_plans[0].ordered_stages.reverse()
    with pytest.raises(VerifyError):
        compiled.verify(strict=True)


# -- integration: autotune skips configs that fail verification -----------

def test_autotune_skips_failing_configs(monkeypatch):
    app = harris.build_pipeline()
    R, C = app.params["R"], app.params["C"]
    values = {R: 96, C: 96}
    inputs = app.make_inputs(values, np.random.default_rng(7))
    space = [TuneConfig((16, 16), 0.4), TuneConfig((32, 32), 0.4)]

    bad = VerifyReport("x", [Diagnostic("RV002", "error", "halo too small",
                                        stage="Ix")])
    import repro.verify as verify_mod
    monkeypatch.setattr(verify_mod, "verify_plan", lambda plan: bad)
    report = autotune(app.outputs, values, values, inputs, space=space,
                      backend="interp", repeats=1)
    assert not report.results
    assert len(report.skipped) == 2
    assert all(s.reason.startswith("verify: RV002") for s in report.skipped)

    monkeypatch.undo()
    report = autotune(app.outputs, values, values, inputs, space=space,
                      backend="interp", repeats=1)
    assert len(report.results) == 2 and not report.skipped


# -- integration: explain() names the diagnostic behind rejections --------

def test_explain_shows_verifier_diagnostic_for_rejections():
    app = bilateral.build_pipeline()
    values = {app.params["R"]: 64, app.params["C"]: 48}
    plan = compile_plan(app.outputs, values, CompileOptions())
    rejected = [d for d in plan.grouping.decisions if d.diagnostic]
    assert rejected, "bilateral's grid stages must defeat alignment"
    assert all(d.diagnostic.startswith("RV003") for d in rejected)
    text = plan.explain()
    assert "would fire: RV003" in text
    assert any("would fire" in json.dumps(d.to_dict())
               for d in plan.grouping.decisions) or \
        any(d.to_dict().get("diagnostic") for d in plan.grouping.decisions)


# -- satellites: bounds violations carry estimates; deps carry context ----

def test_bounds_violation_carries_estimates():
    v = BoundsViolation("cons", "prod", 0, "[1, 70]", "[0, 63]",
                        estimates=(("C", 45), ("R", 61)))
    text = str(v)
    assert "under C=45, R=61" in text


def test_nonconstant_dependence_context():
    exc = NonConstantDependence("range depends on R",
                                producer="blurx", consumer="blury",
                                dim=1, access="blurx(x, y+1)")
    text = str(exc)
    assert text.startswith("[blury -> blurx, dim 1, access blurx(x, y+1)]")
    assert "range depends on R" in text
    bare = NonConstantDependence("range depends on R")
    enriched = bare.with_context(producer="a", consumer="b")
    assert "[b -> a]" in str(enriched)
    # existing context wins over later, less specific context
    again = exc.with_context(producer="other")
    assert again.producer == "blurx"


# -- the CLI --------------------------------------------------------------

def test_cli_codes(capsys):
    assert verify_main(["--codes"]) == 0
    out = capsys.readouterr().out
    assert "RV001" in out and "RV405" in out


def test_cli_single_app_json(capsys, tmp_path):
    rc = verify_main(["harris", "--size", "64", "--strict",
                      "--json", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "harris: 0 errors" in out
    data = json.loads((tmp_path / "harris.json").read_text())
    assert data["ok"] is True


def test_cli_json_stdout(capsys):
    rc = verify_main(["unsharp", "--size", "48", "--json", "-"])
    assert rc == 0
    out = capsys.readouterr().out
    payload = out[out.index("["):]
    data = json.loads(payload)
    assert data[0]["pipeline"] == "unsharp"


def test_cli_rejects_unknown_app(capsys):
    with pytest.raises(SystemExit):
        verify_main(["not_an_app"])
    with pytest.raises(SystemExit):
        verify_main([])  # no apps and no --all
    with pytest.raises(SystemExit):
        verify_main(["harris", "--severity", "RV402"])  # missing =LEVEL


def test_cli_severity_override(capsys):
    rc = verify_main(["bilateral", "--size", "64", "--strict",
                      "--severity", "RV402=error"])
    assert rc == 1  # escalated notes now fail strict mode
