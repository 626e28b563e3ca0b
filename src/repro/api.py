"""Top-level public API of the PolyMage reproduction.

Typical use::

    from repro import CompileOptions, compile_pipeline

    compiled = compile_pipeline([harris], estimates={R: 6400, C: 6400})
    print(compiled.summary())
    out = compiled(param_values={R: rows, C: cols}, inputs={I: image})
    result = out["harris"]

``compile_pipeline`` runs the whole middle end (inlining, bounds checking,
grouping, overlapped tiling, storage mapping) once; the returned
:class:`CompiledPipeline` can then be executed any number of times, for
any parameter values, with either backend:

* the NumPy interpreter (default, portable), or
* generated C compiled with a system C compiler
  (:meth:`CompiledPipeline.build`, see :mod:`repro.codegen`).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.compiler.options import CompileOptions
from repro.compiler.plan import PipelinePlan, compile_plan
from repro.lang.constructs import Parameter
from repro.lang.image import Image
from repro.observe.trace import Tracer
from repro.pipeline.graph import Stage
from repro.runtime.executor import execute_plan


class CompiledPipeline:
    """A compiled pipeline: executable, inspectable, C-generatable."""

    def __init__(self, plan: PipelinePlan, name: str = "pipeline"):
        self.plan = plan
        self.name = name
        self._built: dict = {}

    # -- execution ---------------------------------------------------------
    def __call__(self, param_values: Mapping[Parameter, int],
                 inputs: Mapping[Image, np.ndarray],
                 *, vectorize: bool = True,
                 n_threads: int = 1,
                 tracer: Tracer | None = None) -> dict[str, np.ndarray]:
        """Execute with the NumPy interpreter backend."""
        return execute_plan(self.plan, param_values, inputs,
                            vectorize=vectorize, n_threads=n_threads,
                            tracer=tracer)

    def run_batch(self, param_values: Mapping[Parameter, int],
                  inputs_list,
                  *, vectorize: bool = True,
                  n_threads: int = 1,
                  tracer: Tracer | None = None
                  ) -> "list[dict[str, np.ndarray]]":
        """Execute a batch of frames (one shared set of parameter values)
        with the NumPy interpreter backend — the differential twin of
        :meth:`repro.codegen.build.NativePipeline.run_batch`."""
        from repro.runtime.executor import execute_plan_batch
        return execute_plan_batch(self.plan, param_values, inputs_list,
                                  vectorize=vectorize,
                                  n_threads=n_threads, tracer=tracer)

    # -- C backend -----------------------------------------------------------
    def c_source(self, instrument: bool = False) -> str:
        """Generate C source implementing the pipeline (Figure 7 style)."""
        from repro.codegen.cgen import generate_c
        return generate_c(self.plan, self.name, instrument=instrument)

    def build(self, **kwargs):
        """Compile the generated C with the system compiler and return a
        callable :class:`repro.codegen.build.NativePipeline`.

        Memoized per distinct build-option set: ``build()`` followed by
        ``build(vectorize=False)`` compiles (and returns) two different
        binaries rather than silently reusing the first.
        """
        from repro.codegen.build import build_native
        try:
            key = tuple(sorted(kwargs.items()))
            hash(key)
        except TypeError:
            # unhashable build option: skip memoization, build fresh
            return build_native(self.plan, self.name, **kwargs)
        if key not in self._built:
            self._built[key] = build_native(self.plan, self.name, **kwargs)
        return self._built[key]

    # -- serving ---------------------------------------------------------------
    def serve(self, **config):
        """Start a streaming :class:`repro.serve.PipelineService` for
        this pipeline.

        The service answers ``submit()`` immediately with the
        interpreter backend while the native artifact builds in the
        background, pools output buffers across frames, enforces
        per-request deadlines, and degrades gracefully back to the
        interpreter on any native failure.  ``config`` is forwarded to
        :class:`~repro.serve.PipelineService` (``workers``,
        ``max_queue``, ``backend``, ``default_deadline_s``, ...).
        Close it (or use it as a context manager) when done.

        Observability knobs ride along in ``config``: every request is
        stamped with a lifecycle timeline (``frame.timeline()``),
        ``events_path=`` streams lifecycle events to a JSON-lines file,
        ``sample_rate=`` promotes a deterministic subset of requests to
        Chrome-trace async spans, and
        ``service.serve_metrics(port=...)`` exposes counters and
        per-stage latency histograms in Prometheus text format.

        ``processes=N`` (N ≥ 1) returns a
        :class:`~repro.serve.ShardedService` instead: the same
        submit/Frame API served by a fixed fleet of N spawn-mode worker
        processes with shared-memory frame transport, load balancing
        and worker respawn (see :mod:`repro.serve.router`).

        ``build_kwargs`` is forwarded to the background native build
        (:func:`~repro.codegen.build.build_native`):
        ``build_kwargs={"store": "ro"}`` consults the persistent
        schedule store (:mod:`repro.schedule`), so on a warm store every
        worker cold-starts by ``dlopen``-ing the already-published
        artifact — no C compiler invocation; ``"store_root"`` overrides
        the store directory.
        """
        config.setdefault("name", self.name)
        processes = config.pop("processes", 0)
        if processes:
            from repro.serve import ShardedService
            return ShardedService(self, workers=processes, **config)
        from repro.serve import PipelineService
        return PipelineService(self, **config)

    # -- verification ----------------------------------------------------------
    def verify(self, *, lint_c: bool = False,
               severity_overrides: Mapping[str, str] | None = None,
               strict: bool = False):
        """Statically verify the compiled plan (see :mod:`repro.verify`).

        Re-derives schedule legality, storage coverage, race freedom and
        bounds from the IR — independently of the compiler phases that
        made those decisions — and returns the
        :class:`~repro.verify.VerifyReport`.  ``lint_c=True`` also
        generates instrumented C and lints it for un-atomic shared
        writes; ``strict=True`` raises :class:`~repro.verify.VerifyError`
        when any error-severity diagnostic fires.  The report is cached
        on the plan as ``plan.verify_report``.
        """
        from repro.verify import VerifyError, verify_plan
        report = verify_plan(self.plan, lint_c=lint_c,
                             severity_overrides=severity_overrides,
                             name=self.name)
        self.plan.verify_report = report
        if strict and not report.ok:
            raise VerifyError(report)
        return report

    # -- inspection ------------------------------------------------------------
    def ranges(self, input_ranges: Mapping | None = None
               ) -> "dict[str, object]":
        """Per-stage value ranges, keyed by stage name.

        Forward abstract interpretation over the stage DAG under the
        compile-time estimates (see :mod:`repro.analysis.ranges`).
        ``input_ranges`` optionally tightens the assumed range of input
        images (keyed by :class:`Image` or image name, values are
        ``(lo, hi)`` pairs or :class:`ValueInterval`).  When the plan
        was compiled with ``narrow=True`` the ranges already derived at
        compile time are reused.
        """
        from repro.analysis.ranges import analyze_ranges
        if input_ranges is None and self.plan.value_ranges is not None:
            by_stage = self.plan.value_ranges
        else:
            by_stage = analyze_ranges(self.plan, input_ranges)
        return {stage.name: r for stage, r in by_stage.items()}

    def summary(self) -> str:
        return self.plan.summary()

    def explain(self) -> str:
        """Replay the compiler's decisions: every grouping merge candidate
        with its overlap cost and verdict, the final groups with tile
        sizes and halo widths, and each stage's storage classification."""
        return self.plan.explain()

    @property
    def options(self) -> CompileOptions:
        return self.plan.options

    @property
    def outputs(self) -> list[Stage]:
        return self.plan.outputs


def compile_pipeline(outputs: Sequence[Stage],
                     estimates: Mapping[Parameter, int],
                     options: CompileOptions | None = None,
                     name: str = "pipeline",
                     tracer: Tracer | None = None,
                     check: str = "none",
                     hints=None) -> CompiledPipeline:
    """Compile a pipeline given its live-out stages.

    ``estimates`` supply a representative value per :class:`Parameter` —
    the heuristics optimize for sizes around them, but the compiled
    pipeline remains valid for all parameter values.  ``tracer`` records
    per-phase compile spans (defaults to the process-global tracer,
    disabled unless e.g. ``repro.observe.tracing`` enabled it).
    ``check`` runs the static verifier on the result: ``"warn"`` attaches
    the report, ``"strict"`` raises on error diagnostics (see
    :func:`repro.compiler.plan.compile_plan`).  ``hints`` is an optional
    :class:`~repro.schedule.ScheduleHints` constraining the automatic
    scheduler (see :mod:`repro.schedule`); hinted plans still pass the
    full verifier, with the RV6xx family auditing the hints themselves.
    """
    plan = compile_plan(outputs, estimates, options, tracer=tracer,
                        check=check, hints=hints)
    return CompiledPipeline(plan, name)
