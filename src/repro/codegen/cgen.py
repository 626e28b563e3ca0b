"""C code generation (paper Section 3.7, Figure 7).

Emits one C function implementing the compiled pipeline, with each
group body emitted exactly once.  The generated code has the same
structure as the paper's Figure 7:

* an OpenMP-parallel loop over the leading tile dimension of each tiled
  group, with tile-local scratchpad allocations at the top of its body;
* per-stage loop nests whose bounds are clamped intersections of the tile
  region with each case's bound constraints (``max(1, 32*Ti)`` style);
* relative (tile-origin) indexing into scratchpads, absolute indexing
  into full buffers;
* vector hints on unit-stride innermost loops so the C compiler's
  vectorizer can do its job (the paper relies on icc the same way):
  ``#pragma omp simd`` on the fast nests (``CompileOptions.simd``),
  the weaker ``#pragma GCC ivdep`` on the safe, clamped nests.

Floor division/modulo helpers keep integer semantics identical to the
DSL's (and NumPy's) flooring behaviour, which C's truncating division
does not provide.

Under ``CompileOptions.specialize`` (the default) each case loop nest
additionally gets an interior fast path (see :mod:`repro.codegen.opt`):
clamp-free, strength-reduced, CSE'd nests behind a per-tile guard with
``#pragma omp simd`` innermost, while boundary tiles keep the safe
clamped code; scratchpads move from per-invocation ``malloc`` into
persistent per-thread arenas.  Each call checks out its own arena set
(one slot per OpenMP thread) from an idle list, so concurrent calls into
one library never share scratch; the exported ``<func>_release()`` frees
the idle sets.

Under ``CompileOptions.narrow`` stages whose value range the static
analysis proved (:mod:`repro.analysis.ranges`) store into the narrowest
safe C type: scratchpads, arena slots and full intermediates shrink and
loads get SIMD-friendlier, while every computation keeps its original
arithmetic type (sub-``int`` loads re-promote to ``int`` exactly;
``double`` stages narrowed to ``float`` are re-widened at each use).
With ``narrow`` off the output is byte-identical to previous versions.

That function is the multi-frame entry point ``<func>_batch(int n, int
nthreads, params..., const T* const* in_frames..., T* const*
out_frames...)``: it runs the pipeline body over ``n`` frames while
paying the fixed per-call costs (thread-team setup, arena checkout,
intermediate allocation, the ctypes crossing) once.  A single frame is
a batch of one; the serving layer coalesces compatible queued requests
into one larger call (``docs/internals.md`` §17).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Hashable, Mapping, Sequence

from repro.codegen import opt
from repro.compiler.plan import GroupPlan, PipelinePlan
from repro.compiler.storage import SCRATCH
from repro.compiler.tiling import Halo
from repro.lang.constructs import Parameter, Variable
from repro.lang.expr import (
    BinOp, BoolExpr, Call, Cast, CondAnd, Condition, CondNot, CondOr, Expr,
    Literal, Reference, Select, TrueCond,
)
from repro.lang.function import Accumulator, Reduction
from repro.lang.image import Image
from repro.lang.types import DType
from repro.pipeline.graph import Stage
from repro.pipeline.ir import StageIR
from repro.poly.affine import AffExpr, to_affine
from repro.poly.iset import DimBounds

PRELUDE = r"""
#include <math.h>
#include <stdlib.h>
#include <string.h>
#ifdef _OPENMP
#include <omp.h>
#endif

/* pure helpers: __attribute__((const)) lets the C compiler CSE and hoist
   calls even in the residual boundary loops that keep them */
#if defined(__GNUC__) || defined(__clang__)
#define REPRO_CONST __attribute__((const))
#else
#define REPRO_CONST
#endif

/* floor division / modulo with Python semantics */
REPRO_CONST static inline long fdiv(long a, long b) {
    long q = a / b, r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}
REPRO_CONST static inline long cdiv(long a, long b) { return -fdiv(-a, b); }
REPRO_CONST static inline long pmod(long a, long b) {
    long r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}
REPRO_CONST static inline long imin(long a, long b) { return a < b ? a : b; }
REPRO_CONST static inline long imax(long a, long b) { return a > b ? a : b; }
REPRO_CONST static inline double dmin(double a, double b) {
    return a < b ? a : b;
}
REPRO_CONST static inline double dmax(double a, double b) {
    return a > b ? a : b;
}
REPRO_CONST static inline long iclamp(long v, long lo, long hi) {
    return v < lo ? lo : (v > hi ? hi : v);
}
"""

#: innermost scratch extents are padded to this many elements so rows
#: start on cache-line/vector boundaries inside the per-thread arena
SCRATCH_PAD = 16

#: arena base (and per-stage offset) alignment in bytes
ARENA_ALIGN = 64


def _sanitize(name: str) -> str:
    out = re.sub(r"\W", "_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


class CWriter:
    """Tiny indentation-aware source writer."""

    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.depth + line if line else "")

    def open(self, line: str) -> None:
        self.emit(line + " {")
        self.depth += 1

    def close(self, suffix: str = "") -> None:
        self.depth -= 1
        self.emit("}" + suffix)

    def __str__(self) -> str:
        return "\n".join(self.lines) + "\n"


class CodegenError(RuntimeError):
    """The plan contains a construct the C backend does not support."""


class _Namer:
    def __init__(self):
        self.used: set[str] = set()
        self.map: dict[tuple[int, str], str] = {}

    def name(self, obj: Hashable, prefix: str, base: str) -> str:
        """Unique C identifier for ``obj`` under ``prefix``."""
        key = (id(obj), prefix)
        if key in self.map:
            return self.map[key]
        candidate = prefix + _sanitize(base)
        n = candidate
        i = 1
        while n in self.used:
            n = f"{candidate}_{i}"
            i += 1
        self.used.add(n)
        self.map[key] = n
        return n


def _is_float_expr(expr: Expr) -> bool:
    """Light type inference: does the expression produce floating values?"""
    if isinstance(expr, Literal):
        return isinstance(expr.value, float)
    if isinstance(expr, Variable) or isinstance(expr, Parameter):
        return isinstance(expr, Parameter) and expr.dtype.is_float
    if isinstance(expr, Reference):
        return expr.function.dtype.is_float
    if isinstance(expr, Cast):
        return expr.dtype.is_float
    if isinstance(expr, BinOp):
        if expr.op == "/":
            return True
        if expr.op in ("//", "%"):
            return False
        return _is_float_expr(expr.left) or _is_float_expr(expr.right)
    if isinstance(expr, Select):
        return (_is_float_expr(expr.true_expr)
                or _is_float_expr(expr.false_expr))
    if isinstance(expr, Call):
        # min/max keep their operands' type; every other builtin is libm
        return expr.name not in ("min", "max") or any(
            _is_float_expr(a) for a in expr.args)
    from repro.lang.expr import UnOp
    if isinstance(expr, UnOp):
        return _is_float_expr(expr.operand)
    return False


INSTRUMENT_PRELUDE = r"""
/* instrumentation (generated with instrument=True) */
#ifdef _OPENMP
static inline double repro_now(void) { return omp_get_wtime(); }
#else
#include <time.h>
static inline double repro_now(void) {
    struct timespec repro_ts;
    clock_gettime(CLOCK_MONOTONIC, &repro_ts);
    return (double)repro_ts.tv_sec + 1e-9 * (double)repro_ts.tv_nsec;
}
#endif
"""


class CGenerator:
    """Generates the C implementation of one :class:`PipelinePlan`.

    With ``instrument=True`` the translation unit additionally carries a
    per-group wall-clock accumulator and tile counter, plus two exported
    accessors — ``<func>_stats(double*, long*)`` and
    ``<func>_stats_reset()`` — that :class:`repro.codegen.build.\
NativePipeline` reads back through ctypes.  Uninstrumented output
    contains none of this.
    """

    def __init__(self, plan: PipelinePlan, name: str = "pipeline",
                 instrument: bool = False):
        self.plan = plan
        self.func_name = "pipe_" + _sanitize(name)
        self.instrument = instrument
        self.w = CWriter()
        self.names = _Namer()
        self.params: list[Parameter] = sorted(
            plan.estimates, key=lambda p: p.name)
        self.images: list[Image] = list(plan.ir.graph.inputs)
        self.outputs: list[Stage] = list(plan.outputs)
        self._scratch_sizes: dict[Stage, tuple[int, ...]] = {}
        self._liveout_local: set[Stage] = set()
        #: active fast-path body context (set while emitting a fast nest)
        self._fast_ctx: opt.FastBody | None = None
        self._uses_arena = False

    # -- naming -------------------------------------------------------------
    def buf(self, obj) -> str:
        """C name of the full buffer backing an image, output or stage."""
        if isinstance(obj, Image):
            return self.names.name(obj, "im_", obj.name)
        if obj in set(self.outputs):
            return self.names.name(obj, "out_", obj.name)
        return self.names.name(obj, "b_", obj.name)

    def scratch(self, stage: Stage) -> str:
        return self.names.name(stage, "s_", stage.name)

    def param(self, p: Parameter) -> str:
        return self.names.name(p, "", p.name)

    # -- precision narrowing ---------------------------------------------------
    def storage_dtype(self, producer) -> DType:
        """Storage type of a stage's buffers: the narrowed type when the
        range analysis proved one safe (``plan.narrowing``), the declared
        type otherwise.  Images and outputs always keep their declared
        type (caller-visible ABI)."""
        narrowing = self.plan.narrowing
        if narrowing:
            return narrowing.get(producer, producer.dtype)
        return producer.dtype

    def _stage_ctype(self, producer) -> str:
        return self.storage_dtype(producer).c_name

    def _stage_itemsize(self, producer) -> int:
        return int(self.storage_dtype(producer).np_dtype.itemsize)

    # -- affine emission -------------------------------------------------------
    def affine_int(self, aff: AffExpr, rounding: str,
                   var_names: Mapping[Hashable, str] | None = None) -> str:
        """Emit an affine expression as an integer, flooring or ceiling.

        Rational coefficients are scaled to a common denominator and
        resolved with exact integer division helpers.
        """
        var_names = var_names or {}
        denom = lcm(aff.const.denominator,
                    *[c.denominator for _, c in aff.terms]) \
            if aff.terms or aff.const.denominator != 1 else 1
        terms = []
        const = aff.const * denom
        assert const.denominator == 1
        for sym, coeff in aff.terms:
            c = coeff * denom
            assert c.denominator == 1
            if isinstance(sym, Parameter):
                sym_name = self.param(sym)
            else:
                sym_name = var_names.get(id(sym))
                if sym_name is None:
                    raise CodegenError(
                        f"affine bound uses unbound symbol {sym!r}")
            if c == 1:
                terms.append(sym_name)
            else:
                terms.append(f"{int(c)}L*{sym_name}")
        if const != 0 or not terms:
            terms.append(f"{int(const)}L")
        body = " + ".join(terms).replace("+ -", "- ")
        if denom == 1:
            return f"({body})"
        helper = "fdiv" if rounding == "floor" else "cdiv"
        return f"{helper}({body}, {denom}L)"

    def dim_lower(self, bounds: DimBounds, var_names=None) -> str:
        """Emit ``max`` of the lower-bound expressions."""
        parts = [self.affine_int(b, "ceil", var_names) for b in bounds.lowers]
        out = parts[0]
        for p in parts[1:]:
            out = f"imax({out}, {p})"
        return out

    def dim_upper(self, bounds: DimBounds, var_names=None) -> str:
        """Emit ``min`` of the upper-bound expressions."""
        parts = [self.affine_int(b, "floor", var_names) for b in bounds.uppers]
        out = parts[0]
        for p in parts[1:]:
            out = f"imin({out}, {p})"
        return out

    # -- expressions -------------------------------------------------------------
    def expr(self, e: Expr, var_names: Mapping[int, str]) -> str:
        """Emit a value expression as C."""
        if isinstance(e, Literal):
            if isinstance(e.value, float):
                return repr(e.value)
            return str(e.value)
        if isinstance(e, Variable):
            name = var_names.get(id(e))
            if name is None:
                raise CodegenError(f"free variable {e.name!r}")
            return name
        if isinstance(e, Parameter):
            return self.param(e)
        if isinstance(e, BinOp):
            left = self.expr(e.left, var_names)
            right = self.expr(e.right, var_names)
            if e.op == "/":
                if _is_float_expr(e.left) or _is_float_expr(e.right):
                    return f"({left} / {right})"
                return f"((double)({left}) / (double)({right}))"
            if e.op == "//":
                if (self._fast_ctx is not None
                        and id(e) in self._fast_ctx.plan.reduce_divs):
                    # numerator proven >= 0 by the fast-path guard, so
                    # C's truncating division equals flooring division
                    return f"(({left}) / {right})"
                return f"fdiv({left}, {right})"
            if e.op == "%":
                if (self._fast_ctx is not None
                        and id(e) in self._fast_ctx.plan.reduce_divs):
                    return f"(({left}) % {right})"
                return f"pmod({left}, {right})"
            return f"({left} {e.op} {right})"
        from repro.lang.expr import UnOp
        if isinstance(e, UnOp):
            return f"(-{self.expr(e.operand, var_names)})"
        if isinstance(e, Cast):
            return f"(({e.dtype.c_name})({self.expr(e.operand, var_names)}))"
        if isinstance(e, Select):
            return (f"({self.cond(e.condition, var_names)} ? "
                    f"{self.expr(e.true_expr, var_names)} : "
                    f"{self.expr(e.false_expr, var_names)})")
        if isinstance(e, Call):
            args = [self.expr(a, var_names) for a in e.args]
            if e.name in ("min", "max"):
                helper = ("dmin" if e.name == "min" else "dmax") \
                    if any(_is_float_expr(a) for a in e.args) else \
                    ("imin" if e.name == "min" else "imax")
                out = args[0]
                for a in args[1:]:
                    out = f"{helper}({out}, {a})"
                return out
            c_fn = {"abs": "fabs", "atan": "atan", "pow": "pow"}.get(
                e.name, e.name)
            return f"{c_fn}({', '.join(args)})"
        if isinstance(e, Reference):
            return self.reference(e, var_names)
        raise CodegenError(f"cannot generate code for {e!r}")

    def cond(self, c: BoolExpr, var_names) -> str:
        """Emit a condition tree as a C boolean expression."""
        if isinstance(c, TrueCond):
            return "1"
        if isinstance(c, Condition):
            return (f"({self.expr(c.lhs, var_names)} {c.op} "
                    f"{self.expr(c.rhs, var_names)})")
        if isinstance(c, CondAnd):
            return (f"({self.cond(c.left, var_names)} && "
                    f"{self.cond(c.right, var_names)})")
        if isinstance(c, CondOr):
            return (f"({self.cond(c.left, var_names)} || "
                    f"{self.cond(c.right, var_names)})")
        if isinstance(c, CondNot):
            return f"(!{self.cond(c.operand, var_names)})"
        raise CodegenError(f"cannot generate condition {c!r}")

    def reference(self, ref: Reference, var_names) -> str:
        """Emit a buffer access, clamping data-dependent indices.

        Inside a fast nest (``self._fast_ctx`` set) clamps proven
        redundant by the tile-scope guard are dropped, index terms free
        of the innermost loop variable are hoisted above it, and the
        load is CSE'd into a local read exactly once per iteration.
        """
        producer = ref.function
        ctx = self._fast_ctx
        indices = []
        hoist: list[bool] | None = [] if ctx is not None else None
        forms = self.plan.ir.access_forms(ref)
        for d, arg in enumerate(ref.args):
            idx = self.expr(arg, var_names)
            if forms[d] is None and not (
                    ctx is not None
                    and (id(ref), d) in ctx.plan.drop_clamps):
                # data-dependent index: clamp to the stored extent, like
                # the interpreter backend's clipped gather
                lo, hi = self._extent_names(producer, d)
                idx = f"iclamp((long)({idx}), {lo}, {hi})"
            indices.append(idx)
            if hoist is not None:
                hoist.append(ctx.hoistable(arg))
        if producer in self._scratch_sizes:
            access = self._scratch_access(producer, indices, hoist)
        else:
            access = self._full_access(producer, indices, hoist)
        storage = self.storage_dtype(producer)
        out = ctx.load(access, storage.c_name) if ctx is not None else access
        if storage is not producer.dtype and producer.dtype.is_float:
            # Double stage stored as float: re-widen the load so consumer
            # arithmetic stays in double precision (sub-int integer loads
            # need no cast — C integer promotion already restores ``int``)
            out = f"(({producer.dtype.c_name})({out}))"
        return out

    def _extent_names(self, producer, d: int) -> tuple[str, str]:
        base = self.scratch(producer) if producer in self._scratch_sizes \
            else self.buf(producer)
        return f"{base}_lo{d}", f"{base}_hi{d}"

    def _full_access(self, producer, indices: list[str],
                     hoist: list[bool] | None = None) -> str:
        base = self.buf(producer)
        ndim = producer.ndim
        parts = []
        for d, idx in enumerate(indices):
            term = f"(({idx}) - {base}_lo{d})"
            for dd in range(d + 1, ndim):
                term += f"*{base}_n{dd}"
            parts.append(term)
        return f"{base}[{self._join_index_terms(parts, hoist)}]"

    def _scratch_access(self, producer, indices: list[str],
                        hoist: list[bool] | None = None) -> str:
        base = self.scratch(producer)
        sizes = self._scratch_sizes[producer]
        parts = []
        for d, idx in enumerate(indices):
            term = f"(({idx}) - {base}_lo{d})"
            for dd in range(d + 1, len(sizes)):
                term += f"*{sizes[dd]}"
            parts.append(term)
        return f"{base}[{self._join_index_terms(parts, hoist)}]"

    def _join_index_terms(self, terms: list[str],
                          hoist: list[bool] | None) -> str:
        """Sum the per-dim index terms, hoisting the marked ones into a
        ``const long`` row-offset local above the innermost loop."""
        ctx = self._fast_ctx
        if ctx is None or hoist is None or not any(hoist):
            return " + ".join(terms)
        hoisted = [t for t, h in zip(terms, hoist) if h]
        rest = [t for t, h in zip(terms, hoist) if not h]
        name = ctx.offset(" + ".join(hoisted))
        return " + ".join([name] + rest)

    # -- top level ----------------------------------------------------------------
    def generate(self) -> str:
        """Emit the full translation unit for the plan."""
        w = self.w
        w.emit("/* Generated by the PolyMage reproduction compiler. */")
        w.emit(PRELUDE)
        if self.instrument:
            self._emit_instrument_globals()
        arena_bytes = 0
        if self.plan.options.specialize:
            for gp in self.plan.group_plans:
                if gp.is_tiled:
                    arena_bytes = max(arena_bytes,
                                      self._arena_layout(gp)[1])
        self._uses_arena = arena_bytes > 0
        if self._uses_arena:
            self._emit_arena_globals(arena_bytes)
        self._emit_entry()
        return str(w)

    def _emit_group_bodies(self) -> None:
        """Every group of the plan, in order, with instrument timers."""
        w = self.w
        for i, gp in enumerate(self.plan.group_plans):
            w.emit()
            w.emit(f"/* group {i}: "
                   f"{', '.join(s.name for s in gp.ordered_stages)} */")
            if self.instrument:
                w.emit(f"double _g{i}_t0 = repro_now();")
            if gp.is_tiled:
                self._emit_tiled_group(gp, i)
            else:
                self._emit_untiled_group(gp)
            if self.instrument:
                # the group loop is serial at this level, so no atomics
                w.emit(f"repro_group_s[{i}] += repro_now() - _g{i}_t0;")

    def _emit_entry(self) -> None:
        """The translation unit's one entry point, ``<func>_batch``.

        Runs the pipeline over ``_nframes`` frames (a single frame is a
        batch of one) while paying the fixed per-call costs once: one
        ctypes crossing, one ``omp_set_num_threads``, one arena-set
        checkout, and one allocation of the full intermediate
        buffers.  Those are ``calloc``ed, so the first frame sees zeroes
        without a pass over them, and re-zeroed with ``memset`` before
        every later frame.  Inputs and outputs arrive as per-frame
        pointer arrays indexed ``[frame]``; parameter values are shared
        by every frame in the batch.
        """
        w = self.w
        w.emit()
        w.emit("/* entry point: fixed costs amortized over _nframes "
               "frames */")
        args = ["int _nframes", "int _nthreads"]
        args += [f"long {self.param(p)}" for p in self.params]
        for img in self.images:
            args.append(f"const {img.dtype.c_name}* const* "
                        f"{self.buf(img)}_frames")
        for out in self.outputs:
            args.append(f"{out.dtype.c_name}* const* "
                        f"{self.buf(out)}_frames")
        w.open(f"void {self.func_name}_batch({', '.join(args)})")
        w.emit("#ifdef _OPENMP")
        w.emit("if (_nthreads > 0) omp_set_num_threads(_nthreads);")
        w.emit("#endif")
        w.emit("(void)_nthreads;")
        if self._uses_arena:
            # this call's own arena set, sized for the team it may run
            w.emit("#ifdef _OPENMP")
            w.emit("repro_arena_set* _set = "
                   "repro_arena_acquire(omp_get_max_threads());")
            w.emit("#else")
            w.emit("repro_arena_set* _set = repro_arena_acquire(1);")
            w.emit("#endif")
        self._emit_buffer_geometry()
        # full intermediates: one zeroed allocation for the whole batch,
        # re-zeroed before every later frame.  calloc rather than malloc
        # + a memset per frame, so the first frame — the only frame of a
        # single-frame call — pays no zeroing pass of its own
        # (docs/internals.md §17).
        output_set = set(self.outputs)
        inter: list[tuple[str, str, str]] = []
        for stage, decision in self.plan.storage.items():
            if decision.kind == SCRATCH or stage in output_set:
                continue
            base = self.buf(stage)
            stage_ir = self.plan.ir[stage]
            size = " * ".join(f"{base}_n{d}"
                              for d in range(stage_ir.ndim))
            ctype = self._stage_ctype(stage)
            w.emit(f"{ctype}* {base} = ({ctype}*)calloc({size}, "
                   f"sizeof({ctype}));")
            inter.append((base, size, ctype))
        w.open("for (int _f = 0; _f < _nframes; _f++)")
        for img in self.images:
            base = self.buf(img)
            w.emit(f"const {img.dtype.c_name}* restrict {base} = "
                   f"{base}_frames[_f];")
        for out in self.outputs:
            base = self.buf(out)
            w.emit(f"{out.dtype.c_name}* restrict {base} = "
                   f"{base}_frames[_f];")
        for base, size, ctype in inter:
            w.emit(f"if (_f > 0) memset({base}, 0, {size} * "
                   f"sizeof({ctype}));")
        if self.plan.options.specialize:
            # caller-zeroes ABI: the Python wrapper always hands in
            # zero-filled output buffers (np.zeros or a pool lease), so
            # the defensive memset is skipped (see repro.codegen.build)
            if self.outputs:
                w.emit("/* outputs: caller provides zero-filled "
                       "buffers */")
        else:
            for out in self.outputs:
                base = self.buf(out)
                stage_ir = self.plan.ir[out]
                size = " * ".join(f"{base}_n{d}"
                                  for d in range(stage_ir.ndim))
                w.emit(f"memset({base}, 0, {size} * "
                       f"sizeof({out.dtype.c_name}));")
        self._emit_group_bodies()
        w.close()
        for base, _, _ in inter:
            w.emit(f"free({base});")
        if self._uses_arena:
            w.emit("repro_arena_putback(_set);")
        w.close()

    def _emit_instrument_globals(self) -> None:
        """Stats storage and the exported accessor / reset functions."""
        w = self.w
        n = max(1, len(self.plan.group_plans))
        w.emit(INSTRUMENT_PRELUDE)
        w.emit(f"#define REPRO_N_GROUPS {n}")
        w.emit("static double repro_group_s[REPRO_N_GROUPS];")
        w.emit("static long repro_group_tiles[REPRO_N_GROUPS];")
        w.open(f"void {self.func_name}_stats"
               "(double* seconds, long* tiles)")
        w.open("for (int _i = 0; _i < REPRO_N_GROUPS; _i++)")
        w.emit("seconds[_i] = repro_group_s[_i];")
        w.emit("tiles[_i] = repro_group_tiles[_i];")
        w.close()
        w.close()
        w.open(f"void {self.func_name}_stats_reset(void)")
        w.emit("memset(repro_group_s, 0, sizeof repro_group_s);")
        w.emit("memset(repro_group_tiles, 0, sizeof repro_group_tiles);")
        w.close()
        w.emit()

    def _emit_arena_globals(self, arena_bytes: int) -> None:
        """Persistent scratch arenas, checked out per call, plus the
        release export.

        An arena *set* is the per-OpenMP-thread slot array one call
        needs.  Idle sets wait on a list guarded by one mutex: the entry
        pops one (or allocates an empty one), grows it to the call's
        team size, and pushes it back before it returns, so concurrent
        calls never share a slot.  Each thread lazily allocates its
        slot's arena on first use and the set keeps it across calls.
        ``<func>_release()`` frees the *idle* sets only — a set held by
        a running call goes back on the list and a later release frees
        it — so it is safe at any time.  The Python wrapper exposes it;
        nothing calls it implicitly.
        """
        w = self.w
        w.emit("/* persistent scratch arenas: one set per concurrent "
               "call, one slot per thread */")
        w.emit("#include <pthread.h>")
        w.emit(f"#define REPRO_ARENA_BYTES "
               f"{max(arena_bytes, ARENA_ALIGN)}L")
        w.open("typedef struct repro_arena_set")
        w.emit("struct repro_arena_set* next;")
        w.emit("long nslots;")
        w.emit("void** slots;")
        w.close(" repro_arena_set;")
        w.emit("static pthread_mutex_t repro_arena_lock = "
               "PTHREAD_MUTEX_INITIALIZER;")
        w.emit("static repro_arena_set* repro_arena_idle = NULL;")
        w.open("static repro_arena_set* repro_arena_acquire(long n)")
        w.emit("pthread_mutex_lock(&repro_arena_lock);")
        w.emit("repro_arena_set* s = repro_arena_idle;")
        w.emit("if (s) repro_arena_idle = s->next;")
        w.emit("pthread_mutex_unlock(&repro_arena_lock);")
        w.emit("if (!s) s = (repro_arena_set*)calloc(1, sizeof *s);")
        w.open("if (n > s->nslots)")
        w.emit("void** grown = (void**)realloc(s->slots, "
               "(size_t)n * sizeof(void*));")
        w.emit("memset(grown + s->nslots, 0, "
               "(size_t)(n - s->nslots) * sizeof(void*));")
        w.emit("s->slots = grown;")
        w.emit("s->nslots = n;")
        w.close()
        w.emit("return s;")
        w.close()
        w.open("static void repro_arena_putback(repro_arena_set* s)")
        w.emit("pthread_mutex_lock(&repro_arena_lock);")
        w.emit("s->next = repro_arena_idle;")
        w.emit("repro_arena_idle = s;")
        w.emit("pthread_mutex_unlock(&repro_arena_lock);")
        w.close()
        w.open("static char* repro_arena_get(repro_arena_set* s, long tid)")
        w.emit("void* p = s->slots[tid];")
        w.open("if (!p)")
        w.emit("p = aligned_alloc(64, (size_t)REPRO_ARENA_BYTES);")
        w.emit("s->slots[tid] = p;")
        w.close()
        w.emit("return (char*)p;")
        w.close()
        w.open(f"void {self.func_name}_release(void)")
        w.emit("pthread_mutex_lock(&repro_arena_lock);")
        w.emit("repro_arena_set* s = repro_arena_idle;")
        w.emit("repro_arena_idle = NULL;")
        w.emit("pthread_mutex_unlock(&repro_arena_lock);")
        w.open("while (s)")
        w.emit("repro_arena_set* next = s->next;")
        w.emit("for (long _i = 0; _i < s->nslots; _i++) "
               "free(s->slots[_i]);")
        w.emit("free(s->slots);")
        w.emit("free(s);")
        w.emit("s = next;")
        w.close()
        w.close()
        w.emit()

    # -- geometry -------------------------------------------------------------------
    def _emit_buffer_geometry(self) -> None:
        w = self.w
        w.emit("/* buffer geometry */")
        for img in self.images:
            base = self.buf(img)
            for d, extent in enumerate(img.extents):
                aff = to_affine(extent, params_only=True)
                w.emit(f"const long {base}_n{d} = "
                       f"{self.affine_int(aff, 'floor')};")
                w.emit(f"const long {base}_lo{d} = 0;")
                w.emit(f"const long {base}_hi{d} = {base}_n{d} - 1;")
        for stage, decision in self.plan.storage.items():
            if decision.kind == SCRATCH:
                continue
            base = self.buf(stage)
            stage_ir = self.plan.ir[stage]
            for d, bounds in enumerate(stage_ir.domain.bounds):
                w.emit(f"const long {base}_lo{d} = {self.dim_lower(bounds)};")
                w.emit(f"const long {base}_hi{d} = {self.dim_upper(bounds)};")
                w.emit(f"const long {base}_n{d} = "
                       f"{base}_hi{d} - {base}_lo{d} + 1;")

    # -- untiled groups ------------------------------------------------------------
    def _emit_untiled_group(self, gp: GroupPlan) -> None:
        for stage in gp.ordered_stages:
            stage_ir = self.plan.ir[stage]
            if stage_ir.is_accumulator:
                self._emit_accumulator(stage_ir)
            elif stage_ir.is_self_referential:
                self._emit_self_referential(stage_ir)
            else:
                self._emit_stage_full(stage_ir)

    def _domain_bound_names(self, stage_ir: StageIR, prefix: str
                            ) -> list[tuple[str, str]]:
        """Declare lo/hi variables for the stage's full domain."""
        out = []
        for d, bounds in enumerate(stage_ir.domain.bounds):
            lo = f"{prefix}_lb{d}"
            hi = f"{prefix}_ub{d}"
            self.w.emit(f"long {lo} = {self.dim_lower(bounds)};")
            self.w.emit(f"long {hi} = {self.dim_upper(bounds)};")
            out.append((lo, hi))
        return out

    def _case_dim_bounds(self, stage_ir: StageIR, case,
                         region: list[tuple[str, str]]
                         ) -> list[tuple[str, str]]:
        """Region bounds clamped with the case's bound constraints."""
        dim_bounds = []
        for d, var in enumerate(stage_ir.variables):
            lo_expr, hi_expr = region[d]
            extra = case.split.bounds.get(var)
            if extra:
                lowers, uppers = extra
                for b in lowers:
                    lo_expr = f"imax({lo_expr}, " \
                              f"{self.affine_int(b, 'ceil')})"
                for b in uppers:
                    hi_expr = f"imin({hi_expr}, " \
                              f"{self.affine_int(b, 'floor')})"
            dim_bounds.append((lo_expr, hi_expr))
        return dim_bounds

    def _emit_case_loops(self, stage_ir: StageIR,
                         region: list[tuple[str, str]],
                         parallel: bool = False) -> None:
        """One loop nest per case, bounds clamped to region & case box.

        Under ``options.specialize`` each non-residual case is analysed
        (:func:`repro.codegen.opt.analyze_case`).  When the derived
        interior guard is non-trivial the nest is emitted twice — a
        clamp-free, strength-reduced fast nest behind the guard and the
        legacy safe nest in the ``else`` — and when the guard is empty
        the fast nest (hoisting/CSE/simd only, always valid) replaces
        the safe one outright.  The guard is evaluated once per tile
        from the same bound variables the loops use, so boundary tiles
        simply keep the safe clamped code.
        """
        w = self.w
        specialize = self.plan.options.specialize
        for ci, case in enumerate(stage_ir.cases):
            w.open(f"/* case {ci} of {stage_ir.name} */ ")
            var_names: dict[int, str] = {}
            for d, var in enumerate(stage_ir.variables):
                var_names[id(var)] = f"i{d}"
            dim_bounds = self._case_dim_bounds(stage_ir, case, region)
            for d, (lo_expr, hi_expr) in enumerate(dim_bounds):
                w.emit(f"long c{d}lb = {lo_expr};")
                w.emit(f"long c{d}ub = {hi_expr};")
            fast = None
            if specialize and stage_ir.variables \
                    and not case.split.residual:
                var_bounds = {id(v): (f"c{d}lb", f"c{d}ub")
                              for d, v in enumerate(stage_ir.variables)}
                fast = opt.analyze_case(self, stage_ir, case, var_bounds)
            self._emit_guarded(fast, lambda plan: self._emit_case_nest(
                stage_ir, case, var_names, parallel, plan))
            w.close()

    def _emit_guarded(self, fast: "opt.CasePlan | None", emit_nest) -> None:
        """``emit_nest(fast)`` behind the plan's runtime guard with
        ``emit_nest(None)`` (the safe nest) as the ``else``; the fast nest
        alone when the plan needs no guard, the safe one when there is
        no plan."""
        w = self.w
        if fast is not None and fast.conds:
            guard = " && ".join(f"({c})" for c in fast.conds)
            w.emit(f"const int _fastok = {guard};")
            w.open("if (_fastok)")
            emit_nest(fast)
            w.close()
            w.open("else")
            emit_nest(None)
            w.close()
        else:
            emit_nest(fast)

    def _emit_case_nest(self, stage_ir: StageIR, case, var_names,
                        parallel: bool,
                        fast: "opt.CasePlan | None") -> None:
        """Emit one loop nest for a case: safe (``fast`` None) or fast."""
        w = self.w
        loop_vars = [var_names[id(v)] for v in stage_ir.variables]
        n = len(loop_vars)
        ctx = None
        if fast is not None:
            innermost_id = id(stage_ir.variables[-1]) if n else None
            ctx = opt.FastBody(fast, innermost_id)
        # open the outer loops first so hoisted offsets see their vars
        for d in range(n - 1):
            v = loop_vars[d]
            if d == 0 and parallel:
                w.emit("#pragma omp parallel for")
            w.open(f"for (long {v} = c{d}lb; {v} <= c{d}ub; {v}++)")
        # render store/value before the innermost loop so the fast body
        # context collects its hoisted offsets and CSE'd loads
        self._fast_ctx = ctx
        try:
            store = self._store(stage_ir, var_names)
            value = self.expr(case.expression, var_names)
        finally:
            self._fast_ctx = None
        if ctx is not None:
            for line in ctx.offset_decls:
                w.emit(line)
        if n:
            d = n - 1
            v = loop_vars[d]
            if d == 0 and parallel:
                w.emit("#pragma omp parallel for")
            elif not case.split.residual:
                if opt.simd_safe(stage_ir, case):
                    # unit-stride store, no self-reads: vector pragmas
                    # are legal; the fast path asks for omp simd, the
                    # safe path keeps the weaker ivdep hint
                    if ctx is not None and self.plan.options.simd:
                        w.emit("#pragma omp simd")
                    else:
                        w.emit("#pragma GCC ivdep")
            w.open(f"for (long {v} = c{d}lb; {v} <= c{d}ub; {v}++)")
        declared = stage_ir.stage.dtype.c_name
        storage = self._stage_ctype(stage_ir.stage)
        if storage != declared:
            # narrowed store: the declared-type cast first (preserving
            # the original truncation semantics), then the proven-safe
            # narrowing conversion
            body = f"{store} = ({storage})(({declared})({value}));"
        else:
            body = f"{store} = ({declared})({value});"
        if case.split.residual:
            conds = " && ".join(self.cond(c, var_names)
                                for c in case.split.residual)
            w.emit(f"if ({conds}) {body}")
        else:
            if ctx is not None:
                for line in ctx.load_decls:
                    w.emit(line)
            w.emit(body)
        for _ in loop_vars:
            w.close()

    def _store(self, stage_ir: StageIR, var_names) -> str:
        indices = [var_names[id(v)] for v in stage_ir.variables]
        hoist = None
        if self._fast_ctx is not None and indices:
            # store indices are the loop variables themselves: every
            # dimension but the innermost is loop-invariant there
            hoist = [True] * (len(indices) - 1) + [False]
        if stage_ir.stage in self._scratch_sizes:
            return self._scratch_access(stage_ir.stage, indices, hoist)
        return self._full_access(stage_ir.stage, indices, hoist)

    def _emit_stage_full(self, stage_ir: StageIR) -> None:
        w = self.w
        w.open("")
        prefix = "d_" + _sanitize(stage_ir.name)
        region = self._domain_bound_names(stage_ir, prefix)
        self._emit_case_loops(stage_ir, region, parallel=True)
        w.close()

    def _emit_accumulator(self, stage_ir: StageIR) -> None:
        """Initialise an accumulator, then scatter over its reduction
        domain.

        Under ``options.specialize`` the scatter nest gets the case
        nests' treatment (:func:`repro.codegen.opt.analyze_scatter`):
        when every target index is proven inside the accumulator's
        extent over the whole reduction domain — checked once, before
        the nest — a nest without the per-point bounds test runs, with
        native ``/`` for proven non-negative floor divisions and
        row-invariant index terms hoisted; the guarded nest stays as the
        fallback.  Updates happen in the same order either way, so float
        sums stay bit-identical.
        """
        w = self.w
        acc = stage_ir.accumulate
        assert acc is not None
        ctype = stage_ir.stage.dtype.c_name
        dtype = stage_ir.stage.dtype
        if dtype.is_float:
            extreme_hi, extreme_lo = "INFINITY", "-INFINITY"
        else:
            import numpy as np
            info = np.iinfo(dtype.np_dtype)
            extreme_hi, extreme_lo = str(info.max), str(info.min)
        init = {
            Reduction.Sum: "0",
            Reduction.Min: f"({ctype})({extreme_hi})",
            Reduction.Max: f"({ctype})({extreme_lo})",
        }[acc.op]
        w.open("")
        # initialise over the variable domain
        var_names: dict[int, str] = {}
        for d, var in enumerate(stage_ir.variables):
            v = f"a{d}"
            var_names[id(var)] = v
            bounds = stage_ir.domain.bounds[d]
            w.open(f"for (long {v} = {self.dim_lower(bounds)}; "
                   f"{v} <= {self.dim_upper(bounds)}; {v}++)")
        w.emit(f"{self._store(stage_ir, var_names)} = {init};")
        for _ in stage_ir.variables:
            w.close()
        # reduce over the reduction domain
        red_vars = stage_ir.stage.red_variables
        red_names = {id(var): f"r{d}" for d, var in enumerate(red_vars)}
        assert stage_ir.reduction_domain is not None
        red_bounds = [(self.dim_lower(b), self.dim_upper(b))
                      for b in stage_ir.reduction_domain.bounds]
        fast = None
        if self.plan.options.specialize and red_vars:
            fast = opt.analyze_scatter(
                self, stage_ir,
                {id(v): b for v, b in zip(red_vars, red_bounds)})
        self._emit_guarded(fast, lambda plan: self._emit_scatter_nest(
            stage_ir, red_names, red_bounds, plan))
        w.close()

    def _emit_scatter_nest(self, stage_ir: StageIR, red_names,
                           red_bounds: list[tuple[str, str]],
                           fast: "opt.CasePlan | None") -> None:
        """One scatter nest: bounds-tested (``fast`` None) or proven."""
        w = self.w
        acc = stage_ir.accumulate
        stage = stage_ir.stage
        ctype = stage.dtype.c_name
        ctx = None
        if fast is not None:
            ctx = opt.FastBody(fast, id(stage.red_variables[-1]))
        # under a fast plan the innermost loop opens after the hoisted
        # offsets are known
        n_outer = len(red_bounds) - (ctx is not None)
        for d, (lo, hi) in enumerate(red_bounds[:n_outer]):
            w.open(f"for (long r{d} = {lo}; r{d} <= {hi}; r{d}++)")
        if ctx is None:
            base = self.buf(stage)
            idx_names = []
            guards = []
            for d, arg in enumerate(acc.target.args):
                iv = f"ti{d}"
                w.emit(f"long {iv} = (long)({self.expr(arg, red_names)});")
                guards.append(f"{iv} >= {base}_lo{d} && {iv} <= {base}_hi{d}")
                idx_names.append(iv)
            value = self.expr(acc.value, red_names)
            slot = self._full_access(stage, idx_names)
        else:
            self._fast_ctx = ctx
            try:
                slot = self._full_access(
                    stage,
                    [f"(long)({self.expr(arg, red_names)})"
                     for arg in acc.target.args],
                    [ctx.hoistable(arg) for arg in acc.target.args])
                value = self.expr(acc.value, red_names)
            finally:
                self._fast_ctx = None
            for line in ctx.offset_decls:
                w.emit(line)
            d = n_outer
            lo, hi = red_bounds[d]
            w.open(f"for (long r{d} = {lo}; r{d} <= {hi}; r{d}++)")
            for line in ctx.load_decls:
                w.emit(line)
        update = {
            Reduction.Sum: f"{slot} += ({ctype})({value});",
            Reduction.Min: f"{slot} = ({ctype})dmin({slot}, {value});",
            Reduction.Max: f"{slot} = ({ctype})dmax({slot}, {value});",
        }[acc.op]
        if ctx is None:
            w.emit(f"if ({' && '.join(guards)}) {update}")
        else:
            w.emit(update)
        for _ in red_bounds:
            w.close()

    def _emit_self_referential(self, stage_ir: StageIR) -> None:
        """Sequential scalar loop nest with per-point case dispatch."""
        w = self.w
        w.open("")
        var_names: dict[int, str] = {}
        for d, var in enumerate(stage_ir.variables):
            v = f"q{d}"
            var_names[id(var)] = v
            bounds = stage_ir.domain.bounds[d]
            w.open(f"for (long {v} = {self.dim_lower(bounds)}; "
                   f"{v} <= {self.dim_upper(bounds)}; {v}++)")
        for case in stage_ir.cases:
            cond = self.cond(case.condition, var_names)
            w.emit(f"if ({cond}) {self._store(stage_ir, var_names)} = "
                   f"({stage_ir.stage.dtype.c_name})"
                   f"({self.expr(case.expression, var_names)});")
        for _ in stage_ir.variables:
            w.close()
        w.close()

    # -- tiled groups -----------------------------------------------------------------
    def _scratch_size(self, stage: Stage, gp: GroupPlan) -> tuple[int, ...]:
        """Static scratchpad extents: tile size plus halo, with slack for
        rational scaling (known at code generation time, like Figure 7)."""
        transforms = gp.transforms
        assert transforms is not None
        halo = gp.group.halos[stage]
        t = transforms[stage]
        sizes = []
        for d in range(self.plan.ir[stage].ndim):
            g = t.dim_map[d]
            scale = t.scales[d]
            tau = gp.tile_sizes[g]
            width = (Fraction(tau) + halo.left[g] + halo.right[g]) / scale
            sizes.append(int(width) + 3)
        if self.plan.options.specialize and sizes:
            # pad the innermost extent so every row of the scratchpad
            # starts on a cache-line/vector-friendly boundary inside the
            # per-thread arena
            sizes[-1] = -(-sizes[-1] // SCRATCH_PAD) * SCRATCH_PAD
        return tuple(sizes)

    def _group_scratch_stages(self, gp: GroupPlan
                              ) -> tuple[list[Stage], set[Stage]]:
        """Scratch-allocated stages of a tiled group.

        Live-outs consumed inside the group also get a tile-local
        scratchpad (with halo); their owned sub-region is copied out to
        the full buffer after evaluation.
        """
        ir = self.plan.ir
        members = set(gp.ordered_stages)
        liveout_local = {s for s in gp.liveouts
                         if any(c in members
                                for c in ir.graph.consumers(s))}
        scratch = [s for s in gp.ordered_stages
                   if self.plan.storage[s].kind == SCRATCH
                   or s in liveout_local]
        return scratch, liveout_local

    def _arena_layout(self, gp: GroupPlan) -> tuple[dict[Stage, int], int]:
        """Byte offset of each scratchpad in the per-thread arena, plus
        the group's total arena footprint (offsets are 64B-aligned)."""
        offsets: dict[Stage, int] = {}
        off = 0
        scratch, _ = self._group_scratch_stages(gp)
        for stage in scratch:
            total = 1
            for s in self._scratch_size(stage, gp):
                total *= s
            nbytes = total * self._stage_itemsize(stage)
            offsets[stage] = off
            off += -(-nbytes // ARENA_ALIGN) * ARENA_ALIGN
        return offsets, off

    def _emit_tiled_group(self, gp: GroupPlan, gi: int = 0) -> None:
        w = self.w
        ir = self.plan.ir
        transforms = gp.transforms
        assert transforms is not None
        ndim = transforms.ndim
        space_lo = []
        space_hi = []
        w.open("")
        # tile space: hull of scaled live-out domains, per group dim
        for g in range(ndim):
            lo_parts, hi_parts = [], []
            for stage in gp.liveouts:
                t = transforms[stage]
                d = t.stage_dim(g)
                if d is None:
                    continue
                bounds = ir[stage].domain.bounds[d]
                scale = t.scales[d]
                lo = self.dim_lower(bounds)
                hi = self.dim_upper(bounds)
                if scale == 1:
                    lo_parts.append(lo)
                    hi_parts.append(hi)
                else:
                    n, dnm = scale.numerator, scale.denominator
                    lo_parts.append(f"fdiv({lo}*{n}L, {dnm}L)")
                    hi_parts.append(f"cdiv({hi}*{n}L, {dnm}L)")
            lo_expr = lo_parts[0]
            hi_expr = hi_parts[0]
            for p in lo_parts[1:]:
                lo_expr = f"imin({lo_expr}, {p})"
            for p in hi_parts[1:]:
                hi_expr = f"imax({hi_expr}, {p})"
            w.emit(f"long g{g}lo = {lo_expr}, g{g}hi = {hi_expr};")
            w.emit(f"long T{g}f = fdiv(g{g}lo, {gp.tile_sizes[g]}), "
                   f"T{g}l = fdiv(g{g}hi, {gp.tile_sizes[g]});")
            space_lo.append(f"g{g}lo")
            space_hi.append(f"g{g}hi")

        scratch_stages, liveout_local = self._group_scratch_stages(gp)
        for stage in scratch_stages:
            self._scratch_sizes[stage] = self._scratch_size(stage, gp)
        self._liveout_local = liveout_local

        # One parallel region: scratchpads are allocated once per thread
        # and reused by all the tiles that thread executes sequentially
        # (Section 3.6).  Under specialization they live in the
        # thread's slot of the call's arena set instead of
        # per-invocation mallocs.
        use_arena = self._uses_arena and bool(scratch_stages)
        w.emit("#pragma omp parallel")
        w.open("")
        if use_arena:
            offsets, _ = self._arena_layout(gp)
            w.emit("long _tid = 0;")
            w.emit("#ifdef _OPENMP")
            w.emit("_tid = omp_get_thread_num();")
            w.emit("#endif")
            w.emit("char* _arena = repro_arena_get(_set, _tid);")
            for stage in scratch_stages:
                ctype = self._stage_ctype(stage)
                w.emit(f"{ctype}* {self.scratch(stage)} = "
                       f"({ctype}*)(_arena + {offsets[stage]}L);")
        else:
            for stage in scratch_stages:
                sizes = self._scratch_sizes[stage]
                total = 1
                for s in sizes:
                    total *= s
                ctype = self._stage_ctype(stage)
                w.emit(f"{ctype}* {self.scratch(stage)} = "
                       f"({ctype}*)malloc({total} * sizeof({ctype}));")
        w.emit("#pragma omp for schedule(dynamic)")
        w.open(f"for (long T0 = T0f; T0 <= T0l; T0++)")
        for g in range(1, ndim):
            w.open(f"for (long T{g} = T{g}f; T{g} <= T{g}l; T{g}++)")
        for g in range(ndim):
            tau = gp.tile_sizes[g]
            w.emit(f"long t{g}lo = T{g}*{tau}, t{g}hi = t{g}lo + {tau} - 1;")
        if self.instrument:
            w.emit("#pragma omp atomic")
            w.emit(f"repro_group_tiles[{gi}]++;")

        # per-stage regions (tile scope), then evaluation, in topo order
        for stage in gp.ordered_stages:
            self._emit_tiled_stage_region(gp, ir[stage])
        for stage in gp.ordered_stages:
            self._emit_tiled_stage_body(gp, ir[stage])

        for g in range(1, ndim):
            w.close()
        w.close()  # T0
        if not use_arena:
            for stage in scratch_stages:
                w.emit(f"free({self.scratch(stage)});")
        w.close()  # omp parallel region
        w.close()
        for stage in scratch_stages:
            del self._scratch_sizes[stage]

    def _emit_tiled_stage_region(self, gp: GroupPlan,
                                 stage_ir: StageIR) -> None:
        """Declare the stage's per-tile region bounds at tile scope."""
        w = self.w
        transforms = gp.transforms
        assert transforms is not None
        stage = stage_ir.stage
        t = transforms[stage]
        halo = gp.group.halos[stage]
        base = _sanitize(stage_ir.name)
        is_scratch = stage in self._scratch_sizes
        for d in range(stage_ir.ndim):
            g = t.dim_map[d]
            scale = t.scales[d]
            l, r = halo.left[g], halo.right[g]
            # region_lo = max(dom_lo, ceil((t_lo - l) / scale))
            sn, sd = scale.numerator, scale.denominator
            ln, ld = l.numerator, l.denominator
            rn, rd = r.numerator, r.denominator
            lo_num = f"(t{g}lo*{ld}L - {ln}L)*{sd}L"
            hi_num = f"(t{g}hi*{rd}L + {rn}L)*{sd}L"
            lo = f"cdiv({lo_num}, {sn * ld}L)"
            hi = f"fdiv({hi_num}, {sn * rd}L)"
            bounds = stage_ir.domain.bounds[d]
            lo = f"imax({self.dim_lower(bounds)}, {lo})"
            hi = f"imin({self.dim_upper(bounds)}, {hi})"
            w.emit(f"long {base}_rl{d} = {lo};")
            w.emit(f"long {base}_rh{d} = {hi};")
            if is_scratch:
                sbase = self.scratch(stage)
                w.emit(f"long {sbase}_lo{d} = {base}_rl{d};")
                w.emit(f"long {sbase}_hi{d} = {base}_rh{d};")

    def _emit_tiled_stage_body(self, gp: GroupPlan,
                               stage_ir: StageIR) -> None:
        w = self.w
        transforms = gp.transforms
        assert transforms is not None
        stage = stage_ir.stage
        t = transforms[stage]
        base = _sanitize(stage_ir.name)
        is_scratch = stage in self._scratch_sizes
        region = [(f"{base}_rl{d}", f"{base}_rh{d}")
                  for d in range(stage_ir.ndim)]
        w.open(f"/* {stage_ir.name} */ ")
        if is_scratch:
            # zero-fill so points no case covers read as 0 (NumPy parity)
            narrow = (self.plan.options.specialize
                      and stage_ir.ndim >= 1
                      and len(stage_ir.cases) == 1
                      and not stage_ir.cases[0].split.residual)
            if narrow:
                # the single case fully overwrites region ∩ case-box, so
                # only the complement strips need zeroing; interior
                # tiles (region ⊆ case-box) do no memset work at all
                self._emit_narrow_memset(stage_ir, region)
            else:
                sizes = self._scratch_sizes[stage]
                total = 1
                for s in sizes:
                    total *= s
                w.emit(f"memset({self.scratch(stage)}, 0, "
                       f"{total} * sizeof({self._stage_ctype(stage)}));")
            self._emit_case_loops(stage_ir, region)
            if stage in self._liveout_local:
                # copy the owned sub-region out to the full buffer
                copy_vars: dict[int, str] = {}
                for d in range(stage_ir.ndim):
                    g = t.dim_map[d]
                    scale = t.scales[d]
                    sn, sd = scale.numerator, scale.denominator
                    olo = f"cdiv(t{g}lo*{sd}L, {sn}L)"
                    ohi = f"fdiv(t{g}hi*{sd}L, {sn}L)"
                    w.emit(f"long {base}_cl{d} = "
                           f"imax({region[d][0]}, {olo});")
                    w.emit(f"long {base}_ch{d} = "
                           f"imin({region[d][1]}, {ohi});")
                for d, var in enumerate(stage_ir.variables):
                    v = f"k{d}"
                    copy_vars[id(var)] = v
                    w.open(f"for (long {v} = {base}_cl{d}; "
                           f"{v} <= {base}_ch{d}; {v}++)")
                indices = [copy_vars[id(v)] for v in stage_ir.variables]
                w.emit(f"{self._full_access(stage, indices)} = "
                       f"{self._scratch_access(stage, indices)};")
                for _ in stage_ir.variables:
                    w.close()
        else:
            # live-out: evaluate only the owned sub-region directly into
            # the full buffer (tiles partition ownership)
            owned = []
            for d in range(stage_ir.ndim):
                g = t.dim_map[d]
                scale = t.scales[d]
                sn, sd = scale.numerator, scale.denominator
                olo = f"cdiv(t{g}lo*{sd}L, {sn}L)"
                ohi = f"fdiv(t{g}hi*{sd}L, {sn}L)"
                w.emit(f"long {base}_ol{d} = imax({region[d][0]}, {olo});")
                w.emit(f"long {base}_oh{d} = imin({region[d][1]}, {ohi});")
                owned.append((f"{base}_ol{d}", f"{base}_oh{d}"))
            self._emit_case_loops(stage_ir, owned)
        w.close()

    def _emit_narrow_memset(self, stage_ir: StageIR,
                            region: list[tuple[str, str]]) -> None:
        """Zero only ``region ∖ written-box`` of a single-case scratchpad.

        The written box ``W`` is the region clamped by the case's bound
        constraints — exactly the points the case loop overwrites.  The
        complement is decomposed into the standard disjoint strips (dim
        ``d`` outside ``W``, earlier dims inside, later dims spanning
        the region); with an empty ``W`` the dim-0 strips cover the
        whole region, and for interior tiles every strip is empty so
        the zero-fill costs nothing.
        """
        w = self.w
        stage = stage_ir.stage
        case = stage_ir.cases[0]
        base = _sanitize(stage_ir.name)
        ndim = stage_ir.ndim
        dim_bounds = self._case_dim_bounds(stage_ir, case, region)
        for d, (lo_expr, hi_expr) in enumerate(dim_bounds):
            w.emit(f"long {base}_wl{d} = {lo_expr};")
            w.emit(f"long {base}_wh{d} = {hi_expr};")
        for d in range(ndim):
            low_strip = (region[d][0],
                         f"imin({base}_wl{d} - 1, {region[d][1]})")
            high_strip = (f"imax({base}_wh{d} + 1, {region[d][0]})",
                          region[d][1])
            for lo, hi in (low_strip, high_strip):
                box = []
                for dd in range(ndim):
                    if dd < d:
                        box.append((f"{base}_wl{dd}", f"{base}_wh{dd}"))
                    elif dd == d:
                        box.append((lo, hi))
                    else:
                        box.append(region[dd])
                self._emit_zero_box(stage, box)

    def _emit_zero_box(self, stage: Stage,
                       box: list[tuple[str, str]]) -> None:
        """memset one box of the stage's scratchpad (absolute coords)."""
        w = self.w
        ndim = len(box)
        ctype = self._stage_ctype(stage)
        w.open("")
        for dd in range(ndim - 1):
            w.open(f"for (long z{dd} = {box[dd][0]}; "
                   f"z{dd} <= {box[dd][1]}; z{dd}++)")
        lo, hi = box[ndim - 1]
        w.emit(f"long _zl = {lo}, _zh = {hi};")
        indices = [f"z{dd}" for dd in range(ndim - 1)] + ["_zl"]
        access = self._scratch_access(stage, indices)
        w.emit(f"if (_zh >= _zl) memset(&{access}, 0, "
               f"(size_t)(_zh - _zl + 1) * sizeof({ctype}));")
        for _ in range(ndim - 1):
            w.close()
        w.close()


def generate_c(plan: PipelinePlan, name: str = "pipeline",
               instrument: bool = False) -> str:
    """Generate the complete C translation unit for a compiled pipeline.

    ``instrument=True`` adds per-group wall-clock timers and tile
    counters plus exported ``_stats`` / ``_stats_reset`` accessors (see
    :class:`CGenerator`)."""
    return CGenerator(plan, name, instrument=instrument).generate()
