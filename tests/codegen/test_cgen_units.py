"""Unit tests for C generation helpers: writer, namer, affine emission,
expression emission, and the floor-division helper semantics."""

import subprocess
from fractions import Fraction

import numpy as np
import pytest

from repro import CompileOptions, compile_pipeline
from repro.apps.harris import build_pipeline
from repro.codegen.cgen import CGenerator, CWriter, _Namer, _sanitize
from repro.lang import (
    Cast, Exp, Float, Int, Max, Min, Parameter, Select, Variable,
)
from repro.poly.affine import AffExpr


def test_sanitize():
    assert _sanitize("harris") == "harris"
    assert _sanitize("foo-bar baz") == "foo_bar_baz"
    assert _sanitize("1abc") == "_1abc"
    assert _sanitize("") == "_"


def test_writer_indentation():
    w = CWriter()
    w.open("if (x)")
    w.emit("y = 1;")
    w.close()
    assert str(w) == "if (x) {\n    y = 1;\n}\n"


def test_namer_unique_per_prefix():
    n = _Namer()
    obj = object()
    assert n.name(obj, "s_", "f") == "s_f"
    assert n.name(obj, "b_", "f") == "b_f"
    assert n.name(obj, "s_", "f") == "s_f"  # cached
    other = object()
    assert n.name(other, "s_", "f") == "s_f_1"  # collision resolved


def _generator():
    app = build_pipeline()
    est = {app.params["R"]: 64, app.params["C"]: 64}
    plan = compile_pipeline(app.outputs, est).plan
    return CGenerator(plan), app


def test_affine_int_integral():
    gen, app = _generator()
    R = app.params["R"]
    aff = AffExpr.symbol(R, 2).shift(-1)
    assert gen.affine_int(aff, "floor") == "(2L*R - 1L)"


def test_affine_int_rational_floor_and_ceil():
    gen, app = _generator()
    R = app.params["R"]
    aff = AffExpr.symbol(R, Fraction(1, 2)).shift(Fraction(3, 4))
    assert gen.affine_int(aff, "floor") == "fdiv(2L*R + 3L, 4L)"
    assert gen.affine_int(aff, "ceil") == "cdiv(2L*R + 3L, 4L)"


def test_affine_int_constant():
    gen, _ = _generator()
    assert gen.affine_int(AffExpr.constant(7), "floor") == "(7L)"
    assert gen.affine_int(AffExpr(), "floor") == "(0L)"


def test_expr_emission_operators():
    gen, _ = _generator()
    x = Variable("x")
    names = {id(x): "i0"}
    assert gen.expr(x + 1, names) == "(i0 + 1)"
    assert gen.expr(x // 2, names) == "fdiv(i0, 2)"
    assert gen.expr(x % 3, names) == "pmod(i0, 3)"
    assert gen.expr(-x, names) == "(-i0)"


def test_expr_emission_division_types():
    gen, _ = _generator()
    x = Variable("x")
    names = {id(x): "i0"}
    # int / int must become floating division, like the DSL semantics
    assert "double" in gen.expr(x / 2, names)
    # float / float stays direct
    assert gen.expr((x * 1.0) / 2.0, names).count("double") == 0
    # min/max of ints are ints: their quotient is floating too
    assert gen.expr(Min(x, 3) / 2, names) == \
        "((double)(imin(i0, 3)) / (double)(2))"
    assert gen.expr(Min(x * 1.0, 3) / 2, names) == "(dmin((i0 * 1.0), 3) / 2)"


def test_expr_emission_calls_and_select():
    gen, _ = _generator()
    x = Variable("x")
    names = {id(x): "i0"}
    assert gen.expr(Exp(x * 1.0), names) == "exp((i0 * 1.0))"
    assert gen.expr(Min(x, 3), names) == "imin(i0, 3)"
    assert gen.expr(Min(x * 1.0, 3.0), names) == "dmin((i0 * 1.0), 3.0)"
    sel = gen.expr(Select(x > 0, 1.0, 0.0), names)
    assert sel == "((i0 > 0) ? 1.0 : 0.0)"
    assert gen.expr(Cast(Float, x), names) == "((float)(i0))"


def test_fdiv_pmod_match_python_semantics(tmp_path):
    """The emitted helpers must floor like Python, not truncate like C."""
    from repro.codegen.build import find_compiler
    cc = find_compiler()
    if cc is None:
        pytest.skip("no C compiler")
    src = tmp_path / "helpers.c"
    src.write_text(r"""
#include <stdio.h>
static inline long fdiv(long a, long b) {
    long q = a / b, r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}
static inline long cdiv(long a, long b) { return -fdiv(-a, b); }
static inline long pmod(long a, long b) {
    long r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}
int main() {
    for (long a = -7; a <= 7; a++)
        for (long b = 1; b <= 4; b++)
            printf("%ld %ld %ld\n", fdiv(a, b), cdiv(a, b), pmod(a, b));
    return 0;
}
""")
    exe = tmp_path / "helpers"
    subprocess.run([cc, str(src), "-o", str(exe)], check=True)
    lines = subprocess.run([str(exe)], capture_output=True,
                           text=True).stdout.splitlines()
    i = 0
    for a in range(-7, 8):
        for b in range(1, 5):
            f, c, m = map(int, lines[i].split())
            assert f == a // b, (a, b)
            assert c == -((-a) // b), (a, b)
            assert m == a % b, (a, b)
            i += 1
