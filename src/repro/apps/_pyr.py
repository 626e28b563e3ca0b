"""Shared pyramid building blocks for the multi-scale applications.

Conventions used by pyramid blending, multiscale interpolation and the
local Laplacian filter:

* Level ``l`` of an ``N``-sized dimension has domain ``[0, N / 2**l]``
  (one pad cell beyond the data); sizes must be divisible by ``2**levels``.
* Boundaries use *zero padding*: stages define values only on their
  interior case; points outside stay at the implicit zero.  The NumPy
  reference implementations in each app mirror this exactly.
* Downsampling uses the separable 3-tap [1, 2, 1]/4 kernel on even
  samples; upsampling averages the four nearest coarse cells, which the
  pad cell keeps in-bounds without extra cases.
"""

from __future__ import annotations

from repro.lang import Expr, Interval
from repro.lang.constructs import Variable


def level_interval(size_expr, level: int) -> Interval:
    """Domain interval ``[0, size / 2**level]`` (includes one pad cell)."""
    return Interval(0, size_expr / (2 ** level), 1)


def up2(src, x: Variable, y: Variable) -> Expr:
    """Average of the four nearest coarse cells at fine point (x, y)."""
    return (src(x // 2, y // 2) + src((x + 1) // 2, y // 2)
            + src(x // 2, (y + 1) // 2)
            + src((x + 1) // 2, (y + 1) // 2)) * 0.25


def up2_c(src, c: Variable, x: Variable, y: Variable) -> Expr:
    return (src(c, x // 2, y // 2) + src(c, (x + 1) // 2, y // 2)
            + src(c, x // 2, (y + 1) // 2)
            + src(c, (x + 1) // 2, (y + 1) // 2)) * 0.25
