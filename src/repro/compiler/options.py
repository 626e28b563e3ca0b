"""Compilation options: the small parameter space the autotuner explores.

The model-driven approach collapses the schedule space to tile sizes and
an overlap threshold (paper Section 3.8): seven tile sizes per dimension
(8..512) and three thresholds (0.2, 0.4, 0.5).  The remaining switches
select the paper's evaluation variants — ``base`` (inline only) versus
``opt`` (grouping + tiling + storage), matching Figure 10's
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Sequence

#: tile sizes explored by the autotuner (paper Section 3.8)
TILE_SIZE_CHOICES = (8, 16, 32, 64, 128, 256, 512)

#: overlap thresholds explored by the autotuner
OVERLAP_THRESHOLD_CHOICES = (0.2, 0.4, 0.5)


@dataclass(frozen=True)
class CompileOptions:
    """Everything that shapes the generated implementation."""

    #: tile size per group dimension (cycled when a group has more dims);
    #: the paper's Figure 7 uses (32, 256) for Harris.
    tile_sizes: tuple[int, ...] = (32, 256)
    #: Algorithm 1's redundant-computation bound
    overlap_threshold: float = 0.4
    #: fold point-wise stages into consumers
    inline: bool = True
    #: run Algorithm 1; False keeps every stage in its own group
    group: bool = True
    #: overlapped-tile execution; False scans full domains stage by stage
    tile: bool = True
    #: use the tight per-level tile shapes of Section 3.4; False falls back
    #: to the uniform dependence-cone over-approximation (Figure 6's naive
    #: construction) — an ablation knob, measurably more redundant
    tight_overlap: bool = True
    #: fast-path codegen: interior/boundary specialization of generated
    #: loop nests (clamp elimination, floor-div strength reduction, load
    #: CSE, hoisted index arithmetic) plus persistent per-thread scratch
    #: arenas; False reproduces the legacy always-safe code
    specialize: bool = True
    #: emit ``#pragma omp simd`` on provably unit-stride, alias-free
    #: innermost fast-path loops (requires ``specialize``)
    simd: bool = True
    #: interval-driven precision narrowing: store intermediates in the
    #: narrowest C type their statically proven value range fits (see
    #: :mod:`repro.analysis.ranges`); off reproduces today's output
    #: byte for byte
    narrow: bool = False

    def __post_init__(self):
        if not self.tile_sizes:
            raise ValueError("at least one tile size is required")
        if any(t < 1 for t in self.tile_sizes):
            raise ValueError("tile sizes must be positive")
        if not 0 < self.overlap_threshold:
            raise ValueError("overlap threshold must be positive")
        if self.simd and not isinstance(self.simd, bool):
            raise ValueError("simd must be a bool")
        if self.specialize and not isinstance(self.specialize, bool):
            raise ValueError("specialize must be a bool")

    def tile_size(self, dim: int) -> int:
        return self.tile_sizes[dim % len(self.tile_sizes)]

    # -- paper evaluation variants ---------------------------------------
    @staticmethod
    def base() -> "CompileOptions":
        """PolyMage (base): scalar optimizations + inlining only."""
        return CompileOptions(inline=True, group=False, tile=False)

    @staticmethod
    def optimized(tile_sizes: Sequence[int] = (32, 256),
                  overlap_threshold: float = 0.4) -> "CompileOptions":
        """PolyMage (opt): grouping, overlapped tiling, storage mapping."""
        return CompileOptions(tile_sizes=tuple(tile_sizes),
                              overlap_threshold=overlap_threshold)

    def with_threshold(self, threshold: float) -> "CompileOptions":
        return replace(self, overlap_threshold=threshold)

    def with_specialize(self, specialize: bool,
                        simd: bool | None = None) -> "CompileOptions":
        return replace(self, specialize=specialize,
                       simd=self.simd if simd is None else simd)

    def with_narrow(self, narrow: bool) -> "CompileOptions":
        return replace(self, narrow=narrow)

    # -- serialization (schedule store) ----------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form, round-tripped by :meth:`from_dict` (used by
        the persistent schedule store)."""
        from dataclasses import asdict
        doc = asdict(self)
        doc["tile_sizes"] = list(self.tile_sizes)
        return doc

    @classmethod
    def from_dict(cls, doc) -> "CompileOptions":
        doc = dict(doc)
        doc["tile_sizes"] = tuple(doc.get("tile_sizes", (32, 256)))
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in known})
