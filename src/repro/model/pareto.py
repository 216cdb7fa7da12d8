"""Design-space sweep for Fig. 12: area vs attention latency.

Varies the PE-array dimension between 16×16 and 512×512 (global and per-PE
buffers scaled with the pipelined/interleaved binding, per Sec. VI-D) and
reports the area/latency frontier of the FuseMax design at sequence length
256K for each model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..arch.area import area_of
from ..arch.spec import fusemax_arch
from ..workloads.models import ARRAY_DIMS, BATCH_SIZE, PARETO_SEQ_LEN, ModelConfig
from .fusemax import fusemax


@dataclass(frozen=True)
class DesignPoint:
    """One accelerator design point of the Fig. 12 sweep."""

    model: str
    array_dim: int
    area_cm2: float
    latency_seconds: float


def _scaled_arch(dim: int):
    """A FuseMax architecture scaled to ``dim`` × ``dim`` PEs.

    The global buffer scales with the array edge (it holds the pipelined
    binding's in-flight tiles, whose footprint is O(dim²) elements but
    measured against a 256-baseline 16 MB).
    """
    base = fusemax_arch()
    glb = int(base.global_buffer_bytes * (dim / base.array_dim) ** 2)
    glb = max(glb, 2**20)  # at least 1 MB of staging
    return fusemax_arch(array_dim=dim, global_buffer_bytes=glb).__class__(
        name=f"fusemax-{dim}x{dim}",
        array_dim=dim,
        global_buffer_bytes=glb,
        exp_unit_1d=False,
        fused_2d_softmax=True,
        rf_entries_2d=10,
    )


def design_point(
    model: ModelConfig,
    dim: int,
    seq_len: int = PARETO_SEQ_LEN,
    batch: int = BATCH_SIZE,
) -> DesignPoint:
    """Evaluate one ``dim`` × ``dim`` FuseMax design for one model."""
    arch = _scaled_arch(dim)
    result = fusemax(arch=arch).evaluate(model, seq_len, batch)
    return DesignPoint(
        model=model.name,
        array_dim=dim,
        area_cm2=area_of(arch).total_cm2,
        latency_seconds=arch.seconds(result.latency_cycles),
    )


def sweep(
    model: ModelConfig,
    seq_len: int = PARETO_SEQ_LEN,
    dims: Sequence[int] = ARRAY_DIMS,
    batch: int = BATCH_SIZE,
) -> List[DesignPoint]:
    """Evaluate the FuseMax design across PE-array sizes for one model."""
    return [design_point(model, dim, seq_len, batch) for dim in dims]


def pareto_frontier(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """The non-dominated (area, latency) subset, sorted by area."""
    ordered = sorted(points, key=lambda pt: (pt.area_cm2, pt.latency_seconds))
    frontier: List[DesignPoint] = []
    best_latency = float("inf")
    for point in ordered:
        if point.latency_seconds < best_latency:
            frontier.append(point)
            best_latency = point.latency_seconds
    return frontier
