"""A generic fused-cascade evaluator: cascade + binding + buffer → roofline.

The per-configuration models in this package encode each design's traffic
behaviour explicitly (FLAT's spill strategies, the unfused baseline's
phase structure).  This module provides the *generic* engine those models
are instances of:

1. op counts per Einsum from :mod:`repro.analysis.opcount`;
2. busy cycles per array from a :class:`repro.mapping.Binding`;
3. DRAM traffic from the cascade's algorithmic floor
   (:mod:`repro.analysis.traffic`) under the architecture's buffer;
4. roofline latency = max(2D busy, 1D busy, traffic / bandwidth).

It is useful for evaluating *new* cascades (e.g. the extension variants)
on the modeled architectures without writing a bespoke model, and it
cross-checks the bespoke models where they overlap (FuseMax's +Binding is
exactly this engine on Cascade 5 with the fused binding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..analysis.opcount import count_ops
from ..analysis.passes import PassAnalysis, RankFamily, count_passes
from ..analysis.traffic import traffic_lower_bound
from ..arch.spec import Architecture
from ..einsum.cascade import Cascade
from ..mapping.binding import Binding, validate_binding
from .perf import array_cycles


@dataclass(frozen=True)
class GenericEvaluation:
    """Roofline evaluation of one fused cascade instance."""

    cascade_name: str
    latency_cycles: float
    busy_2d_cycles: float
    busy_1d_cycles: float
    dram_words: float
    buffered: bool

    @property
    def util_2d(self) -> float:
        return min(1.0, self.busy_2d_cycles / self.latency_cycles)

    @property
    def util_1d(self) -> float:
        return min(1.0, self.busy_1d_cycles / self.latency_cycles)


def evaluate_cascade(
    cascade: Cascade,
    binding: Binding,
    rank_family: RankFamily,
    arch: Architecture,
    shapes: Mapping[str, int],
    analysis: Optional[PassAnalysis] = None,
) -> GenericEvaluation:
    """Evaluate one instance of ``cascade`` bound by ``binding``.

    Fully pipelined (the +Binding discipline): latency is the maximum of
    the two arrays' busy time and the streaming time of the cascade's
    DRAM-traffic floor under the architecture's global buffer.
    """
    validate_binding(binding, cascade, arch)
    per_einsum = count_ops(cascade, shapes)
    work_2d = array_cycles(per_einsum, binding.on_array("2d"), arch.pe_2d,
                           exp_cycles=6)
    work_1d = array_cycles(per_einsum, binding.on_array("1d"), arch.pe_1d,
                           exp_cycles=arch.exp_cycles_1d())
    if analysis is None:
        analysis = count_passes(cascade, rank_family)
    traffic = traffic_lower_bound(
        analysis, shapes, arch.global_buffer_bytes, arch.word_bytes
    )
    traffic_cycles = (
        traffic.total_words() * arch.word_bytes / arch.dram_bytes_per_cycle
    )
    latency = max(work_2d.busy_cycles, work_1d.busy_cycles, traffic_cycles)
    return GenericEvaluation(
        cascade_name=cascade.name,
        latency_cycles=latency,
        busy_2d_cycles=work_2d.busy_cycles,
        busy_1d_cycles=work_1d.busy_cycles,
        dram_words=traffic.total_words(),
        buffered=traffic.buffered,
    )
