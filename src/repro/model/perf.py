"""Shared machinery for the per-configuration performance models.

Every accelerator model in this package follows the same recipe, mirroring
how the paper drives Timeloop (Sec. VI-A):

1. take an attention cascade and count its operations per Einsum
   (:mod:`repro.analysis.opcount`) for one ``(batch, head)`` instance;
2. *bind* each Einsum to the 2D or 1D PE array and convert operation
   counts into busy cycles (exponentials become 6 MACCs unless the array
   has a dedicated unit);
3. model DRAM traffic from the cascade's pass structure and the
   architecture's buffer capacity;
4. combine busy cycles and traffic into latency according to the
   configuration's binding (sequential phases, fused roofline, tile-serial,
   or fully pipelined), and scale by ``B × H``;
5. price energy with the Accelergy-style table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterable, Mapping

from ..analysis.opcount import OpCounts, OpTable
from ..arch.energy import EnergyBreakdown, EnergyTable
from ..arch.spec import Architecture
from ..einsum import Cascade
from ..workloads.models import BATCH_SIZE, ModelConfig

#: Cost classes whose operations a 2D PE executes in one cycle.
_SINGLE_CYCLE = ("macc", "mul", "add", "max", "divide")


@dataclass(frozen=True)
class ArrayWork:
    """Busy-cycle totals for one PE array, with per-Einsum attribution."""

    busy_cycles: float
    per_einsum_cycles: Mapping[str, float]
    op_counts: Mapping[str, int]


def array_cycles(
    per_einsum: Mapping[str, OpCounts],
    labels: Iterable[str],
    n_pes: int,
    exp_cycles: int,
) -> ArrayWork:
    """Busy cycles to execute the given Einsums on an array of ``n_pes``.

    Assumes full spatial occupancy (the binding's job is to achieve it);
    configuration models add stall/serialization effects on top.
    """
    per_label: Dict[str, float] = {}
    totals: Dict[str, int] = {}
    for label in labels:
        counts = per_einsum[label]
        ops = 0.0
        for cls, count in counts.counts.items():
            weight = exp_cycles if cls == "exp" else 1
            ops += count * weight
            totals[cls] = totals.get(cls, 0) + count
        per_label[label] = ops / n_pes
    return ArrayWork(
        busy_cycles=sum(per_label.values()),
        per_einsum_cycles=per_label,
        op_counts=totals,
    )


@dataclass(frozen=True)
class AttentionWorkload:
    """One attention kernel instance plus its per-Einsum op counts."""

    model: ModelConfig
    seq_len: int
    batch: int
    cascade: Cascade
    shapes: Mapping[str, int]
    per_einsum: Mapping[str, OpCounts]

    @property
    def heads_total(self) -> int:
        """Number of independent (batch, head) attention instances."""
        return self.batch * self.model.n_heads

    def io_words(self) -> float:
        """DRAM words for inputs + output of one (batch, head) instance:
        Q (E·P), K (E·M), V (F·M) in; AV (F·P) out."""
        e = self.shapes["E"]
        f = self.shapes["F"]
        m = self.shapes["M"]
        p = self.shapes["P"]
        return e * p + e * m + f * m + f * p


@lru_cache(maxsize=16)
def shared_cascade(cascade_builder: Callable[[], Cascade]) -> OpTable:
    """The op-count table of ``cascade_builder()``'s cascade (its
    ``cascade``), built once per builder per process.  Every workload
    shares it read-only; the memo is keyed by the module-level builder
    function, so it holds one cascade per builder."""
    return OpTable.of(cascade_builder())


def make_workload(
    model: ModelConfig,
    seq_len: int,
    cascade_builder: Callable[[], Cascade],
    block: int,
    batch: int = BATCH_SIZE,
) -> AttentionWorkload:
    """Build an :class:`AttentionWorkload` for one model / length / cascade."""
    shapes = model.attention_shapes(seq_len, block=block)
    table = shared_cascade(cascade_builder)
    return AttentionWorkload(
        model=model,
        seq_len=seq_len,
        batch=batch,
        cascade=table.cascade,
        shapes=shapes,
        per_einsum=table.count(shapes),
    )


def compute_energy_2d(
    work: ArrayWork, table: EnergyTable
) -> float:
    """Energy (pJ) of the 2D array's operations (exp = 6 MACCs)."""
    return table.compute_energy(work.op_counts, dedicated_exp=False)


def compute_energy_1d(
    work: ArrayWork, arch: Architecture, table: EnergyTable
) -> float:
    """Energy (pJ) of the 1D array's operations."""
    return table.compute_energy(work.op_counts, dedicated_exp=arch.exp_unit_1d)


def assemble_energy(
    arch: Architecture,
    table: EnergyTable,
    dram_words: float,
    glb_words: float,
    work_2d: ArrayWork,
    work_1d: ArrayWork,
    scale: float,
) -> EnergyBreakdown:
    """Total energy for ``scale`` identical kernel instances."""
    energy = EnergyBreakdown()
    energy.add("dram", scale * dram_words * table.dram_word)
    energy.add("global_buffer", scale * glb_words * table.glb_word)
    energy.add("compute_2d", scale * compute_energy_2d(work_2d, table))
    energy.add("compute_1d", scale * compute_energy_1d(work_1d, arch, table))
    return energy


def scaled_per_einsum(
    work: ArrayWork, scale: float
) -> Dict[str, float]:
    """Per-Einsum 2D busy cycles scaled to the full batched kernel."""
    return {k: v * scale for k, v in work.per_einsum_cycles.items()}
