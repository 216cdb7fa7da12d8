"""The FLAT baseline model (Kao et al., corrected per the paper's Sec. VI-A).

FLAT fuses QK → softmax → AV on the spatial architecture: the 2D array
computes the tensor products while the 1D array (256 PEs, with a dedicated
exponentiation unit per the original FLAT model) executes the 3-pass
softmax.  Because the cascade is 3-pass, the softmax input's algorithmic
minimum live footprint is a full M fiber per query (Sec. III-B / IV-E1):

- While ``M × P_t`` scores fit on chip (softmax applied in place), FLAT
  only re-streams K and V once per P-tile.
- When the sequence grows, FLAT either shrinks the P-tile (multiplying the
  K/V re-streaming traffic) or spills the QK and softmax-numerator tensors
  to DRAM.  A spilled fiber costs 5 accesses per score: QK is written once
  and re-read by the max pass and the exponentiation pass (the 1D softmax
  unit is decoupled from QK's production), and the numerator is written and
  re-read by the division pass.  The model picks whichever strategy is
  cheaper, which flips the kernel to memory-bound at L ≥ 256K — the
  utilization collapse of Fig. 6a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..arch.energy import DEFAULT_ENERGY, EnergyTable
from ..arch.spec import Architecture, flat_arch
from ..cascades.attention import attention_3pass
from ..workloads.models import BATCH_SIZE, ModelConfig
from .metrics import AttentionResult
from .perf import (
    array_cycles,
    assemble_energy,
    make_workload,
    scaled_per_einsum,
)

_LABELS_2D = ("QK", "AV")
_LABELS_1D = ("GM", "SN", "SD", "A")

#: Fraction of the global buffer usable for the score fibers (the rest is
#: double-buffering and input staging).
_GLB_USABLE_FRACTION = 0.5


@dataclass(frozen=True)
class SpillDecision:
    """How FLAT handles score fibers that exceed on-chip capacity."""

    extra_dram_words: float
    strategy: str  # "resident", "retile", or "spill"


def spill_decision(
    arch: Architecture, e: int, f: int, m: int, p: int
) -> SpillDecision:
    """Choose FLAT's cheapest traffic strategy for one (batch, head)."""
    word = arch.word_bytes
    usable = arch.global_buffer_bytes * _GLB_USABLE_FRACTION
    if m * p * word <= usable:
        return SpillDecision(0.0, "resident")
    p_tile = int(usable // (m * word))
    retile_words = math.inf
    if p_tile >= 1:
        n_tiles = math.ceil(p / p_tile)
        retile_words = (n_tiles - 1) * (e * m + f * m)  # K, V re-streams
    # QK: write + 2 reads (max pass, exp pass); numerator: write + read.
    spill_words = 5.0 * m * p
    if retile_words <= spill_words:
        return SpillDecision(retile_words, "retile")
    return SpillDecision(spill_words, "spill")


class FLATModel:
    """Fused 3-pass attention with the softmax on the 1D array."""

    name = "FLAT"

    def __init__(
        self,
        arch: Architecture = None,
        energy_table: EnergyTable = DEFAULT_ENERGY,
    ) -> None:
        self.arch = arch if arch is not None else flat_arch()
        self.energy_table = energy_table

    def evaluate(
        self, model: ModelConfig, seq_len: int, batch: int = BATCH_SIZE
    ) -> AttentionResult:
        arch = self.arch
        workload = make_workload(model, seq_len, attention_3pass, block=256,
                                 batch=batch)
        shapes = workload.shapes
        e, f = shapes["E"], shapes["F"]
        m, p = shapes["M"], shapes["P"]
        word, bw = arch.word_bytes, arch.dram_bytes_per_cycle

        work_2d = array_cycles(workload.per_einsum, _LABELS_2D, arch.pe_2d,
                               exp_cycles=1)
        work_1d = array_cycles(workload.per_einsum, _LABELS_1D, arch.pe_1d,
                               exp_cycles=arch.exp_cycles_1d())

        decision = spill_decision(arch, e, f, m, p)
        dram_words = workload.io_words() + decision.extra_dram_words
        instance_latency = max(
            work_2d.busy_cycles,
            work_1d.busy_cycles,
            dram_words * word / bw,
        )

        scale = workload.heads_total
        glb_words = 2 * workload.io_words() + 4 * m * p  # score round trips
        energy = assemble_energy(
            arch, self.energy_table, dram_words, glb_words, work_2d, work_1d,
            scale,
        )
        return AttentionResult(
            config=self.name,
            model=model.name,
            seq_len=seq_len,
            latency_cycles=instance_latency * scale,
            busy_2d_cycles=work_2d.busy_cycles * scale,
            busy_1d_cycles=work_1d.busy_cycles * scale,
            dram_bytes=dram_words * word * scale,
            glb_words=glb_words * scale,
            energy=energy,
            per_einsum_2d_cycles=scaled_per_einsum(work_2d, scale),
        )
