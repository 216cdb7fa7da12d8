"""The unfused baseline accelerator model (Sec. VI-A).

Three sequential phases — QK, the 3-pass softmax, AV — each scheduled
independently with outputs written to memory between phases:

- QK and AV run on the 2D array with Timeloop-style efficient mappings;
  both are memory-bound at these shapes (64-128 MACCs per 2-byte output
  word is far below the machine's compute:bandwidth balance point).
- The softmax runs on the 1D array, loading M fibers of its input on chip
  one by one (a fiber always fits the global buffer at the evaluated
  lengths, so the three softmax passes stay on chip, but the phase still
  reads QK from and writes A to DRAM).
"""

from __future__ import annotations

from ..arch.energy import DEFAULT_ENERGY, EnergyTable
from ..arch.spec import Architecture, unfused_arch
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


class UnfusedModel:
    """Phase-serial attention on a FLAT-style architecture."""

    name = "Unfused"

    def __init__(
        self,
        arch: Architecture = None,
        energy_table: EnergyTable = DEFAULT_ENERGY,
    ) -> None:
        self.arch = arch if arch is not None else unfused_arch()
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
                               exp_cycles=arch.exp_cycles_1d())
        work_1d = array_cycles(workload.per_einsum, _LABELS_1D, arch.pe_1d,
                               exp_cycles=arch.exp_cycles_1d())

        # Phase traffic (bytes, per (batch, head) instance): each phase
        # reads its operands from and writes its result to DRAM.
        phase_qk_bytes = (e * m + e * p + m * p) * word
        phase_sm_bytes = (2 * m * p) * word
        phase_av_bytes = (m * p + f * m + f * p) * word
        phase_qk = max(work_2d.per_einsum_cycles["QK"], phase_qk_bytes / bw)
        phase_sm = max(work_1d.busy_cycles, phase_sm_bytes / bw)
        phase_av = max(work_2d.per_einsum_cycles["AV"], phase_av_bytes / bw)
        instance_latency = phase_qk + phase_sm + phase_av

        scale = workload.heads_total
        io_words = workload.io_words()
        dram_words = io_words + 4 * m * p  # + QK write/read, A write/read
        glb_words = 2 * io_words + 6 * m * p  # QK, SN (in place), A round trips
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
