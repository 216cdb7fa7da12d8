"""The FuseMax models: +Cascade, +Architecture, +Binding (Sec. V / VI-A).

The three configurations isolate the sources of FuseMax's improvement:

- **+Cascade** — the 1-pass cascade (Cascade 5) on the FLAT architecture.
  The softmax (and the running-max corrections) still run entirely on the
  1D array, so the extra compute of the 1-pass cascade makes it *slower*
  than FLAT at short sequences; the benefit is that on-chip footprint and
  DRAM traffic become independent of sequence length.
- **+Architecture** — adds the FuseMax hardware (Fig. 3c): 2D PEs gain
  ``max`` and a register file so the exponentials and the partial
  reductions move onto the 2D array (6-MACC exps, drain-time reductions).
  The binding, however, fully produces and consumes one M0 × P0 tile of
  BQK before starting the next, so fills/drains and the 2D↔1D handoff
  serialize and both arrays stall.
- **+Binding** — adds the two-level interleaved binding of Fig. 4/5
  (software-pipelined epochs; BQK|SLNV interleaved cycle-by-cycle on the
  2D array, SPNV|RNV on the 1D array), hiding all fills and drains.  This
  is the full FuseMax design: latency is the maximum of the two arrays'
  busy time and the (input-only) DRAM streaming time.
"""

from __future__ import annotations

from ..arch.energy import DEFAULT_ENERGY, EnergyTable
from ..arch.spec import EXP_AS_MACCS, Architecture, flat_arch, fusemax_arch
from ..cascades.attention import attention_1pass
from ..workloads.models import BATCH_SIZE, ModelConfig
from .metrics import AttentionResult
from .perf import (
    array_cycles,
    assemble_energy,
    make_workload,
    scaled_per_einsum,
)

#: Fusion tile (M0) used when running the 1-pass cascade on the FLAT
#: architecture, matching FLAT's row-granular dataflow.
FLAT_ARCH_BLOCK = 64

#: Per-tile fill/drain overhead (in units of the array dimension) for the
#: tile-serial +Architecture binding: one array fill plus the BQK and SLNV
#: drains, none of them overlapped with compute.
_SERIAL_OVERHEAD_DIMS = 3

#: Einsum → array binding when softmax work shares the 2D array.
_FUSED_2D = ("BQK", "LM", "SLN", "SLD", "SLNV")
_FUSED_1D = ("RM", "PRM", "SPD", "RD", "SPNV", "RNV", "AV")

#: Einsum → array binding on the FLAT architecture (2D: tensor products
#: only; everything else on the 1D array).
_FLATARCH_2D = ("BQK", "SLNV")
_FLATARCH_1D = ("LM", "RM", "SLN", "SLD", "PRM", "SPD", "RD", "SPNV", "RNV", "AV")


class FuseMaxModel:
    """One of the three staged FuseMax configurations."""

    def __init__(
        self,
        stage: str,
        arch: Architecture = None,
        energy_table: EnergyTable = DEFAULT_ENERGY,
    ) -> None:
        if stage not in ("cascade", "architecture", "binding"):
            raise ValueError(f"unknown FuseMax stage {stage!r}")
        self.stage = stage
        if arch is None:
            arch = flat_arch() if stage == "cascade" else fusemax_arch()
        self.arch = arch
        self.energy_table = energy_table

    @property
    def name(self) -> str:
        return {
            "cascade": "+Cascade",
            "architecture": "+Architecture",
            "binding": "+Binding",
        }[self.stage]

    def _block(self) -> int:
        if self.stage == "cascade":
            return FLAT_ARCH_BLOCK
        return self.arch.array_dim

    def evaluate(
        self, model: ModelConfig, seq_len: int, batch: int = BATCH_SIZE
    ) -> AttentionResult:
        arch = self.arch
        workload = make_workload(
            model, seq_len, attention_1pass, block=self._block(), batch=batch
        )
        if self.stage == "cascade":
            labels_2d, labels_1d = _FLATARCH_2D, _FLATARCH_1D
        else:
            labels_2d, labels_1d = _FUSED_2D, _FUSED_1D
        # The 2D array never has a dedicated exp unit: 6 sequential MACCs.
        work_2d = array_cycles(workload.per_einsum, labels_2d, arch.pe_2d,
                               exp_cycles=EXP_AS_MACCS)
        work_1d = array_cycles(workload.per_einsum, labels_1d, arch.pe_1d,
                               exp_cycles=arch.exp_cycles_1d())
        # The 1-pass cascade streams K/V once: DRAM traffic is inputs +
        # output only, independent of sequence length (no spills, ever).
        dram_words = workload.io_words()
        traffic_cycles = dram_words * arch.word_bytes / arch.dram_bytes_per_cycle
        shapes = workload.shapes
        m, p = shapes["M"], shapes["P"]

        if self.stage == "binding":
            fill = 4 * arch.array_dim  # pipeline warm-up, amortized once
            instance_latency = max(
                work_2d.busy_cycles, work_1d.busy_cycles, traffic_cycles
            ) + fill
        elif self.stage == "architecture":
            n_tiles = (m // self._block()) * max(1, p // arch.array_dim)
            per_tile_2d = work_2d.busy_cycles / n_tiles
            per_tile_1d = work_1d.busy_cycles / n_tiles
            overhead = _SERIAL_OVERHEAD_DIMS * arch.array_dim
            instance_latency = max(
                n_tiles * (per_tile_2d + per_tile_1d + overhead),
                traffic_cycles,
            )
        else:  # cascade (on the FLAT architecture, fused roofline)
            instance_latency = max(
                work_2d.busy_cycles, work_1d.busy_cycles, traffic_cycles
            )

        scale = workload.heads_total
        if self.stage == "cascade":
            # Tiles shuttle between the arrays through the global buffer.
            glb_words = 2 * workload.io_words() + 4 * m * p
        else:
            # Direct 2D→1D links and per-PE register files: only the
            # input/output streams touch the global buffer.
            glb_words = 2 * workload.io_words()
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
            dram_bytes=dram_words * arch.word_bytes * scale,
            glb_words=glb_words * scale,
            energy=energy,
            per_einsum_2d_cycles=scaled_per_einsum(work_2d, scale),
        )


def plus_cascade(**kwargs) -> FuseMaxModel:
    """The 1-pass cascade on the FLAT architecture."""
    return FuseMaxModel("cascade", **kwargs)


def plus_architecture(**kwargs) -> FuseMaxModel:
    """+Cascade plus the FuseMax hardware, with the tile-serial binding."""
    return FuseMaxModel("architecture", **kwargs)


def fusemax(**kwargs) -> FuseMaxModel:
    """The full FuseMax design (+Cascade, +Architecture, +Binding)."""
    return FuseMaxModel("binding", **kwargs)
