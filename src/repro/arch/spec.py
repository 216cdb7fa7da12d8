"""Spatial-architecture specification (paper Fig. 2 and Sec. VI-A).

The modeled machine is a TPUv2/v3-style spatial accelerator: off-chip DRAM
feeding a large on-chip global buffer, which feeds a 2D PE array (tensor
products) and a 1D PE array (vector operations).  The paper's *cloud*
configuration: 256×256 2D PEs, 256 1D PEs, 16 MB global buffer, 400 GB/s
DRAM bandwidth, 940 MHz clock.

Two PE-capability details distinguish the designs being compared:

- the FLAT-style architecture keeps a dedicated single-cycle exponentiation
  unit in its 1D 'softmax' PEs (as in the original FLAT model) and
  plain multiply-accumulate 2D PEs;
- the FuseMax architecture extends the 2D PEs with ``max`` support and a
  10-entry register file (Fig. 3c) so exponentials run on the 2D array as
  6 sequential MACCs, and drops the dedicated exp unit everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Cycles per exponentiation when implemented as sequential MACCs
#: (Taylor-series evaluation; Nilsson et al., paper Sec. V).
EXP_AS_MACCS = 6


@dataclass(frozen=True)
class Architecture:
    """One spatial accelerator configuration.

    Attributes:
        name: Identifier used in reports.
        array_dim: Side length of the square 2D PE array (also the number
            of 1D PEs, matching the TPU-style design where the 1D array
            spans one edge of the 2D array).
        global_buffer_bytes: On-chip shared buffer capacity.
        dram_gbps: Off-chip bandwidth in GB/s.
        frequency_ghz: Clock frequency.
        word_bytes: Datapath word size (2 = fp16/bf16-style).
        exp_unit_1d: True when the 1D PEs have a dedicated single-cycle
            exponentiation unit (FLAT-style); otherwise exponentiation
            costs :data:`EXP_AS_MACCS` cycles.
        fused_2d_softmax: True when the 2D PEs support ``max`` and hold a
            register file, allowing softmax work to run on the 2D array
            (the FuseMax PE of Fig. 3c).
        rf_entries_2d: Register-file entries per 2D PE (FuseMax PE: 10).
    """

    name: str
    array_dim: int = 256
    global_buffer_bytes: int = 16 * 2**20
    dram_gbps: float = 400.0
    frequency_ghz: float = 0.94
    word_bytes: int = 2
    exp_unit_1d: bool = False
    fused_2d_softmax: bool = False
    rf_entries_2d: int = 0

    @property
    def pe_2d(self) -> int:
        """Number of PEs in the 2D array."""
        return self.array_dim * self.array_dim

    @property
    def pe_1d(self) -> int:
        """Number of PEs in the 1D array."""
        return self.array_dim

    @property
    def dram_bytes_per_cycle(self) -> float:
        """DRAM bandwidth expressed in bytes per core cycle."""
        return self.dram_gbps / self.frequency_ghz

    def exp_cycles_1d(self) -> int:
        """Cycles one 1D PE spends per exponentiation."""
        return 1 if self.exp_unit_1d else EXP_AS_MACCS

    def with_array_dim(self, dim: int) -> "Architecture":
        """A copy scaled to a different PE-array dimension (Fig. 12)."""
        return replace(self, name=f"{self.name}-{dim}x{dim}", array_dim=dim)

    def seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds at this clock."""
        return cycles / (self.frequency_ghz * 1e9)


def flat_arch(**overrides) -> Architecture:
    """The FLAT baseline architecture (cloud configuration).

    Plain multiply-accumulate 2D PEs; 1D PEs with (+, ×, max, ÷) and a
    dedicated exponentiation unit, per the original FLAT model.
    """
    return Architecture(
        name="flat-cloud", exp_unit_1d=True, fused_2d_softmax=False, **overrides
    )


def fusemax_arch(**overrides) -> Architecture:
    """The FuseMax architecture (paper Fig. 2 / Fig. 3c).

    2D PEs gain ``max`` and a 10-entry register file; exponentiation is
    6 sequential MACCs on either array (no dedicated unit anywhere).
    """
    return Architecture(
        name="fusemax-cloud",
        exp_unit_1d=False,
        fused_2d_softmax=True,
        rf_entries_2d=10,
        **overrides,
    )


def unfused_arch(**overrides) -> Architecture:
    """The unfused baseline: the same substrate as FLAT's architecture."""
    return Architecture(
        name="unfused-cloud", exp_unit_1d=True, fused_2d_softmax=False, **overrides
    )

