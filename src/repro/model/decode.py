"""Decode-phase attention: why the paper scopes to encoders (footnote 1).

"During the decoder phase, inference is severely bottlenecked on the
memory traffic required to read the KV cache, and therefore the on-chip
accelerator design has less impact on performance."

This module quantifies that claim on the modeled architecture: decode
attends one query (P = 1) against an M-long KV cache, so the kernel's
arithmetic intensity is a couple of MACCs per cache byte — orders of
magnitude below the machine's compute/bandwidth balance point
(:func:`repro.model.roofline.machine_balance_point`) — and every design is
equally DRAM-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.spec import Architecture, fusemax_arch
from ..workloads.models import ModelConfig


@dataclass(frozen=True)
class DecodeStep:
    """One autoregressive decode step of batched multi-head attention."""

    model: str
    context_len: int
    batch: int
    macs: float
    kv_cache_bytes: float
    compute_cycles: float
    traffic_cycles: float

    @property
    def arithmetic_intensity(self) -> float:
        """MACs per DRAM byte (dominated by the KV-cache read)."""
        return self.macs / self.kv_cache_bytes

    @property
    def memory_bound(self) -> bool:
        return self.traffic_cycles > self.compute_cycles

    @property
    def latency_cycles(self) -> float:
        return max(self.compute_cycles, self.traffic_cycles)


def decode_attention(
    model: ModelConfig,
    context_len: int,
    batch: int = 1,
    arch: Architecture = None,
) -> DecodeStep:
    """Model one decode step: QK (E·M), softmax (M), AV (F·M) per head,
    with the full KV cache streamed from DRAM."""
    if arch is None:
        arch = fusemax_arch()
    heads = batch * model.n_heads
    e = f = model.d_head
    m = context_len
    macs = heads * (e * m + f * m)
    kv_bytes = heads * (e * m + f * m) * arch.word_bytes
    compute = macs / arch.pe_2d
    traffic = kv_bytes / arch.dram_bytes_per_cycle
    return DecodeStep(
        model=model.name,
        context_len=context_len,
        batch=batch,
        macs=macs,
        kv_cache_bytes=kv_bytes,
        compute_cycles=compute,
        traffic_cycles=traffic,
    )

