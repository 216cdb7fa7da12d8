"""Transformer workloads evaluated by the paper (Sec. VI-A).

The same four encoder models FLAT uses: BERT-Base, TrXL-wt103, T5-small,
and XLM, with batch size 64 and sequence lengths from 1K to 1M tokens.
FlauBERT is omitted because it shares TrXL's hyperparameters (per the
paper); T5 is evaluated encoder-only.

In the paper's rank naming, per head: ``E = F = d_head`` are the Q/K and V
embedding dimensions, and ``M = P = L`` (self-attention, key and query
sequence lengths equal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of one transformer encoder."""

    name: str
    d_model: int
    n_heads: int
    d_head: int
    d_ff: int
    n_layers: int

    @property
    def d_attn(self) -> int:
        """Total attention width (heads × head dimension)."""
        return self.n_heads * self.d_head

    def attention_shapes(self, seq_len: int, block: int = 256) -> Dict[str, int]:
        """Shape environment for the attention cascades at ``seq_len``."""
        if seq_len % block:
            raise ValueError(f"sequence length {seq_len} not divisible by {block}")
        return {
            "E": self.d_head,
            "F": self.d_head,
            "M": seq_len,
            "P": seq_len,
            "M0": block,
            "M1": seq_len // block,
        }


BERT = ModelConfig("BERT", d_model=768, n_heads=12, d_head=64, d_ff=3072, n_layers=12)
TRXL = ModelConfig("TrXL", d_model=1024, n_heads=16, d_head=64, d_ff=4096, n_layers=18)
T5 = ModelConfig("T5", d_model=512, n_heads=8, d_head=64, d_ff=2048, n_layers=6)
XLM = ModelConfig("XLM", d_model=2048, n_heads=16, d_head=128, d_ff=8192, n_layers=12)

#: Evaluation order used by every figure.
MODELS: Tuple[ModelConfig, ...] = (BERT, TRXL, T5, XLM)

MODELS_BY_NAME: Mapping[str, ModelConfig] = {m.name: m for m in MODELS}

#: Batch size used for all evaluations (following FLAT).
BATCH_SIZE = 64

#: The sequence-length sweep of every figure (1K ... 1M).
SEQUENCE_LENGTHS: Tuple[int, ...] = (1024, 4096, 16384, 65536, 262144, 1048576)

#: The PE-array dimensions of the Fig. 12 design-space sweep.
ARRAY_DIMS: Tuple[int, ...] = (16, 32, 64, 128, 256, 512)

#: The sequence length of Fig. 12.
PARETO_SEQ_LEN = 262144


def seq_label(seq_len: int) -> str:
    """Human-readable sequence-length label (1K, 4K, ..., 1M)."""
    if seq_len >= 2**20 and seq_len % 2**20 == 0:
        return f"{seq_len // 2**20}M"
    return f"{seq_len // 1024}K"
