"""The linear layers surrounding attention in a transformer encoder.

Section IV-A (Fig. 1a): the encoder projects the input into Q/K/V,
runs self-attention per head, deprojects, and applies a two-layer FFN.
These layers are ordinary weight-times-activation GEMMs; we express them as
Einsums so the same op-counting and modeling machinery applies.

Rank naming convention (per head count ``H``, head dim ``E``, model dim
``D = H × E``, FFN dim ``G``, sequence length ``N``):

- projections:   ``Q[h, e, n] = WQ[h, e, d] × X[d, n]`` (same for K, V)
- deprojection:  ``O[d, n] = WO[d, h, f] × AV[h, f, n]``
- FFN layers:    ``F1[g, n] = W1[g, d] × O[d, n]``,
                 ``F2[d, n] = W2[d, g] × F1[g, n]``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..einsum.cascade import Cascade
from ..einsum.einsum import Einsum
from ..einsum.ops import MUL
from ..einsum.tensor import Map, TensorRef, ref


@dataclass(frozen=True)
class LinearLayer:
    """One weight-times-activation GEMM in the encoder.

    ``macs_per_token`` is the multiply-accumulate count per sequence
    position, so total MACs for a sequence of length ``N`` (and batch ``B``)
    are ``B × N × macs_per_token``.
    """

    name: str
    macs_per_token: int
    weight_elems: int


def encoder_layer_einsums() -> Cascade:
    """The encoder's linear layers as a cascade of GEMM Einsums.

    Attention itself (QK/softmax/AV) is deliberately excluded; it is
    supplied by one of the :mod:`repro.cascades.attention` cascades.
    """

    def gemm(out: str, out_ranks, a: str, a_ranks, b: str, b_ranks) -> Einsum:
        return Einsum(
            output=TensorRef.of(out, *out_ranks),
            expr=Map(MUL, ref(a, *a_ranks), ref(b, *b_ranks)),
            name=out,
        )

    einsums = [
        gemm("Q", ("h", "e", "n"), "WQ", ("h", "e", "d"), "X", ("d", "n")),
        gemm("K", ("h", "e", "n"), "WK", ("h", "e", "d"), "X", ("d", "n")),
        gemm("V", ("h", "e", "n"), "WV", ("h", "e", "d"), "X", ("d", "n")),
        gemm("O", ("d", "n"), "WO", ("d", "h", "f"), "AV", ("h", "f", "n")),
        gemm("F1", ("g", "n"), "W1", ("g", "d"), "O", ("d", "n")),
        gemm("F2", ("d2", "n"), "W2", ("d2", "g"), "F1", ("g", "n")),
    ]
    ranks = {
        "h": "H",
        "e": "E",
        "f": "F",
        "d": "D",
        "d2": "D",
        "g": "G",
        "n": "N",
    }
    return Cascade.build(
        name="encoder-linear-layers",
        einsums=einsums,
        inputs=["X", "WQ", "WK", "WV", "WO", "W1", "W2", "AV"],
        rank_shapes=ranks,
        outputs=["F2"],
    )


def linear_layers(d_model: int, n_heads: int, d_head: int, d_ff: int) -> Tuple[
    LinearLayer, ...
]:
    """Per-token MAC and weight inventories for one encoder layer.

    Used by :mod:`repro.workloads.compute` for the Fig. 1b breakdown and by
    the end-to-end inference model (Figs. 10-11).
    """
    d_attn = n_heads * d_head
    return (
        LinearLayer("proj_q", d_model * d_attn, d_model * d_attn),
        LinearLayer("proj_k", d_model * d_attn, d_model * d_attn),
        LinearLayer("proj_v", d_model * d_attn, d_model * d_attn),
        LinearLayer("deproj", d_attn * d_model, d_attn * d_model),
        LinearLayer("ffn_1", d_model * d_ff, d_model * d_ff),
        LinearLayer("ffn_2", d_ff * d_model, d_ff * d_model),
    )
