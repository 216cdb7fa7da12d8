"""Attention variants beyond the paper's evaluation (Sec. VIII future work).

The conclusion invites expressing other attention variants as cascades of
Einsums so the same mapping-agnostic analysis applies.  This module
provides three:

- :func:`causal_attention` — decoder-style masking (position ``m`` attends
  only to ``m <= p``), expressed with EDGE filtered rank expressions on
  the *reducing* reads so culled points contribute the reduction identity
  (−∞ for max, 0 for sum) — no explicit mask tensor needed.
- :func:`sliding_window_attention` — each query attends to a trailing
  window of ``W`` keys (``p - W < m <= p``), the Longformer/Mistral-style
  local pattern.
- :func:`sigmoid_attention` — replaces softmax with an element-wise
  sigmoid; with no cross-M normalization it is natively 1-pass.

All three keep the standard attention interface (inputs ``Q``, ``K``,
``V``; output ``AV``) so they drop into the analysis, the interpreter,
and the op-counting machinery unchanged.
"""

from __future__ import annotations

from ..einsum.cascade import Cascade
from ..einsum.einsum import Einsum
from ..einsum.index import Affine, Filter, Var
from ..einsum.ops import DIV, MAX_REDUCE, MUL, SIGMOID, SUB_THEN_EXP
from ..einsum.tensor import Map, TensorRef, Unary, ref
from .attention import ATTENTION_INPUTS, FLAT_RANKS, _qk_einsum


def _causal(var: str = "m") -> Filter:
    """The causal predicate: key position ``m`` visible when ``m <= p``."""
    return Filter(var, "<=", Var("p"))


def causal_attention(div_opt: bool = True) -> Cascade:
    """Numerically stable causal (masked) attention.

    The filters sit on the reads that *reduce* over ``m`` — the masked
    numerator entries are simply never accumulated, which is exactly the
    EDGE merge semantics (culled points contribute the identity).
    """
    gm = Einsum(
        output=TensorRef.of("GM", "p"),
        expr=ref("QK", "m", "p", filters=[_causal()]),
        reductions={"m": MAX_REDUCE},
        name="GM",
    )
    sn = Einsum(
        output=TensorRef.of("SN", "m", "p"),
        expr=Map(SUB_THEN_EXP, ref("QK", "m", "p"), ref("GM", "p")),
        name="SN",
    )
    sd = Einsum(
        output=TensorRef.of("SD", "p"),
        expr=ref("SN", "m", "p", filters=[_causal()]),
        name="SD",
    )
    einsums = [_qk_einsum(), gm, sn, sd]
    if div_opt:
        snv = Einsum(
            output=TensorRef.of("SNV", "f", "p"),
            expr=Map(
                MUL,
                ref("SN", "m", "p", filters=[_causal()]),
                ref("V", "f", "m"),
            ),
            name="SNV",
        )
        av = Einsum(
            output=TensorRef.of("AV", "f", "p"),
            expr=Map(DIV, ref("SNV", "f", "p"), ref("SD", "p")),
            name="AV",
        )
        einsums += [snv, av]
    else:
        a = Einsum(
            output=TensorRef.of("A", "m", "p"),
            expr=Map(DIV, ref("SN", "m", "p"), ref("SD", "p")),
            name="A",
        )
        av = Einsum(
            output=TensorRef.of("AV", "f", "p"),
            expr=Map(
                MUL,
                ref("A", "m", "p", filters=[_causal()]),
                ref("V", "f", "m"),
            ),
            name="AV",
        )
        einsums += [a, av]
    suffix = "" if div_opt else "-nodivopt"
    return Cascade.build(
        name=f"attention-causal{suffix}",
        einsums=einsums,
        inputs=ATTENTION_INPUTS,
        rank_shapes=FLAT_RANKS,
        outputs=["AV"],
    )


def sliding_window_attention(window_symbol: str = "W") -> Cascade:
    """Local attention: query ``p`` attends to keys ``p - W < m <= p``.

    ``W`` is a shape symbol resolved at evaluation time, so one cascade
    covers every window size.
    """

    def window(var: str = "m"):
        return [
            Filter(var, "<=", Var("p")),
            Filter(var, ">", Affine((("p", 1),), offset=f"-{window_symbol}")),
        ]

    gm = Einsum(
        output=TensorRef.of("GM", "p"),
        expr=ref("QK", "m", "p", filters=window()),
        reductions={"m": MAX_REDUCE},
        name="GM",
    )
    sn = Einsum(
        output=TensorRef.of("SN", "m", "p"),
        expr=Map(SUB_THEN_EXP, ref("QK", "m", "p"), ref("GM", "p")),
        name="SN",
    )
    sd = Einsum(
        output=TensorRef.of("SD", "p"),
        expr=ref("SN", "m", "p", filters=window()),
        name="SD",
    )
    snv = Einsum(
        output=TensorRef.of("SNV", "f", "p"),
        expr=Map(
            MUL, ref("SN", "m", "p", filters=window()), ref("V", "f", "m")
        ),
        name="SNV",
    )
    av = Einsum(
        output=TensorRef.of("AV", "f", "p"),
        expr=Map(DIV, ref("SNV", "f", "p"), ref("SD", "p")),
        name="AV",
    )
    return Cascade.build(
        name="attention-sliding-window",
        einsums=[_qk_einsum(), gm, sn, sd, snv, av],
        inputs=ATTENTION_INPUTS,
        rank_shapes=FLAT_RANKS,
        outputs=["AV"],
    )


def sigmoid_attention() -> Cascade:
    """Unnormalized sigmoid attention: ``AV = Σ_m σ(QK) × V``.

    With no cross-M normalization there is no reduction feeding a revisit:
    the cascade is natively 1-pass with O(1) live footprints — the
    analysis shows this without any running-max machinery.
    """
    sa = Einsum(
        output=TensorRef.of("SA", "m", "p"),
        expr=Unary(SIGMOID, ref("QK", "m", "p")),
        name="SA",
    )
    av = Einsum(
        output=TensorRef.of("AV", "f", "p"),
        expr=Map(MUL, ref("SA", "m", "p"), ref("V", "f", "m")),
        name="AV",
    )
    return Cascade.build(
        name="attention-sigmoid",
        einsums=[_qk_einsum(), sa, av],
        inputs=ATTENTION_INPUTS,
        rank_shapes=FLAT_RANKS,
        outputs=["AV"],
    )
