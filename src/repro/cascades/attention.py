"""The attention cascades taxonomized by the paper (Section IV).

All cascades share the same inputs and output:

- inputs ``Q[e, p]``, ``K[e, m]``, ``V[f, m]`` where ``M``/``P`` are the
  key/query sequence lengths and ``E``/``F`` the embedding dimensions;
- output ``AV[f, p]`` (the attention result, Einsum 24).

Following Section IV-C1, the ``1/sqrt(E)`` scaling of Einsum 22 is dropped:
the numerically stable variants bound the numerator already, and dropping
it everywhere keeps all cascades numerically comparable.

The batch ``B`` and head ``H`` ranks are omitted per the paper's convention
(Sec. IV-B): they add independent outer loops without changing any of the
analysis.

Builders:

- :func:`attention_naive` — unstable softmax; overflows for large scores.
- :func:`attention_3pass` — Cascade 4 (PyTorch/TensorFlow/FLAT).
- :func:`attention_2pass` — the partitioned local-max cascade
  (TileFlow / Choi et al., Sec. IV-E2).
- :func:`attention_1pass` — Cascade 5 (FlashAttention-2), with iterative
  running max/denominator/numerator-times-V.

The ``div_opt`` flag applies the division-reduction optimization of
Section IV-D (divide ``SNV`` by ``SD`` once per ``(f, p)`` instead of
dividing ``SN`` per ``(m, p)``); the 1-pass cascade uses it inherently.
"""

from __future__ import annotations

import math
from typing import List

from ..einsum.cascade import Cascade, IterativeRank
from ..einsum.einsum import Einsum
from ..einsum.index import Affine, Fixed, Shifted
from ..einsum.ops import ADD, DIV, EXP, MAX, MAX_REDUCE, MUL, SUB_THEN_EXP
from ..einsum.tensor import Literal, Map, TensorRef, Unary, ref

FLAT_RANKS = {"e": "E", "f": "F", "m": "M", "p": "P"}
PARTITIONED_RANKS = {"e": "E", "f": "F", "m1": "M1", "m0": "M0", "p": "P"}

ATTENTION_INPUTS = ("Q", "K", "V")


def _qk_einsum() -> Einsum:
    """Einsum 22 (sans scaling): ``QK[m, p] = Q[e, p] × K[e, m]``."""
    return Einsum(
        output=TensorRef.of("QK", "m", "p"),
        expr=Map(MUL, ref("Q", "e", "p"), ref("K", "e", "m")),
        name="QK",
    )


def _av_from(numerator: str) -> Einsum:
    """Einsum 24: ``AV[f, p] = <numerator>[m, p] × V[f, m]``."""
    return Einsum(
        output=TensorRef.of("AV", "f", "p"),
        expr=Map(MUL, ref(numerator, "m", "p"), ref("V", "f", "m")),
        name="AV",
    )


def attention_batched() -> Cascade:
    """Batched multi-head 3-pass attention (Sec. IV-B).

    Adds the batch ``b`` and head ``h`` ranks to every tensor, turning the
    "matrix multiplications" into many independent instances.  The paper
    omits these ranks from its cascades for brevity; this builder makes
    them explicit so the IR, interpreter, and analyses are exercised on
    4- and 5-rank tensors.
    """
    bh = ("b", "h")
    qk = Einsum(
        output=TensorRef.of("QK", *bh, "m", "p"),
        expr=Map(MUL, ref("Q", *bh, "e", "p"), ref("K", *bh, "e", "m")),
        name="QK",
    )
    gm = Einsum(
        output=TensorRef.of("GM", *bh, "p"),
        expr=ref("QK", *bh, "m", "p"),
        reductions={"m": MAX_REDUCE},
        name="GM",
    )
    sn = Einsum(
        output=TensorRef.of("SN", *bh, "m", "p"),
        expr=Map(
            SUB_THEN_EXP, ref("QK", *bh, "m", "p"), ref("GM", *bh, "p")
        ),
        name="SN",
    )
    sd = Einsum(
        output=TensorRef.of("SD", *bh, "p"),
        expr=ref("SN", *bh, "m", "p"),
        name="SD",
    )
    snv = Einsum(
        output=TensorRef.of("SNV", *bh, "f", "p"),
        expr=Map(MUL, ref("SN", *bh, "m", "p"), ref("V", *bh, "f", "m")),
        name="SNV",
    )
    av = Einsum(
        output=TensorRef.of("AV", *bh, "f", "p"),
        expr=Map(DIV, ref("SNV", *bh, "f", "p"), ref("SD", *bh, "p")),
        name="AV",
    )
    return Cascade.build(
        name="attention-batched",
        einsums=[qk, gm, sn, sd, snv, av],
        inputs=ATTENTION_INPUTS,
        rank_shapes={"b": "B", "h": "H", **FLAT_RANKS},
        outputs=["AV"],
    )


def attention_naive() -> Cascade:
    """Attention with the numerically *unstable* softmax (Einsums 26-28)."""
    sn = Einsum(
        output=TensorRef.of("SN", "m", "p"),
        expr=Unary(EXP, ref("QK", "m", "p")),
        name="SN",
    )
    sd = Einsum(output=TensorRef.of("SD", "p"), expr=ref("SN", "m", "p"), name="SD")
    a = Einsum(
        output=TensorRef.of("A", "m", "p"),
        expr=Map(DIV, ref("SN", "m", "p"), ref("SD", "p")),
        name="A",
    )
    return Cascade.build(
        name="attention-naive",
        einsums=[_qk_einsum(), sn, sd, a, _av_from("A")],
        inputs=ATTENTION_INPUTS,
        rank_shapes=FLAT_RANKS,
        outputs=["AV"],
    )


def attention_3pass(div_opt: bool = False) -> Cascade:
    """Cascade 4: the 3-pass numerically stable attention cascade.

    With ``div_opt=True`` the division is deferred past the ``×V``
    reduction (Einsums 31-32), which merges passes 2 and 3 and turns this
    into a 2-pass cascade performing ``F × P`` instead of ``M × P``
    divisions.
    """
    gm = Einsum(
        output=TensorRef.of("GM", "p"),
        expr=ref("QK", "m", "p"),
        reductions={"m": MAX_REDUCE},
        name="GM",
    )
    sn = Einsum(
        output=TensorRef.of("SN", "m", "p"),
        expr=Map(SUB_THEN_EXP, ref("QK", "m", "p"), ref("GM", "p")),
        name="SN",
    )
    sd = Einsum(output=TensorRef.of("SD", "p"), expr=ref("SN", "m", "p"), name="SD")
    einsums: List[Einsum] = [_qk_einsum(), gm, sn, sd]
    if div_opt:
        snv = Einsum(
            output=TensorRef.of("SNV", "f", "p"),
            expr=Map(MUL, ref("SN", "m", "p"), ref("V", "f", "m")),
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
        einsums += [a, _av_from("A")]
    suffix = "-divopt" if div_opt else ""
    return Cascade.build(
        name=f"attention-3pass{suffix}",
        einsums=einsums,
        inputs=ATTENTION_INPUTS,
        rank_shapes=FLAT_RANKS,
        outputs=["AV"],
    )


def _partition_views() -> List[Einsum]:
    """Einsums 39-40: partition K and V into M1 chunks of M0 elements."""
    split = Affine((("m1", "M0"), ("m0", 1)))
    bk = Einsum(
        output=TensorRef.of("BK", "e", "m1", "m0"),
        expr=ref("K", "e", split),
        name="BK",
        is_initialization=True,
        is_view=True,
    )
    bv = Einsum(
        output=TensorRef.of("BV", "f", "m1", "m0"),
        expr=ref("V", "f", split),
        name="BV",
        is_initialization=True,
        is_view=True,
    )
    return [bk, bv]


def attention_2pass(div_opt: bool = False) -> Cascade:
    """The 2-pass partitioned local-max attention cascade (Sec. IV-E2).

    Pass 1 computes per-partition local maxima, numerators and denominators
    while building the global maximum from the local maxima.  Between the
    passes, the softmax denominator is assembled purely from
    partition-granular (small) tensors.  Pass 2 corrects the stored local
    numerators with ``PM[m1, p] = e^{LM - GM}`` and produces the output.

    Note the pass-1 numerator ``SLN`` must stay live across the pass
    boundary — its algorithmic minimum live footprint is a full ``M`` fiber,
    which is why 2-pass accelerators (e.g. TileFlow) still need on-chip
    storage proportional to sequence length.
    """
    bqk = Einsum(
        output=TensorRef.of("BQK", "m1", "m0", "p"),
        expr=Map(MUL, ref("Q", "e", "p"), ref("BK", "e", "m1", "m0")),
        name="BQK",
    )
    lm = Einsum(
        output=TensorRef.of("LM", "m1", "p"),
        expr=ref("BQK", "m1", "m0", "p"),
        reductions={"m0": MAX_REDUCE},
        name="LM",
    )
    gm = Einsum(
        output=TensorRef.of("GM", "p"),
        expr=ref("LM", "m1", "p"),
        reductions={"m1": MAX_REDUCE},
        name="GM",
    )
    sln = Einsum(
        output=TensorRef.of("SLN", "m1", "m0", "p"),
        expr=Map(SUB_THEN_EXP, ref("BQK", "m1", "m0", "p"), ref("LM", "m1", "p")),
        name="SLN",
    )
    sld = Einsum(
        output=TensorRef.of("SLD", "m1", "p"),
        expr=ref("SLN", "m1", "m0", "p"),
        name="SLD",
    )
    pm = Einsum(
        output=TensorRef.of("PM", "m1", "p"),
        expr=Map(SUB_THEN_EXP, ref("LM", "m1", "p"), ref("GM", "p")),
        name="PM",
    )
    sd = Einsum(
        output=TensorRef.of("SD", "p"),
        expr=Map(MUL, ref("SLD", "m1", "p"), ref("PM", "m1", "p")),
        name="SD",
    )
    einsums = _partition_views() + [bqk, lm, gm, sln, sld, pm, sd]
    if div_opt:
        snv = Einsum(
            output=TensorRef.of("SNV", "f", "p"),
            expr=Map(
                MUL,
                Map(MUL, ref("SLN", "m1", "m0", "p"), ref("PM", "m1", "p")),
                ref("BV", "f", "m1", "m0"),
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
        sn = Einsum(
            output=TensorRef.of("SN", "m1", "m0", "p"),
            expr=Map(MUL, ref("SLN", "m1", "m0", "p"), ref("PM", "m1", "p")),
            name="SN",
        )
        a = Einsum(
            output=TensorRef.of("A", "m1", "m0", "p"),
            expr=Map(DIV, ref("SN", "m1", "m0", "p"), ref("SD", "p")),
            name="A",
        )
        av = Einsum(
            output=TensorRef.of("AV", "f", "p"),
            expr=Map(MUL, ref("A", "m1", "m0", "p"), ref("BV", "f", "m1", "m0")),
            name="AV",
        )
        einsums += [sn, a, av]
    suffix = "-divopt" if div_opt else ""
    return Cascade.build(
        name=f"attention-2pass{suffix}",
        einsums=einsums,
        inputs=ATTENTION_INPUTS,
        rank_shapes=PARTITIONED_RANKS,
        outputs=["AV"],
    )


def attention_1pass_fa1() -> Cascade:
    """The FlashAttention-1-style 1-pass cascade.

    Like Cascade 5 but maintains the *normalized* running output
    ``RO[f, m1, p] = RNV / RD`` at every iteration instead of deferring
    the division to the end.  Functionally identical; the cost is
    ``F × M1 × P`` divisions plus ``F × M1 × P`` re-multiplications per
    kernel instead of ``F × P`` — exactly the work FlashAttention-2's
    reassociation (Sec. IV-D) removes.  Included so the Table I entries
    FlashAttention vs FlashAttention-2 are distinguishable by op count
    while sharing the 1-pass classification.

    Recurrence: ``RO_{m1+1} = (RO_{m1} · RD_{m1} · PRM + SLNV) / RD_{m1+1}``.
    """
    rm_init = Einsum(
        output=TensorRef.of("RM", Fixed(0), "p"),
        expr=Literal(-math.inf),
        name="RM0",
        is_initialization=True,
    )
    rd_init = Einsum(
        output=TensorRef.of("RD", Fixed(0), "p"),
        expr=Literal(0.0),
        name="RD0",
        is_initialization=True,
    )
    ro_init = Einsum(
        output=TensorRef.of("RO", "f", Fixed(0), "p"),
        expr=Literal(0.0),
        name="RO0",
        is_initialization=True,
    )
    bqk = Einsum(
        output=TensorRef.of("BQK", "m1", "m0", "p"),
        expr=Map(MUL, ref("Q", "e", "p"), ref("BK", "e", "m1", "m0")),
        name="BQK",
    )
    lm = Einsum(
        output=TensorRef.of("LM", "m1", "p"),
        expr=ref("BQK", "m1", "m0", "p"),
        reductions={"m0": MAX_REDUCE},
        name="LM",
    )
    rm = Einsum(
        output=TensorRef.of("RM", Shifted("m1", 1), "p"),
        expr=Map(MAX, ref("RM", "m1", "p"), ref("LM", "m1", "p")),
        name="RM",
    )
    sln = Einsum(
        output=TensorRef.of("SLN", "m1", "m0", "p"),
        expr=Map(
            SUB_THEN_EXP,
            ref("BQK", "m1", "m0", "p"),
            ref("RM", Shifted("m1", 1), "p"),
        ),
        name="SLN",
    )
    sld = Einsum(
        output=TensorRef.of("SLD", "m1", "p"),
        expr=ref("SLN", "m1", "m0", "p"),
        name="SLD",
    )
    slnv = Einsum(
        output=TensorRef.of("SLNV", "f", "m1", "p"),
        expr=Map(MUL, ref("SLN", "m1", "m0", "p"), ref("BV", "f", "m1", "m0")),
        name="SLNV",
    )
    prm = Einsum(
        output=TensorRef.of("PRM", "m1", "p"),
        expr=Map(
            SUB_THEN_EXP, ref("RM", "m1", "p"), ref("RM", Shifted("m1", 1), "p")
        ),
        name="PRM",
    )
    spd = Einsum(
        output=TensorRef.of("SPD", "m1", "p"),
        expr=Map(MUL, ref("RD", "m1", "p"), ref("PRM", "m1", "p")),
        name="SPD",
    )
    rd = Einsum(
        output=TensorRef.of("RD", Shifted("m1", 1), "p"),
        expr=Map(ADD, ref("SLD", "m1", "p"), ref("SPD", "m1", "p")),
        name="RD",
    )
    # Un-normalize the previous output, correct its max, add this chunk's
    # contribution, and re-normalize with the new running denominator.
    spnv = Einsum(
        output=TensorRef.of("SPNV", "f", "m1", "p"),
        expr=Map(MUL, ref("RO", "f", "m1", "p"), ref("SPD", "m1", "p")),
        name="SPNV",
    )
    ro = Einsum(
        output=TensorRef.of("RO", "f", Shifted("m1", 1), "p"),
        expr=Map(
            DIV,
            Map(ADD, ref("SLNV", "f", "m1", "p"), ref("SPNV", "f", "m1", "p")),
            ref("RD", Shifted("m1", 1), "p"),
        ),
        name="RO",
    )
    av = Einsum(
        output=TensorRef.of("AV", "f", "p"),
        expr=ref("RO", "f", Fixed("M1"), "p"),
        name="AV",
    )
    return Cascade.build(
        name="attention-1pass-fa1",
        einsums=_partition_views()
        + [rm_init, rd_init, ro_init]
        + [bqk, lm, rm, sln, sld, slnv, prm, spd, rd, spnv, ro, av],
        inputs=ATTENTION_INPUTS,
        rank_shapes=PARTITIONED_RANKS,
        iterative=[IterativeRank("m1", "M1")],
        outputs=["AV"],
    )


def attention_1pass() -> Cascade:
    """Cascade 5: the 1-pass attention cascade used by FuseMax.

    ``M1`` serves both as a standard rank (partition index of ``BQK``) and
    as an iterative rank carrying the running maximum ``RM``, running
    denominator ``RD``, and running numerator-times-V ``RNV``.  The division
    reduction of Section IV-D is inherent: the single division happens at
    the very end (Einsum 55), once per ``(f, p)``.
    """
    rm_init = Einsum(
        output=TensorRef.of("RM", Fixed(0), "p"),
        expr=Literal(-math.inf),
        name="RM0",
        is_initialization=True,
    )
    rd_init = Einsum(
        output=TensorRef.of("RD", Fixed(0), "p"),
        expr=Literal(0.0),
        name="RD0",
        is_initialization=True,
    )
    rnv_init = Einsum(
        output=TensorRef.of("RNV", "f", Fixed(0), "p"),
        expr=Literal(0.0),
        name="RNV0",
        is_initialization=True,
    )
    bqk = Einsum(
        output=TensorRef.of("BQK", "m1", "m0", "p"),
        expr=Map(MUL, ref("Q", "e", "p"), ref("BK", "e", "m1", "m0")),
        name="BQK",
    )
    lm = Einsum(
        output=TensorRef.of("LM", "m1", "p"),
        expr=ref("BQK", "m1", "m0", "p"),
        reductions={"m0": MAX_REDUCE},
        name="LM",
    )
    rm = Einsum(
        output=TensorRef.of("RM", Shifted("m1", 1), "p"),
        expr=Map(MAX, ref("RM", "m1", "p"), ref("LM", "m1", "p")),
        name="RM",
    )
    sln = Einsum(
        output=TensorRef.of("SLN", "m1", "m0", "p"),
        expr=Map(
            SUB_THEN_EXP,
            ref("BQK", "m1", "m0", "p"),
            ref("RM", Shifted("m1", 1), "p"),
        ),
        name="SLN",
    )
    sld = Einsum(
        output=TensorRef.of("SLD", "m1", "p"),
        expr=ref("SLN", "m1", "m0", "p"),
        name="SLD",
    )
    slnv = Einsum(
        output=TensorRef.of("SLNV", "f", "m1", "p"),
        expr=Map(MUL, ref("SLN", "m1", "m0", "p"), ref("BV", "f", "m1", "m0")),
        name="SLNV",
    )
    prm = Einsum(
        output=TensorRef.of("PRM", "m1", "p"),
        expr=Map(
            SUB_THEN_EXP, ref("RM", "m1", "p"), ref("RM", Shifted("m1", 1), "p")
        ),
        name="PRM",
    )
    spd = Einsum(
        output=TensorRef.of("SPD", "m1", "p"),
        expr=Map(MUL, ref("RD", "m1", "p"), ref("PRM", "m1", "p")),
        name="SPD",
    )
    rd = Einsum(
        output=TensorRef.of("RD", Shifted("m1", 1), "p"),
        expr=Map(ADD, ref("SLD", "m1", "p"), ref("SPD", "m1", "p")),
        name="RD",
    )
    spnv = Einsum(
        output=TensorRef.of("SPNV", "f", "m1", "p"),
        expr=Map(MUL, ref("RNV", "f", "m1", "p"), ref("PRM", "m1", "p")),
        name="SPNV",
    )
    rnv = Einsum(
        output=TensorRef.of("RNV", "f", Shifted("m1", 1), "p"),
        expr=Map(ADD, ref("SLNV", "f", "m1", "p"), ref("SPNV", "f", "m1", "p")),
        name="RNV",
    )
    av = Einsum(
        output=TensorRef.of("AV", "f", "p"),
        expr=Map(DIV, ref("RNV", "f", Fixed("M1"), "p"), ref("RD", Fixed("M1"), "p")),
        name="AV",
    )
    return Cascade.build(
        name="attention-1pass",
        einsums=_partition_views()
        + [rm_init, rd_init, rnv_init]
        + [bqk, lm, rm, sln, sld, slnv, prm, spd, rd, spnv, rnv, av],
        inputs=ATTENTION_INPUTS,
        rank_shapes=PARTITIONED_RANKS,
        iterative=[IterativeRank("m1", "M1")],
        outputs=["AV"],
    )
