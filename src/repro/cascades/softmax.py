"""Softmax as a cascade of Einsums (Section IV-C).

Both forms operate on a pre-computed attention score tensor ``QK[m, p]``:

- :func:`naive_softmax` — Einsums 26-28: exponentiate, reduce, divide.
  Numerically unstable (``e^{QK}`` overflows).
- :func:`stable_softmax` — Einsums 29-30 + 27-28: subtract the global
  maximum ``GM_p`` inside the exponent, bounding the numerator to (0, 1].
"""

from __future__ import annotations

from ..einsum.cascade import Cascade
from ..einsum.einsum import Einsum
from ..einsum.ops import DIV, EXP, MAX_REDUCE, SUB_THEN_EXP
from ..einsum.tensor import Map, TensorRef, Unary, ref

SOFTMAX_RANKS = {"m": "M", "p": "P"}


def naive_softmax() -> Cascade:
    """The straightforward (unstable) softmax cascade, Einsums 26-28."""
    sn = Einsum(
        output=TensorRef.of("SN", "m", "p"),
        expr=Unary(EXP, ref("QK", "m", "p")),
        name="SN",
    )
    sd = Einsum(
        output=TensorRef.of("SD", "p"),
        expr=ref("SN", "m", "p"),
        name="SD",
    )
    a = Einsum(
        output=TensorRef.of("A", "m", "p"),
        expr=Map(DIV, ref("SN", "m", "p"), ref("SD", "p")),
        name="A",
    )
    return Cascade.build(
        name="softmax-naive",
        einsums=[sn, sd, a],
        inputs=["QK"],
        rank_shapes=SOFTMAX_RANKS,
        outputs=["A"],
    )


def stable_softmax() -> Cascade:
    """The numerically stable softmax cascade, Einsums 29-30 and 27-28."""
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
    sd = Einsum(
        output=TensorRef.of("SD", "p"),
        expr=ref("SN", "m", "p"),
        name="SD",
    )
    a = Einsum(
        output=TensorRef.of("A", "m", "p"),
        expr=Map(DIV, ref("SN", "m", "p"), ref("SD", "p")),
        name="A",
    )
    return Cascade.build(
        name="softmax-stable",
        einsums=[gm, sn, sd, a],
        inputs=["QK"],
        rank_shapes=SOFTMAX_RANKS,
        outputs=["A"],
    )
