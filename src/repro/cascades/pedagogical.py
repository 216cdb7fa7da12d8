"""The pedagogical cascades of Section III.

These are the small examples the paper uses to introduce pass counting and
pass reduction:

- **Cascade 1** — the 2-pass example: ``Y = A_k × B_k``, ``Z = Y × A_k``.
- **Cascade 2** — reassociation by deferring the multiply (1 pass).
- **Cascade 3** — reassociation by iteratively constructing Y and Z (1 pass,
  extra compute).
- **Prefix sums** — both the filtered-rank (non-iterative) and iterative
  forms from Sections II-C3 and II-C4.
"""

from __future__ import annotations

from ..einsum.cascade import Cascade, IterativeRank
from ..einsum.einsum import Einsum
from ..einsum.index import Filter, Fixed, Shifted, Var
from ..einsum.ops import ADD, DIV, MUL
from ..einsum.tensor import Literal, Map, TensorRef, ref


def cascade1_two_pass() -> Cascade:
    """Cascade 1: the example 2-pass cascade (Einsums 5-6)."""
    y = Einsum(
        output=TensorRef.of("Y"),
        expr=Map(MUL, ref("A", "k"), ref("B", "k")),
        name="Y",
    )
    z = Einsum(
        output=TensorRef.of("Z"),
        expr=Map(MUL, ref("Y"), ref("A", "k")),
        name="Z",
    )
    return Cascade.build(
        name="cascade1-2pass",
        einsums=[y, z],
        inputs=["A", "B"],
        rank_shapes={"k": "K"},
    )


def cascade2_deferred() -> Cascade:
    """Cascade 2: defer the multiply by Y to get 1 pass (Einsums 7-9)."""
    y = Einsum(
        output=TensorRef.of("Y"),
        expr=Map(MUL, ref("A", "k"), ref("B", "k")),
        name="Y",
    )
    x = Einsum(output=TensorRef.of("X"), expr=ref("A", "k"), name="X")
    z = Einsum(
        output=TensorRef.of("Z"),
        expr=Map(MUL, ref("Y"), ref("X")),
        name="Z",
    )
    return Cascade.build(
        name="cascade2-deferred",
        einsums=[y, x, z],
        inputs=["A", "B"],
        rank_shapes={"k": "K"},
    )


def cascade3_iterative() -> Cascade:
    """Cascade 3: iteratively construct Y and Z (Einsums 10-15).

    ``RY_{i+1} = RY_i + A_i × B_i`` and
    ``RZ_{i+1} = RZ_i × RY_{i+1} / RY_i + RY_{i+1} × A_i``.

    The division uses EDGE's ``÷(←)`` merge, so the zero-initialised first
    step contributes zero rather than a division by zero.
    """
    ry_init = Einsum(
        output=TensorRef.of("RY", Fixed(0)),
        expr=Literal(0.0),
        name="RY0",
        is_initialization=True,
    )
    rz_init = Einsum(
        output=TensorRef.of("RZ", Fixed(0)),
        expr=Literal(0.0),
        name="RZ0",
        is_initialization=True,
    )
    ry = Einsum(
        output=TensorRef.of("RY", Shifted("i", 1)),
        expr=Map(ADD, ref("RY", "i"), Map(MUL, ref("A", "i"), ref("B", "i"))),
        name="RY",
    )
    rz = Einsum(
        output=TensorRef.of("RZ", Shifted("i", 1)),
        expr=Map(
            ADD,
            Map(
                DIV,
                Map(MUL, ref("RZ", "i"), ref("RY", Shifted("i", 1))),
                ref("RY", "i"),
            ),
            Map(MUL, ref("RY", Shifted("i", 1)), ref("A", "i")),
        ),
        name="RZ",
    )
    z = Einsum(
        output=TensorRef.of("Z"),
        expr=ref("RZ", Fixed("K")),
        name="Z",
    )
    return Cascade.build(
        name="cascade3-iterative",
        einsums=[ry_init, rz_init, ry, rz, z],
        inputs=["A", "B"],
        rank_shapes={"i": "K"},
        iterative=[IterativeRank("i", "K")],
    )


def filtered_prefix_sum() -> Cascade:
    """The filtered-rank prefix sum ``S_{i+1} = A_{k: k<=i}`` (Sec. II-C3).

    This form recomputes the whole sum for each ``i`` — quadratic work.
    """
    s = Einsum(
        output=TensorRef.of("S", Shifted("i", 1)),
        expr=ref("A", "k", filters=[Filter("k", "<=", Var("i"))]),
        name="S",
    )
    return Cascade.build(
        name="prefix-sum-filtered",
        einsums=[s],
        inputs=["A"],
        rank_shapes={"i": "K", "k": "K"},
    )


def iterative_prefix_sum() -> Cascade:
    """The iterative prefix sum ``S_{i+1} = S_i + A_i`` (Einsums 3-4)."""
    s_init = Einsum(
        output=TensorRef.of("S", Fixed(0)),
        expr=Literal(0.0),
        name="S0",
        is_initialization=True,
    )
    s = Einsum(
        output=TensorRef.of("S", Shifted("i", 1)),
        expr=Map(ADD, ref("S", "i"), ref("A", "i")),
        name="S",
    )
    return Cascade.build(
        name="prefix-sum-iterative",
        einsums=[s_init, s],
        inputs=["A"],
        rank_shapes={"i": "K"},
        iterative=[IterativeRank("i", "K")],
    )
