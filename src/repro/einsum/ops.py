"""Map, reduce, and unary actions for Extended Einsums.

EDGE (Odemuyiwa et al.) separates an Einsum's computation into *actions*:

- **map** — a pair-wise operation between two tensors, made of a *merge*
  operator (which points of the iteration space to touch) and a *compute*
  operator (what to do with the surviving data values);
- **reduce** — the operation used to collapse a rank of the iteration space;
- **populate** — placement of the result on the left-hand side (always the
  default populate ``=`` in this paper).

This module defines the concrete operators the FuseMax cascades need:
multiply, add, max, divide, and the fused ``sub-then-exp``, plus the
``exp``/``sigmoid``/``neg`` unary functions and the ``+``/``max``
reductions.  The IR is backend-free: an operator is its name, its merge
operator, its reduction identity (a plain float) and its *cost class*
(used by the op-counting analysis to attribute hardware cost: a MACC, a
divide, an exponentiation).  That is all the analytical models read.
The numpy kernels that execute an operator live in one table keyed by
operator name, :mod:`repro.functional.kernels`, which only the
functional interpreter loads.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Cost classes recognised by :mod:`repro.analysis.opcount`.
COST_CLASSES = ("macc", "add", "mul", "max", "divide", "exp", "other")


@dataclass(frozen=True)
class MapOp:
    """A pair-wise map action: merge operator + compute operator."""

    name: str
    merge: str  # "intersection", "union", "pass-through", "right-nonzero"
    cost_class: str = "other"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ReduceOp:
    """A reduce action collapsing one rank of the iteration space.

    ``identity`` is the value a reduction over an empty rank yields, and
    the value filtered-out points contribute.
    """

    name: str
    identity: float
    cost_class: str = "other"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class UnaryOp:
    """A user-defined unary operation applied point-wise to a tensor."""

    name: str
    cost_class: str = "other"

    def __str__(self) -> str:
        return self.name


# --- map actions -----------------------------------------------------------

#: ``x(∩)`` — multiply values surviving intersection.
MUL = MapOp("mul", merge="intersection", cost_class="macc")

#: ``+(∪)`` — add values surviving union.
ADD = MapOp("add", merge="union", cost_class="add")

#: ``-(∪)`` — subtract (used when building correction terms explicitly).
SUB = MapOp("sub", merge="union", cost_class="add")

#: ``max(∪)`` — the running/local maximum combine of the paper (Sec. II-C1).
MAX = MapOp("max", merge="union", cost_class="max")

#: ``÷(←)`` — divide; the merge only touches points non-zero in the divisor.
DIV = MapOp("div", merge="right-nonzero", cost_class="divide")

#: ``sub-then-exp(1)`` — ``e^(A - B)`` with the pass-through merge.
SUB_THEN_EXP = MapOp("sub-then-exp", merge="pass-through", cost_class="exp")

# --- reduce actions --------------------------------------------------------

#: The default ``∨ +(∪)`` reduction (dropped in shorthand notation).
SUM_REDUCE = ReduceOp("sum", identity=0.0, cost_class="add")

#: ``∨ max(∪)`` — reduction by maximum, e.g. Einsum 29 (``GM_p``).
MAX_REDUCE = ReduceOp("max", identity=float("-inf"), cost_class="max")

# --- unary operations ------------------------------------------------------

#: Point-wise exponential (naive softmax numerator, Einsum 26).
EXP = UnaryOp("exp", cost_class="exp")

#: Point-wise sigmoid (EDGE's example of a user-defined unary op).
SIGMOID = UnaryOp("sigmoid", cost_class="exp")

#: Point-wise negation.
NEG = UnaryOp("neg", cost_class="add")

_MAP_OPS = {op.name: op for op in (MUL, ADD, SUB, MAX, DIV, SUB_THEN_EXP)}
_REDUCE_OPS = {op.name: op for op in (SUM_REDUCE, MAX_REDUCE)}
_UNARY_OPS = {op.name: op for op in (EXP, SIGMOID, NEG)}


def map_op(name: str) -> MapOp:
    """Look up a map action by name."""
    try:
        return _MAP_OPS[name]
    except KeyError:
        raise KeyError(f"unknown map op {name!r}; have {sorted(_MAP_OPS)}") from None


def reduce_op(name: str) -> ReduceOp:
    """Look up a reduce action by name."""
    try:
        return _REDUCE_OPS[name]
    except KeyError:
        raise KeyError(
            f"unknown reduce op {name!r}; have {sorted(_REDUCE_OPS)}"
        ) from None


def unary_op(name: str) -> UnaryOp:
    """Look up a unary operation by name."""
    try:
        return _UNARY_OPS[name]
    except KeyError:
        raise KeyError(
            f"unknown unary op {name!r}; have {sorted(_UNARY_OPS)}"
        ) from None
