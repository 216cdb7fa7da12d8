"""Operation counting for cascades of Einsums.

Attributes every map, reduce, and unary action of every Einsum to a cost
class (MACC, add, max, divide, exp) given concrete shapes.  This is the
machinery behind:

- the division-reduction result of Section IV-D (``M × P`` vs ``F × P``
  divisions),
- the "evidently increased compute" of the 1-pass cascade (Sec. IV-E3),
- the compute side of the performance model (Sec. VI).

Counting conventions (documented because they define our cost model):

- A map action is performed once per point of the iteration space spanned
  by the rank variables under its expression node.
- A sum-reduction fused under a multiplicative map is a multiply-accumulate
  (counted once as a ``macc``, not again as an ``add``), matching how
  spatial-array PEs execute it.
- ``max`` reductions and map-``max`` count as ``max`` operations; they run
  on comparator hardware.
- ``sub-then-exp`` and ``exp`` count one ``exp`` each.  The hardware model
  later expands an exp into 6 sequential MACCs (Taylor series, per the
  paper's Sec. V).
- Views and scalar initialisations are free.

Each Einsum compiles once into its terms (:func:`einsum_terms`: cost
class and rank variables, with the fusion rule applied); counting under
concrete shapes multiplies the extents of each term's variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Dict, Iterable, List, Mapping, Tuple

from ..einsum.cascade import Cascade
from ..einsum.einsum import Einsum
from ..einsum.tensor import Expr, Leaf, Literal, Map, Unary

#: Number of sequential MACC operations implementing one exponentiation
#: (Nilsson et al., used by both FuseMax and SpAtten — paper Sec. V).
EXP_MACCS = 6


@dataclass(frozen=True)
class OpCounts:
    """Operation counts keyed by cost class."""

    counts: Mapping[str, int] = field(default_factory=dict)

    def __add__(self, other: "OpCounts") -> "OpCounts":
        merged = dict(self.counts)
        for key, value in other.counts.items():
            merged[key] = merged.get(key, 0) + value
        return OpCounts(merged)

    def get(self, cls: str) -> int:
        return self.counts.get(cls, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def macc_equivalents(self, exp_maccs: int = EXP_MACCS) -> int:
        """Total work in MACC-units with exps expanded (divides excluded).

        Used to size work on the 2D array, whose PEs perform
        multiply-accumulate and max but not division.
        """
        total = 0
        for cls, value in self.counts.items():
            if cls == "exp":
                total += value * exp_maccs
            elif cls == "divide":
                continue
            else:
                total += value
        return total

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"OpCounts({inner})"


#: One operation-count term: a cost class and the rank variables whose
#: extents multiply to its count.
Term = Tuple[str, Tuple[str, ...]]


def _expr_terms(expr: Expr, terms: List[Term]) -> None:
    if isinstance(expr, (Leaf, Literal)):
        return
    if isinstance(expr, Unary):
        _expr_terms(expr.child, terms)
    elif isinstance(expr, Map):
        _expr_terms(expr.lhs, terms)
        _expr_terms(expr.rhs, terms)
    else:
        raise TypeError(f"unknown expression node {type(expr).__name__}")
    terms.append((expr.op.cost_class, expr.vars()))


def einsum_terms(einsum: Einsum) -> Tuple[Term, ...]:
    """One Einsum's op-count terms in counting order: each map and unary
    action of its expression over that node's rank variables, children
    first, then each reduction over the iteration space.  A sum fused
    under a root MACC is no term of its own; a view has no terms."""
    if einsum.is_view:
        return ()
    terms: List[Term] = []
    _expr_terms(einsum.expr, terms)
    space = einsum.iteration_vars()
    root_is_macc = isinstance(einsum.expr, Map) and einsum.expr.op.cost_class == "macc"
    for var in einsum.reduced_vars():
        op = einsum.reduce_action(var)
        if op.cost_class == "add" and root_is_macc:
            continue  # fused multiply-accumulate: already counted as macc
        terms.append((op.cost_class, space))
    return tuple(terms)


def _evaluate(terms: Tuple[Term, ...], extents: Mapping[str, int]) -> OpCounts:
    counts: Dict[str, int] = {}
    for cls, vars_ in terms:
        counts[cls] = counts.get(cls, 0) + prod(map(extents.__getitem__, vars_))
    return OpCounts(counts)


def _rank_vars(einsums: Iterable[Einsum]) -> Tuple[str, ...]:
    """Every rank variable counting the Einsums resolves: the iteration
    spaces of all but the views."""
    return tuple(
        dict.fromkeys(v for e in einsums if not e.is_view for v in e.iteration_vars())
    )


def count_einsum_ops(
    einsum: Einsum, cascade: Cascade, shapes: Mapping[str, int]
) -> OpCounts:
    """Count the operations one Einsum performs under concrete shapes."""
    extents = {v: cascade.rank_extent(v, shapes) for v in _rank_vars((einsum,))}
    return _evaluate(einsum_terms(einsum), extents)


@dataclass(frozen=True)
class OpTable:
    """A cascade's op-count terms per Einsum label, derived once.

    Counting under concrete shapes is then integer products of rank
    extents; :func:`repro.model.perf.shared_cascade` keeps one table per
    cascade builder.
    """

    cascade: Cascade
    terms: Mapping[str, Tuple[Term, ...]]
    rank_vars: Tuple[str, ...]

    @classmethod
    def of(cls, cascade: Cascade) -> "OpTable":
        terms = {einsum.label: einsum_terms(einsum) for einsum in cascade.einsums}
        return cls(cascade, terms, _rank_vars(cascade.einsums))

    def count(self, shapes: Mapping[str, int]) -> Dict[str, OpCounts]:
        """Per-Einsum operation counts, keyed by Einsum label."""
        extents = {v: self.cascade.rank_extent(v, shapes) for v in self.rank_vars}
        return {label: _evaluate(terms, extents) for label, terms in self.terms.items()}


def count_ops(
    cascade: Cascade, shapes: Mapping[str, int]
) -> Dict[str, OpCounts]:
    """Per-Einsum operation counts, keyed by Einsum label."""
    return OpTable.of(cascade).count(shapes)


def total_ops(cascade: Cascade, shapes: Mapping[str, int]) -> OpCounts:
    """Aggregate operation counts for the whole cascade."""
    total = OpCounts({})
    for counts in count_ops(cascade, shapes).values():
        total = total + counts
    return total
