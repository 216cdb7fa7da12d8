"""Dependence structure of a cascade.

Builds the producer/consumer relation between Einsums (the DAG of the
cascade) and resolves *views* — Einsums that merely re-index a backing
tensor (``BK[e, m1, m0] = K[e, m1*M0+m0]``) — to the tensor that actually
holds the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Set, Tuple

from ..einsum.cascade import Cascade
from ..einsum.einsum import Einsum


@dataclass(frozen=True)
class DependenceGraph:
    """Producer/consumer structure of a cascade.

    Attributes:
        cascade: The analysed cascade.
        producer_of: Non-initialization producer per tensor (initialization
            producers are kept separately, since iterative tensors have
            both).
        init_producer_of: Initialization producer per tensor, when present.
        consumers_of: Einsum labels reading each tensor.
        backing: View-resolution map: for every tensor, the non-view tensor
            that physically backs it (itself when not a view).
    """

    cascade: Cascade
    producer_of: Mapping[str, str]
    init_producer_of: Mapping[str, str]
    consumers_of: Mapping[str, Tuple[str, ...]]
    backing: Mapping[str, str]

    def is_input_backed(self, tensor: str) -> bool:
        """Whether ``tensor`` is a cascade input or a view of one."""
        return self.backing[tensor] in self.cascade.inputs

    def predecessors(self, einsum: Einsum) -> Tuple[str, ...]:
        """Labels of Einsums whose outputs this Einsum reads."""
        preds: List[str] = []
        for ref in einsum.reads():
            label = self.producer_of.get(ref.tensor)
            if label is not None and label != einsum.label and label not in preds:
                preds.append(label)
        return tuple(preds)

    def topological_check(self) -> None:
        """Verify the program order is a valid topological order.

        Reads of not-yet-produced tensors are only legal as iterative
        back-edges (reading the previous coordinate of an iterative rank).
        """
        iter_vars = set(self.cascade.iterative_vars)
        produced: Set[str] = set(self.cascade.inputs)
        for einsum in self.cascade.einsums:
            for ref in einsum.reads():
                if ref.tensor in produced or ref.tensor == einsum.writes_tensor():
                    continue
                if any(v in iter_vars for v in ref.vars()):
                    continue  # back-edge along an iterative rank
                raise ValueError(
                    f"{self.cascade.name}: {einsum.label} reads "
                    f"{ref.tensor!r} before any producer"
                )
            produced.add(einsum.writes_tensor())


def build_dependence(cascade: Cascade) -> DependenceGraph:
    """Construct the :class:`DependenceGraph` for ``cascade``."""
    producer: Dict[str, str] = {}
    init_producer: Dict[str, str] = {}
    consumers: Dict[str, List[str]] = {}
    for einsum in cascade.einsums:
        target = init_producer if einsum.is_initialization else producer
        target.setdefault(einsum.writes_tensor(), einsum.label)
        for ref in einsum.reads():
            consumers.setdefault(ref.tensor, []).append(einsum.label)

    backing: Dict[str, str] = {name: name for name in cascade.tensors()}
    for einsum in cascade.einsums:
        if einsum.is_view:
            sources = einsum.read_tensors()
            if len(sources) != 1:
                raise ValueError(
                    f"view Einsum {einsum.label} must read exactly one tensor"
                )
            backing[einsum.writes_tensor()] = next(iter(sources))
    # Collapse chains of views.
    for tensor in list(backing):
        seen = {tensor}
        current = tensor
        while backing[current] != current:
            current = backing[current]
            if current in seen:
                raise ValueError(f"cyclic view chain through {tensor!r}")
            seen.add(current)
        backing[tensor] = current

    graph = DependenceGraph(
        cascade=cascade,
        producer_of=producer,
        init_producer_of=init_producer,
        consumers_of={t: tuple(c) for t, c in consumers.items()},
        backing=backing,
    )
    graph.topological_check()
    return graph
