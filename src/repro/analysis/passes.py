"""Pass counting for cascades of Einsums (Section III of the paper).

A *pass* over a rank of a tensor is a traversal of every element of one of
its fibers; each time an element must be revisited after visiting every
other element, there is an additional pass.  Passes constrain fusion
(Einsums in different passes cannot be fused on that rank) and lower bound
live footprints (a tensor produced in one pass and consumed in a later one
must hold a full fiber).

Rank families
-------------

The paper counts passes over "a given M fiber" even when the cascade
partitions M into (M1, M0) chunks.  We therefore analyse passes over a
*rank family*: an ordered tuple of rank variables that jointly tile the
conceptual rank, outermost first — ``("m",)`` for the un-partitioned
cascades, ``("m1", "m0")`` for the partitioned ones.  The *inner* variable
identifies "big" tensors (those whose footprint spans the full rank); the
*outer* variable is the unit in which a pass streams.

The model
---------

Every Einsum is assigned a point on a pass timeline:

- integer time ``k`` — the Einsum runs *during* pass ``k``, consuming and
  producing data chunk-by-chunk (streaming);
- time ``k + 0.5`` — the Einsum (or a tensor's final value) is only
  available *after* pass ``k`` completes.

An Einsum *participates* in the passes if it reads a tensor carrying the
family's inner variable (it traverses the full rank).  Participating
Einsums must run at integer times; the number of passes of the cascade is
the largest such time.  Rules:

1. Cascade inputs (and views of them) are readable in any pass.
2. A streaming tensor produced during pass ``k`` can be consumed at pass
   ``k`` (fused) — unless the consumer pins the outer variable to a fixed
   coordinate (e.g. ``RNV[f, M1, p]``), which needs the pass to complete.
3. A tensor whose producer traversed the family but whose output dropped
   the outer variable (a full reduction such as ``GM_p``) is final only
   after its producer's pass: available at ``k + 0.5``.
4. Iterative ranks propagate values point-wise along the pass (a
   recurrence is still streaming), which is exactly why Cascade 5's
   running max/denominator/numerator need only one pass.

Availabilities are computed to a fixed point so that mutual recurrences
through iterative ranks (``RD``/``SPD``) resolve correctly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..einsum.cascade import Cascade
from ..einsum.einsum import Einsum
from ..einsum.index import Fixed, Shifted, Var
from ..einsum.tensor import TensorRef
from .dependence import DependenceGraph, build_dependence

#: Half-step used for "after pass k" times.
AFTER = 0.5

#: Maximum fixed-point rounds before declaring non-convergence.
_MAX_ROUNDS = 16


@dataclass(frozen=True)
class RankFamily:
    """An ordered tuple of rank variables tiling one conceptual rank."""

    vars: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.vars:
            raise ValueError("a rank family needs at least one variable")

    @property
    def outer(self) -> str:
        return self.vars[0]

    @property
    def inner(self) -> str:
        return self.vars[-1]

    def __str__(self) -> str:
        return "(" + ", ".join(self.vars) + ")"


def family(*vars: str) -> RankFamily:
    """Convenience constructor: ``family("m1", "m0")``."""
    return RankFamily(tuple(vars))


@dataclass(frozen=True)
class Availability:
    """When a tensor's contents can be read.

    ``streaming`` means the tensor is produced chunk-by-chunk along the
    family's outer variable during pass ``floor(time)``; otherwise the
    tensor is only complete at ``time`` (which then has a ``+0.5``
    component when it closes a pass).
    """

    time: float
    streaming: bool


@dataclass(frozen=True)
class EinsumPassInfo:
    """Per-Einsum result of the pass analysis."""

    label: str
    participates: bool
    pass_number: Optional[int]
    time: float
    is_view: bool

    @property
    def consumption_time(self) -> float:
        """The time at which this Einsum reads its operands."""
        if self.pass_number is not None:
            return float(self.pass_number)
        return self.time


@dataclass(frozen=True)
class PassAnalysis:
    """Result of :func:`count_passes`."""

    cascade: Cascade
    rank_family: RankFamily
    num_passes: int
    info: Mapping[str, EinsumPassInfo]
    availability: Mapping[str, Availability]
    graph: DependenceGraph

    def pass_of(self, label: str) -> Optional[int]:
        """Pass number of the Einsum with the given label (None if outside)."""
        return self.info[label].pass_number

    def participating(self) -> Tuple[str, ...]:
        return tuple(
            label for label, inf in self.info.items() if inf.participates
        )


def _ref_outer_relation(ref: TensorRef, outer: str) -> str:
    """How a reference relates to the family's outer variable.

    Returns ``"carries"`` when the reference traverses ``outer``,
    ``"pinned"`` when some rank is pinned with a :class:`Fixed` coordinate
    (reading a single — typically final — coordinate), and ``"absent"``
    otherwise.
    """
    if ref.carries(outer):
        return "carries"
    if any(isinstance(ix, Fixed) for ix in ref.indices):
        return "pinned"
    return "absent"


def _output_carries(einsum: Einsum, outer: str) -> bool:
    """Whether the Einsum's output traverses the outer variable."""
    return any(
        outer in ix.vars() and isinstance(ix, (Var, Shifted))
        for ix in einsum.output.indices
    )


def _ceil_pass(time: float) -> int:
    """Smallest integer pass number at or after ``time`` (at least 1)."""
    return max(1, math.ceil(time - 1e-9))


def count_passes(cascade: Cascade, rank_family: RankFamily) -> PassAnalysis:
    """Count the passes ``cascade`` performs over ``rank_family``.

    The result is mapping-independent: it is the algorithmic minimum for
    any binding of the cascade onto hardware, matching the paper's
    definition (Sec. III-A).
    """
    graph = build_dependence(cascade)
    outer, inner = rank_family.outer, rank_family.inner
    iterative = set(cascade.iterative_vars)
    inputs = set(cascade.inputs)

    avail: Dict[str, Availability] = {}
    info: Dict[str, EinsumPassInfo] = {}

    for _ in range(_MAX_ROUNDS):
        changed = False
        round_avail: Dict[str, Availability] = {}
        for einsum in cascade.einsums:
            if einsum.is_view:
                info[einsum.label] = EinsumPassInfo(
                    einsum.label, False, None, 0.0, is_view=True
                )
                continue
            participates = any(ref.carries(inner) for ref in einsum.reads())
            raw = 1.0 if participates else 0.0
            for ref in einsum.reads():
                if ref.tensor == einsum.writes_tensor():
                    continue  # recurrence through the Einsum's own output
                backing = graph.backing[ref.tensor]
                if backing in inputs:
                    raw = max(raw, 1.0)
                    continue
                current = round_avail.get(backing, avail.get(backing))
                if current is None:
                    current = Availability(1.0, streaming=True)  # optimistic
                if current.streaming:
                    relation = _ref_outer_relation(ref, outer)
                    if relation == "pinned":
                        raw = max(raw, math.floor(current.time) + AFTER)
                    else:
                        raw = max(raw, current.time)
                else:
                    raw = max(raw, current.time)

            out_carries = _output_carries(einsum, outer)
            if participates:
                pass_number: Optional[int] = _ceil_pass(raw)
                if out_carries:
                    new_avail = Availability(float(pass_number), streaming=True)
                else:
                    new_avail = Availability(pass_number + AFTER, streaming=False)
                time = float(pass_number)
            else:
                pass_number = None
                time = raw
                completion = raw
                closes_stream = (
                    einsum.traverses(outer)
                    and not out_carries
                    and outer not in iterative
                    and float(completion).is_integer()
                    and completion > 0
                )
                if closes_stream:
                    completion += AFTER
                streaming = out_carries and float(completion).is_integer()
                new_avail = Availability(completion, streaming=streaming)

            round_avail[einsum.writes_tensor()] = new_avail
            new_info = EinsumPassInfo(
                einsum.label, participates, pass_number, time, is_view=False
            )
            if info.get(einsum.label) != new_info:
                changed = True
            info[einsum.label] = new_info
        if avail != round_avail:
            changed = True
        avail = round_avail
        if not changed:
            break
    else:
        raise RuntimeError(
            f"pass analysis of {cascade.name!r} did not converge"
        )

    num_passes = max(
        (inf.pass_number for inf in info.values() if inf.pass_number is not None),
        default=0,
    )
    return PassAnalysis(
        cascade=cascade,
        rank_family=rank_family,
        num_passes=num_passes,
        info=info,
        availability=avail,
        graph=graph,
    )
