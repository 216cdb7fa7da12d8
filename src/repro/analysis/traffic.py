"""Memory-traffic lower bounds from the pass structure (Sec. III-B).

"An architecture must either have enough buffer space to hold an entire K
fiber of A or spill and reload that fiber, incurring memory traffic
proportional to the shape of K."  This module computes that dichotomy for
a whole cascade:

- every cascade *input* must be streamed from memory once per pass that
  reads it (inputs live off-chip by definition);
- every pass-crossing *intermediate* either fits in the buffer alongside
  the other crossing tensors or pays a write + one read per later
  crossing consumer;
- every declared *output* is written once.

The bounds hold for any mapping — they are the traffic floor a mapper can
approach but not beat, and exactly the quantity FuseMax makes
sequence-length independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Set

from ..einsum.cascade import Cascade
from ..einsum.index import Affine, Fixed, Shifted, Var
from ..einsum.tensor import TensorRef
from .footprint import live_footprints
from .passes import PassAnalysis

_TOLERANCE = 1e-9


@dataclass(frozen=True)
class TensorTraffic:
    """Traffic floor for one tensor, in words."""

    tensor: str
    kind: str  # "input", "intermediate", "output"
    size_words: int
    read_words: float
    write_words: float

    @property
    def total_words(self) -> float:
        return self.read_words + self.write_words


@dataclass(frozen=True)
class TrafficBound:
    """Whole-cascade traffic floor under a given buffer capacity."""

    cascade_name: str
    entries: Mapping[str, TensorTraffic]
    buffered: bool  # True when crossing intermediates fit on chip

    def total_words(self) -> float:
        return sum(entry.total_words for entry in self.entries.values())

    def total_bytes(self, word_bytes: int = 2) -> float:
        return self.total_words() * word_bytes


def _tensor_size(cascade: Cascade, ref: TensorRef, shapes: Mapping[str, int]) -> int:
    """Element count of a tensor from one of its references."""
    size = 1
    for ix in ref.indices:
        if isinstance(ix, Var):
            size *= cascade.rank_extent(ix.name, shapes)
        elif isinstance(ix, Shifted):
            size *= cascade.rank_extent(ix.name, shapes) + max(ix.offset, 0)
        elif isinstance(ix, Affine):
            extent = 1
            for var in ix.vars():
                extent *= cascade.rank_extent(var, shapes)
            size *= extent
        elif isinstance(ix, Fixed):
            continue
    return size


def _input_pass_reads(
    analysis: PassAnalysis, tensor: str
) -> int:
    """Number of distinct passes in which an input (or a view of it) is
    read by a participating Einsum."""
    cascade = analysis.cascade
    backed = {
        name
        for name in cascade.tensors()
        if analysis.graph.backing[name] == tensor
    }
    passes: Set[int] = set()
    for einsum in cascade.einsums:
        if einsum.is_view:
            continue
        info = analysis.info[einsum.label]
        if info.pass_number is None:
            continue
        if einsum.read_tensors() & backed:
            passes.add(info.pass_number)
    return max(1, len(passes))


def traffic_lower_bound(
    analysis: PassAnalysis,
    shapes: Mapping[str, int],
    buffer_bytes: int,
    word_bytes: int = 2,
) -> TrafficBound:
    """The cascade's DRAM-traffic floor under ``buffer_bytes`` of on-chip
    storage (for the crossing intermediates)."""
    cascade = analysis.cascade
    footprints = live_footprints(analysis, shapes)

    def spills(tensor: str) -> bool:
        """A crossing tensor spills when its *live* footprint (which is
        O(1) along iterative ranks) cannot be held on chip.  Per-tensor
        capacity checks give a valid lower bound: sharing the buffer only
        makes things worse."""
        footprint = footprints.entries[tensor]
        if not footprint.crosses_pass_boundary:
            return False
        return footprint.total_elems * word_bytes > buffer_bytes

    buffered = not any(spills(t) for t in footprints.entries)

    entries: Dict[str, TensorTraffic] = {}
    outputs = set(cascade.result_tensors())

    for tensor in cascade.inputs:
        refs = [
            r
            for e in cascade.einsums
            for r in e.reads()
            if analysis.graph.backing[r.tensor] == tensor and r.tensor == tensor
        ]
        if not refs:
            # Only read through views; size via the view's source ref.
            refs = [
                r
                for e in cascade.einsums
                for r in e.reads()
                if r.tensor == tensor
            ]
        size = _tensor_size(cascade, refs[0], shapes) if refs else 0
        reads = _input_pass_reads(analysis, tensor)
        entries[tensor] = TensorTraffic(
            tensor=tensor,
            kind="input",
            size_words=size,
            read_words=float(size * reads),
            write_words=0.0,
        )

    for tensor, footprint in footprints.entries.items():
        producer = cascade.producer(tensor)
        if producer is None:
            continue
        size = _tensor_size(cascade, producer.output, shapes)
        is_output = tensor in outputs
        write = float(size) if is_output else 0.0
        read = 0.0
        if spills(tensor) and not is_output:
            avail = analysis.availability[tensor]
            crossing_consumers = sum(
                1
                for label in analysis.graph.consumers_of.get(tensor, ())
                if label != producer.label
                and analysis.info[label].consumption_time
                > avail.time + _TOLERANCE
            )
            write = float(size)
            read = float(size * crossing_consumers)
        entries[tensor] = TensorTraffic(
            tensor=tensor,
            kind="output" if is_output else "intermediate",
            size_words=size,
            read_words=read,
            write_words=write,
        )

    return TrafficBound(
        cascade_name=cascade.name, entries=entries, buffered=buffered
    )
