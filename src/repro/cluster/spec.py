"""Cluster specifications: chips, interconnect, and sharding policies.

A :class:`ClusterSpec` describes the *machine side* of a multi-chip
deployment — how many accelerator instances there are and what link
connects them — exactly the way :class:`~repro.workloads.scenario
.Scenario` describes the workload side.  Both are frozen and complete:
equal specs describe the same cluster, and every field participates in
the runtime cache identity (task kind ``"cluster"``).

``link_bw`` follows the ``dram_bw`` convention: ``None`` means the
interconnect is not modeled at all (a deliberate "infinite fabric"
baseline) and the lowered graphs carry no collectives.  The lowering
reads the spec's :func:`~repro.workloads.scenario.schedule_form`,
which also has no link at ``math.inf`` (every collective would cost
zero cycles) or on one chip (there are no peers to gather from), so
those specs lower to the same graphs.  ``link_latency`` is a fixed
per-collective cost (cycles) added on top of the bandwidth term — the
fabric's software + serialization overhead, paid once per collective,
not per byte.

``topology`` is ``"all-to-all"`` first: every chip reaches every other
chip through one shared full-duplex fabric, so all collectives arbitrate
a single ``link`` resource.  Ring/mesh topologies (per-hop resources)
are roadmap follow-ons; the field exists now so their arrival cannot
silently re-key cached results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "LINK_RESOURCE",
    "SHARDINGS",
    "TOPOLOGIES",
    "ClusterSpec",
]

#: Resource name of the shared interconnect the collective tasks occupy
#: (the third shared-resource tier: array slots → ``dram`` → ``link``).
LINK_RESOURCE = "link"

#: Supported interconnect topologies (all-to-all first; ring/mesh are
#: roadmap follow-ons).
TOPOLOGIES: Tuple[str, ...] = ("all-to-all",)

#: Sharding policies for lowering a scenario onto the chips:
#:
#: - ``"head"`` — head parallelism: each prefill ``(batch, head)``
#:   instance runs whole on one chip, instances block-partitioned
#:   across chips; decode instances spread the same way (request
#:   parallelism).
#: - ``"tensor"`` — tensor parallelism: every chip runs every prefill
#:   instance over a ``1/n_chips`` embedding slice (column-parallel
#:   projections), so per-chip compute shrinks while collective traffic
#:   grows; decode still uses request parallelism (a single query row
#:   is too small to slice).
SHARDINGS: Tuple[str, ...] = ("head", "tensor")


@dataclass(frozen=True)
class ClusterSpec:
    """One multi-chip deployment: identical accelerators on a shared link.

    The defaults describe the degenerate single-chip cluster, whose
    lowered schedules are byte-identical to unsharded scenarios — the
    invariant ``tests/test_cluster.py`` locks.
    """

    n_chips: int = 1
    link_bw: Optional[float] = None  # bytes per cycle; None = unmodeled
    link_latency: int = 0  # fixed cycles per collective
    topology: str = "all-to-all"

    def __post_init__(self) -> None:
        if self.n_chips < 1:
            raise ValueError(f"n_chips must be >= 1, got {self.n_chips}")
        if self.link_bw is not None and not self.link_bw > 0:
            raise ValueError(f"link_bw must be > 0, got {self.link_bw}")
        if self.link_latency < 0:
            raise ValueError(
                f"link_latency must be >= 0, got {self.link_latency}"
            )
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; have {TOPOLOGIES}"
            )

    def describe(self) -> str:
        """One-line summary for CLI output and run-registry records."""
        if self.n_chips == 1:
            return "1 chip"
        link = "unmodeled" if self.link_bw is None else f"{self.link_bw:g}B/cy"
        tail = f", lat={self.link_latency}" if self.link_latency else ""
        return f"{self.n_chips} chips ({self.topology}, link={link}{tail})"
