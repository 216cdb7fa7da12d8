"""Cluster evaluation points and result rows.

One :class:`ClusterPoint` pairs a workload (:class:`~repro.workloads
.scenario.Scenario`) with a machine (:class:`~repro.cluster.spec
.ClusterSpec`) and a sharding policy; evaluating it schedules the
sharded merged graph and folds the measurement into a
:class:`ClusterResult` row.  Points are frozen and pure, so they flow
through the pooled runtime unchanged under task kind ``"cluster"``:
fan out over processes, content-address into the cache, replay from a
rerun.

Column gating follows the scenario rows exactly: the historical
columns always render; the DRAM columns join only when a row models
memory bandwidth; the link columns (``link_bw`` / ``link_latency`` /
``busy_link`` / ``util_link``) join only when a row models the
interconnect (more than one chip *and* a bandwidth) — so single-chip
and unlinked sweeps keep their narrow byte-stable shape.

Utilization conventions: the per-chip arrays and DRAM stacks report
*per-chip-normalized* utilization (busy summed over chips, divided by
``makespan × n_chips`` — 1.0 means every chip's array was busy every
cycle), which degenerates to the scenario convention at one chip.  The
link is a single shared resource, so ``util_link`` divides by the
makespan alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, ClassVar, Dict, Optional, Tuple

from ..rows import Group
from ..workloads.scenario import Scenario, schedule_form
from . import build
from .spec import LINK_RESOURCE, SHARDINGS, ClusterSpec

__all__ = ["ClusterPoint", "ClusterResult", "evaluate_cluster_point"]


@dataclass(frozen=True)
class ClusterPoint:
    """One grid point of a cluster sweep (pickles cleanly to workers)."""

    scenario: Scenario
    spec: ClusterSpec = ClusterSpec()
    sharding: str = "head"

    def __post_init__(self) -> None:
        if self.sharding not in SHARDINGS:
            raise ValueError(
                f"unknown sharding {self.sharding!r}; have {SHARDINGS}"
            )

    @property
    def name(self) -> str:
        """Short display label (crosscheck rows, registry summaries)."""
        return f"{self.scenario.name}@x{self.spec.n_chips}-{self.sharding}"

    def describe(self) -> str:
        """Full point label for run-registry grid summaries."""
        return f"{self.scenario.describe()} | {self.sharding} on {self.spec.describe()}"

    def schedule_key(self) -> str:
        """A SHA-256 digest of the point with its scenario and spec in
        :func:`~repro.workloads.scenario.schedule_form`, which is what
        the sharded lowering reads.  Points with equal keys have equal
        schedules (a 1-chip point at any link setting, say), so a pass
        schedules one of them (see :meth:`ClusterResult.for_point`)."""
        form = replace(
            self, scenario=schedule_form(self.scenario), spec=schedule_form(self.spec)
        )
        return hashlib.sha256(repr(form).encode()).hexdigest()


def _link_columns(spec: ClusterSpec) -> Dict[str, Any]:
    """The link columns of ``spec``'s rows, as the caller gave them: a
    spec on one chip or without a bandwidth reports the link as
    unmodeled, so mixed batches gate the link columns per row exactly
    like the DRAM columns.  An infinite bandwidth on many chips prints
    as given."""
    if spec.n_chips > 1 and spec.link_bw is not None:
        return {"link_bw": spec.link_bw, "link_latency": spec.link_latency}
    return {"link_bw": None, "link_latency": 0}


@dataclass(frozen=True)
class ClusterResult:
    """Measured schedule of one sharded cluster graph.

    ``busy_2d`` / ``busy_1d`` / ``busy_io`` / ``busy_dram`` sum the
    per-chip resources (``c<k>:2d`` …); ``busy_link`` counts cycles the
    one shared interconnect was held (0 unless the point models it, in
    which case ``n_tasks`` also counts the collective tasks).
    ``link_bw`` is None — and the link columns stay gated off — when
    the interconnect is unmodeled (single chip or ``link_bw=None``).
    """

    COLUMNS: ClassVar[Tuple[Group, ...]] = (
        Group((
            "scenario", "binding", "sharding", "topology", "n_chips",
            "instances", "array_dim", "pe_1d", "embedding", "slots",
            "seq_len", "n_tasks", "makespan", "busy_2d", "busy_1d",
            "busy_io", "util_2d", "util_1d",
        )),
        Group(("dram_bw", "busy_dram", "util_dram"), blank="dram_bw"),
        Group(
            ("link_bw", "link_latency", "busy_link", "util_link"),
            blank="link_bw",
        ),
    )

    scenario: str
    binding: str
    sharding: str
    topology: str
    n_chips: int
    instances: int
    array_dim: int
    pe_1d: int
    embedding: int
    slots: int
    seq_len: int
    n_tasks: int
    makespan: int
    busy_2d: int
    busy_1d: int
    busy_io: int
    util_2d: float
    util_1d: float
    dram_bw: Optional[float] = None
    busy_dram: int = 0
    link_bw: Optional[float] = None
    link_latency: int = 0
    busy_link: int = 0

    @property
    def util_io(self) -> float:
        if not self.makespan:
            return 0.0
        return self.busy_io / (self.makespan * self.n_chips)

    @property
    def util_dram(self) -> float:
        if not self.makespan:
            return 0.0
        return self.busy_dram / (self.makespan * self.n_chips)

    @property
    def util_link(self) -> float:
        """Shared-link occupancy: one resource, so no per-chip factor."""
        return self.busy_link / self.makespan if self.makespan else 0.0

    def for_point(self, point: ClusterPoint) -> "ClusterResult":
        """This schedule's row as ``point`` reports it, for a point with
        the same :meth:`ClusterPoint.schedule_key`: its own scenario
        name, ``dram_bw`` and link columns."""
        return replace(
            self,
            scenario=point.scenario.name,
            dram_bw=point.scenario.dram_bw,
            **_link_columns(point.spec),
        )

    def utilization(self, resource: str) -> float:
        if resource == "link":
            return self.util_link
        busy = {"2d": self.busy_2d, "1d": self.busy_1d, "io": self.busy_io,
                "dram": self.busy_dram}
        if not self.makespan:
            return 0.0
        return busy[resource] / (self.makespan * self.n_chips)


def evaluate_cluster_point(
    point: ClusterPoint, engine: str = "vector"
) -> ClusterResult:
    """Schedule one sharded cluster graph and measure utilizations —
    the worker function behind the runtime's ``"cluster"`` task kind."""
    scenario, spec = point.scenario, point.spec
    # As for scenario points: the vector engine folds and builds no
    # merged list, and calls go through the build module so wrappers
    # installed there (a traced run's span hooks) see them.
    tasks = (
        None if engine == "vector"
        else build.build_cluster_tasks(scenario, spec, point.sharding)
    )
    result = build.schedule_cluster_tasks(
        scenario, spec, point.sharding, tasks, engine=engine
    )
    busy = result.busy_cycles

    def total(base: str) -> int:
        if spec.n_chips == 1:
            return busy.get(base, 0)
        return sum(
            busy.get(f"c{k}:{base}", 0) for k in range(spec.n_chips)
        )

    makespan = result.makespan
    denom = makespan * spec.n_chips
    busy_2d = total("2d")
    busy_1d = total("1d")
    return ClusterResult(
        scenario=scenario.name,
        binding=scenario.binding,
        sharding=point.sharding,
        topology=spec.topology,
        n_chips=spec.n_chips,
        instances=scenario.instances,
        array_dim=scenario.array_dim,
        pe_1d=scenario.resolved_pe_1d,
        embedding=scenario.embedding,
        slots=scenario.slots,
        seq_len=scenario.seq_len,
        n_tasks=len(result.finish_times),
        makespan=makespan,
        busy_2d=busy_2d,
        busy_1d=busy_1d,
        busy_io=total("io"),
        util_2d=busy_2d / denom if denom else 0.0,
        util_1d=busy_1d / denom if denom else 0.0,
        dram_bw=scenario.dram_bw,
        busy_dram=total("dram"),
        busy_link=busy.get(LINK_RESOURCE, 0),
        **_link_columns(spec),
    )
