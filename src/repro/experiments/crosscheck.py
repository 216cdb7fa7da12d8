"""Analytical ↔ simulator cross-validation over scenario schedules.

The repo carries two independent accounts of how ``B × H`` attention
instances share the 2D/1D arrays: the event-driven simulator *schedules*
each scenario's merged task graph, and the analytical scenario models
(:mod:`repro.model.scenario`) *bound* the same schedule in closed form.
Both integrate one per-chunk work function, so they must agree — the
interleaved binding and multi-instance tile-serial schedules to within
warm-up effects, and the lone tile-serial instance exactly (the
serial-chain interval is derived from the same dependency graph).

This report runs every seed scenario through both layers, tabulates
simulated vs. analytical per-array utilization, and flags any row whose
divergence exceeds the tolerance.  A flagged row means one of the
layers' assumptions broke — the cross-check that neither the models nor
the simulator can provide alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..api.session import Session
from ..cluster.spec import SHARDINGS, ClusterSpec
from ..cluster.sweep import ClusterPoint
from ..model.cluster import analytical_cluster
from ..model.scenario import analytical_scenario
from ..runtime.executor import cluster_grid, scenario_grid
from ..workloads.models import BERT
from ..workloads.scenario import (
    BINDINGS,
    Scenario,
    attention_scenario,
    mixed_model_scenario,
    scenario_from_model,
)
from .common import format_table

#: Maximum |simulated - analytical| utilization accepted without a flag.
DEFAULT_TOLERANCE = 0.05

#: Arrays compared per scenario (the io resource only exists under the
#: tile-serial binding, so the shared rows are the two PE arrays; the
#: ``dram`` row is appended for scenarios that model a finite
#: bandwidth).
CHECKED_ARRAYS: Tuple[str, ...] = ("2d", "1d")


def seed_scenarios() -> Tuple[Scenario, ...]:
    """The default cross-check grid: both bindings at several
    multiprogramming levels, a prefill+decode mix, and a model-derived
    ``B × H`` scenario."""
    scenarios = []
    for binding in BINDINGS:
        for instances in (1, 4, 16):
            scenarios.append(
                attention_scenario(instances, 64, binding=binding)
            )
        scenarios.append(
            attention_scenario(
                4, 64, binding=binding,
                decode_instances=4, decode_chunks=128,
            )
        )
        scenarios.append(
            scenario_from_model(BERT, 4096, batch=4, binding=binding)
        )
    return tuple(scenarios)


def bandwidth_scenarios() -> Tuple[Scenario, ...]:
    """Bandwidth-limited cross-check grid (``--bandwidth``).

    Scenarios whose schedules ride the shared DRAM link: decode-heavy
    mixes at tight and ample bandwidth, a mixed-model (BERT+XLM)
    schedule, and a tile-serial bandwidth-bound point — the contention
    model the simulator and the analytical ``bandwidth-bound`` term must
    agree on.
    """
    tight, ample = 32.0, 65536.0
    scenarios = []
    for bw in (tight, ample):
        scenarios.append(
            attention_scenario(
                4, 32, decode_instances=8, decode_chunks=128, dram_bw=bw,
            )
        )
    scenarios.append(attention_scenario(8, 64, dram_bw=tight))
    scenarios.append(
        attention_scenario(
            4, 32, binding="tile-serial",
            decode_instances=4, decode_chunks=128, dram_bw=tight,
        )
    )
    scenarios.append(
        mixed_model_scenario(
            ("BERT", "XLM"), 16, batch=1, heads=4,
            decode_instances=4, decode_chunks=64, dram_bw=tight,
        )
    )
    return tuple(scenarios)


def capacity_scenarios() -> Tuple[Scenario, ...]:
    """Buffer-capacity cross-check grid (``--capacity``).

    Decisively bandwidth-bound points (tight DRAM link, transfer cycles
    well past every array's work) whose finite ``buffer_bytes`` forces
    spill/refill traffic — so the simulated schedule and the analytical
    ``capacity-bound`` roofline term must agree that the *inflated*
    byte count is what sets the makespan.  Buffers are chosen around
    the prefill working set (2 tiles resident + 2 transient at the
    default 256×64 geometry = 128 KiB demand): one point spills a
    partial tile, one spills the full resident set, one decode-heavy
    mix whose tighter buffer spills on both phase kinds, plus an
    infinite-buffer control that must stay plain ``bandwidth-bound``.
    """
    tight = 32.0
    return (
        attention_scenario(8, 64, dram_bw=tight, buffer_bytes=98304.0),
        attention_scenario(8, 64, dram_bw=tight, buffer_bytes=49152.0),
        attention_scenario(
            4, 32, decode_instances=8, decode_chunks=128,
            dram_bw=tight, buffer_bytes=49152.0,
        ),
        attention_scenario(
            8, 64, dram_bw=tight, buffer_bytes=float("inf"),
        ),
    )


def cluster_points() -> Tuple[ClusterPoint, ...]:
    """Sharded multi-chip cross-check grid (``--cluster``).

    One compute-dense scenario sharded over 2 and 4 chips under both
    policies, at a tight and an ample link bandwidth — the two regimes
    where the analytical bound is sharp (clearly link-bound, clearly
    compute-bound).  Mid-range bandwidths are deliberately absent: there
    the schedule genuinely overlaps collectives with compute, and the
    bound's divergence is a modeling statement, not a regression.
    """
    tight, ample = 8.0, 65536.0
    scenario = attention_scenario(8, 8, array_dim=64)
    return tuple(
        ClusterPoint(
            scenario=scenario,
            spec=ClusterSpec(n_chips=n_chips, link_bw=bw),
            sharding=sharding,
        )
        for n_chips in (2, 4)
        for sharding in SHARDINGS
        for bw in (tight, ample)
    )


@dataclass(frozen=True)
class CrosscheckRow:
    """One (scenario, array) comparison."""

    scenario: str
    binding: str
    instances: int
    array: str
    sim_util: float
    model_util: float
    model_kind: str
    tolerance: float

    @property
    def delta(self) -> float:
        return self.sim_util - self.model_util

    @property
    def within(self) -> bool:
        return abs(self.delta) <= self.tolerance

    @property
    def status(self) -> str:
        return "ok" if self.within else "DIVERGED"


@dataclass(frozen=True)
class CrosscheckReport:
    """Every comparison of one cross-check run."""

    tolerance: float
    rows: Tuple[CrosscheckRow, ...]

    @property
    def flagged(self) -> Tuple[CrosscheckRow, ...]:
        return tuple(row for row in self.rows if not row.within)

    @property
    def ok(self) -> bool:
        return not self.flagged


def crosscheck(
    scenarios: Optional[Sequence[Scenario]] = None,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    bandwidth: bool = False,
    capacity: bool = False,
    cluster: bool = False,
    session: Optional[Session] = None,
) -> CrosscheckReport:
    """Simulate each scenario in one session pass and diff its per-array
    utilization against the analytical estimate.

    ``bandwidth=True`` appends the bandwidth-limited grid
    (:func:`bandwidth_scenarios`) to the default seed scenarios, adding
    a ``dram`` comparison row for every scenario that models a finite
    ``dram_bw``.  ``capacity=True`` appends the finite-buffer grid
    (:func:`capacity_scenarios`), whose ``dram`` rows pit the spill
    -inflated schedule against the ``capacity-bound`` roofline term.
    ``cluster=True`` appends the sharded multi-chip grid
    (:func:`cluster_points`), whose rows compare the shared ``link``'s
    utilization against the analytical cluster bound, simulated in a
    second pass.
    """
    session = session or Session()
    points: Tuple[ClusterPoint, ...] = ()
    if scenarios is None:
        scenarios = seed_scenarios()
        if bandwidth:
            scenarios = scenarios + bandwidth_scenarios()
        if capacity:
            scenarios = scenarios + capacity_scenarios()
        if cluster:
            points = cluster_points()
    simulated = session.evaluate("scenario", scenario_grid(scenarios)).complete()
    rows = []
    for scenario, sim in zip(scenarios, simulated):
        model = analytical_scenario(scenario)
        arrays = CHECKED_ARRAYS
        if scenario.dram_bw is not None:
            arrays = arrays + ("dram",)
        for array in arrays:
            rows.append(
                CrosscheckRow(
                    scenario=scenario.name,
                    binding=scenario.binding,
                    instances=scenario.instances,
                    array=array,
                    sim_util=sim.utilization(array),
                    model_util=model.utilization(array),
                    model_kind=model.kind,
                    tolerance=tolerance,
                )
            )
    if points:
        clustered = session.evaluate("cluster", cluster_grid(points)).complete()
        for point, sim in zip(points, clustered):
            estimate = analytical_cluster(point.scenario, point.spec, point.sharding)
            rows.append(
                CrosscheckRow(
                    scenario=point.name,
                    binding=point.scenario.binding,
                    instances=point.scenario.instances,
                    array="link",
                    sim_util=sim.util_link,
                    model_util=estimate.util_link,
                    model_kind=estimate.kind,
                    tolerance=tolerance,
                )
            )
    return CrosscheckReport(tolerance=tolerance, rows=tuple(rows))


def render(report: CrosscheckReport) -> str:
    """The report as a text table plus a one-line verdict."""
    table = format_table(
        ["scenario", "binding", "N", "array", "sim util", "model util",
         "model", "delta", "status"],
        [
            (row.scenario, row.binding, row.instances, row.array,
             f"{row.sim_util:.4f}", f"{row.model_util:.4f}",
             row.model_kind, f"{row.delta:+.4f}", row.status)
            for row in report.rows
        ],
    )
    verdict = (
        f"all {len(report.rows)} comparisons within ±{report.tolerance:g}"
        if report.ok
        else f"{len(report.flagged)}/{len(report.rows)} comparisons "
             f"diverge beyond ±{report.tolerance:g}"
    )
    return f"{table}\n{verdict}"


def run(**kwargs) -> CrosscheckReport:
    """Structured rows (the experiment-driver convention)."""
    return crosscheck(**kwargs)


def main(session: Optional[Session] = None) -> None:
    print("Scenario cross-check: simulated vs analytical utilization")
    print(render(crosscheck(session=session)))
