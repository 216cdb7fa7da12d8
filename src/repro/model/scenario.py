"""Analytical scenario models: per-array utilization without simulating.

The simulator schedules a :class:`~repro.workloads.scenario.Scenario`'s
merged multi-instance task graph; this module predicts the same
schedule's shape *analytically*, integrating the per-chunk work totals
the graphs are built from (:func:`repro.simulator.pipeline.chunk_work`)
instead of replaying them.  Because both layers read one work function,
any divergence between a simulated and an analytical utilization is a
modeling statement, not an accounting bug — exactly what the
cross-check report (:mod:`repro.experiments.crosscheck`) tabulates.

Three estimate kinds cover the binding/bandwidth space:

- ``overlap-bound`` — the perfect-overlap bound: the makespan of any
  valid schedule is at least the busiest resource's total work, so per
  -array utilization is at most ``work_r / max_r(work)``.  The
  interleaved binding approaches this bound from below (warm-up only);
  a *multi-instance* tile-serial schedule approaches it too, because
  independent instances fill each other's stalls until the serialized
  array-edge (``io``) resource saturates.
- ``bandwidth-bound`` — the same bound when the busiest resource is the
  shared DRAM link a finite ``dram_bw`` introduces: total transfer
  cycles (integrated task-by-task with the simulator's own ceiling
  arithmetic) exceed every array's work, so the schedule rides the
  memory wall the roofline model predicts for decode-heavy mixes.
  With a finite ``Scenario.buffer_bytes`` the traffic is additionally
  inflated by the closed-form spill volume
  (:func:`repro.simulator.pipeline.scenario_spill_bytes`): working-set
  demand beyond the buffer re-fetches the resident stream every chunk,
  shifting the roofline's traffic term exactly as the built graph's
  ``bytes_moved`` shifts — the estimate is reported as
  ``capacity-bound`` when that spill traffic is what pins the link.
- ``serial-chain`` — the closed-form steady-state chunk interval of a
  *single* tile-serial instance, where the per-chunk dependency chain
  (fill → BQK → drain → max/renorm chain) is exposed and both arrays
  stall.  This is the analytical form of the paper's Fig. 4 argument.
  (With ``dram_bw`` set, the chain still holds unless total transfer
  cycles exceed it — transfers are dependency-free and stream ahead —
  so the estimate takes the maximum of the two.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ..arch.spec import EXP_AS_MACCS
from ..simulator.pipeline import (
    PipelineConfig,
    chunk_work,
    instance_config,
    instance_dram_cycles,
    scenario_spill_bytes,
)
from ..workloads.scenario import Phase, Scenario

#: Resources of a scenario schedule, in reporting order (``dram`` only
#: accrues work when the scenario sets a finite ``dram_bw``).
ARRAYS: Tuple[str, ...] = ("2d", "1d", "io", "dram")


@dataclass(frozen=True)
class ScenarioEstimate:
    """Analytical latency + per-array utilization of one scenario."""

    scenario: str
    binding: str
    instances: int
    kind: str  # see :func:`bound_kind`, or "serial-chain"
    latency_cycles: int
    busy: Mapping[str, int]

    def utilization(self, resource: str) -> float:
        if not self.latency_cycles:
            return 0.0
        return self.busy.get(resource, 0) / self.latency_cycles

    @property
    def util_2d(self) -> float:
        return self.utilization("2d")

    @property
    def util_1d(self) -> float:
        return self.utilization("1d")

    @property
    def util_dram(self) -> float:
        return self.utilization("dram")


def instance_work(
    scenario: Scenario, phase: Phase, config: PipelineConfig
) -> Dict[str, int]:
    """Busy cycles per resource of one of ``phase``'s instances at
    ``config`` (its own, or its chip's shard): the
    :func:`~repro.simulator.pipeline.chunk_work` totals over its chunks
    plus its ``dram`` transfers, spills included."""
    work = chunk_work(
        config, serial=scenario.binding == "tile-serial", kind=phase.kind
    )
    return {
        "2d": phase.chunks * work.cycles_2d,
        "1d": phase.chunks * work.cycles_1d,
        "io": phase.chunks * work.cycles_io,
        "dram": instance_dram_cycles(scenario, phase, config),
    }


def scenario_work(scenario: Scenario) -> Mapping[str, int]:
    """Total busy cycles per resource across every instance — the exact
    sums the merged task graph's durations add up to (including the
    lowered ``dram`` transfers when the scenario sets ``dram_bw``)."""
    busy = {resource: 0 for resource in ARRAYS}
    for phase in scenario.phases:
        work = instance_work(scenario, phase, instance_config(scenario, phase))
        for resource in ARRAYS:
            busy[resource] += phase.instances * work[resource]
    return busy


def serial_chunk_interval(scenario: Scenario) -> int:
    """Steady-state cycles between consecutive chunks of one tile-serial
    prefill instance running alone.

    Derived by walking the per-chunk dependency chain of
    :func:`repro.simulator.pipeline.build_tasks` (serial mode, one issue
    slot per resource): fill and BQK and drain serialize, the 1D max
    chain (LM, RM) follows the drain, then the exponentiation path
    (SLN → SLNV → RNV) races the denominator path (SLD/PRM → RD) and
    the longer one gates the next chunk's fill.
    """
    config = instance_config(
        scenario,
        max(
            (p for p in scenario.phases if p.kind == "prefill"),
            key=lambda p: p.chunks,
        ),
    )
    e = config.embedding
    c1 = config.one_d_cycles(1)
    c6 = config.one_d_cycles(EXP_AS_MACCS)
    c2 = config.one_d_cycles(2)
    cv = config.one_d_cycles(2 * e)
    fill = drain = config.array_dim
    numerator_path = EXP_AS_MACCS + e  # SLN then SLNV on the 2D array
    denominator_path = max(EXP_AS_MACCS, c6) + c1 + c2  # SLN|PRM, SLD, RD
    return (
        fill + e + drain + 2 * c1
        + max(numerator_path, denominator_path) + cv
    )


def bound_kind(scenario: Scenario, dram_cycles: int, latency: int, spill_bytes: int) -> str:
    """Which term of a busiest-resource bound binds; the scenario model
    and each chip of the cluster model decide it here.

    ``overlap-bound`` unless a modeled DRAM link's ``dram_cycles`` set
    ``latency``.  Then ``capacity-bound`` if that link also carries
    ``spill_bytes`` of capacity spills, since the buffer model inflated
    its traffic, else ``bandwidth-bound``."""
    if scenario.dram_bw is None or dram_cycles != latency:
        return "overlap-bound"
    return "capacity-bound" if spill_bytes > 0 else "bandwidth-bound"


def analytical_scenario(scenario: Scenario) -> ScenarioEstimate:
    """The analytical counterpart of one simulated scenario.

    Replaces the models' bare ``B × H`` latency scale factor: instead of
    multiplying a single-instance latency by the instance count, the
    estimate reasons about the *shared* arrays directly — total work per
    resource, bounded below by the busiest one (``overlap-bound``, or
    ``bandwidth-bound`` when that resource is the finite-``dram_bw``
    memory link), or the explicit per-chunk serialization chain when a
    lone tile-serial instance leaves nothing to overlap with
    (``serial-chain``).
    """
    busy = scenario_work(scenario)
    lone_serial = (
        scenario.binding == "tile-serial"
        and scenario.instances == 1
        and all(p.kind == "prefill" for p in scenario.phases)
    )
    if lone_serial:
        chunks = sum(p.chunks for p in scenario.phases)
        # Transfers are dependency-free, so they stream ahead of the
        # chain and only bind when the link itself runs out of cycles.
        latency = max(chunks * serial_chunk_interval(scenario), busy["dram"])
        kind = "serial-chain"
    else:
        latency = max(busy.values())
        kind = bound_kind(scenario, busy["dram"], latency, scenario_spill_bytes(scenario))
    return ScenarioEstimate(
        scenario=scenario.name,
        binding=scenario.binding,
        instances=scenario.instances,
        kind=kind,
        latency_cycles=latency,
        busy=busy,
    )


def evaluate_grid_cell(cell: "ScenarioGridCell") -> "ScenarioGridResult":
    """Evaluate one scenario-grid cell: simulate the merged schedule and
    join the closed-form analytical estimate of the same scenario.

    This is the worker function behind the runtime's ``"scenario_grid"``
    task kind — it lives here (not in the simulator) because it is the
    one place both accounts of a scenario meet, so every grid doubles as
    a crosscheck-at-scale.  Pure and picklable: everything it needs rides
    in the frozen ``cell``.
    """
    from ..simulator.sweep import ScenarioGridResult, evaluate_scenario_point

    sim = evaluate_scenario_point(cell.scenario)
    estimate = analytical_scenario(cell.scenario)
    return ScenarioGridResult(
        model=cell.model,
        batch=cell.batch,
        heads=cell.heads,
        decode=cell.decode,
        sim=sim,
        estimate=estimate.kind,
        est_util_2d=estimate.util_2d,
        est_util_1d=estimate.util_1d,
    )
