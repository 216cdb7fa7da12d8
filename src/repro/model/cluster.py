"""Analytical cluster models: compute-, DRAM-, and link-bound terms.

The cluster counterpart of :mod:`repro.model.scenario`: predicts the
shape of a sharded schedule without simulating it, by integrating the
scenario model's per-instance work (:func:`repro.model.scenario
.instance_work`, spills included) over each chip's shard, and pricing
the collectives with the same byte and ceiling arithmetic the builder
lowers with (:func:`repro.cluster.cluster_link_cycles`).  Because every
term reads the builder's own helpers, a divergence between a simulated
and an analytical link utilization is a modeling statement about
*overlap*, not an accounting bug — exactly what ``repro crosscheck
--cluster`` gates.  At one chip the busy terms and the latency bound
are :func:`~repro.model.scenario.analytical_scenario`'s, buffer and
QoS included (bar a lone tile-serial instance's serial-chain bound).

The bound: any valid schedule is at least as long as the busiest
resource's total work, where the candidate resources are now each
chip's private arrays and DRAM stack (their own work only) and the one
shared link (everyone's collectives).  The estimate kind names which
term binds:

- ``overlap-bound`` — the busiest chip's busiest array.
- ``bandwidth-bound`` — the busiest chip's DRAM stack, or
  ``capacity-bound`` when that chip's shards spill, so the buffer model
  inflated its traffic (the rule of :func:`~repro.model.scenario
  .bound_kind`, shared with the scenario model).
- ``link-bound`` — the shared interconnect: aggregate collective
  traffic exceeds every per-chip term, the regime where adding chips
  stops helping (the strong-scaling knee).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Tuple

from ..cluster.build import (
    chip_instance_counts,
    cluster_link_cycles,
    shard_config,
)
from ..cluster.spec import ClusterSpec
from ..simulator.pipeline import instance_spill_bytes
from ..workloads.scenario import Scenario
from .scenario import bound_kind, instance_work

#: Resources of a cluster schedule, in reporting order (``dram`` and
#: ``link`` only accrue work when their bandwidths are modeled).
CLUSTER_ARRAYS: Tuple[str, ...] = ("2d", "1d", "io", "dram", "link")

#: The per-chip resources (everything but the shared link).
_CHIP_ARRAYS: Tuple[str, ...] = ("2d", "1d", "io", "dram")


@dataclass(frozen=True)
class ClusterEstimate:
    """Analytical latency + utilization of one sharded cluster point.

    ``busy`` holds cluster totals (per-chip resources summed over
    chips; the link as-is); ``chip_busy`` holds the busiest chip's
    cycles per resource — the per-chip binding terms the latency bound
    maximizes over.  Utilization follows the simulator's convention:
    per-chip resources normalize by ``latency × n_chips``, the shared
    link by the latency alone.
    """

    scenario: str
    binding: str
    sharding: str
    n_chips: int
    kind: str  # "link-bound", or see :func:`~repro.model.scenario.bound_kind`
    latency_cycles: int
    busy: Mapping[str, int]
    chip_busy: Mapping[str, int]

    def utilization(self, resource: str) -> float:
        if not self.latency_cycles:
            return 0.0
        if resource == "link":
            return self.busy.get("link", 0) / self.latency_cycles
        return self.busy.get(resource, 0) / (self.latency_cycles * self.n_chips)

    @property
    def util_2d(self) -> float:
        return self.utilization("2d")

    @property
    def util_1d(self) -> float:
        return self.utilization("1d")

    @property
    def util_dram(self) -> float:
        return self.utilization("dram")

    @property
    def util_link(self) -> float:
        return self.utilization("link")


def cluster_work(
    scenario: Scenario, spec: ClusterSpec, sharding: str = "head"
) -> Tuple[List[Mapping[str, int]], int]:
    """Busy cycles per chip per resource, plus the shared link total —
    the exact sums the sharded merged graph's durations add up to.

    Integrates each phase's shard once with
    :func:`~repro.model.scenario.instance_work` at the shard's own
    config (tensor-sharded prefill integrates at the sliced embedding),
    weighted by each chip's instance count.  At one chip this is
    :func:`~repro.model.scenario.scenario_work`."""
    chips: List[Mapping[str, int]] = [
        {resource: 0 for resource in _CHIP_ARRAYS}
        for _ in range(spec.n_chips)
    ]
    for phase in scenario.phases:
        config = shard_config(scenario, phase, sharding, spec.n_chips)
        work = instance_work(scenario, phase, config)
        counts = chip_instance_counts(phase, sharding, spec.n_chips)
        for chip, count in enumerate(counts):
            for resource in _CHIP_ARRAYS:
                chips[chip][resource] += count * work[resource]
    return chips, cluster_link_cycles(scenario, spec, sharding)


def analytical_cluster(
    scenario: Scenario, spec: ClusterSpec, sharding: str = "head"
) -> ClusterEstimate:
    """The analytical counterpart of one simulated cluster point.

    The latency bound maximizes over every chip's every private
    resource and the shared link; the kind records which term won, so a
    chip-count sweep reads off the strong-scaling knee (the chip count
    where ``kind`` flips to ``link-bound``) without simulating."""
    chips, link = cluster_work(scenario, spec, sharding)
    chip_busy = {
        resource: max(chip[resource] for chip in chips)
        for resource in _CHIP_ARRAYS
    }
    busy = {
        resource: sum(chip[resource] for chip in chips)
        for resource in _CHIP_ARRAYS
    }
    busy["link"] = link
    latency = max(max(chip_busy.values()), link)
    if link and link == latency:
        kind = "link-bound"
    else:
        # The spills riding on the (first) busiest DRAM stack.
        chip = max(range(spec.n_chips), key=lambda k: chips[k]["dram"])
        spills = sum(
            chip_instance_counts(phase, sharding, spec.n_chips)[chip]
            * instance_spill_bytes(
                shard_config(scenario, phase, sharding, spec.n_chips),
                phase.kind,
                scenario.buffer_bytes,
            )
            for phase in scenario.phases
        )
        kind = bound_kind(scenario, chip_busy["dram"], latency, spills)
    return ClusterEstimate(
        scenario=scenario.name,
        binding=scenario.binding,
        sharding=sharding,
        n_chips=spec.n_chips,
        kind=kind,
        latency_cycles=latency,
        busy=busy,
        chip_busy=chip_busy,
    )
