"""Lower a scenario onto a cluster: per-chip graphs + link collectives.

The lowering generalizes :func:`~repro.simulator.pipeline
.build_scenario_tasks` from one accelerator to ``spec.n_chips``
identical ones, and adds only what a cluster has.  Each phase's shard
is lowered once by the scenario path's own per-instance lowering
(:func:`~repro.simulator.pipeline.instance_template`: capacity spills,
the buffer's bounded prefetch depth, the DRAM transfers), in the
scenario's QoS ``emission_phases`` order.  The cluster then stamps it
per chip, renaming names, deps and resources ``c<k>:2d`` / ``c<k>:1d``
/ ``c<k>:io`` / ``c<k>:dram`` so chips never contend for each other's
arrays or memory, and turns the cross-chip output exchange into an
explicit *collective* task (``AG``, an all-gather) on the one shared
``link`` resource: ordinary graph structure, so both engines run
cluster graphs bit-identically with zero engine changes.

Sharding (:data:`~repro.cluster.spec.SHARDINGS`) decides how a phase's
instances map to chips:

- **block** (the ``"head"`` policy, and decode phases under either
  policy): instances are partitioned into contiguous, balanced blocks —
  head parallelism for prefill, request parallelism for decode.  Each
  instance's full output (its tensor-shape bytes) is all-gathered to
  the other ``n_chips - 1`` chips.
- **tensor** (the ``"tensor"`` policy, prefill phases only): every chip
  runs every instance over a ``1/n_chips`` slice of the embedding
  (column-parallel), so each chip all-gathers its *slice* of the
  output — per-collective traffic shrinks by ``n_chips`` while the
  collective count grows by the same factor.

Collective traffic is computed from the cascade's tensor shapes
(:func:`instance_out_bytes`): a prefill instance's output is its
``seq_len × E`` tile stream, a decode step's output is one ``E``-wide
row.  Duration is the link's ceiling-arithmetic transfer time plus the
fixed per-collective ``link_latency``.  The lowering reads the spec's
:func:`~repro.workloads.scenario.schedule_form`, which has no link at
one chip or at ``link_bw=None``/``inf``; without a link no collective
is emitted.  One chip is neither renamed nor linked, so a 1-chip
cluster's templates *are* the scenario's, buffer and QoS included, and
its merged graph is byte-identical to the unsharded scenario's: the
degenerate invariant the tests lock.

Every template keeps its dependencies inside the instance (collectives
hang off their own instance's sinks), so the folded vector engine
(:func:`~repro.simulator.vector.fold_templates`) accepts cluster
classes unchanged and ``engine="vector"`` replays cluster-scale grids
arithmetically.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from ..simulator.engine import SimResult, Task, transfer_cycles
from ..simulator.pipeline import (
    WORD_BYTES,
    PipelineConfig,
    _check_engine_tasks,
    _run,
    folded_slots,
    instance_config,
    instance_template,
    replicate_templates,
)
from ..simulator.vector import FoldedScenario, fold_templates, run_folded
from ..workloads.scenario import Phase, Scenario, schedule_form
from .spec import LINK_RESOURCE, SHARDINGS, ClusterSpec

__all__ = [
    "build_cluster_tasks",
    "chip_instance_counts",
    "cluster_link_cycles",
    "cluster_templates",
    "collective_bytes",
    "fold_cluster",
    "instance_out_bytes",
    "schedule_cluster_tasks",
    "shard_config",
]


def _check_sharding(sharding: str) -> None:
    if sharding not in SHARDINGS:
        raise ValueError(f"unknown sharding {sharding!r}; have {SHARDINGS}")


def _tensor_sharded(phase: Phase, sharding: str, n_chips: int) -> bool:
    """Whether this phase slices the embedding across chips (tensor
    policy, prefill only — decode rows are too small to slice)."""
    return sharding == "tensor" and phase.kind != "decode" and n_chips > 1


def shard_config(
    scenario: Scenario, phase: Phase, sharding: str, n_chips: int
) -> PipelineConfig:
    """One chip's :class:`PipelineConfig` for its shard of ``phase``.

    Block-parallel phases run the unmodified per-instance config;
    tensor-parallel prefill slices the embedding evenly (the slice must
    divide, as real column-parallel projections require)."""
    config = instance_config(scenario, phase)
    if not _tensor_sharded(phase, sharding, n_chips):
        return config
    if config.embedding % n_chips:
        raise ValueError(
            f"tensor sharding needs embedding divisible by n_chips; "
            f"got E={config.embedding}, n_chips={n_chips}"
        )
    return replace(config, embedding=config.embedding // n_chips)


def chip_instance_counts(
    phase: Phase, sharding: str, n_chips: int
) -> List[int]:
    """How many copies of the (phase, chip) template each chip runs.

    Block-parallel: contiguous balanced blocks (earlier chips take the
    remainder, so counts differ by at most one).  Tensor-parallel: every
    chip runs every instance (each over its embedding slice)."""
    if _tensor_sharded(phase, sharding, n_chips):
        return [phase.instances] * n_chips
    base, rem = divmod(phase.instances, n_chips)
    return [base + (1 if k < rem else 0) for k in range(n_chips)]


def instance_out_bytes(config: PipelineConfig, kind: str) -> int:
    """Bytes of one instance's attention output at ``config``'s shapes:
    the full ``seq_len × E`` tile stream for prefill, one ``E``-wide
    row for a decode step.  (Matches the output-side ``bytes_moved``
    the graph builders charge to RNV / the final DAC.)"""
    row_bytes = config.embedding * WORD_BYTES
    if kind == "decode":
        return row_bytes
    return config.chunks * config.array_dim * row_bytes


def collective_bytes(
    config: PipelineConfig, kind: str, n_chips: int
) -> int:
    """Link bytes one instance's all-gather moves: its (possibly
    embedding-sliced) output, sent to each of the other chips.  Zero on
    a single chip — there is no one to gather from."""
    return instance_out_bytes(config, kind) * (n_chips - 1)


def _collective_cycles(
    config: PipelineConfig, kind: str, spec: ClusterSpec
) -> int:
    """Link cycles of one instance's all-gather on ``spec``'s link, a
    :func:`~repro.workloads.scenario.schedule_form` with a link: the
    ceiling-priced :func:`collective_bytes` plus the fixed latency."""
    cycles = transfer_cycles(
        collective_bytes(config, kind, spec.n_chips), spec.link_bw
    )
    return cycles + spec.link_latency


def _sink_names(tasks: Sequence[Task]) -> Tuple[str, ...]:
    """Tasks no other task in ``tasks`` depends on, in build order."""
    depended = {dep for task in tasks for dep in task.deps}
    return tuple(task.name for task in tasks if task.name not in depended)


def _chip_template(template: Sequence[Task], chip: int) -> List[Task]:
    """Chip ``chip``'s copy of a phase template: names, deps and
    resources under ``c<chip>:``, so chips never contend for each
    other's arrays or DRAM; only the shared ``link`` keeps its name."""
    prefix = f"c{chip}:"
    return [
        Task(
            prefix + task.name,
            task.resource if task.resource == LINK_RESOURCE
            else prefix + task.resource,
            task.duration,
            tuple(prefix + dep for dep in task.deps),
            task.bytes_moved,
        )
        for task in template
    ]


def cluster_templates(
    scenario: Scenario, spec: ClusterSpec, sharding: str = "head"
) -> List[Tuple[List[Task], int]]:
    """The counted template classes of a sharded scenario, in
    ``emission_phases`` order, then chip-ascending: the cluster
    counterpart of :func:`~repro.simulator.pipeline.scenario_templates`.

    Built from the :func:`~repro.workloads.scenario.schedule_form` of
    ``scenario`` and ``spec``.  Each phase's shard is lowered once by
    the scenario path's own :func:`~repro.simulator.pipeline
    .instance_template` (spills, bounded prefetch and all), gains its
    output collective when the spec has a link, and is stamped per chip
    (:func:`_chip_template`).  Chips whose block is empty contribute no
    class.  One chip has no link and no stamping, so the classes are
    exactly ``scenario_templates(scenario)``."""
    _check_sharding(sharding)
    form, spec = schedule_form(scenario), schedule_form(spec)
    classes: List[Tuple[List[Task], int]] = []
    for phase in form.emission_phases:
        config = shard_config(form, phase, sharding, spec.n_chips)
        template = instance_template(form, phase, config)
        counts = chip_instance_counts(phase, sharding, spec.n_chips)
        if spec.n_chips == 1:
            classes.append((template, counts[0]))
            continue
        if spec.link_bw is not None:
            collective = _collective_cycles(config, phase.kind, spec)
            template = template + [
                Task("AG", LINK_RESOURCE, collective, _sink_names(template))
            ]
        classes.extend(
            (_chip_template(template, chip), count)
            for chip, count in enumerate(counts)
            if count
        )
    return classes


def build_cluster_tasks(
    scenario: Scenario, spec: ClusterSpec, sharding: str = "head"
) -> List[Task]:
    """The merged task graph of ``scenario`` sharded over ``spec``.

    Same replication as :func:`~repro.simulator.pipeline
    .build_scenario_tasks` (:func:`~repro.simulator.pipeline
    .replicate_templates`): each class's template is built once and
    stamped out per instance under an ``i<n>:`` namespace.  A 1-chip
    cluster reproduces the unsharded merged graph byte for byte."""
    return replicate_templates(cluster_templates(scenario, spec, sharding))


def fold_cluster(
    scenario: Scenario, spec: ClusterSpec, sharding: str = "head"
) -> FoldedScenario:
    """Collapse the sharded scenario into counted template classes for
    ``engine="vector"``.  Collectives depend only on their own
    instance's sinks, so the fold's instance-locality requirement holds
    by construction."""
    return fold_templates(cluster_templates(scenario, spec, sharding))


def cluster_link_cycles(
    scenario: Scenario, spec: ClusterSpec, sharding: str = "head"
) -> int:
    """Total ``link`` busy cycles of the sharded merged graph: the
    exact sum of the emitted collective durations, 0 when the spec's
    :func:`~repro.workloads.scenario.schedule_form` has no link.  Prices
    one collective per phase with the builder's own helper, so the
    analytical cluster model
    (:mod:`repro.model.cluster`) can never disagree with the schedule
    about link occupancy."""
    spec = schedule_form(spec)
    if spec.link_bw is None:
        return 0
    total = 0
    for phase in scenario.phases:
        config = shard_config(scenario, phase, sharding, spec.n_chips)
        count = sum(chip_instance_counts(phase, sharding, spec.n_chips))
        total += count * _collective_cycles(config, phase.kind, spec)
    return total


def schedule_cluster_tasks(
    scenario: Scenario,
    spec: ClusterSpec,
    sharding: str,
    tasks: Optional[List[Task]] = None,
    engine: str = "vector",
) -> SimResult:
    """Schedule ``scenario`` sharded over ``spec`` on ``engine``.

    Mirrors :func:`~repro.simulator.pipeline.schedule_scenario_tasks`:
    ``engine="vector"`` folds the template classes (:func:`fold_cluster`)
    and never builds the merged list, so it takes no ``tasks``; the
    cycle oracle schedules ``tasks``, the graph
    :func:`build_cluster_tasks` returns, under the scenario's binding
    discipline with the same total-duration cycle budget."""
    _check_engine_tasks(engine, tasks, "cluster")
    if engine == "vector":
        return run_folded(
            fold_cluster(scenario, spec, sharding), slots=folded_slots(scenario)
        )
    serial = scenario.binding == "tile-serial"
    return _run(tasks, serial, slots=scenario.slots, engine=engine)
