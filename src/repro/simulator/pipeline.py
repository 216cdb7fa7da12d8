"""Epoch-pipeline simulation of the FuseMax binding (Fig. 4 / Fig. 5).

Builds the tile-granular task graph of the 1-pass attention cascade — one
set of tasks per M1 chunk — and simulates it under the two bindings:

- ``tile-serial`` (+Architecture): each chunk's tasks finish before the
  next chunk starts, and the 2D array pays non-overlapped fill/drain;
- ``interleaved`` (+Binding): the 2D array cycle-interleaves BQK of a
  later chunk with SLNV of an earlier one while the 1D array interleaves
  the running-state updates, exactly the ``A|B`` pipelining of Fig. 5.

Task durations are the cycles each tile occupies its array (per the
analytical model), so the simulator independently validates the claim that
the interleaved binding drives both arrays to ~100% utilization while the
tile-serial binding stalls both.

Beyond the single-instance graphs, :func:`build_scenario_tasks` merges
the graphs of every instance of a :class:`~repro.workloads.scenario
.Scenario` — N ``(batch, head)`` prefill instances plus optional decode
steps, possibly spanning different models' embedding widths — into one
schedule in which all instances contend for the shared 2D/1D arrays
through the binding's issue slots.  The per-chunk work totals the graphs
are built from are exposed as :func:`chunk_work` so the analytical
models (:mod:`repro.model.scenario`) derive their bounds from exactly
the durations the simulator schedules.

Every task additionally carries its DRAM traffic (``bytes_moved``,
summarized by :func:`chunk_traffic`): the Q/output tiles and the
once-per-instance K/V stream of a prefill instance, and the KV-cache
chunks that dominate a decode step.  When the scenario sets ``dram_bw``,
:func:`build_scenario_tasks` lowers that traffic onto a shared ``dram``
resource (:func:`repro.simulator.engine.lower_dram`), so N decode
instances slow each other down exactly as the roofline model predicts —
the bandwidth wall the array-only contention model could not see.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil
from typing import Dict, List, Optional, Tuple

from ..arch.spec import EXP_AS_MACCS
from ..workloads.scenario import BINDINGS, Phase, Scenario, schedule_form
from .engine import SimResult, Simulator, Task, lower_dram, transfer_cycles
from .prefixes import chain_prefix
from .systolic import bqk_tile_timing
from .vector import FoldedScenario, fold_chain, fold_templates, run_folded

__all__ = [
    "BINDINGS",
    "ChunkResidency",
    "ChunkTraffic",
    "ChunkWork",
    "PipelineConfig",
    "PipelineReport",
    "WORD_BYTES",
    "apply_buffer_spills",
    "binding_slots",
    "binding_template",
    "build_decode_tasks",
    "build_scenario_tasks",
    "build_tasks",
    "chunk_residency",
    "chunk_traffic",
    "chunk_work",
    "compare_bindings",
    "fold_scenario",
    "folded_slots",
    "instance_dram_cycles",
    "instance_spill_bytes",
    "instance_template",
    "replicate_templates",
    "scenario_dram_cycles",
    "scenario_spill_bytes",
    "scenario_templates",
    "schedule_binding",
    "schedule_scenario_tasks",
    "simulate_binding",
    "spill_bytes_per_chunk",
]

#: Cycles per exponentiation implemented as sequential MACCs.
_EXP_MACCS = EXP_AS_MACCS

#: Datapath word size in bytes (fp16/bf16-style, matching the default
#: :class:`repro.arch.spec.Architecture`); the traffic annotations below
#: price every streamed word at this width.
WORD_BYTES = 2


@dataclass(frozen=True)
class PipelineConfig:
    """Shape of the simulated attention instance.

    The defaults mirror one (batch, head) slice on the cloud machine:
    E = F = 64, P0 = array rows, M0 = array columns; ``chunks`` is M1.
    """

    chunks: int = 16
    embedding: int = 64  # E (and F)
    array_dim: int = 256
    pe_1d: int = 256

    @property
    def p0(self) -> int:
        return self.array_dim

    @property
    def seq_len(self) -> int:
        """The simulated sequence length M = M1 · M0 (chunks × columns)."""
        return self.chunks * self.array_dim

    def one_d_cycles(self, ops_per_element: float) -> int:
        """1D-array cycles for a per-chunk vector op over P0 elements."""
        return max(1, round(ops_per_element * self.p0 / self.pe_1d))


def build_tasks(
    config: PipelineConfig, serial: bool, prefix: str = ""
) -> List[Task]:
    """The tile-granular task graph for ``config.chunks`` M1 chunks.

    ``prefix`` namespaces task names so several instances' graphs can be
    merged into one schedule (:func:`build_scenario_tasks`).

    DRAM traffic rides on the tasks that consume or produce it: each
    chunk's BQK streams its Q tile in and RNV streams its output rows
    out, while the K and V tiles — fetched once per instance in the
    1-pass cascade — are charged to chunk 0's BQK and SLNV.
    """
    e = config.embedding
    tasks: List[Task] = []
    timing = bqk_tile_timing(config.array_dim, e)
    tile_bytes = config.array_dim * e * WORD_BYTES
    for i in range(config.chunks):
        prev = i - 1

        def dep(name: str, chunk: int = prev) -> Tuple[str, ...]:
            return (f"{prefix}{name}[{chunk}]",) if chunk >= 0 else ()

        bqk_deps: Tuple[str, ...] = ()
        if serial:
            # Tile-serial: the array is filled for each tile (operands
            # cross the array edge, no overlap with compute), and the next
            # tile waits for the previous chunk's state to be consumed.
            fill_deps: Tuple[str, ...] = ()
            if prev >= 0:
                fill_deps = (f"{prefix}RNV[{prev}]", f"{prefix}RD[{prev}]")
            tasks.append(Task(f"{prefix}FILL[{i}]", "io", timing.fill, fill_deps))
            bqk_deps = (f"{prefix}FILL[{i}]",)
        tasks.append(
            Task(
                f"{prefix}BQK[{i}]", "2d", e, bqk_deps,
                bytes_moved=tile_bytes * (2 if i == 0 else 1),
            )
        )
        lm_dep: Tuple[str, ...] = (f"{prefix}BQK[{i}]",)
        if serial:
            # Non-overlapped drain of the finished tile before the 1D
            # array sees the local maxima.
            tasks.append(Task(f"{prefix}DRAIN[{i}]", "io", timing.drain, lm_dep))
            lm_dep = (f"{prefix}DRAIN[{i}]",)
        # LM: spatial max over the drain network, charged to the 1D array.
        tasks.append(Task(f"{prefix}LM[{i}]", "1d", config.one_d_cycles(1), lm_dep))
        tasks.append(
            Task(
                f"{prefix}RM[{i}]",
                "1d",
                config.one_d_cycles(1),
                (f"{prefix}LM[{i}]",) + dep("RM"),
            )
        )
        tasks.append(
            Task(
                f"{prefix}SLN[{i}]",
                "2d",
                _EXP_MACCS,
                (f"{prefix}BQK[{i}]", f"{prefix}RM[{i}]"),
            )
        )
        tasks.append(
            Task(f"{prefix}SLD[{i}]", "1d", config.one_d_cycles(1),
                 (f"{prefix}SLN[{i}]",))
        )
        tasks.append(
            Task(
                f"{prefix}SLNV[{i}]", "2d", e, (f"{prefix}SLN[{i}]",),
                bytes_moved=tile_bytes if i == 0 else 0,
            )
        )
        tasks.append(
            Task(
                f"{prefix}PRM[{i}]",
                "1d",
                config.one_d_cycles(_EXP_MACCS),
                dep("RM", i - 1) + (f"{prefix}RM[{i}]",),
            )
        )
        tasks.append(
            Task(
                f"{prefix}RD[{i}]",
                "1d",
                config.one_d_cycles(2),
                (f"{prefix}SLD[{i}]", f"{prefix}PRM[{i}]") + dep("RD"),
            )
        )
        # SPNV + RNV: 2 ops (multiply by PRM, add SLNV) per value element.
        tasks.append(
            Task(
                f"{prefix}RNV[{i}]",
                "1d",
                config.one_d_cycles(2 * e),
                (f"{prefix}SLNV[{i}]", f"{prefix}PRM[{i}]") + dep("RNV"),
                bytes_moved=tile_bytes,
            )
        )
    return tasks


def build_decode_tasks(config: PipelineConfig, prefix: str = "") -> List[Task]:
    """The task graph of one decode step over a ``config.chunks``-chunk
    KV cache (paper footnote 1; :mod:`repro.model.decode`).

    One query (P = 1) attends M0 keys per chunk: a QK tile and an AV
    tile on the 2D array bracket the running-softmax update on the 1D
    array.  The KV cache streams from DRAM — each chunk's K tile rides
    on DQK and its V tile on DAV (plus the one query row in and one
    output row out), so under a finite ``dram_bw`` a decode stream
    contends for memory bandwidth, the bottleneck footnote 1 names.
    """
    e = config.embedding
    tasks: List[Task] = []
    kv_bytes = config.array_dim * e * WORD_BYTES
    row_bytes = e * WORD_BYTES
    for i in range(config.chunks):
        prev_state = (f"{prefix}DSM[{i - 1}]",) if i else ()
        prev_acc = (f"{prefix}DAC[{i - 1}]",) if i else ()
        tasks.append(
            Task(
                f"{prefix}DQK[{i}]", "2d", e,
                bytes_moved=kv_bytes + (row_bytes if i == 0 else 0),
            )
        )
        # Running softmax state (max + normalizer) over the chunk's scores.
        tasks.append(
            Task(
                f"{prefix}DSM[{i}]",
                "1d",
                config.one_d_cycles(1),
                (f"{prefix}DQK[{i}]",) + prev_state,
            )
        )
        tasks.append(
            Task(
                f"{prefix}DAV[{i}]", "2d", e, (f"{prefix}DSM[{i}]",),
                bytes_moved=kv_bytes,
            )
        )
        # Rescale-and-accumulate of the running output (2 ops/element).
        tasks.append(
            Task(
                f"{prefix}DAC[{i}]",
                "1d",
                config.one_d_cycles(2),
                (f"{prefix}DAV[{i}]",) + prev_acc,
                bytes_moved=row_bytes if i == config.chunks - 1 else 0,
            )
        )
    return tasks


@dataclass(frozen=True)
class ChunkWork:
    """Per-chunk busy cycles by resource — the durations one chunk's
    tasks contribute to the schedule, summed per array.

    This is the single source the analytical scenario models integrate
    over (:mod:`repro.model.scenario`): graph builders above and bounds
    below can never disagree about the work.
    """

    cycles_2d: int
    cycles_1d: int
    cycles_io: int


def chunk_work(config: PipelineConfig, serial: bool, kind: str = "prefill") -> ChunkWork:
    """Summed task durations of one chunk of a ``kind`` instance."""
    e = config.embedding
    if kind == "decode":
        return ChunkWork(
            cycles_2d=2 * e,
            cycles_1d=config.one_d_cycles(1) + config.one_d_cycles(2),
            cycles_io=0,
        )
    if kind != "prefill":
        raise ValueError(f"unknown instance kind {kind!r}")
    timing = bqk_tile_timing(config.array_dim, e)
    return ChunkWork(
        cycles_2d=2 * e + _EXP_MACCS,
        cycles_1d=(
            3 * config.one_d_cycles(1)
            + config.one_d_cycles(_EXP_MACCS)
            + config.one_d_cycles(2)
            + config.one_d_cycles(2 * e)
        ),
        cycles_io=(timing.fill + timing.drain) if serial else 0,
    )


@dataclass(frozen=True)
class ChunkTraffic:
    """Per-chunk DRAM bytes by stream — the ``bytes_moved`` totals one
    instance's tasks carry, split into the steady per-chunk stream and
    the once-per-instance remainder.

    Unlike :class:`ChunkWork` (which the analytical models integrate
    directly), this is an *independent* closed-form re-derivation of the
    builders' byte assignments, kept for the test layer:
    ``tests/test_scenario_bandwidth.py`` asserts ``chunks ×
    bytes_per_chunk + bytes_once`` equals the traffic the built graph
    actually moves, so a traffic edit in the builders that forgets this
    summary (or vice versa) fails loudly.  The analytical models
    themselves (:func:`scenario_dram_cycles`) walk the built tasks, so
    they can never drift from the schedule.
    """

    bytes_per_chunk: int
    bytes_once: int

    def instance_bytes(self, chunks: int) -> int:
        """Total DRAM bytes one ``chunks``-chunk instance streams."""
        return chunks * self.bytes_per_chunk + self.bytes_once


def chunk_traffic(config: PipelineConfig, kind: str = "prefill") -> ChunkTraffic:
    """Summed ``bytes_moved`` of one chunk of a ``kind`` instance (the
    test layer's cross-check; see :class:`ChunkTraffic`)."""
    tile_bytes = config.array_dim * config.embedding * WORD_BYTES
    row_bytes = config.embedding * WORD_BYTES
    if kind == "decode":
        # Steady: one K and one V cache chunk; once: query in, output out.
        return ChunkTraffic(
            bytes_per_chunk=2 * tile_bytes, bytes_once=2 * row_bytes
        )
    if kind != "prefill":
        raise ValueError(f"unknown instance kind {kind!r}")
    # Steady: Q tile in, output tile out; once: the K and V streams.
    return ChunkTraffic(
        bytes_per_chunk=2 * tile_bytes, bytes_once=2 * tile_bytes
    )


@dataclass(frozen=True)
class ChunkResidency:
    """Per-chunk on-chip working set of one instance, in bytes.

    ``resident_bytes`` is the stream an instance holds across chunks —
    tiles fetched once and reused by every chunk (the fusion payoff the
    paper trades buffer space for).  ``transient_bytes`` is the
    per-chunk stream that passes through the buffer once.  Together they
    are the peak demand one chunk places on a ``Scenario.buffer_bytes``
    capacity; demand beyond it forces the resident stream to spill and
    refill (:func:`spill_bytes_per_chunk`).
    """

    resident_bytes: int
    transient_bytes: int

    @property
    def demand_bytes(self) -> int:
        """Peak buffer bytes one chunk needs to run spill-free."""
        return self.resident_bytes + self.transient_bytes


def chunk_residency(
    config: PipelineConfig, kind: str = "prefill"
) -> ChunkResidency:
    """The closed-form working set of one ``kind`` chunk.

    Prefill holds the once-fetched K and V tiles resident across all
    chunks (the 1-pass cascade's reuse) while each chunk's Q tile and
    output tile stream through; a decode step holds only its query row
    and running output row while the KV-cache chunks stream through.
    The byte totals re-derive the builders' ``bytes_moved`` splits
    (:func:`chunk_traffic`): resident == ``bytes_once`` reuse for
    prefill, transient == ``bytes_per_chunk``.
    """
    tile_bytes = config.array_dim * config.embedding * WORD_BYTES
    row_bytes = config.embedding * WORD_BYTES
    if kind == "decode":
        return ChunkResidency(
            resident_bytes=2 * row_bytes, transient_bytes=2 * tile_bytes
        )
    if kind != "prefill":
        raise ValueError(f"unknown instance kind {kind!r}")
    return ChunkResidency(
        resident_bytes=2 * tile_bytes, transient_bytes=2 * tile_bytes
    )


def spill_bytes_per_chunk(
    config: PipelineConfig,
    kind: str,
    buffer_bytes: Optional[float],
) -> int:
    """Bytes one chunk re-fetches when the working set overflows the
    buffer: the overflow, clamped to the resident stream (only resident
    tiles *can* spill — the transient stream passes through regardless).

    0 when the buffer is unmodeled (None) or large enough, so spill
    volume is monotonically non-increasing in ``buffer_bytes``.  An
    infinite buffer is large enough: its overflow is ``-inf``.
    """
    if buffer_bytes is None:
        return 0
    residency = chunk_residency(config, kind)
    overflow = residency.demand_bytes - buffer_bytes
    if overflow <= 0:
        return 0
    return min(residency.resident_bytes, ceil(overflow))


def instance_spill_bytes(
    config: PipelineConfig,
    kind: str,
    buffer_bytes: Optional[float],
) -> int:
    """Total spill/refill traffic of one ``config.chunks``-chunk
    instance: chunk 0 fetches the resident stream fresh (already
    charged as ``bytes_once``), each later chunk re-fetches what
    spilled."""
    return (config.chunks - 1) * spill_bytes_per_chunk(
        config, kind, buffer_bytes
    )


def apply_buffer_spills(
    tasks: List[Task],
    config: PipelineConfig,
    kind: str,
    buffer_bytes: Optional[float],
    prefix: str = "",
) -> List[Task]:
    """Inflate one instance graph's traffic with its capacity spills.

    Each chunk past the first re-fetches the spilled slice of the
    resident stream; the bytes ride on the chunk's leading 2D task
    (``BQK``/``DQK`` — the tile that consumes the refetched operands),
    so the inflated traffic flows through :func:`lower_dram` and both
    engines identically, and total ``bytes_moved`` is exactly
    baseline + :func:`instance_spill_bytes` by construction.  A
    spill-free buffer returns the tasks untouched (the None/inf
    byte-identity contract).
    """
    spill = spill_bytes_per_chunk(config, kind, buffer_bytes)
    if not spill:
        return tasks
    lead = "DQK" if kind == "decode" else "BQK"
    refetch = {f"{prefix}{lead}[{i}]" for i in range(1, config.chunks)}
    return [
        replace(task, bytes_moved=task.bytes_moved + spill)
        if task.name in refetch
        else task
        for task in tasks
    ]


def scenario_spill_bytes(scenario: Scenario) -> int:
    """Total spill/refill bytes ``scenario``'s merged graph moves over
    its baseline traffic — the capacity term the analytical roofline
    adds (:mod:`repro.model.scenario`), closed-form from working sets."""
    total = 0
    for phase in scenario.phases:
        config = instance_config(scenario, phase)
        total += phase.instances * instance_spill_bytes(
            config, phase.kind, scenario.buffer_bytes
        )
    return total


def instance_config(scenario: Scenario, phase: Phase) -> PipelineConfig:
    """The :class:`PipelineConfig` of one of ``phase``'s instances —
    the point where a phase's embedding override (mixed-model
    scenarios) takes effect."""
    return PipelineConfig(
        chunks=phase.chunks,
        embedding=scenario.embedding_for(phase),
        array_dim=scenario.array_dim,
        pe_1d=scenario.resolved_pe_1d,
    )


def _instance_tasks(
    form: Scenario, phase: Phase, config: PipelineConfig
) -> List[Task]:
    """One of ``phase``'s instance graphs at ``config``: binding-resolved
    structure, capacity-resolved traffic.  ``config`` is the instance's
    own (:func:`instance_config`) or, on a cluster, its chip's shard
    (:func:`~repro.cluster.build.shard_config`).

    With a finite ``form.buffer_bytes``, each chunk past the first
    re-fetches the spilled slice of the resident stream
    (:func:`apply_buffer_spills`), so the inflated traffic flows through
    :func:`lower_dram`, :func:`instance_dram_cycles` and both engines
    identically.
    """
    if phase.kind == "decode":
        tasks = build_decode_tasks(config)
    else:
        tasks = build_tasks(config, serial=form.binding == "tile-serial")
    return apply_buffer_spills(tasks, config, phase.kind, form.buffer_bytes)


def instance_template(
    form: Scenario, phase: Phase, config: PipelineConfig
) -> List[Task]:
    """One instance's dram-lowered template graph: the one per-instance
    lowering the scenario and the cluster paths share.  ``form`` is a
    :func:`~repro.workloads.scenario.schedule_form`, whose bandwidth
    prices the transfers and whose buffer bounds their prefetch depth."""
    return lower_dram(
        _instance_tasks(form, phase, config), form.dram_bw, form.buffer_bytes
    )


def instance_dram_cycles(
    scenario: Scenario, phase: Phase, config: PipelineConfig
) -> int:
    """``dram`` busy cycles of one instance at ``config``: the exact sum
    of the transfer durations :func:`instance_template` lowers, spills
    included, 0 when ``dram_bw`` is None."""
    if scenario.dram_bw is None:
        return 0
    return sum(
        transfer_cycles(task.bytes_moved, scenario.dram_bw)
        for task in _instance_tasks(scenario, phase, config)
    )


def scenario_templates(scenario: Scenario) -> List[Tuple[List[Task], int]]:
    """The counted template classes of ``scenario``: one per phase, in
    ``scenario.emission_phases`` order, each one instance's
    :func:`instance_template` paired with the phase's instance count.
    Built from the scenario's :func:`~repro.workloads.scenario
    .schedule_form`, so ``math.inf`` bandwidth or buffer lowers exactly
    as None does."""
    form = schedule_form(scenario)
    return [
        (
            instance_template(form, phase, instance_config(form, phase)),
            phase.instances,
        )
        for phase in form.emission_phases
    ]


def replicate_templates(classes: List[Tuple[List[Task], int]]) -> List[Task]:
    """Stamp out each counted template per instance under an ``i<n>:``
    namespace, ``n`` counting globally in class order (the numbering the
    folded engine reconstructs).  Each template is flattened once, so
    the inner loop is a plain prefix concat."""
    tasks: List[Task] = []
    index = 0
    for template_tasks, count in classes:
        template = [
            (t.name, t.resource, t.duration, t.deps, t.bytes_moved)
            for t in template_tasks
        ]
        for _ in range(count):
            prefix = f"i{index}:"
            tasks.extend(
                Task(prefix + name, resource, duration,
                     tuple(prefix + dep for dep in deps), bytes_moved)
                for name, resource, duration, deps, bytes_moved in template
            )
            index += 1
    return tasks


def build_scenario_tasks(scenario: Scenario) -> List[Task]:
    """The merged task graph of every instance of ``scenario``.

    Each instance's graph is namespaced ``i<n>:`` and carries no
    cross-instance dependencies — contention is purely through the
    shared ``2d``/``1d`` (and, tile-serial, ``io``) resources and the
    binding's issue slots.  Instances are emitted in phase order, so the
    engines' program-order tie-break admits earlier instances first when
    several are ready at once.

    With a finite ``scenario.dram_bw``, the merged graph is additionally
    lowered so every task's ``bytes_moved`` occupies the shared ``dram``
    resource (:func:`repro.simulator.engine.lower_dram`): instances then
    contend for memory bandwidth exactly as they do for array slots.
    ``dram_bw=None`` graphs are bit-identical to pre-bandwidth ones.

    A phase's instances are identical up to the ``i<n>:`` namespace, so
    each phase's template graph is built (and dram-lowered) exactly once
    (:func:`scenario_templates`) and replicated per instance
    (:func:`replicate_templates`).  Lowering commutes with prefixing: a
    transfer's name is ``<task>@dram`` either way, and both orders emit
    it immediately before its compute task.

    Phases are emitted in ``scenario.emission_phases`` order —
    descending effective DRAM priority, stably — so a prioritized phase
    (``qos="decode-first"`` or explicit ``dram_priority``) wins every
    ready-at-once tie at the shared resources through the engines'
    ordinary program-order arbitration.  Uniform priorities reduce to
    declaration order: byte-identical to historical schedules.  A
    finite ``scenario.buffer_bytes`` additionally bounds each
    instance's dependency-free prefetch depth in the lowering.
    """
    return replicate_templates(scenario_templates(scenario))


def fold_scenario(scenario: Scenario) -> FoldedScenario:
    """Collapse ``scenario``'s instances into counted equivalence
    classes — one per phase, since a phase's instances are identical up
    to the namespace prefix (exactly the replication
    :func:`build_scenario_tasks` performs).  The folded form is what
    ``engine="vector"`` schedules via
    :func:`~repro.simulator.vector.run_folded`; expanding it
    reproduces the merged graph's schedule bit for bit.
    """
    return fold_templates(scenario_templates(scenario))


def scenario_dram_cycles(scenario: Scenario) -> int:
    """Total ``dram``-resource busy cycles of ``scenario``'s merged
    graph: :func:`instance_dram_cycles` summed over every instance, so
    the analytical models (:mod:`repro.model.scenario`) can never
    disagree with the schedule about how long the memory link is held.
    """
    return sum(
        phase.instances
        * instance_dram_cycles(scenario, phase, instance_config(scenario, phase))
        for phase in scenario.phases
    )


@dataclass(frozen=True)
class PipelineReport:
    """Utilizations measured by the binding simulation."""

    binding: str
    makespan: int
    util_2d: float
    util_1d: float


def _run(tasks: List[Task], scenario_like_serial: bool, slots: int,
         engine: str) -> SimResult:
    """Schedule ``tasks`` under the binding's issue discipline."""
    sim = Simulator(
        tasks,
        mode="serial" if scenario_like_serial else "interleaved",
        slots=slots,
        engine=engine,
    )
    # The cycle budget is ``sum of durations + 1``: some resource issues
    # every cycle of a valid schedule, so the makespan can never exceed
    # the total work — a deterministic bound that scales with the graph.
    budget = sum(task.duration for task in tasks) + 1
    return sim.run(max_cycles=budget)


def _binding_serial(binding: str) -> bool:
    if binding not in BINDINGS:
        raise ValueError(f"unknown binding {binding!r}")
    return binding == "tile-serial"


def binding_template(config: PipelineConfig, binding: str) -> List[Task]:
    """The two-chunk graph :func:`schedule_binding` folds: every task and
    duration the chunk fold of ``config`` reads."""
    return build_tasks(replace(config, chunks=2), serial=_binding_serial(binding))


def binding_slots(binding: str) -> int:
    """Issue slots the chunk fold schedules ``binding`` with: one under
    tile-serial (the :class:`Simulator`'s serial mode), two otherwise."""
    return 1 if _binding_serial(binding) else 2


def schedule_binding(
    config: PipelineConfig, binding: str, engine: str = "vector"
) -> SimResult:
    """Schedule one binding's graph on ``engine``.

    ``engine="vector"`` folds the graph along its chunk axis: chunk ``k``
    is an instance of one template whose only outside deps reach chunk
    ``k-1``, so :func:`~repro.simulator.vector.fold_chain` lowers the
    two-chunk graph to a chained class of ``config.chunks`` instances
    and the ``config.chunks``-chunk task list is never built.  The finish
    times it yields carry :func:`build_tasks`' names.  It resumes
    from the template's shared prefix (:func:`~repro.simulator.prefixes
    .chain_prefix`), which folds of the template at every chunk count
    share.  The cycle oracle builds the list and runs it under
    :func:`_run`'s cycle budget; the fold derives the same budget from
    its own duration total."""
    if engine == "vector":
        template = binding_template(config, binding)
        slots = binding_slots(binding)
        return run_folded(
            fold_chain(template, config.chunks), slots, prefix=chain_prefix(template, slots)
        )
    serial = _binding_serial(binding)
    return _run(build_tasks(config, serial=serial), serial, slots=2, engine=engine)


def folded_slots(scenario: Scenario) -> int:
    """Issue slots :func:`~repro.simulator.vector.run_folded` schedules
    ``scenario``'s classes with: one under tile-serial (the
    :class:`Simulator`'s serial mode), the scenario's slots otherwise."""
    return 1 if scenario.binding == "tile-serial" else scenario.slots


def _check_engine_tasks(
    engine: str, tasks: Optional[List[Task]], what: str
) -> None:
    """Reject a task list the engine does not schedule: the vector
    engine folds ``what`` and takes none, the cycle oracle needs one."""
    if (engine == "vector") != (tasks is None):
        raise ValueError(
            f"engine='vector' schedules the folded {what} and takes no task "
            "list; the cycle oracle schedules a built one"
        )


def schedule_scenario_tasks(
    scenario: Scenario,
    tasks: Optional[List[Task]] = None,
    engine: str = "vector",
) -> SimResult:
    """Schedule ``scenario`` on ``engine``.

    ``engine="vector"`` takes the folded path and never builds the
    merged task list: :func:`fold_scenario` derives one template per
    phase and :func:`~repro.simulator.vector.run_folded` schedules the
    counted classes under the same total-duration cycle budget
    :func:`_run` computes from a task list.  It takes no ``tasks``.
    The cycle oracle schedules ``tasks``, the merged graph
    :func:`build_scenario_tasks` returns.
    """
    _check_engine_tasks(engine, tasks, "scenario")
    if engine == "vector":
        return run_folded(fold_scenario(scenario), slots=folded_slots(scenario))
    serial = scenario.binding == "tile-serial"
    return _run(tasks, serial, slots=scenario.slots, engine=engine)


def simulate_binding(
    config: PipelineConfig, binding: str, engine: str = "vector"
) -> PipelineReport:
    """Simulate one binding (``"tile-serial"`` or ``"interleaved"``)."""
    result = schedule_binding(config, binding, engine=engine)
    return PipelineReport(
        binding=binding,
        makespan=result.makespan,
        util_2d=result.utilization("2d"),
        util_1d=result.utilization("1d"),
    )


def compare_bindings(
    config: PipelineConfig = PipelineConfig(), engine: str = "vector"
) -> Dict[str, PipelineReport]:
    """Fig. 4/5's claim in one call: serial stalls, interleaving saturates."""
    return {
        binding: simulate_binding(config, binding, engine=engine)
        for binding in BINDINGS
    }
