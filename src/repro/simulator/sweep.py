"""Binding sweeps over the sequence-length axis (the long-M1 regime).

The paper's pipelining argument is about *steady state*: the interleaved
binding amortizes fill/drain over an ever-longer stream of M1 chunks,
while tile-serial pays it per tile.  Each point is scheduled by the
vector engine's chunk fold (:func:`~repro.simulator.pipeline
.schedule_binding`): chunk ``k`` is one instance of a two-chunk
template chained to chunk ``k-1``, so only the template is built, and
the steady state of either binding is replayed instead of simulated
(interleaved through split windows, whose fronts drift apart; see
:mod:`~repro.simulator.vector`).  That opens
the chunk axis up to the hundreds of thousands of tokens the paper
targets (chunks ∈ {16 … 8192} at M0 = 256 columns is M up to ~2M); the
rows equal the event core's on the built graphs.  This module defines the sweep's
grid points and result rows; :func:`repro.runtime.executor.binding_grid`
builds the task list, a :class:`~repro.api.Session` evaluates it in one
parallel/cached pass (a ``BindingSweepRequest``), and
``repro simulate --sweep`` drives it from the CLI.

Each point is pure and cheap to describe — (binding, chunks, array dim,
1D lanes, embedding) — so it flows through the runtime unchanged:
points fan out over processes, results content-address into the cache,
and a rerun of a grown grid only computes the new points.  The 2D array
dimension, the 1D lane count, and the embedding depth sweep as
*independent* axes: ``pe_1d`` decouples the vector array from the
paper's matched floorplan, and ``embedding`` scans the arithmetic
intensity of each tile.

Scenario evaluations (:class:`~repro.workloads.scenario.Scenario`
merged multi-instance schedules) produce :class:`ScenarioResult` rows
through the same machinery under task kind ``"scenario"``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import ClassVar, Dict, Mapping, Optional, Tuple

from time import perf_counter

from ..rows import Group, emit_rows
from ..workloads.scenario import Scenario
from . import pipeline
from .pipeline import (
    BINDINGS,
    PipelineConfig,
    scenario_spill_bytes,
)

#: Chunk counts (M1) of the default sweep: 16 → 8192 in powers of two,
#: i.e. sequence lengths 4K → 2M at the default 256-column array.
DEFAULT_SWEEP_CHUNKS: Tuple[int, ...] = (
    16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
)

#: PE-array dimensions of the default sweep.
DEFAULT_SWEEP_ARRAY_DIMS: Tuple[int, ...] = (128, 256)


@dataclass(frozen=True)
class BindingPoint:
    """One grid point of a binding sweep (pickles cleanly to workers).

    The 1D array is sized to the 2D array's edge (``pe_1d = array_dim``)
    unless overridden, matching the paper's FuseMax floorplan.
    """

    binding: str
    chunks: int
    array_dim: int = 256
    embedding: int = 64
    pe_1d: Optional[int] = None

    def __post_init__(self) -> None:
        if self.binding not in BINDINGS:
            raise ValueError(f"unknown binding {self.binding!r}")
        for axis in ("chunks", "array_dim", "embedding", "pe_1d"):
            value = getattr(self, axis)
            if value is not None and value < 1:
                raise ValueError(f"{axis} must be >= 1, got {value}")

    @property
    def name(self) -> str:
        """Short display label."""
        return f"{self.binding}@{self.array_dim}"

    @property
    def resolved_pe_1d(self) -> int:
        return self.pe_1d if self.pe_1d is not None else self.array_dim

    def describe(self) -> str:
        """Full config label for run-registry grid summaries: every
        swept axis except the chunk count (recorded as seq_lens), so
        points differing in lanes or embedding stay attributable."""
        return (
            f"{self.binding}@{self.array_dim}+{self.resolved_pe_1d}"
            f"-E{self.embedding}"
        )

    def config(self) -> PipelineConfig:
        return PipelineConfig(
            chunks=self.chunks,
            embedding=self.embedding,
            array_dim=self.array_dim,
            pe_1d=self.resolved_pe_1d,
        )

    def schedule_key(self) -> str:
        """A SHA-256 digest of every input the chunk fold reads: per
        task of the two-chunk template its name, resource, duration and
        deps, then the chunk count and the issue slots.  Points with
        equal keys have equal schedules, so a sweep schedules one of
        them (see :func:`binding_row`).  Under the matched floorplan an
        interleaved point's template does not depend on the array dim;
        a tile-serial point's fill and drain do.  The digest, not the
        graph, is what a pass holds on to per point."""
        template = pipeline.binding_template(self.config(), self.binding)
        graph = [(t.name, t.resource, t.duration, t.deps) for t in template]
        inputs = (graph, self.chunks, pipeline.binding_slots(self.binding))
        return hashlib.sha256(repr(inputs).encode()).hexdigest()


@dataclass(frozen=True)
class BindingResult:
    """Utilization-vs-length row measured by one binding simulation."""

    COLUMNS: ClassVar[Tuple[Group, ...]] = (
        Group((
            "binding", "chunks", "array_dim", "pe_1d", "embedding", "seq_len",
            "makespan", "busy_2d", "busy_1d", "util_2d", "util_1d",
        )),
    )

    binding: str
    chunks: int
    array_dim: int
    pe_1d: int
    embedding: int
    seq_len: int
    makespan: int
    busy_2d: int
    busy_1d: int
    util_2d: float
    util_1d: float


def binding_row(
    point: BindingPoint, makespan: int, busy_2d: int, busy_1d: int
) -> BindingResult:
    """``point``'s row from a schedule's makespan and busy cycles: its
    own schedule's, or those of a point with the same
    :meth:`~BindingPoint.schedule_key`."""
    return BindingResult(
        binding=point.binding,
        chunks=point.chunks,
        array_dim=point.array_dim,
        pe_1d=point.resolved_pe_1d,
        embedding=point.embedding,
        seq_len=point.config().seq_len,
        makespan=makespan,
        busy_2d=busy_2d,
        busy_1d=busy_1d,
        util_2d=busy_2d / makespan if makespan else 0.0,
        util_1d=busy_1d / makespan if makespan else 0.0,
    )


def evaluate_binding_point(
    point: BindingPoint, engine: str = "vector"
) -> BindingResult:
    """Simulate one grid point: the vector engine's chunk fold unless a
    differential run asks for the cycle oracle.  Only the fold's
    two-chunk template is built.  The schedule is looked up on the
    pipeline module at call time, like the scenario path's."""
    result = pipeline.schedule_binding(point.config(), point.binding, engine=engine)
    busy = result.busy_cycles
    return binding_row(point, result.makespan, busy.get("2d", 0), busy.get("1d", 0))


# --------------------------------------------------------------------------
# Scenario evaluation: one merged multi-instance schedule per point.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioResult:
    """Measured schedule of one scenario's merged multi-instance graph.

    ``busy_io`` counts fill/drain cycles on the array-edge resource
    (tile-serial graphs only; 0 under the interleaved binding, which
    hides them behind compute).  ``busy_dram`` counts cycles the shared
    memory link was held (0 unless the scenario set ``dram_bw``, in
    which case ``n_tasks`` also counts the lowered transfer tasks).
    ``spill_bytes`` is the refill traffic the scenario's finite
    ``buffer_bytes`` forced over the baseline (0 when the buffer is
    unmodeled or ample).

    Every axis a scenario can vary on (array dims, lanes, embedding,
    slots) is a column, so rows from same-named scenarios stay
    attributable.  The bandwidth columns join when a row sets
    ``dram_bw``, the capacity/QoS columns when a row models the buffer
    or a non-uniform QoS discipline.
    """

    COLUMNS: ClassVar[Tuple[Group, ...]] = (
        Group((
            "scenario", "binding", "instances", "array_dim", "pe_1d",
            "embedding", "slots", "seq_len", "n_tasks", "makespan",
            "busy_2d", "busy_1d", "busy_io", "util_2d", "util_1d",
        )),
        Group(("dram_bw", "busy_dram", "util_dram"), blank="dram_bw"),
        Group(
            ("buffer_bytes", "qos", "spill_bytes"),
            when=lambda r: r.buffer_bytes is not None or r.qos != "uniform",
        ),
    )

    scenario: str
    binding: str
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
    buffer_bytes: Optional[float] = None
    qos: str = "uniform"
    spill_bytes: int = 0

    @property
    def util_io(self) -> float:
        return self.busy_io / self.makespan if self.makespan else 0.0

    @property
    def util_dram(self) -> float:
        return self.busy_dram / self.makespan if self.makespan else 0.0

    def utilization(self, resource: str) -> float:
        busy = {"2d": self.busy_2d, "1d": self.busy_1d, "io": self.busy_io,
                "dram": self.busy_dram}
        return busy[resource] / self.makespan if self.makespan else 0.0


def _scenario_row(scenario: Scenario, result) -> ScenarioResult:
    """Fold one schedule into the :class:`ScenarioResult` row shape.
    Every engine names each task of the merged graph in
    ``finish_times``, so its length is the task count."""
    return ScenarioResult(
        scenario=scenario.name,
        binding=scenario.binding,
        instances=scenario.instances,
        array_dim=scenario.array_dim,
        pe_1d=scenario.resolved_pe_1d,
        embedding=scenario.embedding,
        slots=scenario.slots,
        seq_len=scenario.seq_len,
        n_tasks=len(result.finish_times),
        makespan=result.makespan,
        busy_2d=result.busy_cycles.get("2d", 0),
        busy_1d=result.busy_cycles.get("1d", 0),
        busy_io=result.busy_cycles.get("io", 0),
        util_2d=result.utilization("2d"),
        util_1d=result.utilization("1d"),
        dram_bw=scenario.dram_bw,
        busy_dram=result.busy_cycles.get("dram", 0),
        buffer_bytes=scenario.buffer_bytes,
        qos=scenario.qos,
        spill_bytes=scenario_spill_bytes(scenario),
    )


def evaluate_scenario_point(
    scenario: Scenario, engine: str = "vector"
) -> ScenarioResult:
    """Schedule one scenario's merged graph and measure utilizations.

    The vector engine schedules the fold and never builds the merged
    task list.  Pipeline functions are looked up on the module at call
    time, so wrappers installed there (a traced run's span hooks) see
    these calls."""
    tasks = None if engine == "vector" else pipeline.build_scenario_tasks(scenario)
    return _scenario_row(
        scenario, pipeline.schedule_scenario_tasks(scenario, tasks, engine=engine)
    )


@dataclass(frozen=True)
class ScenarioProfile:
    """Wall-time breakdown of one scenario evaluation (``--profile``):
    graph construction vs scheduling, so an engine regression is
    attributable from CI artifacts rather than inferred from totals.

    On the vector engine the build stage is the fold, and ``events`` /
    ``replayed`` carry :func:`~repro.simulator.vector.run_folded`'s
    counters: concrete events simulated and completions replayed
    arithmetically, out of ``n_tasks``.  The cycle oracle leaves them
    None.
    """

    scenario: str
    engine: str
    n_tasks: int
    build_s: float
    schedule_s: float
    events: Optional[int] = None
    replayed: Optional[int] = None

    @property
    def replay_frac(self) -> float:
        """Share of the ``n_tasks`` completions the fold replayed."""
        return self.replayed / self.n_tasks if self.replayed and self.n_tasks else 0.0

    def describe(self) -> str:
        text = (
            f"profile {self.scenario}: engine={self.engine} tasks={self.n_tasks}"
            f" build={self.build_s:.3f}s schedule={self.schedule_s:.3f}s"
        )
        if self.events is not None:
            text += (
                f" events={self.events} replayed={self.replayed}"
                f" replay_frac={self.replay_frac:.3f}"
            )
        return text


def profile_scenario_point(
    scenario: Scenario, engine: str = "vector"
) -> Tuple[ScenarioResult, ScenarioProfile]:
    """Evaluate one scenario with per-stage wall timing.

    Same result as :func:`evaluate_scenario_point` — the stages are the
    same calls, separately clocked — plus the breakdown.  The vector
    engine's build stage is :func:`~repro.simulator.pipeline
    .fold_scenario`; its schedule stage reports the fold counters."""
    stats: Dict[str, int] = {}
    t0 = perf_counter()
    if engine == "vector":
        folded = pipeline.fold_scenario(scenario)
        t1 = perf_counter()
        result = pipeline.run_folded(
            folded, slots=pipeline.folded_slots(scenario), stats=stats
        )
    else:
        tasks = pipeline.build_scenario_tasks(scenario)
        t1 = perf_counter()
        result = pipeline.schedule_scenario_tasks(scenario, tasks, engine=engine)
    t2 = perf_counter()
    row = _scenario_row(scenario, result)
    profile = ScenarioProfile(
        scenario=scenario.name,
        engine=engine,
        n_tasks=row.n_tasks,
        build_s=t1 - t0,
        schedule_s=t2 - t1,
        events=stats.get("events"),
        replayed=stats.get("replayed"),
    )
    return row, profile


# --------------------------------------------------------------------------
# Scenario grids: (model, batch, heads, decode) cells over the runtime.
# --------------------------------------------------------------------------

#: Grid coordinates identifying one cell, in column order.  ``model``
#: is the workload-model axis (None for heterogeneous extra cells that
#: carry their identity in the scenario name); ``heads`` is None when a
#: cell uses the model's own head count.
GRID_COORD_FIELDS: Tuple[str, ...] = ("model", "batch", "heads", "decode")


@dataclass(frozen=True)
class ScenarioGridCell:
    """One cell of a scenario grid: a scenario plus its grid coordinates.

    The coordinates ride alongside the scenario (rather than being
    re-derived from it) so heterogeneous cells — explicit scenarios with
    per-instance unequal chunk counts — key and render exactly like the
    model-derived ones.  The whole cell is the runtime cache identity
    (task kind ``"scenario_grid"``).
    """

    scenario: Scenario
    model: Optional[str] = None
    batch: Optional[int] = None
    heads: Optional[int] = None
    decode: int = 0

    def describe(self) -> str:
        """Full cell label for run-registry grid summaries."""
        coords = ",".join(
            f"{name}={getattr(self, name)}" for name in GRID_COORD_FIELDS
        )
        return f"[{coords}] {self.scenario.describe()}"


@dataclass(frozen=True)
class ScenarioGridResult:
    """One evaluated grid cell: the measured schedule joined with the
    closed-form analytical estimate of the same scenario.

    Its columns are the coordinates, then the full measured scenario
    row (widening as a scenario batch does), then the analytical
    estimate (:func:`repro.model.scenario.analytical_scenario`), so a
    grid doubles as a crosscheck-at-scale."""

    COLUMNS: ClassVar[Tuple[Group, ...]] = (
        Group(GRID_COORD_FIELDS),
        *(replace(group, via="sim") for group in ScenarioResult.COLUMNS),
        Group(("estimate", "est_util_2d", "est_util_1d")),
    )

    model: Optional[str]
    batch: Optional[int]
    heads: Optional[int]
    decode: int
    sim: ScenarioResult
    estimate: str
    est_util_2d: float
    est_util_1d: float


def sweep_csv(results: Mapping[Tuple, BindingResult]) -> str:
    """The binding sweep as CSV."""
    return emit_rows(results, "csv")


def scenario_csv(results: Mapping[Tuple, ScenarioResult]) -> str:
    """Scenario results as CSV."""
    return emit_rows(results, "csv")
