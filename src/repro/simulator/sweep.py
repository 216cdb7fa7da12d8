"""Binding sweeps over the sequence-length axis (the long-M1 regime).

The paper's pipelining argument is about *steady state*: the interleaved
binding amortizes fill/drain over an ever-longer stream of M1 chunks,
while tile-serial pays it per tile.  Each point is scheduled by the
vector engine's chunk fold (:func:`~repro.simulator.pipeline
.schedule_binding`): chunk ``k`` is one instance of a two-chunk
template chained to chunk ``k-1``, so only the template is built, and a
tile-serial steady state is replayed instead of simulated.  That opens
the chunk axis up to the hundreds of thousands of tokens the paper
targets (chunks ∈ {16 … 8192} at M0 = 256 columns is M up to ~2M); the
rows equal the event core's on the built graphs.  This module defines the sweep's
grid points and result rows; the parallel/cached execution lives in
:func:`repro.runtime.executor.sweep_bindings`, and
``repro simulate --sweep`` drives it from the CLI.

Each point is pure and cheap to describe — (binding, chunks, array dim,
1D lanes, embedding) — so it flows through the PR-1 runtime unchanged:
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

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from time import perf_counter

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

#: Keys of one binding sweep result, in CSV column order.
SWEEP_FIELDS: Tuple[str, ...] = (
    "binding",
    "chunks",
    "array_dim",
    "pe_1d",
    "embedding",
    "seq_len",
    "makespan",
    "busy_2d",
    "busy_1d",
    "util_2d",
    "util_1d",
)


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


@dataclass(frozen=True)
class BindingResult:
    """Utilization-vs-length row measured by one binding simulation."""

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

    def row(self) -> Tuple:
        """The result as a tuple in :data:`SWEEP_FIELDS` order."""
        return tuple(getattr(self, field) for field in SWEEP_FIELDS)


assert SWEEP_FIELDS == tuple(f.name for f in fields(BindingResult))


def evaluate_binding_point(
    point: BindingPoint, engine: str = "vector"
) -> BindingResult:
    """Simulate one grid point: the vector engine's chunk fold unless a
    differential run asks for the cycle oracle.  Only the fold's
    two-chunk template is built.  The schedule is looked up on the
    pipeline module at call time, like the scenario path's."""
    config = point.config()
    result = pipeline.schedule_binding(config, point.binding, engine=engine)
    makespan = result.makespan
    return BindingResult(
        binding=point.binding,
        chunks=point.chunks,
        array_dim=point.array_dim,
        pe_1d=point.resolved_pe_1d,
        embedding=point.embedding,
        seq_len=config.seq_len,
        makespan=makespan,
        busy_2d=result.busy_cycles.get("2d", 0),
        busy_1d=result.busy_cycles.get("1d", 0),
        util_2d=result.utilization("2d"),
        util_1d=result.utilization("1d"),
    )


# --------------------------------------------------------------------------
# Scenario evaluation: one merged multi-instance schedule per point.
# --------------------------------------------------------------------------

#: Keys of one scenario result, in CSV column order.  Every axis a
#: scenario can vary on (array dims, lanes, embedding, slots) is a
#: column, so rows from same-named scenarios stay attributable.
SCENARIO_FIELDS: Tuple[str, ...] = (
    "scenario",
    "binding",
    "instances",
    "array_dim",
    "pe_1d",
    "embedding",
    "slots",
    "seq_len",
    "n_tasks",
    "makespan",
    "busy_2d",
    "busy_1d",
    "busy_io",
    "util_2d",
    "util_1d",
)

#: Bandwidth columns appended to :data:`SCENARIO_FIELDS` when any row's
#: scenario set a finite ``dram_bw``; results without one keep the
#: historical column set byte-for-byte.
SCENARIO_BW_FIELDS: Tuple[str, ...] = ("dram_bw", "busy_dram", "util_dram")

#: Capacity/QoS columns appended after the bandwidth columns when any
#: row's scenario models the on-chip buffer or a non-uniform QoS
#: discipline; plain rows keep the historical column set byte-for-byte
#: (the same gating contract as :data:`SCENARIO_BW_FIELDS`).
SCENARIO_CAP_FIELDS: Tuple[str, ...] = ("buffer_bytes", "qos", "spill_bytes")


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
    """

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

    def row(self, fields_: Sequence[str] = SCENARIO_FIELDS) -> Tuple:
        """The result as a tuple in ``fields_`` order (default: the
        historical :data:`SCENARIO_FIELDS` columns)."""
        return tuple(getattr(self, field) for field in fields_)


assert SCENARIO_FIELDS + ("dram_bw", "busy_dram") + SCENARIO_CAP_FIELDS == tuple(
    f.name for f in fields(ScenarioResult)
)


def scenario_fields_for(results: Sequence[ScenarioResult]) -> Tuple[str, ...]:
    """The column set of one scenario result batch: the historical
    columns, plus the bandwidth columns when any row models DRAM, plus
    the capacity/QoS columns when any row models the buffer or a
    non-uniform discipline."""
    fields_ = SCENARIO_FIELDS
    if any(r.dram_bw is not None for r in results):
        fields_ = fields_ + SCENARIO_BW_FIELDS
    if any(
        r.buffer_bytes is not None or r.qos != "uniform" for r in results
    ):
        fields_ = fields_ + SCENARIO_CAP_FIELDS
    return fields_


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

#: Grid coordinates identifying one cell, in CSV column order.  ``model``
#: is the workload-model axis (None for heterogeneous extra cells that
#: carry their identity in the scenario name); ``heads`` is None when a
#: cell uses the model's own head count.
GRID_COORD_FIELDS: Tuple[str, ...] = ("model", "batch", "heads", "decode")

#: Analytical columns joined onto every cell (the closed-form estimate of
#: :func:`repro.model.scenario.analytical_scenario`), so a grid doubles
#: as a crosscheck-at-scale.
GRID_ESTIMATE_FIELDS: Tuple[str, ...] = ("estimate", "est_util_2d", "est_util_1d")

#: Columns of one scenario-grid row: coordinates, then the full measured
#: scenario row, then the analytical estimate.
SCENARIO_GRID_FIELDS: Tuple[str, ...] = (
    GRID_COORD_FIELDS + SCENARIO_FIELDS + GRID_ESTIMATE_FIELDS
)


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
    closed-form analytical estimate of the same scenario."""

    model: Optional[str]
    batch: Optional[int]
    heads: Optional[int]
    decode: int
    sim: ScenarioResult
    estimate: str
    est_util_2d: float
    est_util_1d: float

    def row(self, scenario_fields: Sequence[str] = SCENARIO_FIELDS) -> Tuple:
        """The cell as a tuple in :data:`SCENARIO_GRID_FIELDS` order
        (``scenario_fields`` widens the embedded scenario columns when a
        grid models DRAM bandwidth)."""
        coords = tuple(getattr(self, name) for name in GRID_COORD_FIELDS)
        tail = tuple(getattr(self, name) for name in GRID_ESTIMATE_FIELDS)
        return coords + self.sim.row(scenario_fields) + tail

    def as_dict(self, scenario_fields: Sequence[str] = SCENARIO_FIELDS) -> Dict:
        """JSON-ready row object (flat, in column order)."""
        fields_ = (
            GRID_COORD_FIELDS + tuple(scenario_fields) + GRID_ESTIMATE_FIELDS
        )
        return dict(zip(fields_, self.row(scenario_fields)))


# --------------------------------------------------------------------------
# Emitters: sweep/scenario rows as CSV / JSON / aligned text.
# --------------------------------------------------------------------------

SweepResults = Mapping[Tuple, BindingResult]
ScenarioResults = Mapping[Tuple, ScenarioResult]


def _rows_csv(fields_: Sequence[str], rows: Sequence[Tuple]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fields_)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _rows_table(fields_: Sequence[str], rows: Sequence[Tuple]) -> str:
    text_rows: List[Tuple[str, ...]] = [tuple(fields_)] + [
        tuple(
            f"{v:.3f}" if isinstance(v, float) else str(v) for v in row
        )
        for row in rows
    ]
    widths = [max(len(row[i]) for row in text_rows) for i in range(len(fields_))]
    return "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in text_rows
    )


def sweep_csv(results: SweepResults) -> str:
    """The sweep as CSV with a :data:`SWEEP_FIELDS` header row."""
    return _rows_csv(SWEEP_FIELDS, [r.row() for r in results.values()])


def sweep_json(results: SweepResults) -> str:
    """The sweep as a JSON array of row objects."""
    return json.dumps([asdict(r) for r in results.values()], indent=2)


def sweep_table(results: SweepResults) -> str:
    """The sweep as an aligned text table (the CLI's default view)."""
    return _rows_table(SWEEP_FIELDS, [r.row() for r in results.values()])


def _bw_blanked_row(result: ScenarioResult, fields_: Sequence[str]) -> Tuple:
    """A result row for text emitters: when this row does not model
    DRAM (or the buffer) but the batch's widened columns include the
    bandwidth (capacity) fields, render them as ``-`` (matching the
    grid emitters' absent-value convention) instead of a literal
    ``None`` and a misleading 0."""
    return tuple(
        "-" if (
            (result.dram_bw is None and name in SCENARIO_BW_FIELDS)
            or (result.buffer_bytes is None and name == "buffer_bytes")
        )
        else value
        for name, value in zip(fields_, result.row(fields_))
    )


def scenario_csv(results: ScenarioResults) -> str:
    """Scenario results as CSV (header widens with the bandwidth
    columns only when a row models DRAM)."""
    fields_ = scenario_fields_for(list(results.values()))
    return _rows_csv(
        fields_, [_bw_blanked_row(r, fields_) for r in results.values()]
    )


def scenario_json(results: ScenarioResults) -> str:
    """Scenario results as a JSON array of row objects (``dram_bw`` is
    null on rows that do not model DRAM)."""
    fields_ = scenario_fields_for(list(results.values()))
    return json.dumps(
        [dict(zip(fields_, r.row(fields_))) for r in results.values()],
        indent=2,
    )


def scenario_table(results: ScenarioResults) -> str:
    """Scenario results as an aligned text table."""
    fields_ = scenario_fields_for(list(results.values()))
    return _rows_table(
        fields_, [_bw_blanked_row(r, fields_) for r in results.values()]
    )


GridResults = Sequence[ScenarioGridResult]


def _grid_scenario_fields(results: GridResults) -> Tuple[str, ...]:
    return scenario_fields_for([r.sim for r in results])


def _grid_rows(
    results: GridResults, scenario_fields: Sequence[str]
) -> List[Tuple]:
    """Grid rows with absent coordinates — and the bandwidth columns of
    cells that do not model DRAM — rendered as ``-`` (the JSON emitter
    keeps them as nulls via :meth:`ScenarioGridResult.as_dict`)."""
    rows = []
    for r in results:
        coords = tuple(getattr(r, name) for name in GRID_COORD_FIELDS)
        tail = tuple(getattr(r, name) for name in GRID_ESTIMATE_FIELDS)
        flat = coords + _bw_blanked_row(r.sim, scenario_fields) + tail
        rows.append(tuple("-" if value is None else value for value in flat))
    return rows


def grid_csv(results: GridResults) -> str:
    """The grid as CSV with a :data:`SCENARIO_GRID_FIELDS` header row."""
    fields_ = _grid_scenario_fields(results)
    return _rows_csv(
        GRID_COORD_FIELDS + fields_ + GRID_ESTIMATE_FIELDS,
        _grid_rows(results, fields_),
    )


def grid_json(results: GridResults) -> str:
    """The grid as a JSON array of row objects."""
    fields_ = _grid_scenario_fields(results)
    return json.dumps([r.as_dict(fields_) for r in results], indent=2)


def grid_table(results: GridResults) -> str:
    """The grid as an aligned text table (the CLI's default view)."""
    fields_ = _grid_scenario_fields(results)
    return _rows_table(
        GRID_COORD_FIELDS + fields_ + GRID_ESTIMATE_FIELDS,
        _grid_rows(results, fields_),
    )


def encode_binding_result(result: BindingResult) -> Dict:
    """JSON-ready payload for the runtime's result cache."""
    return {"__type__": "BindingResult", **asdict(result)}


def decode_binding_result(payload: Mapping) -> BindingResult:
    """Inverse of :func:`encode_binding_result`."""
    return BindingResult(
        **{field: payload[field] for field in SWEEP_FIELDS}
    )


def encode_scenario_result(result: ScenarioResult) -> Dict:
    """JSON-ready payload for the runtime's result cache."""
    return {"__type__": "ScenarioResult", **asdict(result)}


def decode_scenario_result(payload: Mapping) -> ScenarioResult:
    """Inverse of :func:`encode_scenario_result`.  The capacity/QoS
    fields default when absent, so cache entries written before the
    buffer model decode unchanged."""
    data = {
        field: payload[field]
        for field in SCENARIO_FIELDS + ("dram_bw", "busy_dram")
    }
    data["buffer_bytes"] = payload.get("buffer_bytes")
    data["qos"] = payload.get("qos", "uniform")
    data["spill_bytes"] = payload.get("spill_bytes", 0)
    return ScenarioResult(**data)


def encode_scenario_grid_result(result: ScenarioGridResult) -> Dict:
    """JSON-ready payload for the runtime's result cache."""
    return {
        "__type__": "ScenarioGridResult",
        "model": result.model,
        "batch": result.batch,
        "heads": result.heads,
        "decode": result.decode,
        "sim": encode_scenario_result(result.sim),
        "estimate": result.estimate,
        "est_util_2d": result.est_util_2d,
        "est_util_1d": result.est_util_1d,
    }


def decode_scenario_grid_result(payload: Mapping) -> ScenarioGridResult:
    """Inverse of :func:`encode_scenario_grid_result`."""
    return ScenarioGridResult(
        model=payload["model"],
        batch=payload["batch"],
        heads=payload["heads"],
        decode=payload["decode"],
        sim=decode_scenario_result(payload["sim"]),
        estimate=payload["estimate"],
        est_util_2d=payload["est_util_2d"],
        est_util_1d=payload["est_util_1d"],
    )
