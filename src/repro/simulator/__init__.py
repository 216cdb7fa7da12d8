"""Cycle-granular simulation of spatial-array bindings.

Two engines back every simulation.  ``engine="vector"`` (the default)
schedules flat task lists on the closed-form event core
(:mod:`.events`) and folds scenario, cluster and binding points into
counted instance classes (:mod:`.vector`).  ``engine="cycle"`` is the
cycle-accurate oracle both are differentially tested against.
On top sit the Fig. 4/5 binding pipeline (:mod:`.pipeline`) and
long-sequence binding sweeps (:mod:`.sweep`).
"""

from .dataflow import TileResult, expected_compute_cycles, simulate_tile
from .engine import (
    DRAM_RESOURCE,
    SimResult,
    Simulator,
    Task,
    lower_dram,
    transfer_cycles,
)
from .events import run_event_driven
from .pipeline import (
    BINDINGS,
    ChunkResidency,
    ChunkTraffic,
    ChunkWork,
    PipelineConfig,
    PipelineReport,
    WORD_BYTES,
    apply_buffer_spills,
    binding_sim,
    build_decode_tasks,
    build_scenario_tasks,
    build_tasks,
    chunk_residency,
    chunk_traffic,
    chunk_work,
    compare_bindings,
    fold_binding,
    fold_scenario,
    folded_slots,
    instance_spill_bytes,
    scenario_dram_cycles,
    scenario_sim,
    scenario_spill_bytes,
    schedule_binding,
    schedule_scenario_tasks,
    simulate_binding,
    spill_bytes_per_chunk,
)
from .vector import FoldedScenario, run_folded
from .sweep import (
    DEFAULT_SWEEP_ARRAY_DIMS,
    DEFAULT_SWEEP_CHUNKS,
    BindingPoint,
    BindingResult,
    ScenarioGridCell,
    ScenarioGridResult,
    ScenarioProfile,
    ScenarioResult,
    evaluate_binding_point,
    evaluate_scenario_point,
    profile_scenario_point,
    scenario_csv,
    sweep_csv,
)
from .systolic import TileTiming, bqk_tile_timing, exp_tile_timing
from .waterfall import binding_waterfall, waterfall_text

__all__ = [
    "BINDINGS",
    "BindingPoint",
    "BindingResult",
    "ChunkResidency",
    "ChunkTraffic",
    "ChunkWork",
    "DEFAULT_SWEEP_ARRAY_DIMS",
    "DEFAULT_SWEEP_CHUNKS",
    "DRAM_RESOURCE",
    "FoldedScenario",
    "PipelineConfig",
    "PipelineReport",
    "WORD_BYTES",
    "ScenarioGridCell",
    "ScenarioGridResult",
    "ScenarioProfile",
    "ScenarioResult",
    "SimResult",
    "Simulator",
    "Task",
    "TileResult",
    "TileTiming",
    "apply_buffer_spills",
    "binding_sim",
    "binding_waterfall",
    "bqk_tile_timing",
    "build_decode_tasks",
    "build_scenario_tasks",
    "build_tasks",
    "chunk_residency",
    "chunk_traffic",
    "chunk_work",
    "compare_bindings",
    "evaluate_binding_point",
    "evaluate_scenario_point",
    "exp_tile_timing",
    "profile_scenario_point",
    "expected_compute_cycles",
    "fold_binding",
    "fold_scenario",
    "folded_slots",
    "instance_spill_bytes",
    "lower_dram",
    "run_event_driven",
    "run_folded",
    "scenario_csv",
    "scenario_dram_cycles",
    "scenario_sim",
    "scenario_spill_bytes",
    "schedule_binding",
    "schedule_scenario_tasks",
    "simulate_binding",
    "simulate_tile",
    "spill_bytes_per_chunk",
    "transfer_cycles",
    "sweep_csv",
    "waterfall_text",
]
