"""Cycle-granular simulation of spatial-array bindings.

Two engines back every simulation.  ``engine="vector"`` (the default)
schedules flat task lists on the closed-form event core
(:mod:`.events`) and folds scenario, cluster and binding points into
counted instance classes (:mod:`.vector`).  ``engine="cycle"`` is the
cycle-accurate oracle both are differentially tested against.
On top sit the Fig. 4/5 binding pipeline (:mod:`.pipeline`) and
long-sequence binding sweeps (:mod:`.sweep`).

The names below load with their defining submodule on first use (see
:mod:`repro._lazy`); code inside the package imports that submodule.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "dataflow": ("TileResult", "expected_compute_cycles", "simulate_tile"),
        "engine": (
            "DRAM_RESOURCE",
            "SimResult",
            "Simulator",
            "Task",
            "lower_dram",
            "transfer_cycles",
        ),
        "events": ("run_event_driven",),
        "pipeline": (
            "BINDINGS",
            "ChunkResidency",
            "ChunkTraffic",
            "ChunkWork",
            "PipelineConfig",
            "PipelineReport",
            "WORD_BYTES",
            "apply_buffer_spills",
            "build_decode_tasks",
            "build_scenario_tasks",
            "build_tasks",
            "chunk_residency",
            "chunk_traffic",
            "chunk_work",
            "compare_bindings",
            "fold_scenario",
            "folded_slots",
            "instance_spill_bytes",
            "scenario_dram_cycles",
            "scenario_spill_bytes",
            "schedule_binding",
            "schedule_scenario_tasks",
            "simulate_binding",
            "spill_bytes_per_chunk",
        ),
        "vector": ("FoldedScenario", "run_folded"),
        "sweep": (
            "DEFAULT_SWEEP_ARRAY_DIMS",
            "DEFAULT_SWEEP_CHUNKS",
            "BindingPoint",
            "BindingResult",
            "ScenarioGridCell",
            "ScenarioGridResult",
            "ScenarioProfile",
            "ScenarioResult",
            "evaluate_binding_point",
            "evaluate_scenario_point",
            "profile_scenario_point",
            "scenario_csv",
            "sweep_csv",
        ),
        "systolic": ("TileTiming", "bqk_tile_timing", "exp_tile_timing"),
        "waterfall": ("waterfall_text",),
    },
)
