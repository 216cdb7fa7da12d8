"""Experiment runtime: parallel execution, result caching, run records.

The runtime turns the repo's serial figure drivers into a deterministic
pipeline: grid points fan out over processes (:mod:`.executor`), results
content-address into a two-level cache (:mod:`.cache`), and every sweep
can leave a structured record behind (:mod:`.registry`).  Parallelism
and caching never change results — the executor merges in submission
order and the cache keys include the code version.

Fault tolerance rides on the same spine (:mod:`.faults`): bounded
retries with deterministic backoff, per-task timeouts, broken-pool
recovery, quarantine of corrupt cache entries, and a seeded
fault-injection plan that makes every failure path testable
byte-deterministically.

The names below load with their defining submodule on first use (see
:mod:`repro._lazy`), so reading one name never imports every result
type the cache can decode.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "cache": (
            "CACHE_DIR_ENV",
            "RESULT_TYPES",
            "CacheStats",
            "ResultCache",
            "cache_key",
            "canonical",
            "code_version",
            "decode_result",
            "default_cache",
            "encode_result",
            "resolve_cache",
        ),
        "executor": (
            "ON_ERROR_MODES",
            "EvalTask",
            "ExecutionOutcome",
            "attention_grid",
            "binding_grid",
            "cluster_grid",
            "evaluate_task",
            "execute_tasks",
            "pareto_grid",
            "run_tasks",
            "scenario_grid",
            "scenario_grid_tasks",
            "serving_grid",
            "sweep_attention",
            "sweep_bindings",
            "sweep_cluster",
            "sweep_inference",
            "sweep_pareto",
            "sweep_scenarios",
            "sweep_serving",
        ),
        "faults": (
            "FAULT_KINDS",
            "FaultPlan",
            "FaultSpec",
            "InjectedFault",
            "RetryPolicy",
            "TaskError",
            "TaskFailure",
            "TaskTimeout",
            "WorkerCrash",
            "corrupt_disk_entry",
        ),
        "registry": ("RunRecord", "RunRegistry", "result_digest"),
    },
)
