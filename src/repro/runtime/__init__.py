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
"""

from .cache import (
    CACHE_DIR_ENV,
    RESULT_TYPES,
    CacheStats,
    ResultCache,
    cache_key,
    canonical,
    code_version,
    decode_result,
    default_cache,
    encode_result,
    resolve_cache,
)
from .executor import (
    ON_ERROR_MODES,
    EvalTask,
    ExecutionOutcome,
    attention_grid,
    binding_grid,
    cluster_grid,
    evaluate_task,
    execute_tasks,
    pareto_grid,
    run_tasks,
    scenario_grid,
    scenario_grid_tasks,
    serving_grid,
    sweep_attention,
    sweep_bindings,
    sweep_cluster,
    sweep_inference,
    sweep_pareto,
    sweep_scenario_grid,
    sweep_scenarios,
    sweep_serving,
)
from .faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    TaskError,
    TaskFailure,
    TaskTimeout,
    WorkerCrash,
    corrupt_disk_entry,
)
from .registry import RunRecord, RunRegistry, result_digest

__all__ = [
    "CACHE_DIR_ENV",
    "RESULT_TYPES",
    "FAULT_KINDS",
    "ON_ERROR_MODES",
    "CacheStats",
    "EvalTask",
    "ExecutionOutcome",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ResultCache",
    "RetryPolicy",
    "RunRecord",
    "RunRegistry",
    "TaskError",
    "TaskFailure",
    "TaskTimeout",
    "WorkerCrash",
    "attention_grid",
    "binding_grid",
    "cache_key",
    "cluster_grid",
    "canonical",
    "code_version",
    "corrupt_disk_entry",
    "decode_result",
    "default_cache",
    "encode_result",
    "evaluate_task",
    "execute_tasks",
    "pareto_grid",
    "resolve_cache",
    "result_digest",
    "run_tasks",
    "scenario_grid",
    "scenario_grid_tasks",
    "serving_grid",
    "sweep_attention",
    "sweep_bindings",
    "sweep_cluster",
    "sweep_inference",
    "sweep_pareto",
    "sweep_scenario_grid",
    "sweep_scenarios",
    "sweep_serving",
]
