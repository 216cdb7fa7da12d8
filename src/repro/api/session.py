"""The Session façade: one executor/cache/registry behind every request.

A :class:`Session` owns the execution policy — worker count, result
cache, run registry, retries and fault plan — and exposes two ways to
evaluate requests:

- :meth:`Session.run` — one request, one :class:`Result`;
- :meth:`Session.submit` / :meth:`Session.gather` — batch heterogeneous
  requests, pool every lowerable grid point into a *single* pass through
  the parallel runtime, and hand back one ``Result`` per request.

Both, and every experiment driver, run their grids through
:meth:`Session.evaluate`, the one place a grid pass is executed and
recorded.

Every ``Result`` wraps its payload in a :class:`Provenance` envelope:
cache hit/miss deltas, the code version that computed it, wall time, and
the registry run id/digest when the session records runs.  Parallelism
and caching never change payloads — the same guarantee the runtime makes
for grid points holds for whole requests.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..runtime import executor as _runtime
from ..runtime.cache import ResultCache, code_version, resolve_cache
from ..runtime.executor import ON_ERROR_MODES, EvalTask, ExecutionOutcome, execute_tasks
from ..runtime.faults import FaultPlan, RetryPolicy
from ..runtime.registry import RunRegistry
from ..simulator.sweep import (
    evaluate_binding_point,
    evaluate_scenario_point,
    profile_scenario_point,
)
from ..workloads.models import MODELS_BY_NAME
from .requests import (
    BindingSweepRequest,
    ClusterRequest,
    CrosscheckRequest,
    ExperimentRequest,
    Request,
    ScenarioGridRequest,
    ScenarioRequest,
    ServeRequest,
)

#: Experiments whose drivers run a grid through the session (their
#: ``main`` takes one); the rest are cheap and stay serial.
GRID_EXPERIMENTS = ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12")


@dataclass(frozen=True)
class Provenance:
    """How a payload came to be: enough to audit or reproduce it."""

    kind: str
    code_version: str
    wall_time_s: float
    jobs: int
    cached: bool
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None
    run_id: Optional[str] = None
    result_digest: Optional[str] = None
    recorded_duration_s: Optional[float] = None
    batched: bool = False
    #: Fault-handling telemetry (None for requests that don't run
    #: through the pooled executor): total task attempts, tasks that
    #: exhausted retries under ``on_error="skip"``, tasks that succeeded
    #: after at least one failed attempt.
    attempts: Optional[int] = None
    failures: Optional[int] = None
    recovered: Optional[int] = None
    #: Per-scenario wall-time breakdowns (``ScenarioRequest.profile``
    #: runs only): build vs schedule seconds for each scenario, in
    #: payload order.  Timing is observability, not part of the payload,
    #: so it rides in provenance like the cache and fault telemetry.
    profiles: Optional[Tuple[Any, ...]] = None


@dataclass(frozen=True)
class Result:
    """Uniform response envelope: the request, its payload, provenance."""

    request: Request
    payload: Any
    provenance: Provenance


def _binding_tasks(request: BindingSweepRequest) -> List[Any]:
    """The runtime tasks of one binding sweep — always derived through
    :func:`repro.runtime.executor.binding_grid` so every path (pooled
    run or gather, cycle oracle) shares one grid order and dedup."""
    return _runtime.binding_grid(
        request.chunks,
        request.bindings,
        request.array_dims,
        request.embeddings,
        request.pe_1d_dims,
    )


class Session:
    """Evaluation façade owning the executor, cache, and registry.

    ``cache`` accepts the runtime vocabulary (``True`` for the shared
    process cache, ``False`` for none, or a
    :class:`~repro.runtime.cache.ResultCache`); ``cache_dir`` persists
    results under a directory (implies caching).  ``registry`` is a
    directory path or :class:`~repro.runtime.registry.RunRegistry`;
    when set, every runtime-backed request leaves a structured run
    record and its id/digest surface in the result's provenance.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Any = True,
        cache_dir: Optional[Union[str, Path]] = None,
        registry: Optional[Union[str, Path, RunRegistry]] = None,
        retry: Optional[RetryPolicy] = None,
        on_error: str = "raise",
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if cache_dir is not None:
            if cache is False or cache is None:
                raise ValueError("cache_dir cannot be combined with cache=False")
            cache = ResultCache(directory=cache_dir)
        if retry is not None:
            retry.validate()
        if on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
            )
        self.jobs = jobs
        self._store = resolve_cache(cache)
        self.registry = (
            registry if isinstance(registry, (RunRegistry, type(None)))
            else RunRegistry(registry)
        )
        self.retry = retry
        self.on_error = on_error
        self.faults = faults
        self._pending: List[Request] = []
        self._last_outcome: Optional[ExecutionOutcome] = None
        self._last_profiles: Optional[Tuple[Any, ...]] = None

    # -- identity ----------------------------------------------------------

    @property
    def version(self) -> str:
        """The package version serving this session (from the installed
        distribution metadata; see ``repro --version``)."""
        from .. import __version__

        return __version__

    @property
    def cache(self) -> Optional[ResultCache]:
        """The session's result cache (None when caching is off)."""
        return self._store

    # -- single-request execution ------------------------------------------

    def run(self, request: Request) -> Result:
        """Validate and evaluate one request."""
        request.validate()
        start = time.perf_counter()
        before = self._store.stats.as_dict() if self._store is not None else None
        record_before = self.registry.last_recorded if self.registry else None
        self._last_outcome = None
        self._last_profiles = None
        payload = self._dispatch(request)
        return Result(
            request=request,
            payload=payload,
            provenance=self._provenance(
                request, start, before, record_before, outcome=self._last_outcome
            ),
        )

    def _provenance(
        self,
        request,
        start,
        before,
        record_before,
        batched: bool = False,
        outcome: Optional[ExecutionOutcome] = None,
    ) -> Provenance:
        hits = misses = None
        if before is not None:
            after = self._store.stats.as_dict()
            hits = (
                after["memory_hits"]
                + after["disk_hits"]
                - before["memory_hits"]
                - before["disk_hits"]
            )
            misses = after["misses"] - before["misses"]
        record = self.registry.last_recorded if self.registry else None
        if record is record_before:
            record = None  # this request recorded nothing new
        return Provenance(
            kind=request.KIND,
            code_version=code_version(),
            wall_time_s=time.perf_counter() - start,
            jobs=self.jobs,
            cached=self._store is not None,
            cache_hits=hits,
            cache_misses=misses,
            run_id=record.run_id if record else None,
            result_digest=record.result_digest if record else None,
            recorded_duration_s=record.duration_s if record else None,
            batched=batched,
            attempts=outcome.attempts if outcome else None,
            failures=len(outcome.failures) if outcome else None,
            recovered=outcome.recovered if outcome else None,
            profiles=self._last_profiles,
        )

    def evaluate(self, kind: str, tasks: Sequence[EvalTask]) -> ExecutionOutcome:
        """Evaluate one grid pass under the session's policy.

        Every grid a request or an experiment driver runs comes through
        here, so ``jobs``, the cache, retries, timeouts, ``on_error`` and
        the fault plan all apply.  With a registry the pass leaves one
        record of ``kind`` with its cache-stat delta and health summary.
        A request's provenance reports the fault counts of its last pass.
        """
        tasks = list(tasks)
        start = time.perf_counter()
        before = self._store.stats.as_dict() if self._store is not None else None
        outcome = execute_tasks(
            tasks,
            jobs=self.jobs,
            cache=self._store,  # None: no cache
            retry=self.retry,
            on_error=self.on_error,
            faults=self.faults,
        )
        if self.registry is not None:
            delta = None
            if before is not None:
                after = self._store.stats.as_dict()
                delta = {name: after[name] - before[name] for name in after}
            self.registry.record(
                kind=kind,
                tasks=tasks,
                results=outcome.results,
                duration_s=time.perf_counter() - start,
                jobs=self.jobs,
                cache_stats=delta,
                health=outcome.health(),
            )
        self._last_outcome = outcome
        return outcome

    #: Registry record kind for each request type that lowers to one
    #: grid pass.
    _REGISTRY_KINDS = {
        BindingSweepRequest: "binding",
        ScenarioRequest: "scenario",
        ScenarioGridRequest: "scenario_grid",
        ServeRequest: "serve",
        ClusterRequest: "cluster",
    }

    def _dispatch(self, request: Request) -> Any:
        lowered = self._lower(request)
        if lowered is not None:
            tasks, assemble = lowered
            outcome = self.evaluate(self._REGISTRY_KINDS[type(request)], tasks)
            return assemble(outcome.results)
        if isinstance(request, ExperimentRequest):
            return self._run_experiment(request)
        if isinstance(request, BindingSweepRequest):
            return self._run_binding_sweep(request)
        if isinstance(request, ScenarioRequest):
            return self._run_scenario(request)
        if isinstance(request, ClusterRequest):
            # engine="cycle": the differential oracle runs serial and
            # uncached, mirroring the binding/scenario cycle paths.
            from ..cluster.sweep import evaluate_cluster_point

            return [
                evaluate_cluster_point(point, engine="cycle")
                for point in request.build_points()
            ]
        if isinstance(request, CrosscheckRequest):
            from ..experiments.crosscheck import crosscheck

            return crosscheck(
                request.scenarios,
                tolerance=request.tolerance,
                bandwidth=request.bandwidth,
                capacity=request.capacity,
                cluster=request.cluster,
                session=self,
            )
        raise TypeError(f"unknown request type {type(request).__name__}")

    def _run_experiment(self, request: ExperimentRequest) -> Any:
        if request.name == "report":
            from ..experiments.report import full_report

            return full_report(self)
        if request.name == "sweep":
            from ..experiments.common import evaluate_grid

            models = tuple(MODELS_BY_NAME[name] for name in request.resolved("models"))
            seq_lens = request.resolved("seq_lens")
            return evaluate_grid(
                self, models, seq_lens, kind=request.resolved_kind, keep_failures=True
            )
        # Figure/table drivers print their tables; the captured text is
        # the payload, so the CLI adapter stays byte-identical to the
        # drivers' historical stdout.
        # Imported on dispatch: the drivers themselves build requests
        # through this package, and a run loads only the one it runs.
        module = importlib.import_module(f"repro.experiments.{request.name}")
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            if request.name in GRID_EXPERIMENTS:
                module.main(self)
            else:
                module.main()
        return buffer.getvalue()

    def _run_binding_sweep(self, request: BindingSweepRequest) -> Dict:
        # Only cycle-oracle runs get here (the rest lower): they stay
        # serial and uncached, so a cached result can never masquerade
        # as a cycle run.
        return {
            _runtime.binding_key(task.config): evaluate_binding_point(task.config, engine="cycle")
            for task in _binding_tasks(request)
        }

    def _run_scenario(self, request: ScenarioRequest) -> Dict:
        # Only profiled and cycle-oracle runs get here (the rest lower).
        scenarios = request.build_scenarios()
        if request.profile:
            # Profiling is a measurement of *this* process doing the
            # work, so it runs inline — no workers, no cache — and the
            # timings ride back in the Result's provenance.
            payload: Dict = {}
            profiles = []
            for scenario in scenarios:
                result, prof = profile_scenario_point(scenario, engine=request.resolved("engine"))
                payload[scenario] = result
                profiles.append(prof)
            self._last_profiles = tuple(profiles)
            return payload
        return {s: evaluate_scenario_point(s, engine="cycle") for s in scenarios}

    # -- batched heterogeneous execution -----------------------------------

    def submit(self, request: Request) -> int:
        """Queue a request for :meth:`gather`; returns its index."""
        request.validate()
        self._pending.append(request)
        return len(self._pending) - 1

    def _lower(self, request: Request) -> Optional[Tuple[List[Any], Callable[[List[Any]], Any]]]:
        """(tasks, assemble) for requests that decompose into runtime
        tasks, or None for the ones that must run whole."""
        if isinstance(request, BindingSweepRequest) and request.engine != "cycle":
            tasks = _binding_tasks(request)
            points = [task.config for task in tasks]

            def assemble_bindings(results: List[Any]) -> Dict:
                return {_runtime.binding_key(p): r for p, r in zip(points, results)}

            return tasks, assemble_bindings
        if (
            isinstance(request, ScenarioRequest)
            and request.engine != "cycle"
            and not request.profile
        ):
            scenarios = request.build_scenarios()
            tasks = _runtime.scenario_grid(scenarios)

            def assemble_scenarios(results: List[Any]) -> Dict:
                return dict(zip(scenarios, results))

            return tasks, assemble_scenarios
        if isinstance(request, ScenarioGridRequest):
            return _runtime.scenario_grid_tasks(request.cells()), list
        if isinstance(request, ClusterRequest) and request.engine != "cycle":
            return _runtime.cluster_grid(request.build_points()), list
        if isinstance(request, ServeRequest):
            tasks = _runtime.serving_grid([request.build_spec()])

            def assemble_serving(results: List[Any]) -> Any:
                return results[0]

            return tasks, assemble_serving
        return None

    def gather(self) -> List[Result]:
        """Evaluate every submitted request and clear the queue.

        All lowerable requests' grid points pool into **one** pass
        through the parallel runtime — a heterogeneous mix of binding
        points, scenario schedules, and grid cells fans out over the
        same workers and shares the cache.  Non-lowerable requests
        (experiments, crosschecks, cycle-oracle runs) evaluate after the
        pooled batch, in submission order.  Batched provenance reports
        the pooled pass's wall time and cache deltas on every pooled
        result.
        """
        pending, self._pending = self._pending, []
        self._last_profiles = None
        lowered = [self._lower(request) for request in pending]
        pooled = [
            (i, tasks, assemble)
            for i, entry in enumerate(lowered)
            if entry is not None
            for tasks, assemble in [entry]
        ]
        results: List[Optional[Result]] = [None] * len(pending)
        if pooled:
            start = time.perf_counter()
            before = self._store.stats.as_dict() if self._store is not None else None
            record_before = self.registry.last_recorded if self.registry else None
            all_tasks = [task for _, tasks, _ in pooled for task in tasks]
            outcome = self.evaluate("batch", all_tasks)
            flat = outcome.results
            offset = 0
            for i, tasks, assemble in pooled:
                slice_ = flat[offset : offset + len(tasks)]
                offset += len(tasks)
                results[i] = Result(
                    request=pending[i],
                    payload=assemble(slice_),
                    provenance=self._provenance(
                        pending[i],
                        start,
                        before,
                        record_before,
                        batched=True,
                        outcome=outcome,
                    ),
                )
        for i, request in enumerate(pending):
            if results[i] is None:
                results[i] = self.run(request)
        return list(results)
