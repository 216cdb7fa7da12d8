"""Parallel grid executor with deterministic, ordered merge.

The evaluation grid (Figs. 6-11: 5 configurations × 4 models × 6
sequence lengths; Fig. 12: 4 models × 6 array dims) is embarrassingly
parallel — every point is an independent, pure analytical-model
evaluation.  :func:`execute_tasks` fans the points out over a
``ProcessPoolExecutor`` and merges results back in request order, so
the output is bit-identical to the serial path regardless of ``jobs``.
A :class:`~repro.api.Session` runs and records every grid pass through
it (``Session.evaluate``); the grid builders below make the task lists.

Cache lookups happen before dispatch: only misses reach the pool, and
every fresh result is written back, so a warm sweep never forks at all.

Every pooled pass takes one path.  The misses are dealt round-robin,
in request order, into about four batches per worker, one future per
batch: neighbouring grid points land in different batches, and tiny
analytical tasks still share a round trip.  There is no chunked
``pool.map``.

Shared schedules: after the cache lookups, pending tasks with equal
:meth:`EvalTask.schedule_key` form one group, and only its lowest
index, the representative, is dealt into a batch or run inline.  When
the cache holds the row of a task with the group's key, that row
represents the group instead and nothing in it runs.  Binding,
scenario and cluster points have keys, and equal keys are equal
schedules.  A binding point's key digests its lowered two-chunk
template (names, resources, durations, deps) with its chunk count and
issue slots, everything the chunk fold reads; under the matched
floorplan an interleaved point hides fill and drain, and its template
is the same at every array dim.  A scenario or cluster point's key
digests the point in :func:`~repro.workloads.scenario.schedule_form`,
the form its lowering reads: no name, ``inf`` bandwidth or buffer as
None, and no link on one chip or at an infinite bandwidth.  The pass
then builds each other member's row in the parent with the
representative's row's ``for_point`` (the schedule's measurements
under the member's own name and as-given fields) and caches it under
the member's own key, so cache files, payloads and digests are those
of a pass that scheduled every point.  A shared row costs no attempt;
if the representative exhausts its budget, each member records its own
:class:`TaskFailure` under ``on_error="skip"``.  Tasks of the other
kinds (analytical points, grid cells, serving specs) have no key and
never share.  Equal graphs skip scheduling entirely; below that, equal
templates at different chunk counts share their fold's prefix in each
process (:mod:`repro.simulator.prefixes`).

Fault tolerance (see :mod:`.faults`): :func:`execute_tasks` accepts a
:class:`~repro.runtime.faults.RetryPolicy` (bounded attempts, capped
seeded backoff, per-task timeout), recovers a broken process pool by
respawning it and requeueing what was in flight (a lone task is
charged the attempt, the members of a larger batch rerun alone,
uncharged), retries each failed task alone, and — under
``on_error="skip"`` — degrades exhausted tasks to per-task
:class:`~repro.runtime.faults.TaskFailure` records instead of poisoning
the sweep.  Because every task is pure, none of this can change a
payload: a recoverable fault only costs extra attempts, so a chaos run
digests identically to a clean one (gated by
``benchmarks/bench_chaos.py``).
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

from ..simulator.pipeline import BINDINGS
from ..simulator.sweep import (
    DEFAULT_SWEEP_ARRAY_DIMS,
    DEFAULT_SWEEP_CHUNKS,
    BindingPoint,
    ScenarioGridCell,
    evaluate_binding_point,
    evaluate_scenario_point,
)
from ..workloads.models import (
    ARRAY_DIMS,
    BATCH_SIZE,
    MODELS,
    PARETO_SEQ_LEN,
    SEQUENCE_LENGTHS,
    ModelConfig,
)
from ..workloads.scenario import Scenario
from .cache import cache_key_of_json, canonical_json, resolve_cache
from .faults import (
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    TaskError,
    TaskFailure,
    TaskTimeout,
    WorkerCrash,
    corrupt_disk_entry,
)

if TYPE_CHECKING:
    from ..cluster.sweep import ClusterPoint
    from ..serving.simulator import ServingSpec

#: Task kinds understood by :func:`evaluate_task`.
KINDS = (
    "attention",
    "inference",
    "pareto",
    "binding",
    "scenario",
    "scenario_grid",
    "serve",
    "cluster",
)

#: How :func:`execute_tasks` surfaces a task that exhausted its retry
#: budget: ``"raise"`` aborts the sweep with a
#: :class:`~repro.runtime.faults.TaskError`; ``"skip"`` degrades the
#: task to a :class:`~repro.runtime.faults.TaskFailure` record in its
#: result slot and the sweep completes with partial results.
ON_ERROR_MODES = ("raise", "skip")

#: Exit code an injected ``"crash"`` fault kills its worker with.
_CRASH_EXIT_CODE = 70


@dataclass(frozen=True)
class EvalTask:
    """One point of an evaluation grid.

    ``config`` is the accelerator model object for ``attention`` and
    ``inference`` tasks, and the integer PE-array dimension for
    ``pareto`` tasks.  Everything a worker needs rides inside the task,
    so tasks pickle cleanly to pool workers.
    """

    kind: str
    config: Any
    model: Optional[ModelConfig]
    seq_len: int
    batch: int = BATCH_SIZE

    def fingerprint(self) -> Dict[str, Any]:
        """The cache-key fields identifying this evaluation."""
        return {
            "kind": self.kind,
            "config": self.config,
            "model": self.model,
            "seq_len": self.seq_len,
            "batch": self.batch,
        }

    def cache_key(self, memo: Dict[int, str]) -> str:
        """``cache_key(self.fingerprint())`` in one canonical pass.

        ``memo`` (keyed by object id) lets a pass render each field
        object it shares, such as a config or model, to JSON once
        instead of per grid point; callers must keep the tasks alive
        while using it.
        """
        encoded = {}
        for name, value in self.fingerprint().items():
            text = memo.get(id(value))
            if text is None:
                text = memo[id(value)] = canonical_json(value)
            encoded[name] = text
        return cache_key_of_json(encoded)

    def schedule_key(self) -> Optional[str]:
        """Equal keys mean equal schedules (see :func:`execute_tasks`):
        the ``schedule_key()`` of a config that has one (a binding,
        scenario or cluster point), None for every other config."""
        key = getattr(self.config, "schedule_key", None)
        return None if key is None else key()


def simulate_serving(spec: ServingSpec) -> Any:
    """:func:`repro.serving.simulator.simulate_serving`, imported on
    first call: ``import repro.api`` loads this module, and only serving
    requests need the serving simulator (they load it in ``validate()``)."""
    from ..serving import simulator

    return simulator.simulate_serving(spec)


def evaluate_task(task: EvalTask) -> Any:
    """Evaluate one grid point (runs in pool workers and inline).

    Each analytical or cluster evaluator is imported in its own branch,
    so a run loads only the models its tasks use."""
    if task.kind == "attention":
        return task.config.evaluate(task.model, task.seq_len, task.batch)
    if task.kind == "inference":
        from ..model.inference import evaluate_inference

        return evaluate_inference(task.config, task.model, task.seq_len, task.batch)
    if task.kind == "pareto":
        from ..model.pareto import design_point

        return design_point(task.model, task.config, task.seq_len, task.batch)
    if task.kind == "binding":
        return evaluate_binding_point(task.config)
    if task.kind == "scenario":
        return evaluate_scenario_point(task.config)
    if task.kind == "scenario_grid":
        from ..model.scenario import evaluate_grid_cell

        return evaluate_grid_cell(task.config)
    if task.kind == "serve":
        return simulate_serving(task.config)
    if task.kind == "cluster":
        from ..cluster.sweep import evaluate_cluster_point

        return evaluate_cluster_point(task.config)
    raise ValueError(f"unknown task kind {task.kind!r}; have {KINDS}")


@dataclass
class ExecutionOutcome:
    """What one :func:`execute_tasks` pass did, beyond its results.

    ``results`` is index-aligned with the task list (cache hits and
    rows shared from a representative's schedule count as zero
    attempts).  ``attempts`` totals every attempt made this pass,
    ``recovered`` counts tasks that succeeded after at least one failed
    attempt, ``failures`` the tasks that exhausted their budget under
    ``on_error="skip"`` (in index order, a shared row's beside its
    representative's), and ``respawns`` how many times a broken process
    pool was replaced.
    """

    results: List[Any]
    attempts: int = 0
    failures: Tuple[TaskFailure, ...] = ()
    recovered: int = 0
    respawns: int = 0

    def health(self) -> Dict[str, int]:
        """The run-record summary of this pass's fault handling."""
        return {
            "attempts": self.attempts,
            "failures": len(self.failures),
            "recovered": self.recovered,
            "respawns": self.respawns,
        }

    def complete(self) -> List[Any]:
        """``results``, for a caller that needs every point (a report,
        figure or crosscheck driver): raises :class:`~repro.runtime
        .faults.TaskError` for the lowest-index task that failed under
        ``on_error="skip"``."""
        if self.failures:
            raise TaskError(min(self.failures, key=lambda failure: failure.index))
        return self.results


@contextmanager
def _deadline(timeout_s: Optional[float]):
    """Raise :class:`TaskTimeout` if the body runs past ``timeout_s``.

    Enforced with ``SIGALRM`` — available in pool workers (tasks run on
    the worker's main thread) and in the inline path on POSIX.  Where
    alarms are unavailable the timeout is advisory and the body runs
    unbounded.
    """
    usable = (
        timeout_s is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expired(signum, frame):
        raise TaskTimeout(f"task exceeded its {timeout_s:g}s timeout")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _attempt_task(
    task: EvalTask,
    index: int,
    attempt: int,
    timeout_s: Optional[float] = None,
    directive: Optional[str] = None,
    hang_s: float = 0.0,
    inline: bool = False,
) -> Any:
    """One attempt at one task (runs in pool workers and inline).

    ``directive`` is the injected fault for this (task, attempt) pair,
    if any: ``"crash"`` kills the worker process outright (inline, where
    there is no process to lose, it raises :class:`WorkerCrash`
    instead), ``"hang"`` sleeps ``hang_s`` inside the timeout window,
    and ``"raise"`` throws a transient :class:`InjectedFault`.
    """
    with _deadline(timeout_s):
        if directive == "crash":
            if inline:
                raise WorkerCrash(
                    f"injected worker crash (task {index}, attempt {attempt})"
                )
            os._exit(_CRASH_EXIT_CODE)
        if directive == "hang":
            time.sleep(hang_s)
        if directive == "raise":
            raise InjectedFault(
                f"injected transient fault (task {index}, attempt {attempt})"
            )
        return evaluate_task(task)


@dataclass
class _ExecutionState:
    """Bookkeeping one :func:`execute_tasks` pass threads through its
    serial/pooled paths: result slots, retry accounting, fault plan."""

    tasks: List[EvalTask]
    results: List[Any]
    keys: List[Optional[str]]
    store: Any
    policy: RetryPolicy
    on_error: str
    faults: Optional[FaultPlan]
    attempts: int = 0
    respawns: int = 0
    failures: List[TaskFailure] = field(default_factory=list)
    flaky: Set[int] = field(default_factory=set)
    recovered: Set[int] = field(default_factory=set)

    @property
    def hang_s(self) -> float:
        return self.faults.hang_s if self.faults is not None else 0.0

    def directive(self, index: int, attempt: int) -> Optional[str]:
        if self.faults is None:
            return None
        return self.faults.directive(index, attempt)

    def finish(self, index: int, value: Any, attempted: bool = True) -> None:
        """Record one successful attempt, or a row shared from its
        representative's (``attempted=False``), and write the cache
        entry."""
        self.attempts += attempted
        self.results[index] = value
        if index in self.flaky:
            self.recovered.add(index)
        if self.store is not None:
            self.store.put(self.keys[index], value)
            if self.faults is not None and self.faults.corrupts(index):
                corrupt_disk_entry(self.store, self.keys[index])

    def fail(self, index: int, attempt: int, error: BaseException) -> bool:
        """Record one failed attempt; True when the task retries."""
        self.attempts += 1
        if attempt < self.policy.max_attempts:
            self.flaky.add(index)
            return True
        failure = TaskFailure(
            index=index,
            kind=self.tasks[index].kind,
            error=f"{type(error).__name__}: {error}",
            attempts=attempt,
        )
        if self.on_error == "raise":
            raise TaskError(failure) from error
        self.failures.append(failure)
        self.results[index] = failure
        return False

    def share(self, groups: List[List[int]]) -> None:
        """Give each group's other members the row of its first member,
        the representative that ran: its row's ``for_point`` of the
        member's config, or under ``on_error="skip"`` a copy of its
        :class:`TaskFailure` carrying the member's own index."""
        for rep, *members in groups:
            row = self.results[rep]
            for i in members:
                if isinstance(row, TaskFailure):
                    failure = replace(row, index=i)
                    self.failures.append(failure)
                    self.results[i] = failure
                else:
                    self.finish(i, row.for_point(self.tasks[i].config), attempted=False)


def _run_inline(state: _ExecutionState, pending: List[int]) -> None:
    """The serial path: retry loop per task, in submission order."""
    policy = state.policy
    for i in pending:
        attempt = 1
        while True:
            try:
                value = _attempt_task(
                    state.tasks[i],
                    i,
                    attempt,
                    policy.task_timeout_s,
                    state.directive(i, attempt),
                    state.hang_s,
                    inline=True,
                )
            except Exception as error:
                if not state.fail(i, attempt, error):
                    break
                time.sleep(policy.backoff_s(i, attempt))
                attempt += 1
                continue
            state.finish(i, value)
            break


#: Pooled batches per worker: enough that the round-robin deal evens
#: out, few enough that tiny analytical tasks share a round trip.
_BATCHES_PER_WORKER = 4

#: One pooled batch: ``(task index, attempt)`` per member.
_Batch = List[Tuple[int, int]]


class _RemoteTraceback(Exception):
    """Where a task failed inside a pool worker: the formatted
    traceback, chained as the returned error's ``__cause__``."""

    def __str__(self) -> str:
        return self.args[0]


def _portable(error: Exception) -> Tuple[Exception, str]:
    """A member's error as its batch returns it: the error itself, or a
    ``RuntimeError`` naming it when it does not survive pickling (so one
    member cannot lose its batch-mates' results), plus its traceback."""
    text = '\n"""\n' + traceback.format_exc() + '"""'
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        error = RuntimeError(repr(error))
    return error, text


def _run_batch(members: Sequence[Tuple[Any, ...]]) -> List[Tuple[bool, Any]]:
    """One pooled batch (runs in pool workers): :func:`_attempt_task` on
    each member's arguments in turn, returning ``(True, value)`` or
    ``(False, (error, traceback))`` per member.  A crash loses the
    whole batch."""
    outcomes: List[Tuple[bool, Any]] = []
    for args in members:
        try:
            outcomes.append((True, _attempt_task(*args)))
        except Exception as error:
            outcomes.append((False, _portable(error)))
    return outcomes


def _deal(pending: List[int], workers: int) -> List[_Batch]:
    """First attempts: the pending tasks dealt round-robin, in request
    order, into ``_BATCHES_PER_WORKER * workers`` batches, so the
    neighbouring points of a grid land in different batches."""
    n = min(len(pending), _BATCHES_PER_WORKER * workers)
    return [[(i, 1) for i in pending[b::n]] for b in range(n)]


def _lose(
    queue: deque,
    failed: List[Tuple[int, int, BaseException]],
    lost: List[Tuple[_Batch, BaseException]],
) -> None:
    """Requeue batches whose results never came back (their worker
    died, or a result did not pickle).  When every one was a lone task,
    the culprit is among them, so each is charged the attempt, as one
    future per task would be.  When any held several tasks, the culprit
    may be any member: every member reruns alone, uncharged and first in
    line, so whichever broke the batch is charged only when it fails
    alone, and one crash charges no more attempts than in-flight
    futures."""
    if all(len(members) == 1 for members, _ in lost):
        for members, error in lost:
            failed.extend((i, attempt, error) for i, attempt in members)
    else:
        alone = sorted(member for members, _ in lost for member in members)
        queue.extendleft(([member], 0.0) for member in reversed(alone))


def _requeue_failures(
    state: _ExecutionState,
    queue: deque,
    failed: List[Tuple[int, int, BaseException]],
) -> None:
    """Charge each failed attempt, lowest index first, and requeue the
    ones with budget left, each alone (at its deterministic backoff
    deadline)."""
    for i, attempt, error in sorted(failed, key=lambda f: f[0]):
        if state.fail(i, attempt, error):
            ready_at = time.monotonic() + state.policy.backoff_s(i, attempt)
            queue.append(([(i, attempt + 1)], ready_at))


def _replace_pool(
    state: _ExecutionState,
    pool: ProcessPoolExecutor,
    workers: int,
    inflight: Dict[Any, _Batch],
    lost: List[Tuple[_Batch, BaseException]],
) -> ProcessPoolExecutor:
    """Broken-pool recovery: every in-flight batch died with the pool
    (the culprit is indistinguishable from its neighbours), so add them
    all to ``lost`` (see :func:`_lose`) and respawn."""
    crash = WorkerCrash("worker pool broke while task in flight")
    lost.extend((members, crash) for members in inflight.values())
    inflight.clear()
    pool.shutdown(wait=False, cancel_futures=True)
    state.respawns += 1
    return ProcessPoolExecutor(max_workers=workers)


def _run_pool_supervised(state: _ExecutionState, pending: List[int], jobs: int) -> None:
    """The pooled path: round-robin batches (see :func:`_deal`), one
    future each, at most ``2 * workers`` in flight; retry requeueing
    with deterministic backoff; and broken-pool recovery (respawn the
    pool and requeue what was in flight, see :func:`_lose`).  A break
    can surface at either end — a submit on a just-broken pool or an
    in-flight future resolving to ``BrokenProcessPool`` — and both
    recover the same way.

    Under ``on_error="raise"`` the reported task is the lowest index
    that exhausts its budget, as on the inline path: after the first
    such failure only the tasks below it keep running.  On a clean
    return the workers are joined."""
    policy = state.policy
    workers = min(jobs, len(pending))
    queue = deque((members, 0.0) for members in _deal(pending, workers))
    inflight: Dict[Any, _Batch] = {}
    fatal: Optional[TaskError] = None
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while queue or inflight:
            failed: List[Tuple[int, int, BaseException]] = []
            lost: List[Tuple[_Batch, BaseException]] = []
            while queue and len(inflight) < 2 * workers:
                members, ready_at = queue[0]
                delay = ready_at - time.monotonic()
                if delay > 0:
                    if inflight:
                        break  # revisit after the next completion
                    time.sleep(delay)
                    continue
                queue.popleft()
                args = [
                    (
                        state.tasks[i],
                        i,
                        attempt,
                        policy.task_timeout_s,
                        state.directive(i, attempt),
                        state.hang_s,
                    )
                    for i, attempt in members
                ]
                try:
                    future = pool.submit(_run_batch, args)
                except BrokenProcessPool:
                    # Not an attempt — the batch never reached a worker.
                    queue.appendleft((members, ready_at))
                    pool = _replace_pool(state, pool, workers, inflight, lost)
                    continue
                inflight[future] = members
            if inflight:
                done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    members = inflight.pop(future)
                    try:
                        outcomes = future.result()
                    except BrokenProcessPool:
                        broken = True
                        lost.append((members, WorkerCrash("worker process died mid-task")))
                        continue
                    except Exception as error:
                        lost.append((members, error))
                        continue
                    for (i, attempt), (ok, value) in zip(members, outcomes):
                        if ok:
                            state.finish(i, value)
                        else:
                            error, text = value
                            error.__cause__ = _RemoteTraceback(text)
                            failed.append((i, attempt, error))
                if broken:
                    pool = _replace_pool(state, pool, workers, inflight, lost)
            if lost:
                _lose(queue, failed, lost)
            if fatal is not None:
                failed = [f for f in failed if f[0] < fatal.failure.index]
            try:
                _requeue_failures(state, queue, failed)
            except TaskError as error:
                fatal = error
            if fatal is not None:
                cut = fatal.failure.index
                queue = deque(
                    (kept, ready_at)
                    for members, ready_at in queue
                    if (kept := [m for m in members if m[0] < cut])
                )
                for future, members in list(inflight.items()):
                    if min(i for i, _ in members) > cut:
                        del inflight[future]
        if fatal is not None:
            raise fatal
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)


def execute_tasks(
    tasks: Sequence[EvalTask],
    jobs: int = 1,
    cache: Any = True,
    retry: Optional[RetryPolicy] = None,
    on_error: str = "raise",
    faults: Optional[FaultPlan] = None,
) -> ExecutionOutcome:
    """Evaluate ``tasks`` under a retry policy and report what happened.

    The outcome's ``results`` list is index-aligned with ``tasks`` and —
    because every task is pure — identical to
    ``[evaluate_task(t) for t in tasks]`` for every value of ``jobs``,
    every retry policy, and every *recoverable* fault plan.  Failed
    attempts are retried up to ``retry.max_attempts`` with deterministic
    seeded backoff; a broken process pool is respawned and its in-flight
    tasks requeued; tasks that exhaust the budget either abort the sweep
    (``on_error="raise"``, naming the lowest such index) or degrade to
    :class:`TaskFailure` records in their result slots
    (``on_error="skip"``).  ``faults`` injects
    deterministic failures for testing (see :mod:`.faults`).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    policy = RetryPolicy() if retry is None else retry
    policy.validate()
    if on_error not in ON_ERROR_MODES:
        raise ValueError(f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}")
    tasks = list(tasks)
    store = resolve_cache(cache)
    results: List[Any] = [None] * len(tasks)
    keys: List[Optional[str]] = [None] * len(tasks)
    memo: Dict[int, str] = {}
    hits: List[int] = []
    groups: Dict[Any, List[int]] = {}
    for i, task in enumerate(tasks):
        if store is not None:
            keys[i] = task.cache_key(memo)
            hit = store.get(keys[i])
            if hit is not None:
                results[i] = hit
                hits.append(i)
                continue
        key = task.schedule_key()  # a task without one is a group of its own
        groups.setdefault(i if key is None else key, []).append(i)
    keyed = {key: members for key, members in groups.items() if isinstance(key, str)}
    for i in hits if keyed else ():
        members = keyed.pop(tasks[i].schedule_key(), None)
        if members is not None:
            members.insert(0, i)  # a cached row leads: its group runs nothing
    pending = [members[0] for members in groups.values() if results[members[0]] is None]

    state = _ExecutionState(tasks, results, keys, store, policy, on_error, faults)
    if jobs > 1 and len(pending) > 1:
        _run_pool_supervised(state, pending, jobs)
    elif pending:
        _run_inline(state, pending)
    state.share([members for members in groups.values() if len(members) > 1])
    return ExecutionOutcome(
        results=results,
        attempts=state.attempts,
        failures=tuple(sorted(state.failures, key=lambda failure: failure.index)),
        recovered=len(state.recovered),
        respawns=state.respawns,
    )


# --------------------------------------------------------------------------
# Grid builders: the task lists a Session evaluates.
# --------------------------------------------------------------------------


def attention_grid(
    models: Sequence[ModelConfig] = MODELS,
    seq_lens: Sequence[int] = SEQUENCE_LENGTHS,
    configs: Optional[Sequence[Any]] = None,
    batch: int = BATCH_SIZE,
    kind: str = "attention",
) -> List[EvalTask]:
    """The (configuration, model, length) grid in presentation order."""
    if configs is None:
        from ..model import all_attention_models

        configs = all_attention_models()
    return [
        EvalTask(kind, config, model, seq_len, batch)
        for config in configs
        for model in models
        for seq_len in seq_lens
    ]


def pareto_grid(
    models: Sequence[ModelConfig] = MODELS,
    seq_len: int = PARETO_SEQ_LEN,
    dims: Sequence[int] = ARRAY_DIMS,
    batch: int = BATCH_SIZE,
) -> List[EvalTask]:
    """The Fig. 12 (model, array-dim) grid in presentation order."""
    return [
        EvalTask("pareto", dim, model, seq_len, batch)
        for model in models
        for dim in dims
    ]


def binding_grid(
    chunks: Sequence[int] = DEFAULT_SWEEP_CHUNKS,
    bindings: Sequence[str] = BINDINGS,
    array_dims: Sequence[int] = DEFAULT_SWEEP_ARRAY_DIMS,
    embeddings: Sequence[int] = (64,),
    pe_1d_dims: Sequence[Optional[int]] = (None,),
) -> List[EvalTask]:
    """The (array dim, 1D lanes, embedding, binding, chunk count)
    simulation grid, in presentation order: utilization-vs-length curves
    per binding.

    ``pe_1d_dims`` sweeps the 1D array independently of the 2D edge
    (``None`` keeps the paper's matched floorplan); ``embeddings``
    sweeps the per-tile reduction depth E.  Points that resolve to the
    same configuration (``None`` alongside an explicit matched lane
    count) are emitted once, so every computed row survives the keyed
    payload of a binding sweep request (see :func:`binding_key`).
    """
    tasks: List[EvalTask] = []
    seen = set()
    for dim in array_dims:
        for pe_1d in pe_1d_dims:
            for embedding in embeddings:
                for binding in bindings:
                    for count in chunks:
                        point = BindingPoint(
                            binding, count, array_dim=dim, embedding=embedding, pe_1d=pe_1d
                        )
                        key = binding_key(point)
                        if key in seen:
                            continue
                        seen.add(key)
                        tasks.append(EvalTask("binding", point, None, point.chunks * dim))
    return tasks


def binding_key(point: BindingPoint) -> Tuple[str, int, int, int, int]:
    """Key of one binding-sweep result row:
    ``(binding, chunks, array_dim, pe_1d, embedding)``."""
    return (point.binding, point.chunks, point.array_dim, point.resolved_pe_1d, point.embedding)


def scenario_grid(scenarios: Sequence[Scenario]) -> List[EvalTask]:
    """One runtime task per scenario (kind ``"scenario"``).

    The whole :class:`Scenario` rides in ``config``, so the cache key
    covers every field — instances, phase mix, binding, array dims."""
    return [EvalTask("scenario", scenario, None, scenario.seq_len) for scenario in scenarios]


def sweep_scenarios(
    scenarios: Sequence[Scenario], *, jobs: int = 1, cache: Any = True
) -> Dict[Scenario, Any]:
    """Merged-schedule simulation of each scenario, keyed by the
    :class:`Scenario` itself, with no registry record and no retries.

    No code in the package calls this: the crosscheck evaluates
    :func:`scenario_grid` through a :class:`~repro.api.Session`.  It is
    kept for ``perfbench/workloads.py``, which reads the crosscheck's
    simulated graphs back from the session cache through it."""
    tasks = scenario_grid(scenarios)
    results = execute_tasks(tasks, jobs=jobs, cache=cache).results
    return {task.config: result for task, result in zip(tasks, results)}


def scenario_grid_tasks(cells: Sequence[ScenarioGridCell]) -> List[EvalTask]:
    """One runtime task per grid cell (kind ``"scenario_grid"``).

    The whole :class:`ScenarioGridCell` rides in ``config``, so the
    cache key covers the scenario *and* its grid coordinates: two cells
    that schedule the same scenario under different coordinates stay
    distinct cache entries, and a relabel can never shadow a row."""
    return [EvalTask("scenario_grid", cell, None, cell.scenario.seq_len) for cell in cells]


def serving_grid(specs: Sequence[ServingSpec]) -> List[EvalTask]:
    """One runtime task per serving workload (kind ``"serve"``).

    The whole :class:`~repro.serving.ServingSpec` rides in ``config``,
    so the cache key covers the full arrival trace alongside the array
    configuration, window, and deadline — replaying a seeded trace hits
    the cache, changing any arrival misses it."""
    return [EvalTask("serve", spec, None, spec.seq_len) for spec in specs]


def cluster_grid(points: Sequence[ClusterPoint]) -> List[EvalTask]:
    """One runtime task per cluster point (kind ``"cluster"``).

    The whole :class:`~repro.cluster.ClusterPoint` — scenario, frozen
    :class:`~repro.cluster.ClusterSpec`, sharding policy — rides in
    ``config``, so the cache key covers every axis a cluster sweep
    varies: chip count, link bandwidth and latency, topology, sharding,
    and the full workload underneath."""
    return [EvalTask("cluster", point, None, point.scenario.seq_len) for point in points]


def sweep_cluster(
    points: Sequence[ClusterPoint], *, jobs: int = 1, cache: Any = True
) -> List[Any]:
    """Sharded cluster simulation of each point, index-aligned, with no
    registry record and no retries.

    Like :func:`sweep_scenarios`, kept only for
    ``perfbench/workloads.py``; the crosscheck evaluates
    :func:`cluster_grid` through a session."""
    return execute_tasks(cluster_grid(points), jobs=jobs, cache=cache).results
