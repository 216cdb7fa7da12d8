"""A small cycle-granular task simulator for spatial-array bindings.

Models an accelerator as a set of *resources* (the 2D array, the 1D array)
executing *tasks* (tile-granular Einsum evaluations) with dependencies.
Two issue disciplines are supported, matching the paper's two bindings:

- ``serial`` — a resource runs one task at a time, to completion.  This is
  the +Architecture binding: one tile fully produced and consumed before
  the next begins.
- ``interleaved`` — a resource round-robins cycle-by-cycle among up to
  ``slots`` ready tasks (the paper's ``A|B`` notation: each cycle a PE
  computes a value for either A or B, alternating).  Combined with
  dependency-driven issue this reproduces the software-pipelined epochs of
  Fig. 4.

The simulator is deliberately tile-granular (a task's duration is the
cycles its Einsum occupies the array), which is the granularity at which
the paper's waterfall (Fig. 4) reasons.

Beyond its compute cycles, a task may carry a ``bytes_moved`` cost — the
DRAM traffic its tile streams (operand fetch or result write-back).
With a finite ``dram_bw`` (bytes per cycle), :func:`lower_dram` turns
each such cost into an explicit transfer task on a shared ``dram``
resource that gates the compute task; both scheduling cores then
arbitrate memory bandwidth with exactly the same issue discipline as the
PE arrays, so concurrent instances slow each other down once their
aggregate traffic exceeds the link.  ``dram_bw=None`` leaves the graph
untouched (bit-identical to pre-bandwidth schedules), and ``math.inf``
lowers every transfer to zero cycles — also the untouched graph.

Two engines execute the schedule, and both produce bit-identical
:class:`SimResult` values on every task graph:

- ``engine="vector"`` (default) — the production scheduler.  A flat
  task list (a serving graph, a plain ``Simulator``) runs on the
  closed-form event core in :mod:`.events`, which jumps straight from
  completion to completion in O(tasks) steps.  Scenario, cluster and
  binding points never build a flat list: through
  :func:`~repro.simulator.pipeline.schedule_scenario_tasks` and
  :func:`~repro.simulator.pipeline.schedule_binding` they are folded
  into counted instance classes and scheduled by
  :func:`~repro.simulator.vector.run_folded`, which replays recurring
  windows of the same closed form arithmetically.
- ``engine="cycle"`` — the original cycle-by-cycle loop below, kept as
  the differential oracle.

Both cores run on one compiled input, :class:`FlatGraph`: per-task
durations, resource ids, dependency ids and a priority rank, all
machine integers.  :meth:`FlatGraph.from_tasks` compiles a named task
list and is where names are checked (duplicates, unknown deps); a
caller that already holds integer ids (the serving simulator stamps
one compiled template per request shape) builds the graph directly and
still gets its ids validated.  :func:`_dependency_frontier` defines
readiness on that graph, once, for both cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from itertools import chain
from math import ceil
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Resource name of the shared memory link :func:`lower_dram` introduces.
DRAM_RESOURCE = "dram"

#: Name suffix of the transfer task that gates a traffic-carrying task.
_DRAM_SUFFIX = "@dram"

#: Scheduling cores a :class:`Simulator` (and every request) may name:
#: the production scheduler, then the cycle-accurate oracle.  Requests
#: run the oracle serially and uncached, so a cached result can never
#: masquerade as a differential run.
ENGINES: Tuple[str, ...] = ("vector", "cycle")

#: Error text every core raises on deadlock or an exceeded budget, so
#: callers can match any of them.
DEADLOCK = "simulation exceeded max_cycles (deadlock?)"


@dataclass
class Task:
    """One tile-granular unit of work bound to a resource.

    ``bytes_moved`` is the DRAM traffic the task's tile streams; it is
    inert until :func:`lower_dram` (or ``Simulator(dram_bw=...)``) turns
    it into occupancy on the shared ``dram`` resource.
    """

    name: str
    resource: str
    duration: int
    deps: Tuple[str, ...] = ()
    bytes_moved: int = 0

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"task {self.name}: negative duration")
        if self.bytes_moved < 0:
            raise ValueError(f"task {self.name}: negative bytes_moved")


def transfer_cycles(bytes_moved: int, dram_bw: float) -> int:
    """Cycles ``bytes_moved`` occupies a ``dram_bw`` bytes/cycle link.

    The ceiling of the exact quotient: a transfer holds the link for
    whole cycles, so any positive traffic costs at least one cycle —
    except at ``dram_bw=math.inf``, where every transfer is free and the
    lowered graph degenerates to the unlowered one.
    """
    if bytes_moved <= 0 or dram_bw == float("inf"):
        return 0
    return ceil(bytes_moved / dram_bw)


def lower_dram(
    tasks: Sequence[Task],
    dram_bw: Optional[float],
    buffer_bytes: Optional[float] = None,
) -> List[Task]:
    """Make each task's ``bytes_moved`` explicit on a shared ``dram``
    resource.

    Every task whose traffic costs at least one cycle at ``dram_bw``
    gains a transfer task (``<name>@dram``) emitted immediately before
    it, and the task itself waits on its transfer.  By default transfers
    carry no deps — the memory system streams ahead freely — so
    contention is purely bandwidth: the ``dram`` resource round-robins
    pending transfers through the same issue slots as the PE arrays, and
    program order decides ties exactly as it does everywhere else.

    A finite ``buffer_bytes`` bounds that prefetch depth to an on-chip
    buffer capacity: fetched tiles hold their bytes from transfer until
    their consumer completes (last use), tracked as a FIFO window of
    ``(consumer, bytes)`` residents.  A transfer that would overflow the
    window gains dependencies on the *oldest* residents' consumers — it
    cannot start until their buffer space frees — and evicts them from
    the window.  The bound is thus ordinary graph structure: every dep
    points backward in program order (acyclic, deadlock-free) and both
    engines schedule it with zero changes.  ``buffer_bytes=None``
    and ``math.inf`` leave every transfer dependency-free, reproducing
    the unbounded lowering exactly.

    ``dram_bw=None`` returns the tasks unchanged; so does any bandwidth
    at which no task's transfer costs a cycle (``math.inf``).  Any other
    bandwidth rejects input that already has a task on the ``dram``
    resource: lowering twice would charge every transfer again.
    """
    if dram_bw is None:
        return list(tasks)
    if not dram_bw > 0:
        raise ValueError(f"dram_bw must be > 0, got {dram_bw}")
    if any(task.resource == DRAM_RESOURCE for task in tasks):
        raise ValueError("task graph is already dram-lowered")
    if buffer_bytes is not None and not buffer_bytes > 0:
        raise ValueError(f"buffer_bytes must be > 0, got {buffer_bytes}")
    bounded = buffer_bytes is not None and buffer_bytes != float("inf")
    window: List[Tuple[str, int]] = []  # FIFO of (consumer, bytes) residents
    held = 0
    lowered: List[Task] = []
    for task in tasks:
        cycles = transfer_cycles(task.bytes_moved, dram_bw)
        if cycles == 0:
            lowered.append(task)
            continue
        transfer = f"{task.name}{_DRAM_SUFFIX}"
        evicted: Tuple[str, ...] = ()
        if bounded:
            while window and held + task.bytes_moved > buffer_bytes:
                consumer, freed = window.pop(0)
                held -= freed
                evicted += (consumer,)
            window.append((task.name, task.bytes_moved))
            held += task.bytes_moved
        lowered.append(Task(transfer, DRAM_RESOURCE, cycles, evicted))
        lowered.append(replace(task, deps=task.deps + (transfer,)))
    return lowered


def task_index(tasks: Sequence[Task], what: str = "the task graph") -> Dict[str, int]:
    """Each task's position in program order, by name.

    The one duplicate-name check every scheduling entry point shares
    (:class:`Simulator`, and the fold lowerings in :mod:`.vector`):
    names are the only handle deps have on tasks, so a repeated name
    would silently alias two tasks.
    """
    index = {t.name: i for i, t in enumerate(tasks)}
    if len(index) != len(tasks):
        raise ValueError(f"duplicate task names in {what}")
    return index


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulation."""

    makespan: int
    busy_cycles: Mapping[str, int]
    finish_times: Mapping[str, int]

    def utilization(self, resource: str) -> float:
        if self.makespan == 0:
            return 0.0
        return self.busy_cycles.get(resource, 0) / self.makespan


@dataclass(frozen=True)
class FlatGraph:
    """A task graph compiled to machine integers: what both cores run.

    Task ``i`` lasts ``durations[i]`` cycles on resource
    ``resources[resource[i]]`` and waits on the tasks ``deps[i]``.
    ``priority`` is a permutation of the task ids: ``priority[i]`` is
    task ``i``'s rank in its resource's ready heap, so the ready task
    of lowest rank is issued first.  :meth:`from_tasks` ranks tasks in
    program order, the order both cores always used; a caller that
    lays tasks out in another order passes the ranks of the order it
    means.  ``resources`` lists the resource names sorted.

    The constructor checks everything integer ids can get wrong: equal
    lengths, non-negative durations, resource and dep ids in range, and
    a priority that ranks every task exactly once.
    """

    durations: Tuple[int, ...]
    resource: Tuple[int, ...]
    resources: Tuple[str, ...]
    deps: Tuple[Tuple[int, ...], ...]
    priority: Tuple[int, ...]
    #: The inverse ranking: ``by_priority[rank]`` is the task a popped
    #: heap rank stands for.  Derived, so not part of equality.
    by_priority: List[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.durations)
        if not len(self.resource) == len(self.deps) == len(self.priority) == n:
            raise ValueError("flat graph: per-task fields differ in length")
        if list(self.resources) != sorted(set(self.resources)):
            raise ValueError("flat graph: resource names must be sorted and unique")
        if min(self.durations, default=0) < 0:
            raise ValueError("flat graph: negative duration")
        if not set(self.resource) <= set(range(len(self.resources))):
            raise ValueError("flat graph: resource id out of range")
        ids = list(chain.from_iterable(self.deps))
        if ids and (min(ids) < 0 or max(ids) >= n):
            raise ValueError("flat graph: dep id out of range")
        by_priority = [-1] * n
        for task, rank in enumerate(self.priority):
            if not 0 <= rank < n or by_priority[rank] >= 0:
                raise ValueError("flat graph: priority must rank each task once")
            by_priority[rank] = task
        object.__setattr__(self, "by_priority", by_priority)

    @classmethod
    def from_tasks(cls, tasks: Sequence[Task]) -> "FlatGraph":
        """Compile a named task list, ranked in program order.

        Names are the only handle deps have on tasks, so this is where
        they are checked: a repeated name or a dep naming no task raises
        :class:`ValueError`.
        """
        index = task_index(tasks)
        resources = tuple(sorted({t.resource for t in tasks}))
        resource_id = {name: i for i, name in enumerate(resources)}
        deps = []
        for task in tasks:
            try:
                deps.append(tuple([index[dep] for dep in task.deps]))
            except KeyError as missing:
                dep = missing.args[0]
                raise ValueError(f"task {task.name}: unknown dep {dep!r}") from None
        return cls(
            durations=tuple([t.duration for t in tasks]),
            resource=tuple([resource_id[t.resource] for t in tasks]),
            resources=resources,
            deps=tuple(deps),
            priority=tuple(range(len(tasks))),
        )

    def named(
        self,
        names: Sequence[str],
        makespan: int,
        busy: Sequence[int],
        finish: Sequence[int],
    ) -> SimResult:
        """A core's integer outcome as a :class:`SimResult`: busy cycles
        by resource name (resources that never issued are absent) and
        finish times by ``names[i]``."""
        return SimResult(
            makespan=makespan,
            busy_cycles={r: b for r, b in zip(self.resources, busy) if b},
            finish_times=dict(zip(names, finish)),
        )


def _dependency_frontier(graph: FlatGraph):
    """The readiness state both scheduling cores start from.

    Both engines' bit-identical guarantee rests on these semantics, so
    they are built in exactly one place: zero-duration tasks are done at
    t=0 unconditionally (finish 0); every positive-duration task gets an
    outstanding count of its *unique* not-yet-done deps plus a seat in
    the dependents fan-out of each, and — when already ready — a seat in
    its resource's ready heap, keyed by its priority rank.

    Returns ``(n_done, finish, dependents, outstanding, ready)``, each
    indexed by task id except ``ready`` (one heap of ranks per resource
    id); ``finish`` holds 0 for every task not yet finished.
    """
    durations = graph.durations
    resource = graph.resource
    priority = graph.priority
    n = len(durations)
    finish = [0] * n
    dependents: List[List[int]] = [[] for _ in range(n)]
    outstanding = [0] * n
    ready: List[List[int]] = [[] for _ in graph.resources]
    n_done = 0
    for task, deps in enumerate(graph.deps):
        if durations[task] == 0:
            n_done += 1
            continue
        waiting = {dep for dep in deps if durations[dep]}
        outstanding[task] = len(waiting)
        for dep in waiting:
            dependents[dep].append(task)
        if not waiting:
            heappush(ready[resource[task]], priority[task])
    return n_done, finish, dependents, outstanding, ready


class Simulator:
    """Executes a task graph on the event core or the cycle oracle."""

    def __init__(
        self,
        tasks: Sequence[Task],
        mode: str = "interleaved",
        slots: int = 2,
        engine: str = "vector",
        dram_bw: Optional[float] = None,
        buffer_bytes: Optional[float] = None,
    ) -> None:
        if mode not in ("serial", "interleaved"):
            raise ValueError(f"unknown issue mode {mode!r}")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; have {ENGINES}")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        # A finite dram_bw makes each task's bytes_moved occupy the
        # shared "dram" resource; both cores then arbitrate it exactly
        # like the PE arrays (the lowering happens before either runs).
        # A finite buffer_bytes additionally bounds prefetch depth.
        tasks = lower_dram(tasks, dram_bw, buffer_bytes)
        self.graph = FlatGraph.from_tasks(tasks)
        self.tasks = list(tasks)
        self.mode = mode
        self.slots = slots if mode == "interleaved" else 1
        self.engine = engine
        self.dram_bw = dram_bw
        self.buffer_bytes = buffer_bytes

    def run(self, max_cycles: int = 10_000_000) -> SimResult:
        """Simulate to completion; returns makespan and busy counts."""
        if self.engine == "cycle":
            core = _run_cycles
        else:
            from .events import run_flat as core
        outcome = core(self.graph, self.slots, max_cycles)
        return self.graph.named([t.name for t in self.tasks], *outcome)


def _run_cycles(graph: FlatGraph, slots: int, max_cycles: int):
    """The cycle-accurate oracle: one Python iteration per cycle.

    Slot refill is driven by a per-resource ready frontier (a heap of
    tasks whose outstanding dependency count hit zero, keyed by
    priority rank — the original full-list rescan's order), so one run
    costs O(makespan + tasks·log tasks) rather than O(tasks·cycles).
    Returns ``(makespan, busy, finish)`` by resource and task id, the
    same outcome as :func:`~repro.simulator.events.run_flat`.
    """
    remaining = list(graph.durations)
    resource_of = graph.resource
    priority = graph.priority
    by_priority = graph.by_priority
    n_resources = len(graph.resources)
    busy = [0] * n_resources
    # Tasks enter their resource's ready heap exactly once, when their
    # last outstanding dep completes.
    n_done, finish, dependents, outstanding, ready = _dependency_frontier(graph)

    active: List[List[int]] = [[] for _ in range(n_resources)]
    rr_offset = [0] * n_resources
    cycle = 0
    while n_done < len(remaining):
        if cycle >= max_cycles:
            raise RuntimeError(DEADLOCK)
        completed_this_cycle: List[int] = []
        progressed = False
        for resource in range(n_resources):
            # Refill the active set with ready tasks, in priority order.
            acts = active[resource]
            heap = ready[resource]
            while len(acts) < slots and heap:
                acts.append(by_priority[heappop(heap)])
            if not acts:
                continue
            progressed = True
            # Round-robin one issue slot per cycle among active tasks.
            index = rr_offset[resource] % len(acts)
            task = acts[index]
            rr_offset[resource] += 1
            remaining[task] -= 1
            busy[resource] += 1
            if remaining[task] == 0:
                acts.pop(index)
                completed_this_cycle.append(task)
                finish[task] = cycle + 1
        if not progressed:
            # Nothing active and nothing ready anywhere: unfinished
            # tasks wait on deps that can never complete.
            raise RuntimeError(DEADLOCK)
        # Completions become visible to dependents on the next cycle:
        # no same-cycle forwarding across resources.
        n_done += len(completed_this_cycle)
        for task in completed_this_cycle:
            for dependent in dependents[task]:
                outstanding[dependent] -= 1
                if outstanding[dependent] == 0:
                    heappush(ready[resource_of[dependent]], priority[dependent])
        cycle += 1
    return cycle, busy, finish
