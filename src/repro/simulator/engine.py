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
untouched (bit-identical to pre-bandwidth schedules).  The scenario,
cluster and serving lowerings read their specs through
:func:`~repro.workloads.scenario.schedule_form`, which maps
``math.inf`` to None; a direct ``math.inf`` call lowers every transfer
to ``ceil(bytes / inf) == 0`` cycles, also the untouched graph.

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

Both cores start from one compiled input, :class:`FlatGraph`: the
readiness frontier as machine integers (durations, resource ids,
relative dependents, counts and ready tasks at t=0, urgent tasks).
:meth:`FlatGraph.from_tasks` compiles a named task list: it checks
names (duplicates, unknown deps) and is the one place readiness is
defined, for folds too: each fold template, and a binding chain's
two-instance list, is compiled by it.  :meth:`FlatGraph.stamp` lays
out compiled templates by offset, so the serving simulator compiles
once per request shape.  Every core but the oracle steps the one
closed-form round-robin, :func:`~repro.simulator.events.round_robin`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heappop, heappush
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
    inert until :func:`lower_dram` turns it into occupancy on the
    shared ``dram`` resource.
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
    whole cycles, so any positive traffic costs at least one finite
    cycle.  At ``dram_bw=math.inf`` the quotient is 0, so every transfer
    is free (:func:`~repro.workloads.scenario.schedule_form` maps that
    bandwidth to None before a lowering reads it).
    """
    if bytes_moved <= 0:
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
    leaves every transfer dependency-free, the unbounded lowering; so
    does ``math.inf``, since ``held + bytes > inf`` never holds.

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
        if buffer_bytes is not None:
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
    """A task graph compiled to its readiness frontier: what both cores run.

    Task ``i`` lasts ``durations[i]`` cycles on resource
    ``resources[resource[i]]`` (names sorted).  Its completion counts
    down task ``i + step`` for each ``step`` in ``dependents[i]``:
    relative offsets, so stamped copies of a template share its tuples.
    ``outstanding[i]`` is the count task ``i`` starts from and ``ready``
    lists the tasks ready at t=0.  A zero-duration task is done at t=0:
    never ready, counted or counted down.  Ready heaps issue the lowest
    key first; a task's key is its id, less the task count if it is
    ``urgent``, so urgent tasks go first and each group in id order.
    The constructor rejects everything integer ids can get wrong.
    """

    durations: Tuple[int, ...]
    resource: Tuple[int, ...]
    resources: Tuple[str, ...]
    dependents: Tuple[Tuple[int, ...], ...]
    outstanding: Tuple[int, ...]
    ready: Tuple[int, ...]
    urgent: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self._check()
        n = len(self.durations)
        for task, steps in enumerate(self.dependents):
            if steps and not 0 <= task + min(steps) <= task + max(steps) < n:
                raise ValueError("flat graph: dependent out of range")

    def _check(self) -> None:
        """The checks that need no per-task loop."""
        n = len(self.durations)
        if not len(self.resource) == len(self.dependents) == len(self.outstanding) == n:
            raise ValueError("flat graph: per-task fields differ in length")
        if list(self.resources) != sorted(set(self.resources)):
            raise ValueError("flat graph: resource names must be sorted and unique")
        if min(self.durations, default=0) < 0:
            raise ValueError("flat graph: negative duration")
        if not set(self.resource) <= set(range(len(self.resources))):
            raise ValueError("flat graph: resource id out of range")
        for what, ids in (("ready", self.ready), ("urgent", self.urgent)):
            if ids and not 0 <= min(ids) <= max(ids) < n:
                raise ValueError(f"flat graph: {what} id out of range")
            if len(set(ids)) != len(ids):
                raise ValueError(f"flat graph: {what} id repeated")

    @classmethod
    def from_tasks(
        cls,
        tasks: Sequence[Task],
        urgent: Sequence[int] = (),
        index: Optional[Dict[str, int]] = None,
    ) -> "FlatGraph":
        """Compile a named task list; ``urgent`` lists task ids.

        The one definition of readiness: a zero-duration task is done
        at t=0, any other waits for its *unique* positive-duration deps.
        Names are the only handle deps have on tasks, so a repeated name
        or a dep naming no task raises :class:`ValueError` here.  A
        caller that already checked ``tasks`` with :func:`task_index`
        passes that ``index`` instead of having it built again.
        """
        if index is None:
            index = task_index(tasks)
        resources = tuple(sorted({t.resource for t in tasks}))
        resource_id = {name: i for i, name in enumerate(resources)}
        durations = tuple([t.duration for t in tasks])
        dependents: List[List[int]] = [[] for _ in tasks]
        outstanding = [0] * len(tasks)
        for task, named in enumerate(tasks):
            try:
                deps = {index[dep] for dep in named.deps}
            except KeyError as missing:
                raise ValueError(f"task {named.name}: unknown dep {missing.args[0]!r}") from None
            waiting = [dep for dep in deps if durations[dep]] if durations[task] else []
            for dep in waiting:
                dependents[dep].append(task - dep)
            outstanding[task] = len(waiting)
        return cls(
            durations=durations,
            resource=tuple([resource_id[t.resource] for t in tasks]),
            resources=resources,
            dependents=tuple(map(tuple, dependents)),
            outstanding=tuple(outstanding),
            ready=tuple(i for i, d in enumerate(durations) if d and not outstanding[i]),
            urgent=tuple(urgent),
        )

    @classmethod
    def stamp(
        cls,
        templates: Sequence[Tuple["FlatGraph", Sequence[int]]],
        placements: Sequence[Tuple[int, Sequence[int]]],
    ) -> "FlatGraph":
        """Lay out copies of compiled templates, one per placement.

        ``templates`` lists ``(graph, roots)``: a template and the ids
        of its tasks that wait on a gate.  Each ``(template, gate)``
        placement appends a copy of ``templates[template]`` whose roots
        also wait on ``gate``, ids of tasks placed before it.  The
        result is what :meth:`from_tasks` compiles from the merged task
        list with each root depending on its gate.
        """
        resources = tuple(sorted(set().union(*(graph.resources for graph, _ in templates))))
        shapes = []  # per template: gated roots, the rest of ready, renumbered resources
        for graph, roots in templates:
            if len(set(roots) & set(range(len(graph.durations)))) < len(roots):
                raise ValueError("stamped graph: gated root out of range or repeated")
            gated = [r for r in roots if graph.durations[r]]
            free = sorted(set(graph.ready) - set(gated))
            renumbered = [resources.index(graph.resources[r]) for r in graph.resource]
            shapes.append((graph, gated, free, renumbered))
        durations, resource, dependents, outstanding, ready, urgent = ([] for _ in range(6))
        for template, gate in placements:
            graph, gated, free, renumbered = shapes[template]
            offset = len(durations)
            if gate and not 0 <= min(gate) <= max(gate) < offset:
                raise ValueError("stamped graph: gate id at or beyond its placement")
            members = [g for g in dict.fromkeys(gate) if durations[g]]
            for member in members:
                dependents[member] += tuple([offset + r - member for r in gated])
            durations.extend(graph.durations)
            resource.extend(renumbered)
            dependents.extend(graph.dependents)
            outstanding.extend(graph.outstanding)
            for root in gated:
                outstanding[offset + root] += len(members)
            ready.extend([offset + t for t in (free if members else graph.ready)])
            urgent.extend([offset + t for t in graph.urgent])
        # Templates passed the per-task dependents check when built and the
        # gates' dependents land in their placements: skip it on the copies.
        stamped = cls.__new__(cls)
        values = (durations, resource, resources, dependents, outstanding, ready, urgent)
        stamped.__dict__.update(zip(cls.__dataclass_fields__, map(tuple, values)))
        stamped._check()
        return stamped

    def start(self) -> Tuple[int, List[int], List[int], List[int], List[List[int]]]:
        """A run's start, read off the frontier: ``(n_done, finish, key,
        outstanding, ready)`` -- tasks done at t=0, finish times, heap
        keys, counts to count down and a heap of ready keys per resource
        id.  A popped key ``k`` stands for task ``k % n``."""
        n = len(self.durations)
        key = list(range(n))
        for task in self.urgent:
            key[task] -= n
        ready: List[List[int]] = [[] for _ in self.resources]
        for task in self.ready:
            heappush(ready[self.resource[task]], key[task])
        return self.durations.count(0), [0] * n, key, list(self.outstanding), ready

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


class Simulator:
    """Executes a task graph on the event core or the cycle oracle."""

    def __init__(
        self,
        tasks: Sequence[Task],
        mode: str = "interleaved",
        slots: int = 2,
        engine: str = "vector",
    ) -> None:
        if mode not in ("serial", "interleaved"):
            raise ValueError(f"unknown issue mode {mode!r}")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; have {ENGINES}")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.graph = FlatGraph.from_tasks(tasks)
        self.tasks = list(tasks)
        self.mode = mode
        self.slots = slots if mode == "interleaved" else 1
        self.engine = engine

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
    tasks whose outstanding dependency count hit zero, by heap key —
    the original full-list rescan's order), so one run costs
    O(makespan + tasks·log tasks) rather than O(tasks·cycles).  Returns
    ``(makespan, busy, finish)`` by resource and task id, the same
    outcome as :func:`~repro.simulator.events.run_flat`.
    """
    remaining = list(graph.durations)
    resource_of = graph.resource
    dependents = graph.dependents
    n = len(remaining)
    n_resources = len(graph.resources)
    busy = [0] * n_resources
    # Tasks enter their resource's ready heap exactly once, when their
    # last outstanding dep completes.
    n_done, finish, key, outstanding, ready = graph.start()

    active: List[List[int]] = [[] for _ in range(n_resources)]
    rr_offset = [0] * n_resources
    cycle = 0
    while n_done < n:
        if cycle >= max_cycles:
            raise RuntimeError(DEADLOCK)
        completed_this_cycle: List[int] = []
        progressed = False
        for resource in range(n_resources):
            # Refill the active set with ready tasks, lowest key first.
            acts = active[resource]
            heap = ready[resource]
            while len(acts) < slots and heap:
                acts.append(heappop(heap) % n)
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
            for step in dependents[task]:
                dependent = task + step
                outstanding[dependent] -= 1
                if outstanding[dependent] == 0:
                    heappush(ready[resource_of[dependent]], key[dependent])
        cycle += 1
    return cycle, busy, finish
