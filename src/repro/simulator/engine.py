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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heappop, heappush
from math import ceil
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

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


def _dependency_frontier(tasks: Sequence[Task], resources: Sequence[str]):
    """The readiness state both scheduling cores start from.

    Both engines' bit-identical guarantee rests on these semantics, so
    they are built in exactly one place: zero-duration tasks are done at
    t=0 unconditionally (finish 0); every positive-duration task gets an
    outstanding count of its *unique* not-yet-done deps plus a seat in
    the dependents fan-out of each, and — when already ready — a seat in
    its resource's ready heap, keyed by program order (the original
    full-list rescan's priority).

    Returns ``(done, finish, order, dependents, outstanding, ready)``.
    """
    done: Set[str] = {t.name for t in tasks if t.duration == 0}
    finish: Dict[str, int] = {name: 0 for name in done}
    order: Dict[str, int] = {t.name: i for i, t in enumerate(tasks)}
    dependents: Dict[str, List[str]] = {}
    outstanding: Dict[str, int] = {}
    ready: Dict[str, List[Tuple[int, str]]] = {r: [] for r in resources}
    for task in tasks:
        if task.duration == 0:
            continue
        waiting = {d for d in task.deps if d not in done}
        outstanding[task.name] = len(waiting)
        for dep in waiting:
            dependents.setdefault(dep, []).append(task.name)
        if not waiting:
            heappush(ready[task.resource], (order[task.name], task.name))
    return done, finish, order, dependents, outstanding, ready


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
        index = task_index(tasks)
        for task in tasks:
            for dep in task.deps:
                if dep not in index:
                    raise ValueError(f"task {task.name}: unknown dep {dep!r}")
        self.tasks = list(tasks)
        self.mode = mode
        self.slots = slots if mode == "interleaved" else 1
        self.engine = engine
        self.dram_bw = dram_bw
        self.buffer_bytes = buffer_bytes

    def run(self, max_cycles: int = 10_000_000) -> SimResult:
        """Simulate to completion; returns makespan and busy counts."""
        if self.engine == "cycle":
            return self._run_cycles(max_cycles)
        from .events import run_event_driven

        return run_event_driven(self.tasks, self.slots, max_cycles)

    def _run_cycles(self, max_cycles: int) -> SimResult:
        """The cycle-accurate oracle: one Python iteration per cycle.

        Slot refill is driven by a per-resource ready frontier (a heap of
        tasks whose outstanding dependency count hit zero, keyed by
        program order — the original full-list rescan's priority), so one
        run costs O(makespan + tasks·log tasks) rather than
        O(tasks·cycles).  Scheduling decisions are unchanged.
        """
        remaining: Dict[str, int] = {t.name: t.duration for t in self.tasks}
        busy: Dict[str, int] = {}
        resources = sorted({t.resource for t in self.tasks})
        resource_of = {t.name: t.resource for t in self.tasks}
        # Tasks enter their resource's ready heap exactly once, when
        # their last outstanding dep completes.
        done, finish, order, dependents, outstanding, ready = (
            _dependency_frontier(self.tasks, resources)
        )

        active: Dict[str, List[str]] = {r: [] for r in resources}
        rr_offset: Dict[str, int] = {r: 0 for r in resources}
        cycle = 0
        while len(done) < len(self.tasks):
            if cycle >= max_cycles:
                raise RuntimeError(DEADLOCK)
            completed_this_cycle: List[str] = []
            progressed = False
            for resource in resources:
                # Refill the active set with ready tasks, in program order.
                acts = active[resource]
                heap = ready[resource]
                while len(acts) < self.slots and heap:
                    acts.append(heappop(heap)[1])
                if not acts:
                    continue
                progressed = True
                # Round-robin one issue slot per cycle among active tasks.
                index = rr_offset[resource] % len(acts)
                name = acts[index]
                rr_offset[resource] += 1
                remaining[name] -= 1
                busy[resource] = busy.get(resource, 0) + 1
                if remaining[name] == 0:
                    acts.pop(index)
                    completed_this_cycle.append(name)
                    finish[name] = cycle + 1
            if not progressed:
                # Nothing active and nothing ready anywhere: unfinished
                # tasks wait on deps that can never complete.
                raise RuntimeError(DEADLOCK)
            # Completions become visible to dependents on the next cycle:
            # no same-cycle forwarding across resources.
            for name in completed_this_cycle:
                done.add(name)
                for dependent in dependents.get(name, ()):
                    outstanding[dependent] -= 1
                    if outstanding[dependent] == 0:
                        heappush(
                            ready[resource_of[dependent]],
                            (order[dependent], dependent),
                        )
            cycle += 1
        return SimResult(makespan=cycle, busy_cycles=busy, finish_times=finish)
