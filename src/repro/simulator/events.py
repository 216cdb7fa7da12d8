"""Event-driven scheduler: the cycle engine's results without the cycles.

The cycle-accurate engine (:mod:`.engine`) costs O(makespan) Python
iterations per run — fine for the default 32-chunk Fig. 4/5 graph,
hopeless for long-sequence regimes where M1 reaches the thousands and
makespans the millions.  This module computes the *same schedule* in
O(tasks) events by advancing time directly to the next task completion.
It is what ``engine="vector"`` runs on a flat task list (a serving
graph, a plain :class:`~repro.simulator.engine.Simulator`);
:func:`~repro.simulator.vector.run_folded` evaluates the same closed
form over folded instance classes.

Why a closed form exists
------------------------

Between task completions, nothing about a resource changes: completions
are the only way a slot frees, and dependency satisfaction (which admits
new tasks) happens only when a task completes.  So each resource's
active set is constant between events, and the engine's deterministic
round-robin can be integrated over the whole gap at once.  With ``k``
co-active tasks, a rotation counter ``rr`` (total issue cycles so far on
the resource), and an elapsed window of ``delta`` cycles, the task at
list position ``j`` is served exactly

    ``delta // k  +  (1 if (j - rr) % k < delta % k else 0)``

cycles — the ceil/floor split of the engine's per-cycle rotation — and a
task needing ``R`` more cycles completes at absolute time

    ``sync + (j - rr) % k + (R - 1) * k + 1``

where ``sync`` is the window's start.  The minimum of that expression
over all active tasks on all resources is the next event.  Because a
resource issues at most one task-cycle per cycle, exactly one task
completes per resource per event time, which keeps list positions and
the rotation counter exactly in step with the cycle engine.

Completions at time ``T`` become visible to dependents at ``T`` (the
engine's "next cycle after the finishing cycle"), so ready tasks join
their resource's pending heap and are activated — in key order, the
engine's refill scan order — before the next event is computed.

The result is **bit-identical** to ``Simulator(..., engine="cycle")`` on
every task graph: same makespan, same per-resource busy cycles, same
per-task finish times.

:func:`round_robin` is that closed form, the step both cores share:
:func:`run_flat` steps it over a flat graph and
:func:`~repro.simulator.vector.run_folded` over folded instance
classes.  It owns the per-resource state (active entries, rotation
counters, sync times, busy cycles, next completions) and two fused
steps over the formulas above: ``complete`` serves a resource up to its
next completion and hands back the entry that finished; ``settle``
catches a resource up to the event, refills it through the core's own
refill and stores its next completion.  A core calls ``complete`` once
per completion, then ``settle`` once per touched resource with a free
slot.  An active entry may carry whatever its core needs, as long as
its first element is its remaining cycles.

The shared ``dram`` resource that bandwidth-lowered graphs carry
(:func:`repro.simulator.engine.lower_dram`) needs no special handling
here: transfer tasks are ordinary tasks on one more resource, so the
closed-form rotation integrates memory contention exactly as it does
array contention — which is what keeps bandwidth-limited schedules
inside the bit-identical guarantee rather than beside it.  Note the
dependency-free transfers make the ``dram`` pending heap large at t=0
(every instance's stream is admissible immediately); the heap is shared
with the cycle engine's refill scan, so order stays in lockstep.

Integer ids
-----------

The core, :func:`run_flat`, starts from the readiness frontier of a
compiled :class:`~repro.simulator.engine.FlatGraph`: tasks are list
indices counted down at relative offsets, ready heaps hold heap keys,
and no name is looked up while scheduling.  :func:`run_event_driven`
is the naming adapter for a plain task list: it compiles the list
(which rejects a repeated name or a dep naming no task), runs the
core, and names the busy cycles and finish times.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Sequence, Tuple

from .engine import DEADLOCK, FlatGraph, SimResult, Task

#: A resource's next completion while nothing is active on it: later
#: than every budget, so the next event is ``min`` over resources.
IDLE = float("inf")


def run_event_driven(tasks: Sequence[Task], slots: int, max_cycles: int) -> SimResult:
    """Schedule a named task list event by event; see the module docstring.

    ``slots`` is the effective issue width (1 for the serial discipline).
    Raises :class:`ValueError` on a repeated task name, a dep naming no
    task or ``slots < 1``, and :class:`RuntimeError` exactly when the
    cycle engine would:
    on dependency deadlock, or when the makespan exceeds ``max_cycles``.
    """
    graph = FlatGraph.from_tasks(tasks)
    return graph.named([t.name for t in tasks], *run_flat(graph, slots, max_cycles))


def run_flat(graph: FlatGraph, slots: int, max_cycles: int) -> Tuple[int, List[int], List[int]]:
    """Schedule a compiled graph; returns ``(makespan, busy, finish)``
    with busy cycles per resource id and finish times per task id.
    Raises ``ValueError`` unless ``slots >= 1``."""
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    durations = graph.durations
    resource_of = graph.resource
    dependents = graph.dependents
    total = len(durations)
    n_resources = len(graph.resources)
    resources = range(n_resources)
    # The cycle engine starts from the same compiled frontier — the
    # bit-identical guarantee starts here.
    n_done, finish, key, outstanding, pending = graph.start()

    def refill(resource: int, acts: List[list]) -> None:
        """Engine's refill scan: ready tasks join, lowest key first."""
        heap = pending[resource]
        while len(acts) < slots and heap:
            task = heappop(heap) % total
            acts.append([durations[task], task])

    active, _, _, busy, next_done, complete, settle = round_robin(n_resources, refill)
    for resource in resources:
        settle(resource, 0)

    now = 0
    while n_done < total:
        # One scan finds the next event time; the handful of resources
        # makes a heap counterproductive.
        now = min(next_done)
        if now > max_cycles:  # includes IDLE: nothing left can run
            raise RuntimeError(DEADLOCK)
        # Same-time completions are rare: two C scans find the usual
        # lone one, where a comprehension would cost a call.
        if next_done.count(now) == 1:
            touched = [next_done.index(now)]
        else:
            touched = [r for r in resources if next_done[r] == now]
        n_done += len(touched)
        # All same-time completions become visible together, then newly
        # ready tasks enter their resource's pending heap (engine: the
        # end-of-cycle done.update followed by next cycle's refill).
        # Completing a resource reads no heap, so each completion's
        # dependents are counted down as it is found.  A full resource
        # admits nothing and its next completion stands, so it is not
        # settled: its next step integrates the longer gap.  (The fold
        # too; its detector catches a full resource up before a key.)
        for resource in touched[:]:
            task = complete(resource, now)[1]
            finish[task] = now
            for step in dependents[task]:
                dependent = task + step
                outstanding[dependent] -= 1
                if outstanding[dependent] == 0:
                    target = resource_of[dependent]
                    heappush(pending[target], key[dependent])
                    if target not in touched and len(active[target]) < slots:
                        touched.append(target)
        for resource in touched:
            settle(resource, now)

    return now, busy, finish


def round_robin(n_resources: int, refill: Callable[[int, List[list]], None]):
    """The closed-form round-robin both cores step: per-resource state
    and the two steps that integrate it (see the module docstring).

    Returns ``(active, rr, sync, busy, next_done, complete, settle)``.
    ``active[r]`` lists resource ``r``'s entries in the engine's list
    order; any entry layout works as long as its first element is the
    cycles it has left (``[rem, task]`` here, ``[rem, instance, tid]``
    in a fold).  ``rr`` holds the rotation counters, ``sync`` the time
    up to which progress has been applied, ``busy`` the cycles each
    resource issued and ``next_done`` each resource's next completion,
    :data:`IDLE` when nothing is active.

    ``complete(r, now)`` serves resource ``r`` up to ``now``, its next
    completion, and returns the entry that finished, removed from
    ``active[r]``.  ``settle(r, now)`` catches ``r`` up to ``now`` (a
    resource that just completed is caught up already), lets the core's
    ``refill(r, active[r])`` admit ready entries, and stores ``r``'s
    next completion.  Either step raises :class:`RuntimeError` if the
    integration disagrees with ``next_done``: a completion lost."""
    active: List[List[list]] = [[] for _ in range(n_resources)]
    rr = [0] * n_resources
    sync = [0] * n_resources
    busy = [0] * n_resources
    next_done: List[float] = [IDLE] * n_resources

    # Both steps run once per event per touched resource: keep their
    # explicit loops, count busy cycles while serving rather than in a
    # second pass over the entries, and keep the remaining cycles at
    # index 0 (CPython specializes non-negative list indices only).
    def serve(resource: int, now: int) -> int:
        """Apply ``now - sync[r]`` cycles to a resource with entries;
        returns the list position of the entry that completed, or -1."""
        acts = active[resource]
        delta = now - sync[resource]
        sync[resource] = now
        rr[resource] += delta
        busy[resource] += delta
        k = len(acts)
        if k == 1:  # fast path: serial mode / lone active task
            entry = acts[0]
            entry[0] -= delta
            return 0 if entry[0] == 0 else -1
        quotient, extra = divmod(delta, k)
        base = rr[resource] - delta
        completed = -1
        for j, entry in enumerate(acts):
            served = quotient + (1 if (j - base) % k < extra else 0)
            if served:
                entry[0] -= served
                if entry[0] == 0:
                    completed = j
        return completed

    def complete(resource: int, now: int) -> list:
        at = serve(resource, now)
        if at < 0:  # pragma: no cover - violated scheduling math
            raise RuntimeError(f"lost completion on resource {resource} at {now}")
        return active[resource].pop(at)

    def settle(resource: int, now: int) -> None:
        acts = active[resource]
        if sync[resource] != now:
            if acts and serve(resource, now) >= 0:  # pragma: no cover - violated math
                raise RuntimeError(f"lost completion on resource {resource} at {now}")
            sync[resource] = now
        refill(resource, acts)
        k = len(acts)
        if k == 1:  # fast path: next completion is simply the remainder
            next_done[resource] = now + acts[0][0]
            return
        best = IDLE
        base = rr[resource]
        for j, entry in enumerate(acts):
            when = now + (j - base) % k + (entry[0] - 1) * k + 1
            if when < best:
                best = when
        next_done[resource] = best

    return active, rr, sync, busy, next_done, complete, settle
