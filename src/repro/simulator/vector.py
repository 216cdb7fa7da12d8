"""Symmetry folding: the ``engine="vector"`` scheduler for scenario,
cluster and binding points.

It steps the closed-form round-robin of :mod:`.events`
(:func:`~repro.simulator.events.round_robin`, one event per task
completion, bit-identical to the cycle oracle) over counted instance
classes instead of a flat task list, on machine integers.  Each class
template is compiled by :meth:`FlatGraph.from_tasks
<repro.simulator.engine.FlatGraph.from_tasks>`, the readiness every
core shares: program order is the task id, and a completion counts
down its template's dependents at relative steps.

**Symmetry folding** (:func:`fold_templates` / :func:`run_folded`) —
``build_scenario_tasks`` emits N identical per-instance graphs whose
schedules coincide until shared-resource (array slots, ``dram``)
arbitration breaks the tie.  Instances collapse into counted
equivalence classes (one per scenario phase) at lowering time; the
engine simulates concretely but materializes instances *lazily* —
an instance's tasks enter the pending heaps only when some resource's
refill would pop one of them — so the live state stays O(window), not
O(N).  At each materialization event it snapshots the schedule state
*relative to the oldest live instance*; when the same relative state
recurs, every future window is an exact shift of the recorded one
(uniform per-class instance shift ``dA``, uniform time shift ``dt``),
so the engine replays the window arithmetically ``m`` times instead of
simulating it, then resumes concretely for the drain — exactly where
arbitration order makes classes diverge.  The key and the jump are
:mod:`.foldstate`'s, the checkpoints of a shared chain prefix
:mod:`.prefixes`'.

A refill materializes an instance when the resource's *virtual head*,
the earliest t=0-ready task there of the next unmaterialized instance of
any class, precedes its heap top in program order.  The head depends on
the class cursors alone, so each resource caches it (a program order and
a class) and recomputes it only when a cursor moves: for the resources a
class heads when it materializes an instance, and for every resource
when a fold resumes a chain prefix or jumps.  A refill reads one cached
order instead of scanning the classes; nearly every refill materializes
nothing.

Source resources and release times
----------------------------------

A *source resource* is one none of whose tasks waits on a
positive-duration dep: ``dram`` (and each chip's ``c<k>:dram``) under
an unbounded buffer, since transfers stream ahead freely.  Nothing that
happens elsewhere reaches it, so its schedule depends on program order
alone: every one of its tasks is pending from t=0, and refill pops
them in order.  :func:`run_folded` therefore schedules each source
resource first, as its own single-resource fold (a lone in-order stream
recurs almost at once), and the main fold drops the source tasks.  A
task's source deps become one *release* time, the latest of their
finish times in its own instance.  A task is pushed at ``max(release,
ready)``, where ``ready`` is when its other deps are met, which is
exactly when the merged graph's engine would push it.  A task ready
before its release waits in a timed queue.  A class whose instances
start with release-gated tasks materializes each instance no later
than the earliest release from that instance onward (a suffix minimum
over instances, so out-of-order releases are safe).

This matters when the source front runs ahead of the bottleneck.
Scheduled inside the main fold, it would materialize every instance it
streams, and a live window that wide never recurs.

Chained instances
-----------------

A binding graph is one instance per M1 chunk, and chunk ``k`` waits on
chunk ``k-1`` (the running max, denominator and output; under
tile-serial also the next tile's fill).  :func:`fold_chain` lowers such
a graph to one *chained* class by compiling the two-instance graph once.
Instance 1 is the template.  Instance 0's dependents that land past it
are the *lag* steps (template task -> the next instance's template tasks
that wait on it), and instance 0, the template minus those lag deps,
keeps its own outstanding counts and ready list: the compiled frontier
splits at the template size into instance 0's and the template's.

:func:`_fold_loop` materializes instance 0 of a chained class before
the first refill.  Instance ``k+1`` enters when refill would pop one of
its t=0-ready tasks, as before, or when a task of instance ``k`` with
lag dependents completes, whichever comes first; the successor's counts
are then decremented like an in-instance dependent's.  Entering early
is exact for the same reason lazy entry is: the merged graph has those
ready tasks pending from t=0, pending membership has no side effects,
and a resource with a free slot would already have popped them through
its virtual head.

The replay argument needs nothing new.  The only extra thing the
transition function reads is whether instance ``k+1`` is live, which
is ``cursor == k+1``, an instance-relative comparison the key already
holds.  Every instance but 0 starts from the same counts, and instance
0 is live before the first snapshot and never materialized again, so
each repeat materializes the recorded instances' state shifted by
``dA``.  No lag completion in a window lacks a successor: the class is
unexhausted at both ends of the window, every completing instance lies
below the cursor, and the clamp ``counts-1-cursor`` keeps the shifted
successors in range.  Chained classes skip the source-resource split:
no binding graph has a source resource, and a source task could feed
the next instance.

Results without expansion
-------------------------

Busy cycles need no simulation at all: every issued cycle serves
exactly one task-cycle and every task completes, so a resource's busy
count is the plain sum of its tasks' durations — which is also exactly
what the cycle engine accumulates.

A fold logs its concrete completions and, per jump, the replayed
window's log span, repeat count and shifts.  The makespan is the last
concrete completion: a snapshot needs a live instance, so every jump
leaves unfinished tasks that complete concretely after it, and no
replayed completion passes the shifted clock.  Per-task finish times
are written out only when :class:`FoldedFinishTimes` is first read
(``len()`` needs none): each concrete completion lands at its task's
global program order, and each replayed one fills its repeats with one
strided list-slice assignment.  The source sub-folds are written out at
once, since their finish times are the main fold's releases.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .events import IDLE
from .engine import DEADLOCK, FlatGraph, SimResult, Task, task_index
from .foldstate import FoldState

if TYPE_CHECKING:
    from .prefixes import ChainPrefix


@dataclass
class FoldedClass:
    """One equivalence class: ``count`` identical instance graphs, each
    the template :meth:`FlatGraph.from_tasks` compiled."""

    count: int
    size: int  #: template length (tasks per instance, post-lowering)
    #: template task names (unprefixed); a chained class's name stems
    names: Tuple[str, ...]
    durations: Sequence[int]
    res: Sequence[int]  #: template resource ids into FoldedScenario.resources
    #: per tid: the template tasks its completion counts down, at
    #: relative steps (``tid + step``)
    dependents: Sequence[Tuple[int, ...]]
    outstanding: Sequence[int]  #: unique positive-duration deps each tid waits on
    ready: Sequence[int]  #: ascending tids ready at t=0
    nonzero: int  #: positive-duration templates per instance
    #: Chained classes only: per tid, the steps to what its completion
    #: counts down in the *next* instance (template task ``tid + step -
    #: size``).
    lag: Optional[Sequence[Tuple[int, ...]]] = None
    #: Chained classes only: instance 0's counts and ready tids (it has
    #: no predecessor to wait on).
    outstanding_first: Sequence[int] = ()
    ready_first: Sequence[int] = ()
    ginst_base: int = 0  #: global instance index of the class's first instance
    order_base: int = 0  #: global program order of instance 0's first task

    @property
    def chained(self) -> bool:
        return self.lag is not None

    def instance_names(self, local: int) -> Iterator[str]:
        """Task names of instance ``local``, as the merged graph spells
        them: ``<stem>[<local>]`` in a chain, ``i<k>:<name>`` otherwise."""
        if self.chained:
            return (f"{stem}[{local}]" for stem in self.names)
        prefix = f"i{self.ginst_base + local}:"
        return (prefix + name for name in self.names)


@dataclass
class FoldedScenario:
    """A scenario lowered to counted instance classes.  The constructor
    lays the classes out in program order (each class's ``order_base``
    and ``ginst_base``) and totals their work."""

    classes: List[FoldedClass]
    resources: List[str]
    n_tasks: int = field(init=False)
    n_instances: int = field(init=False)
    total_duration: int = field(init=False)  #: Σ durations — the engines' makespan bound
    busy_totals: List[int] = field(init=False)  #: per resource id: Σ durations (exact busy)

    def __post_init__(self) -> None:
        if list(self.resources) != sorted(set(self.resources)):
            raise ValueError("folded scenario: resource names must be sorted and unique")
        self.n_tasks = self.n_instances = self.total_duration = 0
        self.busy_totals = [0] * len(self.resources)
        for cls in self.classes:
            if not len(cls.durations) == len(cls.res) == len(cls.dependents) == cls.size:
                raise ValueError("folded scenario: per-task fields differ in length")
            if not set(cls.res) <= set(range(len(self.resources))):
                raise ValueError("folded scenario: resource id out of range")
            cls.order_base = self.n_tasks
            cls.ginst_base = self.n_instances
            for resource, duration in zip(cls.res, cls.durations):
                self.busy_totals[resource] += duration * cls.count
            self.total_duration += sum(cls.durations) * cls.count
            self.n_tasks += cls.count * cls.size
            self.n_instances += cls.count


class _FoldLog(NamedTuple):
    """What one fold leaves for expansion: each concrete completion's
    global instance, template task and time, in completion order, and
    per jump the replayed window ``(log start, repeats, per-completion
    instance shift, time shift)``."""

    inst: List[int]
    tid: List[int]
    time: List[int]
    windows: List[Tuple[int, int, List[int], int]]


class FoldedFinishTimes(Mapping):
    """The finish times of a folded schedule, keyed ``i<k>:<task>`` (or
    ``<stem>[<k>]`` in a chain) in program order — the names the merged
    graph would carry.

    Holds the class templates, the flat per-task finish list (the source
    sub-folds' times already in it, or ``None`` without source
    sub-folds) and the main fold's log.  The list, the main fold's times
    and the (hundreds of thousands of) instance-prefixed names are made
    on the first lookup or iteration, so callers that read only the
    makespan and busy cycles never pay for any of them.  Compares equal
    to the plain ``finish_times`` dicts of a flat task list's schedule."""

    def __init__(
        self, classes: Sequence[FoldedClass], ft: Optional[List[int]], log: _FoldLog, size: int
    ) -> None:
        self._classes = classes
        self._ft = ft
        self._log = log
        self._size = size
        self._named: Optional[Dict[str, int]] = None

    def _table(self) -> Dict[str, int]:
        if self._named is None:
            if self._ft is None:
                self._ft = [0] * self._size
            _expand(self._ft, self._classes, self._log)
            names = (
                name
                for cls in self._classes
                for local in range(cls.count)
                for name in cls.instance_names(local)
            )
            self._named = dict(zip(names, self._ft))
        return self._named

    def __getitem__(self, name: str) -> int:
        return self._table()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._table())

    def __len__(self) -> int:
        return self._size


def fold_templates(templates: Sequence[Tuple[Sequence[Task], int]]) -> FoldedScenario:
    """Lower ``(template_tasks, instance_count)`` pairs — one per
    scenario phase, in program order, already dram-lowered — into a
    :class:`FoldedScenario`.  Template task names must be unique (as
    :class:`~repro.simulator.engine.Simulator` requires of a merged
    graph; a double-lowered template repeats its ``@dram`` names) and
    deps must stay inside the template (instance prefixing guarantees
    this for scenario graphs)."""
    resources = sorted({t.resource for tasks, _ in templates for t in tasks})
    res_index = {r: i for i, r in enumerate(resources)}
    classes: List[FoldedClass] = []
    for tasks, count in templates:
        index = task_index(tasks, "a fold template")
        for task in tasks:
            for dep in task.deps:
                if dep not in index:
                    raise ValueError(f"template task {task.name}: dep {dep!r} leaves the instance")
        graph = FlatGraph.from_tasks(tasks, index=index)
        renumbered = [res_index[name] for name in graph.resources]
        classes.append(
            FoldedClass(
                count=count,
                size=len(tasks),
                names=tuple(t.name for t in tasks),
                durations=graph.durations,
                res=[renumbered[r] for r in graph.resource],
                dependents=graph.dependents,
                outstanding=graph.outstanding,
                ready=graph.ready,
                nonzero=len(tasks) - graph.durations.count(0),
            )
        )
    return FoldedScenario(classes, resources)


def fold_chain(tasks: Sequence[Task], count: int) -> FoldedScenario:
    """Lower a two-instance chain — instance 0's tasks named
    ``<stem>[0]``, then instance 1's named ``<stem>[1]`` — into one
    chained class of ``count`` instances, ``<stem>[<k>]`` each (see
    "Chained instances" above).

    Instance 1 is the template; its deps into instance 0 are the lag
    deps every instance ``k >= 1`` has on instance ``k-1``.  Raises
    ``ValueError`` unless names are unique, instance 0 equals instance 1
    minus its lag deps (same stems, durations, resources and order), and
    no dep reaches back further than one instance."""
    if count < 1:
        raise ValueError(f"a chain needs at least one instance, got {count}")
    index = task_index(tasks, "a chain template")
    size, odd = divmod(len(tasks), 2)
    first, second = tasks[:size], tasks[size:]
    mismatch = "chain instance 0 must equal instance 1 minus its lag deps"
    if odd or any(
        not a.name.endswith("[0]")
        or b.name != a.name[:-3] + "[1]"
        or (a.duration, a.resource) != (b.duration, b.resource)
        for a, b in zip(first, second)
    ):
        raise ValueError(mismatch)
    for a, b in zip(first, second):
        for dep in b.deps:
            if dep not in index:
                raise ValueError(
                    f"chained task {b.name}: dep {dep!r} reaches back more than one instance"
                )
        # Instance 1's own deps, as instance 0 must name them.
        own = [index[dep] - size for dep in b.deps if index[dep] >= size]
        if [index.get(dep, -1) for dep in a.deps] != own:
            raise ValueError(mismatch)
    # Instance 0's dependents past the template are the lag edges; the
    # frontier splits at ``size`` into instance 0's and the template's.
    graph = FlatGraph.from_tasks(tasks, index=index)
    chained = FoldedClass(
        count=count,
        size=size,
        names=tuple(t.name[:-3] for t in second),
        durations=graph.durations[size:],
        res=graph.resource[size:],
        dependents=graph.dependents[size:],
        outstanding=graph.outstanding[size:],
        ready=[tid - size for tid in graph.ready if tid >= size],
        nonzero=size - graph.durations[size:].count(0),
        lag=[
            tuple(step for step in steps if tid + step >= size)
            for tid, steps in enumerate(graph.dependents[:size])
        ],
        outstanding_first=graph.outstanding[:size],
        ready_first=[tid for tid in graph.ready if tid < size],
    )
    return FoldedScenario([chained], list(graph.resources))


#: "Ready time" logged for a task gated by releases alone: its push
#: time is its release, so a jump needs that release to shift exactly.
_NEVER = -(1 << 62)


@dataclass
class _Gates:
    """Release gating of one class in the main fold: which template
    tasks wait on source-resource deps, and where their releases live
    in the flat release list (one column per gated tid, holding its
    release in every instance, so instance ``k``'s is ``column + k``)."""

    slot: List[int]  #: per tid: flat offset of its release column, or -1
    start: List[Tuple[int, int]]  #: (tid, column) gated by releases alone
    suffix: List[int]  #: per instance: min start release from it onward


def _source_resources(folded: FoldedScenario) -> List[int]:
    """Resources none of whose positive-duration tasks has a
    positive-duration dep (``dram`` and each chip's ``c<k>:dram`` under
    an unbounded buffer) — empty when no other resource has work, since
    then there is nothing to split them from, and for chained classes
    (see "Chained instances")."""
    if any(cls.chained for cls in folded.classes):
        return []
    n_res = len(folded.resources)
    used = [False] * n_res
    source = [True] * n_res
    for cls in folded.classes:
        for tid, duration in enumerate(cls.durations):
            if duration > 0:
                used[cls.res[tid]] = True
                if cls.outstanding[tid]:
                    source[cls.res[tid]] = False
    sources = [r for r in range(n_res) if used[r] and source[r]]
    return sources if len(sources) < sum(used) else []


def _source_class(cls: FoldedClass, resource: int) -> FoldedClass:
    """``cls`` restricted to its tasks on one source resource: all of
    them ready at t=0, none with dependents.  Program order and task
    ids are the full template's, so arbitration is unchanged and finish
    times land at their global positions."""
    ready = [
        tid for tid in range(cls.size)
        if cls.res[tid] == resource and cls.durations[tid] > 0
    ]
    return replace(
        cls, dependents=((),) * cls.size, outstanding=(), ready=ready, nonzero=len(ready)
    )


def _gated_classes(
    classes: Sequence[FoldedClass], sources: Sequence[int], n_res: int, ft: List[int]
) -> Tuple[List[FoldedClass], List[_Gates], List[int]]:
    """The main fold's classes once the source resources are scheduled
    (their finish times already in ``ft``): source tasks drop out, and
    each source dep becomes a release time, the latest finish among a
    task's source deps in its own instance."""
    is_source = [False] * n_res
    for r in sources:
        is_source[r] = True
    main: List[FoldedClass] = []
    gates: List[_Gates] = []
    release: List[int] = []
    for cls in classes:
        size = cls.size
        src_deps: List[List[int]] = [[] for _ in range(size)]
        own: List[int] = []
        for tid in range(size):
            if cls.durations[tid] == 0:
                continue
            if not is_source[cls.res[tid]]:
                own.append(tid)
                continue
            for step in cls.dependents[tid]:
                src_deps[tid + step].append(tid)
        lo, hi = cls.order_base, cls.order_base + cls.count * size
        slot = [-1] * size
        for tid in range(size):
            if src_deps[tid]:
                slot[tid] = len(release)
                deps = [ft[lo + dep : hi : size] for dep in src_deps[tid]]
                release.extend(deps[0] if len(deps) == 1 else map(max, *deps))
        outstanding = [cls.outstanding[tid] - len(src_deps[tid]) for tid in range(size)]
        ready = [tid for tid in own if outstanding[tid] == 0 and not src_deps[tid]]
        start = [(tid, slot[tid]) for tid in own if outstanding[tid] == 0 and src_deps[tid]]
        main.append(replace(cls, outstanding=outstanding, ready=ready, nonzero=len(own)))
        suffix: List[int] = []
        if start:
            firsts = [release[column : column + cls.count] for _, column in start]
            first = firsts[0] if len(firsts) == 1 else list(map(min, *firsts))
            suffix = list(accumulate(reversed(first), min))[::-1]
        gates.append(_Gates(slot, start, suffix))
    return main, gates, release


def run_folded(
    folded: FoldedScenario,
    slots: int,
    max_cycles: Optional[int] = None,
    stats: Optional[Dict[str, int]] = None,
    prefix: Optional[ChainPrefix] = None,
) -> SimResult:
    """Schedule a folded scenario; bit-identical to running the fully
    materialized graph through any engine.  ``max_cycles`` defaults to
    the graph's makespan bound (total duration + 1), computed from the
    fold's own duration total — the budget a flat schedule derives
    from the merged task list.  The result's ``finish_times`` is a
    :class:`FoldedFinishTimes`: it names tasks only when read.
    ``stats``, when given, receives ``events`` (concrete events
    simulated), ``replayed`` (completions expanded arithmetically) and
    ``jumps`` counters, summed over the source sub-folds and the main
    fold — the fold's effectiveness, for tests and the ``--profile``
    breakdown.  ``prefix``, for a :func:`fold_chain` fold, is its
    template's :func:`~repro.simulator.prefixes.chain_prefix` at
    ``slots``: the fold resumes from it and extends it (see
    :mod:`.prefixes`), and its result and ``stats`` are a fresh fold's.
    Raises ``ValueError`` unless ``slots >= 1``, or for a prefix of
    another width or a fold that is not one chained class."""
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    if prefix is not None and (
        prefix.slots != slots or len(folded.classes) != 1 or not folded.classes[0].chained
    ):
        raise ValueError("a chain prefix serves one chained class at its own issue width")
    if max_cycles is None:
        max_cycles = folded.total_duration + 1
    n_res = len(folded.resources)
    counters = {"events": 0, "replayed": 0, "jumps": 0}
    ft: Optional[List[int]] = None  # written out when read, but for source sub-folds
    #: Each fold's last concrete completion: its makespan (see "Results
    #: without expansion").
    ends: List[int] = []
    sources = _source_resources(folded)
    if not sources:
        log = _fold_loop(
            folded.classes, folded.resources, slots, max_cycles, counters, prefix=prefix
        )
    else:
        ft = [0] * folded.n_tasks
        for resource in sources:
            restricted = [_source_class(cls, resource) for cls in folded.classes]
            log = _fold_loop(restricted, folded.resources, slots, max_cycles, counters)
            _expand(ft, folded.classes, log)  # the main fold's releases read these
            ends += log.time[-1:]
        main, gates, release = _gated_classes(folded.classes, sources, n_res, ft)
        log = _fold_loop(main, folded.resources, slots, max_cycles, counters, gates, release)
    ends += log.time[-1:]
    if stats is not None:
        stats.update(counters)
    busy_map = {
        folded.resources[r]: folded.busy_totals[r]
        for r in range(n_res)
        if folded.busy_totals[r] > 0
    }
    return SimResult(
        makespan=max(ends, default=0),
        busy_cycles=busy_map,
        finish_times=FoldedFinishTimes(folded.classes, ft, log, folded.n_tasks),
    )


def _fold_loop(
    classes: Sequence[FoldedClass],
    resources: Sequence[str],
    slots: int,
    max_cycles: int,
    counters: Dict[str, int],
    gates: Optional[Sequence[_Gates]] = None,
    release: Optional[List[int]] = None,
    prefix: Optional[ChainPrefix] = None,
) -> _FoldLog:
    """One fold: schedule ``classes`` with lazy materialization and
    recurrence replay, add to ``counters``, and return the log
    :func:`_expand` writes the finish times from.  This is the
    per-event step; the state it carries between events and its
    detector are a :class:`FoldState`'s.  With ``gates``, tasks also
    wait for their release (see "Source resources and release times").
    With ``prefix`` (one chained class), the fold resumes from its
    deepest usable checkpoint and, resuming from the last one or none,
    takes more (see :mod:`.prefixes`)."""
    n_res = len(resources)
    resource_ids = range(n_res)
    # Per-class fields, read once per completion or pop.
    res_of = [c.res for c in classes]
    durs_of = [c.durations for c in classes]
    deps_of = [c.dependents for c in classes]
    lag_of = [c.lag for c in classes]
    gated = gates is not None

    def refill(resource: int, acts: List[list]) -> None:
        """Engine refill, plus lazy materialization: the resource's
        cached virtual head competes with the heap top by program order,
        exactly as if its instance had been pending since t=0."""
        heap = pending[resource]
        while len(acts) < slots:
            order = head_order[resource]
            if heap and heap[0][0] < order:
                _, gi, tid = heappop(heap)
                acts.append([durs_of[live[gi][0]][tid], gi, tid])
            elif order < IDLE:
                materialize(head_class[resource])
            else:
                break

    # ``refill`` first runs at the first settle, once the names it reads
    # are bound to the state's containers below.
    state = FoldState(classes, n_res, slots, refill, gates, release)
    counts, sizes, order_bases, ginst_bases = (
        state.counts, state.sizes, state.order_bases, state.ginst_bases
    )
    pending, live, cursor, timer, waiting = (
        state.pending, state.live, state.cursor, state.timer, state.waiting
    )
    inst_log, tid_log, t_log, rel_log, ready_log = (
        state.inst_log, state.tid_log, state.t_log, state.rel_log, state.ready_log
    )
    head_order, head_class, heads_of = state.head_order, state.head_class, state.heads_of
    next_done, complete, settle = state.next_done, state.complete, state.settle
    refresh_heads, detect = state.refresh_heads, state.detect
    materialized = 0

    def materialize(c: int) -> None:
        nonlocal materialized
        cls = classes[c]
        local = cursor[c]
        if local >= counts[c]:  # pragma: no cover - a stale virtual head
            raise RuntimeError(f"class {c} has no instance {local} to materialize")
        cursor[c] = local + 1
        refresh_heads(heads_of[c])
        gi = cls.ginst_base + local
        ob = cls.order_base + local * cls.size
        first = cls.chained and local == 0
        live[gi] = [c, list(cls.outstanding_first if first else cls.outstanding), cls.nonzero]
        for tid in cls.ready_first if first else cls.ready:
            heappush(pending[cls.res[tid]], (ob + tid, gi, tid))
        if gated and gates[c].start:
            for tid, column in gates[c].start:
                rel_log.append(column + local)
                ready_log.append(_NEVER)
                heappush(waiting, (release[column + local], ob + tid, gi, tid))
            timer[c] = gates[c].suffix[local + 1] if local + 1 < counts[c] else -1
        materialized += 1

    total_nonzero = sum(counts[c] * cls.nonzero for c, cls in enumerate(classes))
    point = None if prefix is None else prefix.resume_point(counts[0])
    if point is None:
        for c, cls in enumerate(classes):
            if cls.chained and counts[c]:
                materialize(c)
        for resource in resource_ids:
            settle(resource, 0)
    elif point.now > max_cycles:
        raise RuntimeError(DEADLOCK)
    if prefix is not None:
        prefix.resume(point, state)
    completed_count = len(t_log)
    while completed_count < total_nonzero:
        now = min(next_done)
        if gated:
            if waiting and waiting[0][0] < now:
                now = waiting[0][0]
            for when in timer:
                if 0 <= when < now:
                    now = when
        if now > max_cycles:  # includes idle: nothing left can run
            raise RuntimeError(DEADLOCK)
        state.events += 1
        # The lone completion is found by two C scans, as in
        # :func:`~repro.simulator.events.run_flat`; a release or timer
        # event may complete nothing.
        if next_done.count(now) == 1:
            touched = [next_done.index(now)]
        else:
            touched = [r for r in resource_ids if next_done[r] == now]
        grew = materialized
        # Completing a resource reads no heap, so each completion's
        # dependents are counted down as it is found.  Every touched
        # resource is settled, full or not: the keys read ``sync``.
        for resource in touched[:]:
            _, gi, tid = complete(resource, now)
            inst_log.append(gi)
            tid_log.append(tid)
            t_log.append(now)
            completed_count += 1
            st = live[gi]
            c = st[0]
            res = res_of[c]
            outstanding = st[1]
            local = gi - ginst_bases[c]
            ob = order_bases[c] + local * sizes[c]
            for step in deps_of[c][tid]:
                dependent = tid + step
                outstanding[dependent] -= 1
                if outstanding[dependent] == 0:
                    if gated:
                        column = gates[c].slot[dependent]
                        if column >= 0:
                            at = column + local
                            rel_log.append(at)
                            ready_log.append(now)
                            if release[at] > now:
                                heappush(waiting, (release[at], ob + dependent, gi, dependent))
                                continue
                    target = res[dependent]
                    heappush(pending[target], (ob + dependent, gi, dependent))
                    if target not in touched:
                        touched.append(target)
            lag = lag_of[c]
            if lag is not None and local + 1 < counts[c] and lag[tid]:
                # Lag edges into the next instance: enter it first.
                if cursor[c] == local + 1:
                    materialize(c)
                successor = live[gi + 1][1]
                size = sizes[c]
                for step in lag[tid]:
                    dependent = tid + step - size
                    successor[dependent] -= 1
                    if successor[dependent] == 0:
                        target = res[dependent]
                        heappush(pending[target], (ob + tid + step, gi + 1, dependent))
                        if target not in touched:
                            touched.append(target)
            st[2] -= 1
            if st[2] == 0:
                del live[gi]
        if gated:
            for c in range(len(classes)):
                while timer[c] == now:
                    materialize(c)
            while waiting and waiting[0][0] <= now:
                _, order, gi, tid = heappop(waiting)
                target = res_of[live[gi][0]][tid]
                heappush(pending[target], (order, gi, tid))
                if target not in touched:
                    touched.append(target)
        for resource in touched:
            settle(resource, now)
        if materialized != grew and live and state.folding:
            completed_count += detect(now)

    for name in counters:  # events, replayed, jumps
        counters[name] += getattr(state, name)
    return _FoldLog(inst_log, tid_log, t_log, state.windows)


def _expand(ft: List[int], classes: Sequence[FoldedClass], log: _FoldLog) -> None:
    """Write one fold's finish times into ``ft`` at each task's global
    program order (a dense ``0..n_tasks-1`` index): the concrete
    completions, then each replayed window, whose repeat ``k``
    (``1..repeats``) moves a completion ``k`` instance shifts on and
    ``k * d_time`` cycles later, one strided slice per completion."""
    starts = [cls.ginst_base for cls in classes]
    orders: List[int] = []
    sizes: List[int] = []
    for gi, tid, t in zip(log.inst, log.tid, log.time):
        cls = classes[bisect_right(starts, gi) - 1]
        order = cls.order_base + (gi - cls.ginst_base) * cls.size + tid
        ft[order] = t
        orders.append(order)
        sizes.append(cls.size)
    for start, repeats, steps, d_time in log.windows:
        for j, step in enumerate(steps, start):
            shift = step * sizes[j]
            first, t = orders[j] + shift, log.time[j] + d_time
            ft[first : first + shift * repeats : shift] = range(t, t + d_time * repeats, d_time)
