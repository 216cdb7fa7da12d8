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
arbitration order makes classes diverge.

A refill materializes an instance when the resource's *virtual head*,
the earliest t=0-ready task there of the next unmaterialized instance of
any class, precedes its heap top in program order.  The head depends on
the class cursors alone, so each resource caches it (a program order and
a class) and recomputes it only when a cursor moves: for the resources a
class heads when it materializes an instance, and for every resource
when a fold resumes a chain prefix or jumps.  A refill reads one cached
order instead of scanning the classes; nearly every refill materializes
nothing.

Why the replay is exact
-----------------------

The closed-form core is deterministic, and every scheduling decision it
makes reduces to comparisons of ``(class, instance, template-task)``
triples: classes occupy disjoint program-order ranges (so cross-class
comparisons never flip), and within a class, order shifts uniformly
with the instance index.  The snapshot captures everything the
transition function reads — active sets, pending-heap contents,
outstanding dependency counts, per-class materialization cursors (all
instance-relative), rotation counters mod ``lcm(1..slots)``, and
completion/sync times relative to *now*.  Two equal snapshots therefore
evolve identically up to the (``dA``, ``dt``) shift, for as many
repeats as keep every advancing class's cursor in range; ``m`` is
clamped to that, and the drain tail is simulated concretely.  Exhausted
classes cannot carry stragglers through a match: a draining live set
that is also a shift of itself must be empty.

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

Releases are inputs to the main fold, not state, so a snapshot match
alone no longer proves a window repeats.  The key adds what the state
holds of them: the timed queue and each started class's next
materialization timer, both relative to *now*.  The jump then checks
the inputs the window read.  For every release consumed in the window,
repeat ``k`` must consume, in the instance ``k·dA`` later, a release
whose ``max(release, ready + k·dt)`` equals the recorded
``max(release, ready) + k·dt``.  Every materialization timer the window
visited must also shift by exactly ``k·dt``, and a not-yet-started
class's timer must stay beyond the replayed span.  ``m`` is clamped to
the leading repeats that pass, one strided slice of releases per
logged read.  With those inputs shifted, the induction above goes
through unchanged.

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

Split windows
-------------

The fronts of an interleaved binding chain drift apart.  The ``RNV``
chain (each chunk's waits on the previous chunk's) falls behind, and
the rest runs ahead as far as the 2D array allows.  Between them the
live window holds a growing run of *idle* instances: nothing of theirs
is active or pending, and what is left waits on a lag edge from the
predecessor.  The run grows by a few instances per period, so a window
keyed relative to ``min(live)`` never recurs.

At a snapshot, :func:`_fold_loop` therefore looks for a run of
consecutive live instances of a lone chained class that are idle and
share one ``(outstanding, unfinished)`` state, with live instances
below and above it (the one it found last time while any of it is
left, else the longest).  The instances below (the *tail*) are keyed
relative to ``min(live)``, those above (the *head*) relative to the
class cursor, and the run by its two bounds, each relative to its own
side's anchor, and its shared state, but not its length.  Three facts
make the replay exact:

- *Idle run instances are read only through their predecessor's lag
  edges.*  None of an idle instance's tasks is active or pending, so
  each unfinished one waits on an unfinished task of the same instance
  or on a lag dep.  Nothing inside it can complete, and only a
  completion in its predecessor changes it.  A run instance whose
  predecessor is idle too stays exactly as it entered the run, whatever
  its index.
- *Program-order comparisons between tail and head tasks cannot flip
  while the run is non-empty.*  Every tail instance lies below the run
  and every head instance above it, so a tail task precedes every head
  task, and the head's virtual cursor task, in every heap pop and
  refill: in the recorded window and in every repeat.
- *Each region's state recurs relative to its own anchor.*  While the
  run keeps an instance that completes nothing, the tail's lag edges
  reach only run instances, which all hold the shared state, and the
  head's lowest instance has a silent predecessor.  The two sides then
  meet only in the shared resources, whose state the key holds in full.
  So each side evolves as a function of its own relative state, and a
  match means the tail advanced ``dA_tail`` instances and the head
  ``dA_head`` in ``dt``.

The jump checks that premise on the recorded window rather than trusting
the two end snapshots.  Between consecutive split snapshots the run's top
instance must complete nothing, so the tail never reaches a head
instance, and consecutive runs must overlap, so no instance changes side.
The window's *margin* is the fewest run instances any interval left above
the tail's deepest completion.  A repeat ``k`` leaves ``margin + k *
(dA_head - dA_tail)`` of them, so when the run shrinks ``m`` is clamped
to keep that at least 1 (the run clamp), on top of the head cursor's
clamp.  Each logged completion is tagged by side (at or below its
interval's run top: tail), and expansion shifts it by ``k * dA_tail`` or
``k * dA_head`` instances and ``k * dt`` cycles.  The jump moves the tail
by ``m * dA_tail`` and the head by ``m * dA_head``, and fills the run
between them with copies of the shared state.  Without an idle run the
key, the clamps and the counters are the unsplit ones.

Shared chain prefixes
---------------------

A binding sweep folds one chain template at many chunk counts, and each
fold repeats the same transient: the interleaved chain's period is
about 128 instances, so its first snapshot match lies some 1,800 events
in.  A fold given a :class:`~repro.simulator.prefixes.ChainPrefix` (one
per template and issue width, from
:func:`~repro.simulator.prefixes.chain_prefix`) shares that transient
across counts.  Until its first jump it takes a *checkpoint* of its
loop state at the top of the loop after each materialization event
(keeping one per few instances): active entries, pending heaps,
rotation counters, sync and next-completion times, the class cursor,
the live instances, ``floor`` and the last idle run, the snapshot and
split logs, the event and completion counters, and the completion
log's length.  A fold of the
same template at any count ``N`` resumes from the deepest checkpoint it
may use, one whose cursor is below ``N``, and runs on with its own
count, budget and repeat clamp.

Resuming is exact because, before its first jump, a chain fold reads
its count in only two places:

- the ``cursor < count`` (refill, key), ``local + 1 < count`` (lag)
  and ``"done"`` comparisons.  Every cursor they read is at most the
  checkpoint's, so they agree for every count above it;
- the repeat clamp of a snapshot match.  A match at cursor ``c`` with
  head shift ``dA`` passes it exactly when ``count >= c + 1 + dA``.
  The checkpoints after a match the clamp turned away serve counts
  below that threshold only, and those after a match whose window the
  jump then refused (a snapshot overwrite) serve counts at or above it.
  A resumed fold computes its own clamp at every match still ahead.

The budget is read at every event, but times only grow, so a fresh fold
of ``N`` instances raises the deadlock error before the checkpoint
exactly when the checkpoint's time exceeds ``N``'s budget, and the
resumed fold raises it then too.  The counters a resumed fold reports
include the prefix, so its ``stats`` equal a fresh fold's.

Checkpoints form one line: only a fold that resumes from the last one
(or starts on an empty prefix) takes more.  :mod:`.prefixes` holds
them and bounds the memo.

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
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain
from math import lcm
from operator import sub
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import events
from .events import IDLE
from .engine import DEADLOCK, FlatGraph, SimResult, Task, task_index

if TYPE_CHECKING:
    from .prefixes import ChainPrefix

#: Unmatched relative-state snapshots kept before giving up on folding
#: for the run.  Detection failure costs speed, never correctness.
_SNAP_CAP = 512

#: Snapshots keying more live instances than this are skipped: hashing
#: such a window would cost more than a match could save.  A chain's
#: idle run (see "Split windows") is keyed by its shared state alone, so
#: it does not count; only the instances on either side of it do.
_LIVE_CAP = 128


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


def _shift_fit(values: List[int], at: int, stride: int, d_time: int, repeats: int) -> int:
    """The leading repeats ``k = 1..repeats`` for which ``values[at + k *
    stride]`` is exactly ``values[at] + k * d_time``."""
    got = values[at + stride : at + stride * repeats + 1 : stride]
    want = range(values[at] + d_time, values[at] + d_time * repeats + 1, d_time)
    if got == list(want):
        return repeats
    return next((k for k, (g, w) in enumerate(zip(got, want)) if g != w), len(got))


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
    ``slots``: the fold resumes from it and extends it (see "Shared
    chain prefixes"), and its result and ``stats`` are a fresh fold's.
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
    :func:`_expand` writes the finish times from.

    With ``gates``, tasks also wait for their release (see the module
    docstring): a task whose other deps are met sits in a timed queue
    until then, and a class whose instances start with release-gated
    tasks materializes its next instance no later than the earliest
    release from that instance onward.  With ``prefix`` (one chained
    class), the fold resumes from its deepest usable checkpoint and,
    resuming from the last one or none, takes more (see "Shared chain
    prefixes")."""
    n_classes = len(classes)
    n_res = len(resources)
    resource_ids = range(n_res)
    # Per-class fields, read once per completion or pop.
    counts = [c.count for c in classes]
    sizes = [c.size for c in classes]
    order_bases = [c.order_base for c in classes]
    ginst_bases = [c.ginst_base for c in classes]
    res_of = [c.res for c in classes]
    durs_of = [c.durations for c in classes]
    deps_of = [c.dependents for c in classes]
    lag_of = [c.lag for c in classes]
    #: per resource: (class id, min ready tid) for classes with any
    #: t=0-ready work there, and per class the resources it heads.
    classes_on: List[List[Tuple[int, int]]] = [[] for _ in resource_ids]
    heads_of: List[List[int]] = []
    for c, cls in enumerate(classes):
        heads: Dict[int, int] = {}
        for tid in cls.ready:  # ascending: the first tid per resource wins
            heads.setdefault(cls.res[tid], tid)
        for r, tid in heads.items():
            classes_on[r].append((c, tid))
        heads_of.append(list(heads))

    pending: List[List[Tuple[int, int, int]]] = [[] for _ in range(n_res)]
    cursor = [0] * n_classes
    #: live instance -> [class id, outstanding counts, unfinished count]
    live: Dict[int, List] = {}
    inst_log: List[int] = []
    tid_log: List[int] = []
    t_log: List[int] = []
    #: Replayed windows, as :class:`_FoldLog` lists them.
    windows: List[Tuple[int, int, List[int], int]] = []
    materialized = 0
    rr_mod = lcm(*range(1, slots + 1))

    gated = gates is not None
    #: per class: next start-release materialization time, or -1.
    timer = [-1] * n_classes
    #: timed queue of released-later tasks: (release, order, instance, tid).
    waiting: List[Tuple[int, int, int, int]] = []
    #: every release read since the last snapshot reset: flat index into
    #: ``release`` and the time the task's other deps were met.
    rel_log: List[int] = []
    ready_log: List[int] = []
    if gated:
        slot_of = [g.slot for g in gates]
        starts = [g.start for g in gates]
        suffix = [g.suffix for g in gates]
        for c in range(n_classes):
            if starts[c] and counts[c]:
                timer[c] = suffix[c][0]

    #: per resource: the program order and class of its virtual head,
    #: the next unmaterialized instance's earliest t=0-ready task there
    #: (:data:`IDLE` and -1 when no class has one left).
    head_order: List[float] = [IDLE] * n_res
    head_class = [-1] * n_res

    def refresh_heads(ids: Sequence[int]) -> None:
        """Recompute the virtual head of each resource in ``ids`` from
        the class cursors: a cursor move must refresh every resource
        whose head may read it."""
        for r in ids:
            best: float = IDLE
            best_class = -1
            for c, head_tid in classes_on[r]:
                cur = cursor[c]
                if cur < counts[c]:
                    order = order_bases[c] + cur * sizes[c] + head_tid
                    if order < best:
                        best = order
                        best_class = c
            head_order[r] = best
            head_class[r] = best_class

    refresh_heads(resource_ids)

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
        if gated and starts[c]:
            for tid, column in starts[c]:
                rel_log.append(column + local)
                ready_log.append(_NEVER)
                heappush(waiting, (release[column + local], ob + tid, gi, tid))
            timer[c] = suffix[c][local + 1] if local + 1 < counts[c] else -1
        materialized += 1

    def refill(resource: int, acts: List[list]) -> None:
        """Engine refill, plus lazy materialization: the resource's
        virtual head competes with the heap top by program order,
        exactly as if its instance had been pending since t=0 (pending
        membership has no side effects; only pops matter, and instance
        order keys ascend within a class).  The head is read from the
        per-resource cache, which :func:`materialize`, a prefix resume
        and a jump refresh whenever they move a cursor."""
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

    #: Entries are ``[remaining, instance, tid]``; the busy count is
    #: unused, since every task completes (see the module docstring).
    active, rr, sync, _, next_done, complete, settle = events.round_robin(n_res, refill)

    #: A lone chained class can split its window around an idle run;
    #: no other fold ever holds an idle instance.
    splits = n_classes == 1 and classes[0].chained

    #: The last idle run found: ``(first, last, outstanding, unfinished)``.
    known_run: Optional[Tuple[int, int, List[int], int]] = None
    #: A chain's lowest live instance, or below it: instances enter at
    #: the cursor, so it only moves up (and with the tail at a jump).
    floor = 0

    def idle_run() -> Optional[Tuple[int, int]]:
        """A run of consecutive live instances idle in one shared state,
        with live instances below and above it, as ``(first, last)``, or
        ``None``.  A state is idle when each unfinished task still has
        deps outstanding: none of its tasks is active or pending.

        Run instances change only from the bottom up, as the tail
        reaches them (see "Split windows"), so the last run found is
        followed while any of it is left, in time proportional to what
        changed.  Otherwise the window is scanned for the longest run,
        ties going to the lowest."""
        nonlocal known_run, floor
        while floor not in live:
            floor += 1
        lo = floor
        hi = ginst_bases[0] + cursor[0] - 1
        while hi not in live:
            hi -= 1
        found = None
        if known_run is not None:
            first, last, outstanding, left = known_run

            def same(gi: int) -> bool:
                st = live.get(gi)
                return st is not None and st[2] == left and st[1] == outstanding

            while first <= last and not same(first):
                first += 1
            if first <= last:
                while first - 1 > lo and same(first - 1):
                    first -= 1
                while last + 1 < hi and same(last + 1):
                    last += 1
                if lo < first and last < hi:
                    found = (first, last)
        if found is None:
            gi = lo + 1
            while gi < hi:
                st = live.get(gi)
                if st is None or st[2] != sum(1 for n in st[1] if n):
                    gi += 1
                    continue
                last = gi
                while last + 1 < hi:
                    other = live.get(last + 1)
                    if other is None or other[2] != st[2] or other[1] != st[1]:
                        break
                    last += 1
                if found is None or last - gi > found[1] - found[0]:
                    found = (gi, last)
                    outstanding, left = list(st[1]), st[2]
                gi = last + 1
        known_run = None if found is None else (*found, outstanding, left)
        return found

    #: Split snapshots since the last jump: (log position, run first,
    #: run last).
    split_log: List[Tuple[int, int, int]] = []

    def split_window(p: int, c: int) -> Optional[Tuple[List[bool], int]]:
        """The tail tags of the completions between split snapshots
        ``p`` and ``c`` (true below each interval's run top, whose
        instance shifts with the tail), and the window's margin: the
        fewest run instances any interval left above the tail's deepest
        completion.  ``None`` if tail and head met: the margin fell to
        zero, or consecutive runs do not overlap, so some instance would
        change sides."""
        pos, firsts, lasts = zip(*split_log[p : c + 1])
        for j in range(c - p):
            if firsts[j + 1] > lasts[j] + 1 or lasts[j + 1] < lasts[j]:
                return None
        tail: List[bool] = []
        gaps: List[int] = []
        for j, top in enumerate(lasts[:-1]):
            for gi in inst_log[pos[j] : pos[j + 1]]:
                below = gi <= top
                tail.append(below)
                if below:
                    gaps.append(top - gi)
        margin = min(gaps, default=0)
        return (tail, margin) if margin >= 1 else None

    def state_key(anchor: int, now: int, run: Optional[Tuple[int, int]]):
        """Everything the transition function reads, instance-relative.
        An idle resource's ``sync`` is never read (the next settle just
        resets it), so it is left out.  With an idle ``run``, instances
        above it are relative to the class cursor instead, and the run
        is keyed by its bounds and shared state, not its length."""
        first = last = head = 0
        if run is not None:
            first, last = run
            head = ginst_bases[0] + cursor[0]

        def rel(gi: int) -> int:
            return gi - anchor if run is None or gi < first else gi - head

        res_state = []
        for r in range(n_res):
            acts = tuple((rel(e[1]), live[e[1]][0], e[2], e[0]) for e in active[r])
            heap = tuple(sorted((rel(gi), live[gi][0], tid) for _, gi, tid in pending[r]))
            res_state.append(
                (acts, heap, rr[r] % rr_mod, sync[r] - now if acts else 0, next_done[r] - now)
            )
        keyed = live.items()
        if run is not None:
            # Only the two sides: the run may be far wider than both.
            sides = chain(range(anchor, first), range(last + 1, head))
            keyed = ((gi, live[gi]) for gi in sides if gi in live)
        inst_state = tuple(sorted((rel(gi), st[0], tuple(st[1]), st[2]) for gi, st in keyed))
        if run is not None:
            _, outstanding, left = live[first]
            run = (first - anchor, last - head, tuple(outstanding), left)
        # A class that has not admitted any instance yet snapshots as a
        # plain sentinel, not a relative position: classes start strictly
        # in program order (an earlier unexhausted class's virtual head
        # order is always below a later class's order base), so an
        # unstarted class can never win refill arbitration during a
        # replayed window and its distance from the anchor is inert.
        # (Its start-release timer is not inert: the jump clamps it.)
        cursors = tuple(
            "unstarted"
            if cursor[c] == 0
            else (rel(ginst_bases[c] + cursor[c]), timer[c] - now if timer[c] >= 0 else -1)
            if cursor[c] < counts[c]
            else "done"
            for c in range(n_classes)
        )
        releases = tuple(
            sorted((gi - anchor, live[gi][0], tid, when - now) for when, _, gi, tid in waiting)
        )
        return (tuple(res_state), inst_state, cursors, releases, run)

    def release_fit(repeats: int, d_inst: int, d_time: int, log_pos: int, now: int) -> int:
        """Clamp a jump to the repeats over which every release the
        window read moves by exactly the repeat's time shift: each
        consumed ``max(release, ready)`` and each materialization timer
        visited.  An unstarted class's timer must stay beyond the
        replayed span instead."""
        for c in range(n_classes):
            if not starts[c] or cursor[c] >= counts[c] or repeats <= 0:
                continue
            if cursor[c] == 0:
                repeats = min(repeats, (timer[c] - now - 1) // d_time)
                continue
            for at in range(cursor[c] - d_inst, cursor[c] + 1):
                repeats = _shift_fit(suffix[c], at, d_inst, d_time, repeats)
        for at, ready in zip(rel_log[log_pos:], ready_log[log_pos:]):
            if repeats <= 0:
                break
            if release[at] > ready:
                # Release-bound: the release is the push time, so each
                # repeat's must shift exactly.
                repeats = _shift_fit(release, at, d_inst, d_time, repeats)
                continue
            # Ready-bound: each repeat's release may come no later than
            # its shifted ready time.
            got = release[at + d_inst : at + d_inst * repeats + 1 : d_inst]
            late = list(map(sub, got, range(d_time, d_time * repeats + 1, d_time)))
            if max(late, default=ready) > ready:
                repeats = next(k for k, when in enumerate(late) if when > ready)
        return repeats

    total_nonzero = sum(counts[c] * classes[c].nonzero for c in range(n_classes))
    now = 0
    completed_count = 0
    n_events = 0
    replayed = 0
    jumps = 0
    snapshots: Dict = {}
    folding = True
    point = None if prefix is None else prefix.resume_point(counts[0])
    if point is None:
        for c, cls in enumerate(classes):
            if cls.chained and counts[c]:
                materialize(c)
        for resource in range(n_res):
            settle(resource, 0)
    else:
        # Resume a shared chain prefix (see "Shared chain prefixes").
        if point.now > max_cycles:
            raise RuntimeError(DEADLOCK)
        cursor[0] = point.cursor
        (
            materialized, live, pending, now, completed_count, n_events, floor,
            known_run, snapshots, inst_log, tid_log, t_log, split_log,
        ) = prefix.resume(point, active, rr, sync, next_done)
        refresh_heads(resource_ids)
    recording = prefix is not None and prefix.extend(point, (inst_log, tid_log, t_log), split_log)
    checkpoint_due = False
    while completed_count < total_nonzero:
        if checkpoint_due:
            checkpoint_due = False
            if folding and cursor[0] < counts[0]:
                prefix.take(
                    cursor[0], now, completed_count, n_events, materialized, floor, known_run,
                    live, active, pending, rr, sync, next_done,
                )
        now = min(next_done)
        if gated:
            if waiting and waiting[0][0] < now:
                now = waiting[0][0]
            for when in timer:
                if 0 <= when < now:
                    now = when
        if now > max_cycles:  # includes idle: nothing left can run
            raise RuntimeError(DEADLOCK)
        n_events += 1
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
                        column = slot_of[c][dependent]
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
            for c in range(n_classes):
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
        if not folding or materialized == grew or not live:
            continue
        checkpoint_due = recording
        run = idle_run() if splits else None
        keyed = len(live) if run is None else len(live) - (run[1] - run[0] + 1)
        if keyed > _LIVE_CAP:
            continue
        # A materialization event ended: snapshot the relative state and
        # jump if it recurs (see the module docstring for the argument).
        anchor = floor if splits else min(live)
        head = anchor
        if run is not None:
            head = ginst_bases[0] + cursor[0]
            split_log.append((len(t_log), *run))
        record = (
            anchor, head, now, len(t_log), completed_count, len(rel_log), len(split_log) - 1
        )
        key = state_key(anchor, now, run)
        prev = snapshots.get(key)
        if prev is None:
            if len(snapshots) >= _SNAP_CAP:
                folding = False
                snapshots.clear()
            else:
                snapshots[key] = record
                if recording:
                    prefix.note(key, record)
            continue
        prev_anchor, prev_head, prev_now, prev_log, prev_completed, prev_rel, prev_split = prev
        d_inst = anchor - prev_anchor
        d_head = head - prev_head
        d_time = now - prev_now
        if d_inst <= 0 or d_head <= 0 or d_time <= 0:
            continue
        # Matching snapshots mean every *started, unexhausted* class
        # advanced exactly d_head instances over the window (their cursor
        # positions are anchor-relative in the key, or head-relative in
        # a split one); only those consume instances per repeat, so only
        # they bound the repeat count.
        repeats: Optional[int] = None
        for c in range(n_classes):
            if 0 < cursor[c] < counts[c]:
                fit = (counts[c] - 1 - cursor[c]) // d_head
                if repeats is None or fit < repeats:
                    repeats = fit
        if not repeats or repeats <= 0:
            if recording:
                prefix.decided(cursor[0] + 1 + d_head, passed=False)
            continue
        steps = [d_inst] * (len(t_log) - prev_log)
        if run is not None:
            window = split_window(prev_split, len(split_log) - 1)
            if window is None:
                # Tail and head met: measure the next window from here.
                snapshots[key] = record
                if recording:
                    prefix.note(key, record)
                    prefix.decided(cursor[0] + 1 + d_head, passed=True)
                continue
            tail, margin = window
            steps = [d_inst if below else d_head for below in tail]
            # The run clamp: every repeat keeps a run instance the tail
            # never completes in (see "Split windows"); a shrinking run
            # loses d_inst - d_head of its margin per repeat.
            if d_inst > d_head:
                repeats = min(repeats, (margin - 1) // (d_inst - d_head))
        if repeats and gated:
            repeats = release_fit(repeats, d_inst, d_time, prev_rel, now)
        if not repeats or repeats <= 0:
            continue
        # Apply the jump: record the window for arithmetic expansion,
        # then shift every absolute time and instance index in place.
        windows.append((prev_log, repeats, steps, d_time))
        window_completions = completed_count - prev_completed
        completed_count += repeats * window_completions
        replayed += repeats * window_completions
        jumps += 1
        recording = checkpoint_due = False
        shift_t = repeats * d_time
        shift_i = repeats * d_inst
        shift_h = repeats * d_head
        bound = 0 if run is None else run[0]

        def moved(gi: int) -> int:
            return gi + (shift_i if gi < bound else shift_h)

        for r in range(n_res):
            sync[r] += shift_t
            next_done[r] += shift_t
            for entry in active[r]:
                entry[1] = moved(entry[1])
            if pending[r]:
                # Order keys shift by the *class's* stride, so re-heapify
                # rather than assume the list shape survives.
                pending[r] = [
                    (order + (moved(gi) - gi) * sizes[live[gi][0]], moved(gi), tid)
                    for order, gi, tid in pending[r]
                ]
                heapify(pending[r])
        if waiting:
            waiting = [
                (when + shift_t, order + shift_i * sizes[live[gi][0]], gi + shift_i, tid)
                for when, order, gi, tid in waiting
            ]
            heapify(waiting)
        if run is None:
            live = {gi + shift_i: st for gi, st in live.items()}
        else:
            # The run moves its bottom with the tail and its top with
            # the head; every instance in it holds the shared state.
            first, last = run
            c0, outstanding, left = live[first]
            live = {moved(gi): st for gi, st in live.items() if not first <= gi <= last}
            for gi in range(first + shift_i, last + shift_h + 1):
                live[gi] = [c0, outstanding.copy(), left]
            known_run = (first + shift_i, last + shift_h, outstanding.copy(), left)
        floor += shift_i
        for c in range(n_classes):
            if 0 < cursor[c] < counts[c]:
                cursor[c] += shift_h
                if timer[c] >= 0:
                    timer[c] = suffix[c][cursor[c]]
        refresh_heads(resource_ids)
        # Windows spanning a jump cannot be replayed from the log.
        snapshots.clear()
        split_log = []  # a new list: a chain prefix may hold the old one
        rel_log.clear()
        ready_log.clear()

    counters["events"] += n_events
    counters["replayed"] += replayed
    counters["jumps"] += jumps

    return _FoldLog(inst_log, tid_log, t_log, windows)


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
