"""The fold's loop state, :class:`FoldState`.

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

Release times are inputs to the main fold, not state (see "Source
resources and release times" in :mod:`repro.simulator.vector`), so a
snapshot match alone no longer proves a window repeats.  The key adds
what the state holds of them: the timed queue and each started class's
next materialization timer, both relative to *now*.  The jump then
checks the inputs the window read.  For every release consumed in the
window, repeat ``k`` must consume, in the instance ``k·dA`` later, a
release whose ``max(release, ready + k·dt)`` equals the recorded
``max(release, ready) + k·dt``.  Every materialization timer the window
visited must also shift by exactly ``k·dt``, and a not-yet-started
class's timer must stay beyond the replayed span.  ``m`` is clamped to
the leading repeats that pass, one strided slice of releases per logged
read.  With those inputs shifted, the induction above goes through
unchanged.

The fold settles a touched resource only if it has a free slot, as
:func:`~repro.simulator.events.run_flat` does, so a full one's ``sync``,
``rr`` and remaining cycles may lag behind *now*.  Service adds up over
consecutive gaps, and a full resource admits nothing, so catching every
busy resource up before a snapshot (:meth:`FoldState.detect`) gives the
state that settling it on every event would: equal states key equal.

Split windows
-------------

The fronts of an interleaved binding chain drift apart.  The ``RNV``
chain (each chunk's waits on the previous chunk's) falls behind, and
the rest runs ahead as far as the 2D array allows.  Between them the
live window holds a growing run of *idle* instances: nothing of theirs
is active or pending, and what is left waits on a lag edge from the
predecessor.  The run grows by a few instances per period, so a window
keyed relative to ``min(live)`` never recurs.

At a snapshot, the detector therefore looks for a run of consecutive
live instances of a lone chained class that are idle and share one
``(outstanding, unfinished)`` state, with live instances below and
above it (the one it found last time while any of it is left, else the
longest).  The instances below (the *tail*) are keyed relative to
``min(live)``, those above (the *head*) relative to the class cursor,
and the run by its two bounds, each relative to its own side's anchor,
and its shared state, but not its length.  Three facts make the replay
exact:

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
"""

from __future__ import annotations

from heapq import heapify
from itertools import chain
from math import lcm
from operator import sub
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import events
from .events import IDLE

if TYPE_CHECKING:
    from .prefixes import ChainPrefix
    from .vector import FoldedClass, _Gates

#: Unmatched relative-state snapshots kept before giving up on folding
#: for the run.  Detection failure costs speed, never correctness.
SNAP_CAP = 512

#: Snapshots keying more live instances than this are skipped: hashing
#: such a window would cost more than a match could save.  A chain's
#: idle run (see "Split windows") is keyed by its shared state alone, so
#: it does not count; only the instances on either side of it do.
_LIVE_CAP = 128

#: The state's flat lists, copied and restored element for element.
_FLAT = ("cursor", "rr", "sync", "next_done", "waiting", "timer", "rel_log", "ready_log")


def _shift_fit(values: List[int], at: int, stride: int, d_time: int, repeats: int) -> int:
    """The leading repeats ``k = 1..repeats`` for which ``values[at + k *
    stride]`` is exactly ``values[at] + k * d_time``."""
    got = values[at + stride : at + stride * repeats + 1 : stride]
    want = range(values[at] + d_time, values[at] + d_time * repeats + 1, d_time)
    if got == list(want):
        return repeats
    return next((k for k, (g, w) in enumerate(zip(got, want)) if g != w), len(got))


class FoldState:
    """Everything :func:`~repro.simulator.vector._fold_loop` carries from
    one event to the next, with the operations that read all of it: the
    relative key, the jump's shift, checkpoint copy and restore (each
    refreshes the cached virtual heads), and the recurrence detector.
    A new state is a fresh fold of ``classes`` over ``n_res`` resources
    at ``slots`` issue slots, its round-robin built with the fold's
    ``refill``.  The loop binds the containers as locals, so every
    operation here changes them in place."""

    def __init__(
        self, classes: Sequence[FoldedClass], n_res: int, slots: int,
        refill: Callable[[int, List[list]], None],
        gates: Optional[Sequence[_Gates]] = None, release: Optional[List[int]] = None,
    ) -> None:
        n_classes = len(classes)
        self.counts = [c.count for c in classes]
        self.sizes = [c.size for c in classes]
        self.order_bases = [c.order_base for c in classes]
        self.ginst_bases = [c.ginst_base for c in classes]
        #: per resource: (class id, min ready tid) for classes with any
        #: t=0-ready work there, and per class the resources it heads.
        self.classes_on: List[List[Tuple[int, int]]] = [[] for _ in range(n_res)]
        self.heads_of: List[List[int]] = []
        for c, cls in enumerate(classes):
            heads: Dict[int, int] = {}
            for tid in cls.ready:  # ascending: the first tid per resource wins
                heads.setdefault(cls.res[tid], tid)
            for r, tid in heads.items():
                self.classes_on[r].append((c, tid))
            self.heads_of.append(list(heads))
        self.gates, self.release = gates, release
        self.rr_mod = lcm(*range(1, slots + 1))
        #: A lone chained class can split its window around an idle run;
        #: no other fold ever holds an idle instance.
        self.splits = n_classes == 1 and classes[0].chained
        #: Entries are ``[remaining, instance, tid]``; the busy count is
        #: unused, since every task completes.
        self.active, self.rr, self.sync, _, self.next_done, self.complete, self.settle = (
            events.round_robin(n_res, refill)
        )
        self.pending: List[List[Tuple[int, int, int]]] = [[] for _ in range(n_res)]
        #: live instance -> [class id, outstanding counts, unfinished count]
        self.live: Dict[int, List] = {}
        self.cursor = [0] * n_classes
        #: A chain's lowest live instance, or below it: instances enter at
        #: the cursor, so it only moves up (and with the tail at a jump).
        self.floor = 0
        #: The last idle run found: ``(first, last, outstanding, unfinished)``.
        self.known_run: Optional[Tuple[int, int, List[int], int]] = None
        #: timed queue of released-later tasks: (release, order, instance, tid).
        self.waiting: List[Tuple[int, int, int, int]] = []
        #: per class: next start-release materialization time, or -1.
        self.timer = [-1] * n_classes
        for c, gate in enumerate(gates or ()):
            self.timer[c] = gate.suffix[0] if gate.start and self.counts[c] else -1
        self.now = self.events = self.replayed = self.jumps = 0
        self.folding = True
        #: The completion log and the replayed windows, as
        #: ``vector._FoldLog`` lists them.
        self.inst_log, self.tid_log, self.t_log, self.windows = [], [], [], []
        self.snapshots: Dict[tuple, tuple] = {}
        #: Split snapshots since the last jump: (log position, run first,
        #: run last).
        self.split_log: List[Tuple[int, int, int]] = []
        #: every release read since the last snapshot reset: flat index
        #: into ``release`` and the time the task's other deps were met.
        self.rel_log, self.ready_log = [], []
        #: per resource: the program order and class of its virtual head,
        #: the next unmaterialized instance's earliest t=0-ready task there
        #: (:data:`IDLE` and -1 when no class has one left).
        self.head_order: List[float] = [IDLE] * n_res
        self.head_class = [-1] * n_res
        #: the chain prefix this fold extends, until its first jump
        self.prefix: Optional[ChainPrefix] = None
        self.refresh_heads(range(n_res))

    def refresh_heads(self, ids: Iterable[int]) -> None:
        """Recompute the virtual head of each resource in ``ids`` from
        the class cursors: a cursor move must refresh every resource
        whose head may read it."""
        cursor, counts, order_bases, sizes = self.cursor, self.counts, self.order_bases, self.sizes
        for r in ids:
            self.head_order[r], self.head_class[r] = min(
                (
                    (order_bases[c] + cursor[c] * sizes[c] + tid, c)
                    for c, tid in self.classes_on[r]
                    if cursor[c] < counts[c]
                ),
                default=(IDLE, -1),
            )

    def key(self, anchor: int, now: int, run: Optional[Tuple[int, int]]) -> tuple:
        """Everything the transition function reads, instance-relative, of a
        caught-up state.  An idle resource's ``sync`` is never read (the next
        settle just resets it), so it is left out.  With an idle ``run``,
        instances above it are relative to the class cursor instead, and the
        run is keyed by its bounds and shared state, not its length."""
        live, cursor, counts, timer = self.live, self.cursor, self.counts, self.timer
        first, last = (0, 0) if run is None else run
        head = self.ginst_bases[0] + cursor[0]

        def rel(gi: int) -> int:
            return gi - anchor if run is None or gi < first else gi - head

        res_state = []
        for r, entries in enumerate(self.active):
            acts = tuple((rel(e[1]), live[e[1]][0], e[2], e[0]) for e in entries)
            heap = tuple(sorted((rel(gi), live[gi][0], tid) for _, gi, tid in self.pending[r]))
            sync = self.sync[r] - now if acts else 0
            res_state.append((acts, heap, self.rr[r] % self.rr_mod, sync, self.next_done[r] - now))
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
            else (rel(self.ginst_bases[c] + cursor[c]), timer[c] - now if timer[c] >= 0 else -1)
            if cursor[c] < counts[c]
            else "done"
            for c in range(len(counts))
        )
        releases = tuple(
            sorted((gi - anchor, live[gi][0], tid, when - now) for when, _, gi, tid in self.waiting)
        )
        return (tuple(res_state), inst_state, cursors, releases, run)

    def shift(
        self, repeats: int, d_inst: int, d_head: int, d_time: int, run: Optional[Tuple[int, int]]
    ) -> None:
        """Move the state ``repeats`` windows on: times by ``d_time`` each,
        instances below an idle ``run`` (all without one) by ``d_inst``,
        those above it by ``d_head`` (see "Split windows")."""
        shift_t = repeats * d_time
        shift_i = repeats * d_inst
        shift_h = repeats * d_head  # equal to ``shift_i`` without a run
        first, last = (0, -1) if run is None else run
        live, sizes, pending = self.live, self.sizes, self.pending

        def moved(gi: int) -> int:
            return gi + (shift_i if gi < first else shift_h)

        for r, acts in enumerate(self.active):
            self.sync[r] += shift_t
            self.next_done[r] += shift_t
            for entry in acts:
                entry[1] = moved(entry[1])
            if pending[r]:
                # Order keys shift by the *class's* stride, so re-heapify
                # rather than assume the list shape survives.
                pending[r] = [
                    (order + (moved(gi) - gi) * sizes[live[gi][0]], moved(gi), tid)
                    for order, gi, tid in pending[r]
                ]
                heapify(pending[r])
        if self.waiting:
            self.waiting[:] = [
                (when + shift_t, order + shift_i * sizes[live[gi][0]], gi + shift_i, tid)
                for when, order, gi, tid in self.waiting
            ]
            heapify(self.waiting)
        shifted = {moved(gi): st for gi, st in live.items() if not first <= gi <= last}
        if run is not None:
            # The run moves its bottom with the tail and its top with
            # the head; every instance in it holds the shared state.
            c0, outstanding, left = live[first]
            for gi in range(first + shift_i, last + shift_h + 1):
                shifted[gi] = [c0, outstanding.copy(), left]
            self.known_run = (first + shift_i, last + shift_h, outstanding.copy(), left)
        live.clear()
        live.update(shifted)
        self.floor += shift_i
        cursor, counts, timer = self.cursor, self.counts, self.timer
        for c in range(len(counts)):
            if 0 < cursor[c] < counts[c]:
                cursor[c] += shift_h
                if timer[c] >= 0:
                    timer[c] = self.gates[c].suffix[cursor[c]]
        self.now += shift_t
        self.refresh_heads(range(len(pending)))

    def copy(self, share: Callable[[tuple], tuple]) -> FoldState:
        """A frozen copy of the loop state, logs and layout left out, for
        :meth:`restore`; equal instance states go through ``share``."""
        saved = FoldState.__new__(FoldState)
        for name in _FLAT:
            setattr(saved, name, tuple(getattr(self, name)))
        saved.floor, saved.now, saved.events = self.floor, self.now, self.events
        known = self.known_run
        if known is not None:
            known = (known[0], known[1], share(tuple(known[2])), known[3])
        saved.known_run = known
        saved.live = (
            tuple(self.live),
            tuple(share((st[0], tuple(st[1]), st[2])) for st in self.live.values()),
        )
        saved.active = tuple(tuple(map(tuple, acts)) for acts in self.active)
        saved.pending = tuple(map(tuple, self.pending))
        return saved

    def restore(self, saved: FoldState) -> None:
        """Replace the loop state with a :meth:`copy` of another fold's,
        in place, and refresh the virtual heads."""
        for name in _FLAT:
            getattr(self, name)[:] = getattr(saved, name)
        self.floor, self.now, self.events = saved.floor, saved.now, saved.events
        known = saved.known_run
        if known is not None:
            known = (known[0], known[1], list(known[2]), known[3])
        self.known_run = known
        self.live.clear()
        self.live.update((gi, [c, list(waits), left]) for gi, (c, waits, left) in zip(*saved.live))
        for acts, entries in zip(self.active, saved.active):
            acts[:] = map(list, entries)
        self.pending[:] = map(list, saved.pending)
        self.refresh_heads(range(len(self.pending)))

    def idle_run(self) -> Optional[Tuple[int, int]]:
        """A run of consecutive live instances idle in one shared state,
        with live instances below and above it, as ``(first, last)``, or
        ``None``.  A state is idle when each unfinished task still has
        deps outstanding: none of its tasks is active or pending.

        Run instances change only from the bottom up, as the tail
        reaches them (see "Split windows"), so the last run found is
        followed while any of it is left, in time proportional to what
        changed.  Otherwise the window is scanned for the longest run,
        ties going to the lowest."""
        live = self.live
        while self.floor not in live:
            self.floor += 1
        lo = self.floor
        hi = self.ginst_bases[0] + self.cursor[0] - 1
        while hi not in live:
            hi -= 1
        found = None
        if self.known_run is not None:
            first, last, outstanding, left = self.known_run

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
        self.known_run = None if found is None else (*found, outstanding, left)
        return found

    def split_window(self, p: int, c: int) -> Optional[Tuple[List[bool], int]]:
        """The tail tags of the completions between split snapshots
        ``p`` and ``c`` (true below each interval's run top, whose
        instance shifts with the tail), and the window's margin: the
        fewest run instances any interval left above the tail's deepest
        completion.  ``None`` if tail and head met: the margin fell to
        zero, or consecutive runs do not overlap, so some instance would
        change sides."""
        pos, firsts, lasts = zip(*self.split_log[p : c + 1])
        for j in range(c - p):
            if firsts[j + 1] > lasts[j] + 1 or lasts[j + 1] < lasts[j]:
                return None
        tail: List[bool] = []
        gaps: List[int] = []
        for j, top in enumerate(lasts[:-1]):
            for gi in self.inst_log[pos[j] : pos[j + 1]]:
                below = gi <= top
                tail.append(below)
                if below:
                    gaps.append(top - gi)
        margin = min(gaps, default=0)
        return (tail, margin) if margin >= 1 else None

    def release_fit(self, repeats: int, d_inst: int, d_time: int, log_pos: int, now: int) -> int:
        """Clamp a jump to the repeats over which every release the
        window read moves by exactly the repeat's time shift: each
        consumed ``max(release, ready)`` and each materialization timer
        visited.  An unstarted class's timer must stay beyond the
        replayed span instead."""
        cursor, counts, release = self.cursor, self.counts, self.release
        for c, gate in enumerate(self.gates):
            if not gate.start or cursor[c] >= counts[c] or repeats <= 0:
                continue
            if cursor[c] == 0:
                repeats = min(repeats, (self.timer[c] - now - 1) // d_time)
                continue
            for at in range(cursor[c] - d_inst, cursor[c] + 1):
                repeats = _shift_fit(gate.suffix, at, d_inst, d_time, repeats)
        for at, ready in zip(self.rel_log[log_pos:], self.ready_log[log_pos:]):
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

    def detect(self, now: int) -> int:
        """After a materialization event at ``now``: catch the state up,
        snapshot it, jump if it recurs, and checkpoint it for a chain
        prefix this fold extends.  Returns the completions the jump replayed."""
        self.now = now
        for r, acts in enumerate(self.active):
            if acts and self.sync[r] != now:
                self.settle(r, now)
        replayed = self._recur(now)
        if self.prefix is not None and self.folding and self.cursor[0] < self.counts[0]:
            self.prefix.take(self)
        return replayed

    def _recur(self, now: int) -> int:
        live, cursor, counts = self.live, self.cursor, self.counts
        run = self.idle_run() if self.splits else None
        keyed = len(live) if run is None else len(live) - (run[1] - run[0] + 1)
        if keyed > _LIVE_CAP:
            return 0
        anchor = self.floor if self.splits else min(live)
        head = anchor
        if run is not None:
            head = self.ginst_bases[0] + cursor[0]
            self.split_log.append((len(self.t_log), *run))
        record = (anchor, head, now, len(self.t_log), len(self.rel_log), len(self.split_log) - 1)
        key = self.key(anchor, now, run)
        prev = self.snapshots.get(key)
        if prev is None:
            if len(self.snapshots) >= SNAP_CAP:
                self.folding = False
                self.snapshots.clear()
            else:
                self.snapshots[key] = record
                if self.prefix is not None:
                    self.prefix.note(key, record)
            return 0
        prev_anchor, prev_head, prev_now, prev_log, prev_rel, prev_split = prev
        d_inst, d_head, d_time = anchor - prev_anchor, head - prev_head, now - prev_now
        if d_inst <= 0 or d_head <= 0 or d_time <= 0:
            return 0
        # Matching snapshots mean every *started, unexhausted* class
        # advanced exactly d_head instances over the window (their cursor
        # positions are anchor-relative in the key, or head-relative in
        # a split one); only those consume instances per repeat, so only
        # they bound the repeat count.
        fits = [(n - 1 - cur) // d_head for cur, n in zip(cursor, counts) if 0 < cur < n]
        repeats = min(fits, default=0)
        if repeats <= 0:
            if self.prefix is not None:
                self.prefix.decided(cursor[0] + 1 + d_head, passed=False)
            return 0
        steps = [d_inst] * (len(self.t_log) - prev_log)
        if run is not None:
            window = self.split_window(prev_split, len(self.split_log) - 1)
            if window is None:
                # Tail and head met: measure the next window from here.
                self.snapshots[key] = record
                if self.prefix is not None:
                    self.prefix.note(key, record)
                    self.prefix.decided(cursor[0] + 1 + d_head, passed=True)
                return 0
            tail, margin = window
            steps = [d_inst if below else d_head for below in tail]
            # The run clamp: every repeat keeps a run instance the tail
            # never completes in (see "Split windows"); a shrinking run
            # loses d_inst - d_head of its margin per repeat.
            if d_inst > d_head:
                repeats = min(repeats, (margin - 1) // (d_inst - d_head))
        if repeats > 0 and self.gates is not None:
            repeats = self.release_fit(repeats, d_inst, d_time, prev_rel, now)
        if repeats <= 0:
            return 0
        self.windows.append((prev_log, repeats, steps, d_time))
        self.replayed += repeats * len(steps)
        self.jumps += 1
        self.prefix = None
        self.shift(repeats, d_inst, d_head, d_time, run)
        # Windows spanning a jump cannot be replayed from the log.
        self.snapshots.clear()
        self.split_log = []  # a new list: a chain prefix may hold the old one
        self.rel_log.clear()
        self.ready_log.clear()
        return repeats * len(steps)
