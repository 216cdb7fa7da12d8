"""Shared chain prefixes: the checkpoints a chain fold resumes from.

A binding sweep folds one chain template at many chunk counts, and each
fold of :func:`~repro.simulator.vector.run_folded` repeats the same
transient: the interleaved chain's period is about 128 instances, so
its first snapshot match lies some 1,800 events in.  A fold given a
:class:`ChainPrefix` (one per template and issue width, from
:func:`chain_prefix`) shares that transient across counts.  Until its
first jump it takes a *checkpoint* after each materialization event
(keeping one per few instances): a copy of its whole
:class:`~repro.simulator.foldstate.FoldState` but the logs, whose
lengths it notes instead, since the prefix keeps the logs of the fold
that took the last checkpoint.  A fold of the same template at any
count ``N`` restores the deepest checkpoint it may use, one whose
cursor is below ``N``, and runs on with its own count, budget and
repeat clamp.

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
(or starts on an empty prefix) takes more.  :func:`chain_prefix` looks
a template's prefix up in a per-process memo, :func:`chain_memo`, which
keeps :data:`CHAIN_MEMO_SIZE` prefixes of at most
:data:`MAX_CHECKPOINTS` checkpoints each.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .engine import Task
from .foldstate import SNAP_CAP, FoldState

#: Chain templates (at one issue width each) whose prefix a process
#: keeps, least recently used first out.
CHAIN_MEMO_SIZE = 8

#: Checkpoints one prefix keeps: as many as the snapshots a fold keeps
#: before it gives up on folding.
MAX_CHECKPOINTS = SNAP_CAP

#: Instances between kept checkpoints.  A fold resumes at most this many
#: materializations short of its deepest possible start (some 30 events
#: on a binding chain), and a prefix holds a quarter of the state.
CHECKPOINT_STRIDE = 4


class Checkpoint(NamedTuple):
    """A chain fold's state before its first jump, and its place in the prefix's logs."""

    cursor: int
    #: the counts it serves, as the repeat clamps so far decided them
    lo: int
    hi: float
    now: int
    state: FoldState  #: a :meth:`~repro.simulator.foldstate.FoldState.copy`
    logged: int  #: completion-log length
    snapped: int  #: snapshot-journal length
    split: int  #: split-log length


class ChainPrefix:
    """The shared prefix of one chain template's folds at one issue
    width: a line of :class:`Checkpoint` s in cursor order, plus the
    logs of the fold that took the last one (completions, snapshots in
    insertion order, split snapshots), which each checkpoint reads up
    to its own lengths.  Instance states and snapshot-key entries recur
    across checkpoints and snapshots, so each is stored once.  A fold
    finds a checkpoint (:meth:`resume_point`) and restores it
    (:meth:`resume`); one that extends the line takes checkpoints
    (:meth:`take`) and reports snapshots (:meth:`note`) and repeat
    clamps (:meth:`decided`)."""

    def __init__(self, slots: int) -> None:
        self.slots = slots
        self.checkpoints: List[Checkpoint] = []
        self.log: Tuple[List[int], List[int], List[int]] = ([], [], [])
        self.journal: List[Tuple[tuple, tuple]] = []
        self.split_log: List[Tuple[int, int, int]] = []
        #: the counts the next checkpoint serves
        self.lo, self.hi = 1, float("inf")
        self._shared: Dict[tuple, tuple] = {}

    def _share(self, value: tuple) -> tuple:
        return self._shared.setdefault(value, value)

    def resume_point(self, count: int) -> Optional[Checkpoint]:
        """The deepest checkpoint a fold of ``count`` instances may
        resume from: its cursor below ``count``, and ``count`` inside
        the range its repeat clamps leave."""
        for point in reversed(self.checkpoints):
            if point.cursor < count and point.lo <= count <= point.hi:
                return point
        return None

    def resume(self, point: Optional[Checkpoint], state: FoldState) -> None:
        """Restore ``point`` (``None``: none) into a fresh fold's ``state``,
        logs up to the checkpoint's lengths.  A fold restored from the
        last checkpoint, or started on an empty prefix, extends the line:
        its logs become the prefix's, and it checkpoints until it jumps."""
        if point is not None:
            state.restore(point.state)
            for log, kept in zip((state.inst_log, state.tid_log, state.t_log), self.log):
                log[:] = kept[: point.logged]
            state.snapshots.update(self.journal[: point.snapped])
            state.split_log[:] = self.split_log[: point.split]
        if point is not (self.checkpoints[-1] if self.checkpoints else None):
            return
        state.prefix = self
        self.log = (state.inst_log, state.tid_log, state.t_log)
        self.split_log = state.split_log
        if point is None:
            self.journal, self.lo, self.hi = [], 1, float("inf")
        else:
            self.journal, self.lo, self.hi = self.journal[: point.snapped], point.lo, point.hi

    def take(self, state: FoldState) -> None:
        """Checkpoint the fold's state, unless the line is full or its
        last checkpoint lies fewer than :data:`CHECKPOINT_STRIDE`
        instances back."""
        line = self.checkpoints
        cursor = state.cursor[0]
        if len(line) >= MAX_CHECKPOINTS or line and cursor < line[-1].cursor + CHECKPOINT_STRIDE:
            return
        line.append(Checkpoint(
            cursor, self.lo, self.hi, state.now, state.copy(self._share),
            len(self.log[2]), len(self.journal), len(self.split_log),
        ))

    def note(self, key: tuple, record: tuple) -> None:
        """Journal a snapshot the fold stored, each keyed instance's
        entry held once."""
        res_state, inst_state, *rest = key
        self.journal.append(((res_state, tuple(map(self._share, inst_state)), *rest), record))

    def decided(self, threshold: int, passed: bool) -> None:
        """A snapshot match's repeat clamp, which counts of
        ``threshold`` or more pass, decided the fold's next step
        (``passed``): later checkpoints serve only the counts it
        decides the same way."""
        if passed:
            self.lo = max(self.lo, threshold)
        else:
            self.hi = min(self.hi, threshold - 1)


@lru_cache(maxsize=CHAIN_MEMO_SIZE)
def chain_memo(graph: Tuple[Tuple[str, str, int, Tuple[str, ...]], ...], slots: int) -> ChainPrefix:
    """The process's memo of chain prefixes, keyed by what a chain fold
    reads of its template (each task's name, resource, duration and
    deps) and the issue width.  ``chain_memo.cache_info()`` counts the
    folds that found their template's prefix (hits) and those that
    started one (misses); ``chain_memo.cache_clear()`` empties it."""
    return ChainPrefix(slots)


def chain_prefix(tasks: Sequence[Task], slots: int) -> ChainPrefix:
    """The :class:`ChainPrefix` of the two-instance chain ``tasks``
    (:func:`~repro.simulator.vector.fold_chain`'s input) at ``slots``
    issue slots, from :func:`chain_memo`: empty on first use."""
    return chain_memo(tuple((t.name, t.resource, t.duration, t.deps) for t in tasks), slots)
