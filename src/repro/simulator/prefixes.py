"""Shared chain prefixes: the checkpoints a chain fold resumes from.

A binding sweep folds one chain template at many chunk counts, and each
fold of :func:`~repro.simulator.vector.run_folded` repeats the same
transient before its first jump.  A :class:`ChainPrefix` keeps that
transient once per template and issue width, as a line of checkpoints;
a fold at any count resumes from the deepest one it may use.  Why that
is exact is the "Shared chain prefixes" section of
:mod:`repro.simulator.vector`.

:func:`chain_prefix` looks a template's prefix up in a per-process
memo, :func:`chain_memo`, which keeps :data:`CHAIN_MEMO_SIZE` prefixes
of at most :data:`MAX_CHECKPOINTS` checkpoints each.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .engine import Task

#: Chain templates (at one issue width each) whose prefix a process
#: keeps, least recently used first out.
CHAIN_MEMO_SIZE = 8

#: Checkpoints one prefix keeps: as many as the snapshots a fold keeps
#: before it gives up on folding.
MAX_CHECKPOINTS = 512

#: Instances between kept checkpoints.  A fold resumes at most this many
#: materializations short of its deepest possible start (some 30 events
#: on a binding chain), and a prefix holds a quarter of the state.
CHECKPOINT_STRIDE = 4


class Checkpoint(NamedTuple):
    """A chain fold's loop state at the top of the loop after a
    materialization event, before its first jump: copies, so folds
    resuming from it cannot change it."""

    cursor: int
    #: the counts it serves, as the repeat clamps so far decided them
    lo: int
    hi: float
    now: int
    completed: int
    events: int
    materialized: int
    floor: int
    known_run: Optional[Tuple[int, int, Tuple[int, ...], int]]
    live: Tuple[int, ...]  #: live instances, in the fold's order
    #: per live instance: (outstanding, unfinished), shared
    states: Tuple[Tuple[Tuple[int, ...], int], ...]
    active: Tuple[Tuple[Tuple[int, int, int], ...], ...]
    pending: Tuple[Tuple[Tuple[int, int, int], ...], ...]
    rr: Tuple[int, ...]
    sync: Tuple[int, ...]
    next_done: Tuple[float, ...]
    logged: int  #: completion-log length
    snapped: int  #: snapshot-journal length
    split: int  #: split-log length


class ChainPrefix:
    """The shared prefix of one chain template's folds at one issue
    width: a line of :class:`Checkpoint` s in cursor order, plus the
    logs of the fold that took the last one (completions, snapshots in
    insertion order, split snapshots), which each checkpoint reads up
    to its own lengths.  Instance states and snapshot-key entries recur
    across checkpoints and snapshots, so each is stored once.

    The fold loop drives it: :meth:`resume_point` and :meth:`resume`
    restore a fold, :meth:`extend` lets the fold take checkpoints
    (:meth:`take`), and while it does it reports its snapshots
    (:meth:`note`) and repeat clamps (:meth:`decided`)."""

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

    def resume(
        self, point: Checkpoint, active: List[list], rr: List[int], sync: List[int],
        next_done: List[float],
    ):
        """Restore ``point`` into a fresh fold: fill its round-robin
        state in place and return the rest as fresh copies, in the
        order the fold loop unpacks them."""
        for acts, saved in zip(active, point.active):
            acts.extend(map(list, saved))
        rr[:] = point.rr
        sync[:] = point.sync
        next_done[:] = point.next_done
        known_run = point.known_run
        if known_run is not None:
            known_run = (known_run[0], known_run[1], list(known_run[2]), known_run[3])
        return (
            point.materialized,
            {gi: [0, list(waits), left] for gi, (waits, left) in zip(point.live, point.states)},
            [list(heap) for heap in point.pending],
            point.now,
            point.completed,
            point.events,
            point.floor,
            known_run,
            dict(self.journal[: point.snapped]),
            *(log[: point.logged] for log in self.log),
            self.split_log[: point.split],
        )

    def extend(self, point: Optional[Checkpoint], log: tuple, split_log: list) -> bool:
        """Whether a fold restored from ``point`` (``None``: started
        afresh) takes checkpoints: only from the last one, or on an
        empty prefix.  If it does, its logs become the prefix's."""
        if point is not (self.checkpoints[-1] if self.checkpoints else None):
            return False
        self.log, self.split_log = log, split_log
        if point is None:
            self.journal, self.lo, self.hi = [], 1, float("inf")
        else:
            self.journal, self.lo, self.hi = self.journal[: point.snapped], point.lo, point.hi
        return True

    def take(
        self, cursor, now, completed, events, materialized, floor, known_run,
        live, active, pending, rr, sync, next_done,
    ) -> None:
        """Checkpoint the fold's loop state, unless the line is full or
        its last checkpoint lies fewer than :data:`CHECKPOINT_STRIDE`
        instances back."""
        line = self.checkpoints
        if len(line) >= MAX_CHECKPOINTS or line and cursor < line[-1].cursor + CHECKPOINT_STRIDE:
            return
        if known_run is not None:
            known_run = (known_run[0], known_run[1], self._share(tuple(known_run[2])), known_run[3])
        self.checkpoints.append(
            Checkpoint(
                cursor, self.lo, self.hi, now, completed, events, materialized, floor,
                known_run,
                tuple(live),
                tuple(self._share((tuple(st[1]), st[2])) for st in live.values()),
                tuple(tuple(map(tuple, acts)) for acts in active),
                tuple(map(tuple, pending)),
                tuple(rr), tuple(sync), tuple(next_done),
                len(self.log[2]), len(self.journal), len(self.split_log),
            )
        )

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
