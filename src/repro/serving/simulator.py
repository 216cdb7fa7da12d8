"""Open-loop serving on the event core: arrivals joining a live schedule.

Closed scenarios declare every instance up front; a serving stack sees
requests *arrive*.  This module bridges the two without touching either
scheduling engine, by encoding the dynamics as ordinary task-graph
structure:

- **Arrivals** become a chain of zero-fan-in ``CLK[g]`` tasks on a
  dedicated ``clock`` resource, one per distinct arrival time, each
  lasting the gap to the previous one — so ``CLK[g]`` *finishes* exactly
  at arrival time ``t_g``, and a request gated on its clock task cannot
  start early.  One chained resource keeps the event core's per-event
  resource scan O(1) in the request count.
- **Continuous batching** is a FIFO admission window: request ``j``'s
  dependency-free tasks additionally wait on the completion sinks of
  request ``j - max_inflight``, so at most ``max_inflight`` requests are
  in flight and a finishing request frees its slot to the next arrival —
  admission, not reordering, exactly like a serving scheduler's queue.
- **Requests** are the existing per-instance graphs: one prefill graph
  (:func:`~repro.simulator.pipeline.build_tasks`) chained into
  ``decode_tokens`` decode steps
  (:func:`~repro.simulator.pipeline.build_decode_tasks`), each step
  gated on the previous step's accumulate.  Per-request
  :func:`~repro.simulator.engine.lower_dram` makes DRAM transfers
  arrive-gated too (the lowering is per-task-local, so lowering per
  request equals lowering the merged graph).
- **Decode-first QoS** is a priority key.  Each decode step's DRAM
  transfers are gated on the step (just in time) and are *urgent*:
  they issue ahead of every other ready task, each group in merged
  order (the :class:`~repro.simulator.engine.FlatGraph` heap key).

Stamped templates
-----------------

Requests of one shape — ``(chunks, decode_tokens, chip)`` — have the
same graph up to their ``r{j}:`` name prefix.  So
:func:`simulate_serving` builds :func:`_request_graph` once per shape,
compiles it to a :class:`~repro.simulator.engine.FlatGraph` (its
readiness frontier), and stamps a copy per request at its offset in
merged order: the clock chain first, then request 0, request 1, and so
on.  A stamped request's dependency-free tasks wait on its
:func:`_gate`.  The result runs on the integer event core
(:func:`~repro.simulator.events.run_flat`); no merged ``Task`` list,
no per-request name and no pass over the whole graph's deps is made.

Why this is exact: stamping yields what
:meth:`~repro.simulator.engine.FlatGraph.from_tasks` compiles from the
merged task list of :func:`build_serving_tasks`, which comes from the
same per-request helper and :func:`_gate`.  That list is laid out in
key order (the stable partition that floats urgent tasks ahead), while
the stamped graph keeps merged order and marks the urgent tasks; the
engines consult order only to pick among ready tasks.  The ``serving``
fuzz family in ``tests/test_serving.py`` checks both the frontier and
the schedule (against the cycle oracle on the named graph).

Everything else — array-slot contention, issue disciplines, DRAM
bandwidth arbitration, the vector/cycle engine equivalence — applies to
the dynamic population unchanged, because the population *is* a static
graph once the clock chain encodes time.

An all-zero arrival batch with a wide-open window degenerates to the
closed :class:`~repro.workloads.scenario.Scenario` schedule exactly
(the clock tasks are zero-duration, hence done at t=0 and ignored by
the readiness frontier) — the equivalence ``tests/test_serving.py``
locks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..cluster.build import instance_out_bytes
from ..cluster.spec import LINK_RESOURCE
from ..simulator.engine import (
    DRAM_RESOURCE,
    ENGINES,
    FlatGraph,
    SimResult,
    Simulator,
    Task,
    lower_dram,
    task_index,
    transfer_cycles,
)
from ..simulator.events import run_flat
from ..simulator.pipeline import (
    PipelineConfig,
    apply_buffer_spills,
    build_decode_tasks,
    build_tasks,
    instance_spill_bytes,
)
from ..workloads.scenario import BINDINGS, QOS_MODES, schedule_form
from .arrivals import Arrival, check_sorted
from .metrics import RequestMetrics, ServingResult

__all__ = [
    "CLOCK_RESOURCE",
    "RequestPlan",
    "ServingSpec",
    "build_serving_tasks",
    "serving_sim",
    "simulate_serving",
]

#: Resource name of the arrival clock chain (never contended: the chain
#: is linear, so at most one clock task is ready at a time).
CLOCK_RESOURCE = "clock"


@dataclass(frozen=True)
class ServingSpec:
    """One open-loop serving workload over one array configuration.

    Like :class:`~repro.workloads.scenario.Scenario`, the spec is
    declarative and complete: equal specs describe the same schedule and
    any field difference changes the runtime cache key (task kind
    ``"serve"``).  ``rate`` records the offered load that generated
    ``arrivals`` (None for trace-driven workloads) — it is reporting
    metadata, but deliberately part of the identity.  ``deadline`` is
    the SLO (cycles from arrival to last token) that goodput is
    measured against; ``max_inflight`` is the continuous-batching
    window.  ``slots`` normalizes to 1 under ``tile-serial`` exactly as
    scenarios do.

    ``n_chips`` spreads requests over a cluster of identical arrays —
    request parallelism, the decode-side sharding policy of
    :mod:`repro.cluster` — assigning request ``j`` to chip ``j %
    n_chips`` (its resources become ``c{k}:``-prefixed, exactly like the
    sharded scenario lowering).  ``link_bw``/``link_latency`` price each
    request's prefill-output gather (KV publication to the other chips)
    on the shared ``link`` resource before its decode steps run, so
    concurrent requests contend for the interconnect under load.  The
    graph is built from the spec's
    :func:`~repro.workloads.scenario.schedule_form`, which has no link
    at one chip or at ``link_bw=None``/``inf``: one chip builds a
    byte-identical graph to the unclustered spec, and an infinite link
    the same graph as an unmodeled one, as in the cluster lowering.

    ``buffer_bytes`` models the per-request on-chip buffer exactly as
    ``Scenario.buffer_bytes`` does: working-set overflow spills and
    refills (inflating each request's DRAM traffic) and the dram
    lowering bounds prefetch depth to the capacity.
    ``qos="decode-first"`` reclassifies every in-flight request's
    *decode* DRAM transfers as an urgent stream: they issue
    just-in-time (gated with their decode step instead of prefetching
    at admission) and take priority over prefill bulk transfers at the
    shared memory link — the knob that answers "what happens to decode
    TBT under a prefill burst".  Under ``"uniform"`` all transfers are
    one prefetched bulk stream arbitrated FIFO, which favors whoever
    arrived first; ``"decode-first"`` trades prefetch depth on the
    decode stream for arbitration priority, protecting token gaps of
    requests decoding *behind* a large queued prefill.  The defaults
    (None, ``"uniform"``) are byte-identical to the historical graphs.
    """

    name: str
    arrivals: Tuple[Arrival, ...]
    binding: str = "interleaved"
    embedding: int = 64
    array_dim: int = 256
    pe_1d: Optional[int] = None
    slots: int = 2
    max_inflight: int = 8
    deadline: Optional[int] = None
    dram_bw: Optional[float] = None
    n_chips: int = 1
    link_bw: Optional[float] = None
    link_latency: int = 0
    rate: Optional[float] = None
    buffer_bytes: Optional[float] = None
    qos: str = "uniform"

    def __post_init__(self) -> None:
        check_sorted(self.arrivals)
        if self.binding not in BINDINGS:
            raise ValueError(f"unknown binding {self.binding!r}; have {BINDINGS}")
        if self.embedding < 1:
            raise ValueError(f"embedding must be >= 1, got {self.embedding}")
        if self.array_dim < 1:
            raise ValueError(f"array_dim must be >= 1, got {self.array_dim}")
        if self.pe_1d is not None and self.pe_1d < 1:
            raise ValueError(f"pe_1d must be >= 1, got {self.pe_1d}")
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.deadline is not None and self.deadline < 1:
            raise ValueError(f"deadline must be >= 1, got {self.deadline}")
        if self.dram_bw is not None and not self.dram_bw > 0:
            raise ValueError(f"dram_bw must be > 0, got {self.dram_bw}")
        if self.n_chips < 1:
            raise ValueError(f"n_chips must be >= 1, got {self.n_chips}")
        if self.link_bw is not None and not self.link_bw > 0:
            raise ValueError(f"link_bw must be > 0, got {self.link_bw}")
        if self.link_latency < 0:
            raise ValueError(f"link_latency must be >= 0, got {self.link_latency}")
        if self.rate is not None and not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.buffer_bytes is not None and not self.buffer_bytes > 0:
            raise ValueError(f"buffer_bytes must be > 0, got {self.buffer_bytes}")
        if self.qos not in QOS_MODES:
            raise ValueError(f"unknown qos {self.qos!r}; have {QOS_MODES}")
        if self.binding == "tile-serial":
            object.__setattr__(self, "slots", 1)

    @property
    def resolved_pe_1d(self) -> int:
        return self.pe_1d if self.pe_1d is not None else self.array_dim

    @property
    def n_requests(self) -> int:
        return len(self.arrivals)

    @property
    def seq_len(self) -> int:
        """Longest per-request prefill length (for grid summaries)."""
        chunks = [a.chunks for a in self.arrivals]
        return max(chunks, default=0) * self.array_dim

    def describe(self) -> str:
        """One-line summary for CLI output and run-registry records."""
        load = "trace" if self.rate is None else f"rate={self.rate:g}/kcy"
        tail = f"E={self.embedding}"
        if self.dram_bw is not None:
            tail += f", bw={self.dram_bw:g}"
        if self.buffer_bytes is not None:
            tail += f", buf={self.buffer_bytes:g}"
        if self.qos != "uniform":
            tail += f", qos={self.qos}"
        if self.deadline is not None:
            tail += f", slo={self.deadline}"
        if self.n_chips > 1:
            tail += f", chips={self.n_chips}"
            if self.link_bw is not None:
                tail += f", link={self.link_bw:g}+{self.link_latency}"
        return (
            f"{self.name}: {self.n_requests}req ({load}, window {self.max_inflight}) on "
            f"{self.array_dim}x{self.array_dim}+{self.resolved_pe_1d} ({self.binding}, {tail})"
        )


@dataclass(frozen=True)
class RequestPlan:
    """Where one request's milestones live in the built graph.

    ``gate`` names the tasks whose completion admits the request (its
    clock task, plus the window predecessor's finish sinks);
    ``prefill_sinks`` complete when its first token is ready;
    ``token_sinks`` hold one accumulate task per decode token.  On a
    multi-chip spec ``chip`` is the array the request ran on and
    ``gather`` the link task publishing its prefill output (empty when
    the interconnect is unmodeled).
    """

    index: int
    arrival: Arrival
    gate: Tuple[str, ...]
    prefill_sinks: Tuple[str, ...]
    token_sinks: Tuple[str, ...]
    chip: int = 0
    gather: Tuple[str, ...] = ()

    @property
    def finish_sinks(self) -> Tuple[str, ...]:
        """Tasks whose completion ends the request (last decode token,
        or the gather/prefill sinks for a prefill-only request)."""
        if self.token_sinks:
            return (self.token_sinks[-1],)
        return self.gather or self.prefill_sinks


def _sinks(tasks: Sequence[Task]) -> Tuple[str, ...]:
    """Tasks no other task in ``tasks`` depends on, in build order."""
    depended = {dep for task in tasks for dep in task.deps}
    return tuple(task.name for task in tasks if task.name not in depended)


#: Decode-step tasks live in a ``r{i}:t{step}:`` namespace; prefill
#: tasks never carry a ``t{step}:`` segment, so the name alone
#: classifies a lowered DRAM transfer's stream (and its step index).
_DECODE_STEP = re.compile(r":t(\d+):")


def _gated(tasks: Sequence[Task], gate: Tuple[str, ...]) -> List[Task]:
    """Hang every dependency-free task on ``gate``."""
    return [replace(task, deps=gate) if not task.deps else task for task in tasks]


def _config(spec: ServingSpec, arrival: Arrival) -> PipelineConfig:
    return PipelineConfig(
        chunks=arrival.chunks,
        embedding=spec.embedding,
        array_dim=spec.array_dim,
        pe_1d=spec.resolved_pe_1d,
    )


def _clock_chain(arrivals: Sequence[Arrival]) -> Tuple[List[Task], Dict[int, int]]:
    """The arrival clock chain, and each arrival time's position in it.

    One clock task per *distinct* arrival time: a duration-0 segment in
    the middle of the chain would be treated as done at t=0 by the
    readiness frontier, so requests sharing a timestamp share a gate.
    (The only zero-duration clock task is a first arrival at t=0, where
    done-at-0 is exactly right.)  The chain heads both graph layouts, so
    a position is also the clock task's id in the stamped graph.
    """
    chain: List[Task] = []
    position: Dict[int, int] = {}
    prev_time = 0
    for g, time in enumerate(sorted({a.at for a in arrivals})):
        deps = (chain[-1].name,) if chain else ()
        chain.append(Task(f"CLK[{g}]", CLOCK_RESOURCE, time - prev_time, deps))
        position[time] = g
        prev_time = time
    return chain, position


def _gate(clock, finish_sinks: Sequence[tuple], window: int) -> tuple:
    """What admits the next request: its arrival's clock task, plus — the
    FIFO admission window — the finish sinks of the request ``window``
    places ahead.  ``finish_sinks`` holds every earlier request's, as
    names or as ids; the gate comes back in the same terms."""
    ahead = len(finish_sinks) - window
    return (clock,) + (finish_sinks[ahead] if ahead >= 0 else ())


def _request_graph(
    spec: ServingSpec, index: int, arrival: Arrival
) -> Tuple[List[Task], Tuple[int, ...], RequestPlan]:
    """Request ``index``'s graph, before its admission gate.

    Every per-request encoding rule lives here: prefill graph and
    buffer spills, the link gather, the decode-step chain, the
    per-request DRAM lowering, decode-first's just-in-time transfers
    and the chip prefix.  Returns the tasks (dependency-free ones still
    ungated), the ids of those decode-first issues first (ascending),
    and the request's plan with an empty ``gate``.  ``spec`` is a
    :func:`~repro.workloads.scenario.schedule_form`, so a spec with a
    link has more than one chip and a finite bandwidth.
    """
    prefix = f"r{index}:"
    chip = index % spec.n_chips
    config = _config(spec, arrival)
    graph = build_tasks(config, serial=spec.binding == "tile-serial", prefix=prefix)
    graph = apply_buffer_spills(graph, config, "prefill", spec.buffer_bytes, prefix)
    prefill_sinks = _sinks(graph)
    prev_sinks = prefill_sinks
    gather: Tuple[str, ...] = ()
    if spec.link_bw is not None:
        # Publish the prefill output (the request's KV shard) to the
        # other chips before decode proceeds — the cross-chip
        # dependency that makes the link a contended shared
        # resource.  Same arithmetic as the cluster lowering's
        # all-gather: (n_chips - 1) peer copies of one instance's
        # output, priced by transfer_cycles plus the hop latency.
        moved = instance_out_bytes(config, "prefill") * (spec.n_chips - 1)
        cycles = transfer_cycles(moved, spec.link_bw) + spec.link_latency
        graph.append(Task(f"{prefix}AG", LINK_RESOURCE, cycles, prefill_sinks))
        gather = (f"{prefix}AG",)
        prev_sinks = gather
    token_sinks: List[str] = []
    step_gates: List[Tuple[str, ...]] = []
    for step in range(arrival.decode_tokens):
        step_prefix = f"{prefix}t{step}:"
        step_tasks = build_decode_tasks(config, prefix=step_prefix)
        step_tasks = apply_buffer_spills(
            step_tasks, config, "decode", spec.buffer_bytes, step_prefix
        )
        # Chain: the step's dependency-free tasks wait on the
        # previous step's accumulate (or the gather/prefill sinks).
        step_gates.append(prev_sinks)
        step_tasks = _gated(step_tasks, prev_sinks)
        prev_sinks = _sinks(step_tasks)
        token_sinks.extend(prev_sinks)
        graph.extend(step_tasks)
    # Lower DRAM traffic per request *before* gating, so the transfer
    # tasks are arrive-gated too (the memory system cannot stream a
    # request that has not arrived).  lower_dram inserts per task, so
    # per-request lowering equals whole-graph lowering.  A finite
    # buffer_bytes bounds each request's prefetch window.
    graph = lower_dram(graph, spec.dram_bw, spec.buffer_bytes)
    urgent: List[int] = []
    if spec.qos == "decode-first":
        # Decode streams issue just-in-time: each step's DRAM transfers
        # wait on the step's own gate instead of prefetching at
        # admission, so prioritizing them (ahead of all other ready tasks) means
        # "cut ahead of queued prefill bulk when a token needs data"
        # rather than "stream the whole decode working set before the
        # request's own prefill".
        for i, task in enumerate(graph):
            match = _DECODE_STEP.search(task.name)
            if task.resource != DRAM_RESOURCE or match is None:
                continue
            urgent.append(i)
            gate_deps = step_gates[int(match.group(1))]
            extra = tuple(d for d in gate_deps if d not in task.deps)
            graph[i] = replace(task, deps=task.deps + extra)
    if spec.n_chips > 1:
        # The request's compute and DRAM traffic live on its own
        # chip's resources; only the link (and the clock) is shared.
        graph = [
            task
            if task.resource == LINK_RESOURCE
            else replace(task, resource=f"c{chip}:{task.resource}")
            for task in graph
        ]
    plan = RequestPlan(
        index=index,
        arrival=arrival,
        gate=(),
        prefill_sinks=prefill_sinks,
        token_sinks=tuple(token_sinks),
        chip=chip,
        gather=gather,
    )
    return graph, tuple(urgent), plan


def _merged_tasks(spec: ServingSpec) -> Tuple[List[Task], List[int], List[RequestPlan]]:
    """The serving graph in merged order — the clock chain, then each
    request's gated graph — with its urgent task ids (ascending) and one
    :class:`RequestPlan` per arrival."""
    spec = schedule_form(spec)
    clock, position = _clock_chain(spec.arrivals)
    tasks = list(clock)
    urgent: List[int] = []
    plans: List[RequestPlan] = []
    finish_sinks: List[Tuple[str, ...]] = []
    for index, arrival in enumerate(spec.arrivals):
        graph, ids, plan = _request_graph(spec, index, arrival)
        gate = _gate(clock[position[arrival.at]].name, finish_sinks, spec.max_inflight)
        urgent.extend([len(tasks) + i for i in ids])
        tasks.extend(_gated(graph, gate))
        plans.append(replace(plan, gate=gate))
        finish_sinks.append(plan.finish_sinks)
    return tasks, urgent, plans


def build_serving_tasks(spec: ServingSpec) -> Tuple[List[Task], List[RequestPlan]]:
    """The full serving graph, named: clock chain + gated request graphs.

    Returns the merged task list, in issue-priority order, plus one
    :class:`RequestPlan` per arrival, index-aligned with
    ``spec.arrivals``.  :func:`simulate_serving` never builds this
    list; it is the cycle oracle's input and the graph tests inspect.
    """
    tasks, urgent, plans = _merged_tasks(spec)
    # The engines issue ready tasks in program order, so the named list is
    # laid out in key order: a stable partition floating urgent tasks ahead.
    first = set(urgent)
    ordered = [tasks[i] for i in urgent] + [t for i, t in enumerate(tasks) if i not in first]
    return ordered, plans


def _stamped_graph(spec: ServingSpec) -> Tuple[FlatGraph, List[tuple]]:
    """``spec``'s serving graph as integer ids, one template per shape.

    Compiles the clock chain and one :func:`_request_graph` per
    ``(chunks, decode_tokens, chip)``, then stamps a copy per request in
    merged order, its dependency-free tasks gated on its :func:`_gate`.
    Also returns each request's ``(gate, prefill_sinks, finish_sinks)``.
    """
    spec = schedule_form(spec)
    clock, position = _clock_chain(spec.arrivals)
    templates = [(FlatGraph.from_tasks(clock), ())]
    placements: List[Tuple[int, tuple]] = [(0, ())]
    shapes: Dict[Tuple[int, int, int], tuple] = {}
    finish_sinks: List[Tuple[int, ...]] = []
    milestones = []
    offset = len(clock)
    for index, arrival in enumerate(spec.arrivals):
        key = (arrival.chunks, arrival.decode_tokens, index % spec.n_chips)
        if key not in shapes:
            graph, urgent, plan = _request_graph(spec, index, arrival)
            local = task_index(graph)
            prefill = tuple(local[name] for name in plan.prefill_sinks)
            shapes[key] = (len(templates), prefill, tuple(local[n] for n in plan.finish_sinks))
            roots = tuple(i for i, task in enumerate(graph) if not task.deps)
            templates.append((FlatGraph.from_tasks(graph, urgent), roots))
        template, prefill, sinks = shapes[key]
        gate = _gate(position[arrival.at], finish_sinks, spec.max_inflight)
        placements.append((template, gate))
        sinks = tuple(offset + i for i in sinks)
        finish_sinks.append(sinks)
        milestones.append((gate, tuple(offset + i for i in prefill), sinks))
        offset += len(templates[template][0].durations)
    return FlatGraph.stamp(templates, placements), milestones


def serving_sim(
    spec: ServingSpec, engine: str = "vector"
) -> Tuple[List[Task], List[RequestPlan], SimResult]:
    """Build and schedule ``spec``'s named serving graph."""
    tasks, plans = build_serving_tasks(spec)
    sim = Simulator(
        tasks,
        mode="serial" if spec.binding == "tile-serial" else "interleaved",
        slots=spec.slots,
        engine=engine,
    )
    return tasks, plans, sim.run(max_cycles=_budget(t.duration for t in tasks))


def _budget(durations: Iterable[int]) -> int:
    # Same budget argument as the closed scenarios: while work remains,
    # some resource issues every cycle — during arrival gaps that
    # resource is the clock chain itself — so the makespan can never
    # exceed the summed durations.
    return sum(durations) + 1


def simulate_serving(spec: ServingSpec, engine: str = "vector") -> ServingResult:
    """Schedule one serving workload and reduce it to SLO metrics.

    The production path (``"vector"``) schedules the stamped integer
    graph on :func:`~repro.simulator.events.run_flat`; ``"cycle"`` runs
    the oracle on the named graph of :func:`build_serving_tasks`.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; have {ENGINES}")
    if not spec.arrivals:
        # An empty trace (e.g. a duration shorter than the first draw)
        # is a valid, trivially idle workload.
        milestones, finish, n_tasks, makespan, busy = [], [], 0, 0, {}
    elif engine == "cycle":
        tasks, plans, result = serving_sim(spec, engine=engine)
        milestones = [(p.gate, p.prefill_sinks, p.finish_sinks) for p in plans]
        finish, n_tasks = result.finish_times, len(tasks)
        makespan, busy = result.makespan, result.busy_cycles
    else:
        graph, milestones = _stamped_graph(spec)
        makespan, busy_ids, finish = run_flat(graph, spec.slots, _budget(graph.durations))
        n_tasks, busy = len(graph.durations), dict(zip(graph.resources, busy_ids))
    requests = tuple(
        RequestMetrics(
            index=index,
            arrival=arrival.at,
            chunks=arrival.chunks,
            decode_tokens=arrival.decode_tokens,
            admitted=max(finish[task] for task in gate),
            first_token=max(finish[task] for task in prefill),
            finish=max(finish[task] for task in done),
        )
        for index, (arrival, (gate, prefill, done)) in enumerate(
            zip(spec.arrivals, milestones)
        )
    )

    def total(base: str) -> int:
        # Cluster-wide busy cycles: on a multi-chip spec each chip's
        # resources are ``c{k}:``-prefixed, so the report sums them.
        return busy.get(base, 0) + sum(
            cycles
            for name, cycles in busy.items()
            if name.endswith(f":{base}") and name != base
        )

    # Spill traffic is a function of the request shape alone.
    spill_of: Dict[Tuple[int, int], int] = {}
    for arrival in spec.arrivals:
        shape = (arrival.chunks, arrival.decode_tokens)
        if shape not in spill_of:
            config = _config(spec, arrival)
            prefill_spill = instance_spill_bytes(config, "prefill", spec.buffer_bytes)
            decode_spill = instance_spill_bytes(config, "decode", spec.buffer_bytes)
            spill_of[shape] = prefill_spill + arrival.decode_tokens * decode_spill
    spill = sum(spill_of[(a.chunks, a.decode_tokens)] for a in spec.arrivals)

    return ServingResult(
        name=spec.name,
        binding=spec.binding,
        rate=spec.rate,
        max_inflight=spec.max_inflight,
        deadline=spec.deadline,
        array_dim=spec.array_dim,
        pe_1d=spec.resolved_pe_1d,
        embedding=spec.embedding,
        slots=spec.slots,
        dram_bw=spec.dram_bw,
        n_tasks=n_tasks,
        makespan=makespan,
        busy_2d=total("2d"),
        busy_1d=total("1d"),
        busy_io=total("io"),
        busy_dram=total("dram"),
        requests=requests,
        buffer_bytes=spec.buffer_bytes,
        qos=spec.qos,
        spill_bytes=spill,
    )
