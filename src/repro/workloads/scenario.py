"""Scenario IR: multi-(batch, head) attention workloads over one machine.

The analytical models evaluate a single ``(batch, head)`` attention
instance and scale by ``B × H``; the binding simulator schedules a single
instance's task graph.  Neither answers the paper's real question — how
``B × H`` instances *contend* for the shared 2D/1D arrays — and without a
common description the two layers cannot check each other.

A :class:`Scenario` is that common description: a declarative spec of N
``(batch, head)`` attention instances (grouped into prefill and optional
decode :class:`Phase` entries, each phase optionally pinned to its own
model's embedding width) bound to one PE-array configuration under one
binding, optionally behind one shared DRAM link (``dram_bw`` bytes per
cycle).  Every layer consumes it:

- the simulator replicates the per-instance binding graph N ways with
  shared-slot contention (:func:`repro.simulator.pipeline
  .build_scenario_tasks`) and schedules the merged graph;
- the analytical models derive per-array utilization bounds from the
  same per-chunk work totals (:mod:`repro.model.scenario`), replacing
  the bare ``B × H`` latency scale with an explicit overlap bound;
- a :class:`~repro.api.Session` evaluates scenario grids
  (:func:`repro.runtime.executor.scenario_grid`, task kind
  ``"scenario"``) with results cached content-addressed on every field,
  and ``repro simulate --scenario`` / ``repro crosscheck`` drive both
  layers and diff them.

This module is deliberately dependency-light (workloads only): the
simulator and model layers import it, never the other way around.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence, Tuple, TypeVar

from .models import BATCH_SIZE, MODELS_BY_NAME, ModelConfig

#: The two bindings of Fig. 4/5, in presentation order.  Defined here —
#: the bottom of the layer stack — so the workload, simulator, model,
#: and runtime layers all validate against one tuple.
BINDINGS: Tuple[str, ...] = ("tile-serial", "interleaved")

#: Phase kinds a scenario may mix.
PHASE_KINDS: Tuple[str, ...] = ("prefill", "decode")

#: DRAM quality-of-service disciplines a scenario may request.
#: ``"uniform"`` keeps the historical program-order arbitration;
#: ``"decode-first"`` grants every decode phase one extra priority
#: level, so latency-critical decode streams win ties at the shared
#: resources over bulk prefill traffic.
QOS_MODES: Tuple[str, ...] = ("uniform", "decode-first")

Spec = TypeVar("Spec")


def schedule_form(spec: Spec) -> Spec:
    """``spec`` as a schedule reads it: the one place the degenerate
    identities are decided.

    A schedule never reads a name, so the name is blanked.  An infinite
    ``dram_bw`` prices every transfer at zero cycles and an infinite
    ``buffer_bytes`` spills nothing, so both become None, the unmodeled
    memory.  A link no collective can occupy (one chip, or no or an
    infinite bandwidth) becomes no link: ``link_bw=None`` and
    ``link_latency=0``.  Every other field is kept.

    Takes any frozen spec with some of these fields: a
    :class:`Scenario`, a :class:`~repro.cluster.spec.ClusterSpec` or a
    :class:`~repro.serving.simulator.ServingSpec`.  The lowerings build
    their graphs from this form, and the schedule keys digest it, so
    specs with equal forms are one schedule.
    """
    present = {f.name for f in fields(spec)}
    changes: dict = {"name": ""} if "name" in present else {}
    for axis in ("dram_bw", "buffer_bytes"):
        if axis in present and getattr(spec, axis) == math.inf:
            changes[axis] = None
    if "link_bw" in present and (
        spec.n_chips == 1 or spec.link_bw in (None, math.inf)
    ):
        changes.update(link_bw=None, link_latency=0)
    return replace(spec, **changes)


@dataclass(frozen=True)
class Phase:
    """One homogeneous group of attention instances.

    ``instances`` counts independent ``(batch, head)`` slices.  For a
    ``prefill`` phase ``chunks`` is the per-instance M1 chunk count (the
    sequence length in units of the array dimension); for a ``decode``
    phase it is the KV-cache context length in the same units.

    ``embedding`` overrides the scenario's embedding depth for this
    phase only — the mechanism by which one merged schedule spans
    *different models* (e.g. BERT heads at E=64 next to XLM heads at
    E=128).  ``model`` optionally names the workload model the phase was
    derived from; when set, the phase's embedding is pinned to that
    model's ``d_head`` and any explicit mismatch is rejected here —
    before any task graph is built.

    ``dram_priority`` is the phase's arbitration priority at the shared
    resources (higher wins ties; 0 for all phases reproduces the
    historical program-order schedule exactly).  The scenario-level
    ``qos="decode-first"`` discipline adds one level to every decode
    phase on top of this explicit offset.
    """

    kind: str
    instances: int
    chunks: int
    embedding: Optional[int] = None
    model: Optional[str] = None
    dram_priority: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise ValueError(
                f"unknown phase kind {self.kind!r}; have {PHASE_KINDS}"
            )
        if self.instances < 1:
            raise ValueError(f"phase instances must be >= 1, got {self.instances}")
        if self.chunks < 1:
            raise ValueError(f"phase chunks must be >= 1, got {self.chunks}")
        if self.embedding is not None and self.embedding < 1:
            raise ValueError(
                f"phase embedding must be >= 1, got {self.embedding}"
            )
        if self.model is not None:
            if self.model not in MODELS_BY_NAME:
                raise ValueError(
                    f"unknown phase model {self.model!r}; "
                    f"have {sorted(MODELS_BY_NAME)}"
                )
            d_head = MODELS_BY_NAME[self.model].d_head
            if self.embedding is None:
                object.__setattr__(self, "embedding", d_head)
            elif self.embedding != d_head:
                raise ValueError(
                    f"inconsistent embedding width: phase model "
                    f"{self.model!r} has d_head {d_head} but the phase "
                    f"declares embedding {self.embedding}"
                )


@dataclass(frozen=True)
class Scenario:
    """N (batch, head) attention instances over one array configuration.

    The spec is declarative and complete: two scenarios with equal
    fields describe the same schedule, and any field difference must
    change the runtime cache key (tested in ``tests/test_runtime.py``).
    Two scenarios with equal :func:`schedule_form` (equal up to the
    name and the ``inf`` ≡ None identities) describe the same schedule
    too, and share a :meth:`schedule_key`.

    Attributes:
        name: Identifier used in reports and run-registry summaries.
        phases: Instance groups; at least one.
        binding: ``"tile-serial"`` or ``"interleaved"`` (Fig. 4/5).
        embedding: E (= F), the per-head embedding dimension.
        array_dim: 2D PE-array dimension (also M0 and P0).
        pe_1d: 1D-array lanes; defaults to ``array_dim`` (the paper's
            floorplan) when None.
        slots: issue slots per resource under the interleaved binding
            (the ``A|B`` round-robin width instances contend for).
            Tile-serial schedules issue one task per resource, so the
            field is normalized to 1 under that binding — two
            tile-serial specs differing only in requested slots are the
            same scenario (same schedule, same cache key).
        model: optional name of the workload model this scenario was
            derived from (set by :func:`scenario_from_model`).
        dram_bw: shared DRAM bandwidth in bytes per cycle, or None to
            leave memory traffic unmodeled (the historical behaviour —
            ``None`` schedules are byte-identical to pre-bandwidth
            results).  When set, every instance's DRAM transfers occupy
            a shared ``dram`` resource that all instances contend for
            (:func:`repro.simulator.pipeline.build_scenario_tasks`).
            ``math.inf`` models infinite bandwidth: :func:`schedule_form`
            maps it to ``None``, so it is the ``None`` schedule.
        buffer_bytes: per-instance on-chip buffer capacity in bytes, or
            None to leave the buffer unmodeled (the historical
            behaviour).  When finite, each instance's working set is
            held on chip between uses: demand beyond the capacity
            spills, re-inflating ``bytes_moved`` with the refill
            traffic, and the dram lowering bounds dependency-free
            prefetch depth to the capacity
            (:func:`repro.simulator.engine.lower_dram`).
            ``math.inf`` models an infinite buffer and, as for
            ``dram_bw``, :func:`schedule_form` maps it to ``None``.
        qos: DRAM arbitration discipline, one of :data:`QOS_MODES`.
            ``"uniform"`` (default) keeps program-order arbitration;
            ``"decode-first"`` raises every decode phase one priority
            level so decode transfers win ties over prefill bulk
            traffic at the shared resources.
    """

    name: str
    phases: Tuple[Phase, ...]
    binding: str = "interleaved"
    embedding: int = 64
    array_dim: int = 256
    pe_1d: Optional[int] = None
    slots: int = 2
    model: Optional[str] = field(default=None)
    dram_bw: Optional[float] = None
    buffer_bytes: Optional[float] = None
    qos: str = "uniform"

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("scenario needs at least one phase")
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
        if self.dram_bw is not None and not self.dram_bw > 0:
            raise ValueError(f"dram_bw must be > 0, got {self.dram_bw}")
        if self.buffer_bytes is not None and not self.buffer_bytes > 0:
            raise ValueError(
                f"buffer_bytes must be > 0, got {self.buffer_bytes}"
            )
        if self.qos not in QOS_MODES:
            raise ValueError(f"unknown qos {self.qos!r}; have {QOS_MODES}")
        if self.model is not None:
            if self.model not in MODELS_BY_NAME:
                raise ValueError(
                    f"unknown scenario model {self.model!r}; "
                    f"have {sorted(MODELS_BY_NAME)}"
                )
            d_head = MODELS_BY_NAME[self.model].d_head
            if d_head != self.embedding:
                raise ValueError(
                    f"inconsistent embedding width: model {self.model!r} "
                    f"has d_head {d_head} but the scenario declares "
                    f"embedding {self.embedding}"
                )
        if self.binding == "tile-serial":
            # One task issues per resource under the serial discipline;
            # normalizing keeps equality and cache keys truthful.
            object.__setattr__(self, "slots", 1)

    def schedule_key(self) -> str:
        """A SHA-256 digest of the scenario's :func:`schedule_form`:
        every field its merged schedule reads, with the degenerate
        identities resolved.  Scenarios with equal keys have equal
        schedules, so a pass schedules one of them (see
        :meth:`~repro.simulator.sweep.ScenarioResult.for_point`)."""
        return hashlib.sha256(repr(schedule_form(self)).encode()).hexdigest()

    @property
    def instances(self) -> int:
        """Total (batch, head) instances across all phases."""
        return sum(phase.instances for phase in self.phases)

    @property
    def resolved_pe_1d(self) -> int:
        return self.pe_1d if self.pe_1d is not None else self.array_dim

    def embedding_for(self, phase: Phase) -> int:
        """The embedding depth one phase's instances compute at (the
        phase override, or the scenario-wide default)."""
        return self.embedding if phase.embedding is None else phase.embedding

    @property
    def mixed_embedding(self) -> bool:
        """True when the phases span more than one embedding width (a
        mixed-*model* scenario)."""
        return len({self.embedding_for(p) for p in self.phases}) > 1

    @property
    def seq_len(self) -> int:
        """Per-instance sequence length of the longest prefill phase
        (0 for decode-only scenarios); used for grid summaries."""
        chunks = [p.chunks for p in self.phases if p.kind == "prefill"]
        return max(chunks, default=0) * self.array_dim

    def with_binding(self, binding: str) -> "Scenario":
        """The same workload under the other binding."""
        return replace(self, binding=binding)

    def effective_priority(self, phase: Phase) -> int:
        """The arbitration priority one phase's transfers carry: its
        explicit ``dram_priority`` plus the QoS discipline's decode
        boost."""
        boost = 1 if self.qos == "decode-first" and phase.kind == "decode" else 0
        return phase.dram_priority + boost

    @property
    def emission_phases(self) -> Tuple[Phase, ...]:
        """Phases in schedule-emission order: descending effective
        priority, ties broken by declaration order (a stable sort).

        Program order is the engines' only arbitration key, so priority
        is *encoded as emission order* — higher-priority phases' tasks
        precede lower-priority ones in the merged list and therefore win
        every ready-at-once tie at the shared resources, with zero
        engine changes.  Uniform priorities make the sort the identity,
        so historical schedules are reproduced byte for byte.
        """
        return tuple(
            sorted(self.phases, key=lambda p: -self.effective_priority(p))
        )

    @property
    def prioritized(self) -> bool:
        """True when any phase outranks another (the schedule deviates
        from plain declaration order)."""
        ranks = {self.effective_priority(p) for p in self.phases}
        return len(ranks) > 1

    def _phase_label(self, phase: Phase) -> str:
        label = f"{phase.instances}x{phase.kind}[{phase.chunks} chunks"
        if phase.model is not None:
            label += f", {phase.model}"
        elif phase.embedding is not None:
            label += f", E{phase.embedding}"
        return label + "]"

    def describe(self) -> str:
        """One-line summary for CLI output."""
        parts = ", ".join(self._phase_label(p) for p in self.phases)
        tail = f"E={self.embedding}"
        if self.dram_bw is not None:
            tail += f", bw={self.dram_bw:g}"
        if self.buffer_bytes is not None:
            tail += f", buf={self.buffer_bytes:g}"
        if self.qos != "uniform":
            tail += f", qos={self.qos}"
        return (
            f"{self.name}: {parts} on {self.array_dim}x{self.array_dim}+"
            f"{self.resolved_pe_1d} ({self.binding}, {tail})"
        )


def _bw_suffix(name: str, dram_bw: Optional[float]) -> str:
    """Suffix an auto-generated scenario name with its bandwidth, so
    same-shaped scenarios at different ``dram_bw`` stay distinguishable
    in crosscheck/CSV rows keyed by name."""
    return name if dram_bw is None else f"{name}@bw{dram_bw:g}"


def _cap_suffix(
    name: str, buffer_bytes: Optional[float], qos: str
) -> str:
    """Suffix an auto-generated scenario name with its buffer capacity
    and QoS discipline (same contract as :func:`_bw_suffix`: defaults
    leave the name untouched, so historical names are stable)."""
    if buffer_bytes is not None:
        name += f"@buf{buffer_bytes:g}"
    if qos != "uniform":
        name += f"@{qos}"
    return name


def _append_decode(
    phases: list,
    name: str,
    decode_instances: int,
    decode_chunks: Optional[int],
    default_chunks: int,
) -> str:
    """Append the optional decode phase both builders share; returns the
    (possibly suffixed) scenario name so phase mix and label stay in
    sync between constructors."""
    if decode_instances:
        phases.append(
            Phase(
                "decode",
                decode_instances,
                default_chunks if decode_chunks is None else decode_chunks,
            )
        )
        name += f"+dec{decode_instances}"
    return name


def attention_scenario(
    instances: int,
    chunks: int,
    *,
    binding: str = "interleaved",
    embedding: int = 64,
    array_dim: int = 256,
    pe_1d: Optional[int] = None,
    slots: int = 2,
    decode_instances: int = 0,
    decode_chunks: Optional[int] = None,
    dram_bw: Optional[float] = None,
    buffer_bytes: Optional[float] = None,
    qos: str = "uniform",
    name: Optional[str] = None,
) -> Scenario:
    """A scenario of ``instances`` identical prefill attention instances,
    optionally sharing the arrays with ``decode_instances`` decode steps."""
    phases = [Phase("prefill", instances, chunks)]
    auto_name = _append_decode(
        phases, f"attn-{instances}x{chunks}", decode_instances, decode_chunks,
        chunks,
    )
    auto_name = _cap_suffix(_bw_suffix(auto_name, dram_bw), buffer_bytes, qos)
    return Scenario(
        name=auto_name if name is None else name,
        phases=tuple(phases),
        binding=binding,
        embedding=embedding,
        array_dim=array_dim,
        pe_1d=pe_1d,
        slots=slots,
        dram_bw=dram_bw,
        buffer_bytes=buffer_bytes,
        qos=qos,
    )


def _resolve_models(names: Sequence[str]) -> Tuple[ModelConfig, ...]:
    """Workload models by name, rejecting unknown names up front."""
    missing = [name for name in names if name not in MODELS_BY_NAME]
    if missing:
        raise ValueError(
            f"unknown model(s) {missing}; have {sorted(MODELS_BY_NAME)}"
        )
    return tuple(MODELS_BY_NAME[name] for name in names)


def heterogeneous_scenario(
    chunk_counts: Sequence[int],
    *,
    models: Optional[Sequence[str]] = None,
    binding: str = "interleaved",
    embedding: Optional[int] = None,
    array_dim: int = 256,
    pe_1d: Optional[int] = None,
    slots: int = 2,
    decode_instances: int = 0,
    decode_chunks: Optional[int] = None,
    dram_bw: Optional[float] = None,
    buffer_bytes: Optional[float] = None,
    qos: str = "uniform",
    name: Optional[str] = None,
) -> Scenario:
    """A scenario of prefill instances with *unequal* chunk counts.

    ``chunk_counts`` lists one entry per instance (e.g. ``(16, 16, 64)``
    is two 16-chunk requests sharing the arrays with one 64-chunk
    request).  Instances with equal counts are grouped into one
    :class:`Phase`, in order of first appearance, so equal mixes produce
    equal scenarios regardless of listing order only when the counts
    first appear in the same order — the phase tuple is the identity.

    ``models`` optionally names one workload model per instance, making
    the mix span *different models*: each instance computes at its
    model's ``d_head`` and instances with equal (count, model) pairs
    group into one phase.  Inconsistent inputs — a model list whose
    length does not match ``chunk_counts``, an unknown model name, or an
    explicit ``embedding`` that contradicts a named model's head width —
    are rejected here, before any task graph is built.
    """
    if not chunk_counts:
        raise ValueError("heterogeneous scenario needs at least one instance")
    if models is None:
        resolved_embedding = 64 if embedding is None else embedding
        groups: dict = {}
        for count in chunk_counts:
            groups[count] = groups.get(count, 0) + 1
        phases = [Phase("prefill", n, count) for count, n in groups.items()]
        auto_name = "het-" + "+".join(f"{n}x{c}" for c, n in groups.items())
        default_decode_chunks = max(groups)
    else:
        if len(models) != len(chunk_counts):
            raise ValueError(
                f"models lists {len(models)} entries for "
                f"{len(chunk_counts)} instances (need one model per "
                "instance)"
            )
        configs = _resolve_models(models)
        clashing = sorted({
            m.name for m in configs
            if embedding is not None and m.d_head != embedding
        })
        if clashing:
            raise ValueError(
                f"inconsistent embedding widths: explicit embedding "
                f"{embedding} contradicts d_head of {clashing}"
            )
        model_groups: dict = {}
        for count, model in zip(chunk_counts, models):
            model_groups[(count, model)] = model_groups.get((count, model), 0) + 1
        phases = [
            Phase("prefill", n, count, model=model)
            for (count, model), n in model_groups.items()
        ]
        auto_name = "het-" + "+".join(
            f"{n}x{model}:{count}" for (count, model), n in model_groups.items()
        )
        resolved_embedding = configs[0].d_head
        default_decode_chunks = max(chunk_counts)
    auto_name = _append_decode(
        phases, auto_name, decode_instances, decode_chunks,
        default_decode_chunks,
    )
    auto_name = _cap_suffix(_bw_suffix(auto_name, dram_bw), buffer_bytes, qos)
    return Scenario(
        name=auto_name if name is None else name,
        phases=tuple(phases),
        binding=binding,
        embedding=resolved_embedding,
        array_dim=array_dim,
        pe_1d=pe_1d,
        slots=slots,
        dram_bw=dram_bw,
        buffer_bytes=buffer_bytes,
        qos=qos,
    )


def mixed_model_scenario(
    models: Sequence[str],
    chunks: int,
    *,
    batch: int = 1,
    heads: Optional[int] = None,
    binding: str = "interleaved",
    array_dim: int = 256,
    pe_1d: Optional[int] = None,
    slots: int = 2,
    decode_instances: int = 0,
    decode_chunks: Optional[int] = None,
    dram_bw: Optional[float] = None,
    buffer_bytes: Optional[float] = None,
    qos: str = "uniform",
    name: Optional[str] = None,
) -> Scenario:
    """One merged schedule spanning *different models*' attention heads.

    Each named model contributes a prefill phase of ``batch × heads``
    instances (``heads=None`` uses each model's own head count) computing
    at that model's ``d_head`` — e.g. ``("BERT", "XLM")`` mixes E=64 and
    E=128 tiles in one schedule, contending for the same arrays (and,
    with ``dram_bw``, the same memory bandwidth).  The optional decode
    phase rides at the first model's embedding width.
    """
    if not models:
        raise ValueError("mixed-model scenario needs at least one model")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if heads is not None and heads < 1:
        raise ValueError(f"heads must be >= 1, got {heads}")
    configs = _resolve_models(models)
    phases = [
        Phase(
            "prefill",
            batch * (model.n_heads if heads is None else heads),
            chunks,
            model=model.name,
        )
        for model in configs
    ]
    auto_name = (
        f"mix-{'+'.join(m.name for m in configs)}-B{batch}"
        + (f"xH{heads}" if heads is not None else "")
        + f"-L{chunks * array_dim}"
    )
    auto_name = _append_decode(
        phases, auto_name, decode_instances, decode_chunks, chunks,
    )
    auto_name = _cap_suffix(_bw_suffix(auto_name, dram_bw), buffer_bytes, qos)
    return Scenario(
        name=auto_name if name is None else name,
        phases=tuple(phases),
        binding=binding,
        embedding=configs[0].d_head,
        array_dim=array_dim,
        pe_1d=pe_1d,
        slots=slots,
        dram_bw=dram_bw,
        buffer_bytes=buffer_bytes,
        qos=qos,
    )


def scenario_from_model(
    model: ModelConfig,
    seq_len: int,
    batch: int = BATCH_SIZE,
    *,
    heads: Optional[int] = None,
    binding: str = "interleaved",
    array_dim: int = 256,
    pe_1d: Optional[int] = None,
    slots: int = 2,
    decode_instances: int = 0,
    decode_chunks: Optional[int] = None,
    dram_bw: Optional[float] = None,
    buffer_bytes: Optional[float] = None,
    qos: str = "uniform",
) -> Scenario:
    """The ``B × H`` scenario of one workload model at ``seq_len``.

    ``heads`` overrides the model's head count (e.g. to study array
    pressure at other multiprogramming levels); the embedding dimension
    always follows the model's ``d_head``.
    """
    if seq_len % array_dim:
        raise ValueError(
            f"sequence length {seq_len} not divisible by array dim {array_dim}"
        )
    n_heads = model.n_heads if heads is None else heads
    if batch < 1 or n_heads < 1:
        raise ValueError(f"batch and heads must be >= 1, got {batch}x{n_heads}")
    chunks = seq_len // array_dim
    phases = [Phase("prefill", batch * n_heads, chunks)]
    name = _append_decode(
        phases, f"{model.name}-B{batch}xH{n_heads}-L{seq_len}",
        decode_instances, decode_chunks, chunks,
    )
    return Scenario(
        name=_cap_suffix(_bw_suffix(name, dram_bw), buffer_bytes, qos),
        phases=tuple(phases),
        binding=binding,
        embedding=model.d_head,
        array_dim=array_dim,
        pe_1d=pe_1d,
        slots=slots,
        model=model.name,
        dram_bw=dram_bw,
        buffer_bytes=buffer_bytes,
        qos=qos,
    )
