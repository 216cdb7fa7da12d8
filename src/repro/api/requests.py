"""Typed request specs: what to evaluate, declared as frozen dataclasses.

Each request class describes one evaluation the reproduction can run —
a figure/report regeneration, an evaluation-grid sweep, a long-sequence
binding sweep, a merged multi-instance scenario schedule, a scenario
*grid* over models × batch × heads × decode-instances, a sharded
multi-chip cluster sweep, or the simulated-vs-analytical crosscheck.
Requests are:

- **declarative** — fields name workload axes, never execution knobs
  (``jobs``/``cache``/``registry`` belong to the
  :class:`~repro.api.session.Session` that runs the request);
- **validated** — :meth:`Request.validate` collects every rule
  violation at once (the rules formerly sprawled across the CLI's
  cross-flag checks) and raises :class:`RequestValidationError`;
- **content-addressed** — :meth:`Request.signature` digests every field
  through the runtime's canonical encoding, and a field-walk test
  asserts no field can silently escape it.

The CLI, the experiment drivers, and the examples all build these
requests and hand them to a ``Session``; nothing else reaches the
runtime directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

from ..cluster import (
    SHARDINGS,
    TOPOLOGIES,
    ClusterPoint,
    ClusterSpec,
    shard_config,
)
from ..serving import Arrival, ServingSpec, check_sorted, poisson_arrivals
from ..simulator.engine import ENGINES
from ..simulator.sweep import (
    DEFAULT_SWEEP_ARRAY_DIMS,
    DEFAULT_SWEEP_CHUNKS,
    ScenarioGridCell,
)
from ..workloads.models import BATCH_SIZE, MODELS_BY_NAME
from ..workloads.scenario import (
    BINDINGS,
    QOS_MODES,
    Scenario,
    attention_scenario,
    mixed_model_scenario,
    scenario_from_model,
)

#: Figure/table experiments a :class:`ExperimentRequest` can name, plus
#: the two composite names: ``report`` (everything) and ``sweep`` (one
#: evaluation grid with explicit axes).
EXPERIMENT_NAMES: Tuple[str, ...] = (
    "report",
    "sweep",
    "ablations",
    "fig1b",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table1",
)

#: Evaluation-grid kinds of the ``sweep`` experiment.
GRID_KINDS: Tuple[str, ...] = ("attention", "inference")


class RequestValidationError(ValueError):
    """One or more request fields break the request's rules.

    ``errors`` lists every violation (not just the first), mirroring the
    old CLI behaviour of reporting all misused flags at once.
    """

    def __init__(self, errors: List[str]) -> None:
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


def _positive(errors: List[str], name: str, value: Optional[int]) -> None:
    if value is not None and value < 1:
        errors.append(f"{name} must be >= 1, got {value}")


def _known_engine(errors: List[str], engine: Optional[str]) -> None:
    """``None``, every request's default, runs the vector engine."""
    if engine is not None and engine not in ENGINES:
        errors.append(f"unknown engine {engine!r}; have {ENGINES}")


def _positive_bandwidth(errors: List[str], value: Optional[float]) -> None:
    if value is not None and not value > 0:
        errors.append(f"dram_bw must be > 0, got {value}")


def _buffer_qos(
    errors: List[str],
    buffer_bytes: Optional[float],
    qos: str,
    dram_bw: Optional[float],
) -> None:
    if buffer_bytes is not None and not buffer_bytes > 0:
        errors.append(f"buffer_bytes must be > 0, got {buffer_bytes}")
    if buffer_bytes is not None and dram_bw is None:
        errors.append(
            "buffer_bytes requires dram_bw (spill traffic is priced on "
            "the shared memory link)"
        )
    if qos not in QOS_MODES:
        errors.append(f"unknown qos {qos!r}; have {QOS_MODES}")


def _positive_axis(errors: List[str], name: str, values: Tuple) -> None:
    if not values:
        errors.append(f"{name} must name at least one value")
    elif any(v is not None and v < 1 for v in values):
        errors.append(f"{name} values must be >= 1, got {list(values)}")


def _known_models(errors: List[str], names: Tuple[str, ...]) -> None:
    for name in names:
        if name not in MODELS_BY_NAME:
            errors.append(f"unknown model {name!r}; have {sorted(MODELS_BY_NAME)}")


@dataclass(frozen=True)
class Request:
    """Base request: validation protocol + content signature."""

    #: Request kind tag (mirrors the runtime task-kind vocabulary).
    KIND = "request"

    def rule_violations(self) -> List[str]:
        """Every rule this request breaks (empty when valid)."""
        return []

    def validate(self) -> None:
        """Raise :class:`RequestValidationError` unless the spec is
        coherent; collects *all* violations before raising."""
        errors = self.rule_violations()
        if errors:
            raise RequestValidationError(errors)

    def signature(self) -> str:
        """Stable content address over the request kind and every field.

        This is the request-level analogue of the runtime's task
        fingerprint: equal requests share a signature, and any field
        mutation must change it (enforced by a field-walk test)."""
        from ..runtime.cache import cache_key

        payload = {"__request__": self.KIND}
        for field_ in fields(self):
            payload[field_.name] = getattr(self, field_.name)
        return cache_key(payload, version="request")


@dataclass(frozen=True)
class ExperimentRequest(Request):
    """Regenerate a figure/table, the full report, or one evaluation grid.

    ``name`` selects the experiment (:data:`EXPERIMENT_NAMES`); the grid
    axes (``kind``, ``models``, ``seq_lens``) apply only to
    ``name="sweep"``, where ``None`` means the figure defaults (all four
    models, 1K…1M).
    """

    KIND = "experiment"

    name: str = "report"
    kind: Optional[str] = None
    models: Optional[Tuple[str, ...]] = None
    seq_lens: Optional[Tuple[int, ...]] = None

    def rule_violations(self) -> List[str]:
        errors: List[str] = []
        if self.name not in EXPERIMENT_NAMES:
            errors.append(f"unknown experiment {self.name!r}; have {EXPERIMENT_NAMES}")
        if self.kind is not None and self.kind not in GRID_KINDS:
            errors.append(f"unknown sweep kind {self.kind!r}; have {GRID_KINDS}")
        if self.name != "sweep":
            errors.extend(
                f"{field_} applies to the 'sweep' experiment only"
                for field_, given in (
                    ("kind", self.kind is not None),
                    ("models", self.models is not None),
                    ("seq_lens", self.seq_lens is not None),
                )
                if given
            )
        if self.models is not None:
            _known_models(errors, self.models)
        if self.seq_lens is not None:
            _positive_axis(errors, "seq_lens", self.seq_lens)
        return errors

    @property
    def resolved_kind(self) -> str:
        return "attention" if self.kind is None else self.kind


@dataclass(frozen=True)
class BindingSweepRequest(Request):
    """Long-sequence binding simulation over independent axes.

    The grid is chunks × bindings × array dims × 1D lanes × embeddings
    (one :class:`~repro.simulator.sweep.BindingResult` row per distinct
    point); a single-point request with ``engine="cycle"`` is the
    differential one-shot the CLI's ``repro simulate`` comparison runs.
    Points run on the vector engine's chunk fold (``engine=None``, the
    default, or ``"vector"``) unless ``engine`` asks for the cycle oracle.
    """

    KIND = "binding"

    chunks: Tuple[int, ...] = DEFAULT_SWEEP_CHUNKS
    bindings: Tuple[str, ...] = BINDINGS
    array_dims: Tuple[int, ...] = DEFAULT_SWEEP_ARRAY_DIMS
    embeddings: Tuple[int, ...] = (64,)
    pe_1d_dims: Tuple[Optional[int], ...] = (None,)
    engine: Optional[str] = None

    def rule_violations(self) -> List[str]:
        errors: List[str] = []
        _positive_axis(errors, "chunks", self.chunks)
        _positive_axis(errors, "array_dims", self.array_dims)
        _positive_axis(errors, "embeddings", self.embeddings)
        _positive_axis(errors, "pe_1d_dims", self.pe_1d_dims)
        if not self.bindings:
            errors.append("bindings must name at least one binding")
        errors.extend(
            f"unknown binding {binding!r}; have {BINDINGS}"
            for binding in self.bindings
            if binding not in BINDINGS
        )
        _known_engine(errors, self.engine)
        return errors


@dataclass(frozen=True)
class ScenarioRequest(Request):
    """Merged multi-(batch, head) schedules, one per requested binding.

    Either ``scenarios`` lists explicit :class:`Scenario` specs, or the
    shape fields derive them: ``model`` (with ``batch``/``heads``) builds
    the ``B × H`` scenario of a workload model, ``mixed_models`` one
    merged schedule spanning several models' embedding widths, and
    ``instances`` an explicit count — mutually exclusive, exactly as the
    CLI flags were.  ``dram_bw`` (bytes/cycle) adds the shared memory
    link every instance's transfers contend for; ``buffer_bytes``
    bounds the on-chip buffer (working-set overflow spills extra DRAM
    traffic) and ``qos`` picks the link's arbitration policy.  ``None``
    fields take the CLI's historical defaults at build time, so the
    request records what was *asked*, not what was defaulted.
    """

    KIND = "scenario"

    model: Optional[str] = None
    batch: Optional[int] = None
    heads: Optional[int] = None
    instances: Optional[int] = None
    mixed_models: Optional[Tuple[str, ...]] = None
    chunks: Optional[int] = None
    array_dim: Optional[int] = None
    pe_1d: Optional[int] = None
    slots: Optional[int] = None
    decode_instances: int = 0
    decode_chunks: Optional[int] = None
    dram_bw: Optional[float] = None
    buffer_bytes: Optional[float] = None
    qos: str = "uniform"
    binding: str = "both"
    engine: Optional[str] = None
    profile: bool = False
    scenarios: Optional[Tuple[Scenario, ...]] = None

    def rule_violations(self) -> List[str]:
        errors: List[str] = []
        spec_fields = (
            ("model", self.model is not None),
            ("batch", self.batch is not None),
            ("heads", self.heads is not None),
            ("instances", self.instances is not None),
            ("mixed_models", self.mixed_models is not None),
            ("chunks", self.chunks is not None),
            ("array_dim", self.array_dim is not None),
            ("pe_1d", self.pe_1d is not None),
            ("slots", self.slots is not None),
            ("decode_instances", self.decode_instances != 0),
            ("decode_chunks", self.decode_chunks is not None),
            ("dram_bw", self.dram_bw is not None),
            ("buffer_bytes", self.buffer_bytes is not None),
            ("qos", self.qos != "uniform"),
            ("binding", self.binding != "both"),
        )
        if self.scenarios is not None:
            errors.extend(
                f"scenarios is mutually exclusive with {field_}"
                for field_, given in spec_fields
                if given
            )
            if not self.scenarios:
                errors.append("scenarios must name at least one scenario")
        if self.model is not None and self.instances is not None:
            errors.append(
                "instances and model are mutually exclusive (model "
                "derives the instance count from batch/heads)"
            )
        if self.mixed_models is not None:
            errors.extend(
                f"mixed_models and {field_} are mutually exclusive"
                for field_, given in (("model", self.model is not None),
                                      ("instances", self.instances is not None))
                if given
            )
            if not self.mixed_models:
                errors.append("mixed_models must name at least one model")
            _known_models(errors, self.mixed_models)
        if self.model is None and self.mixed_models is None:
            errors.extend(
                f"{field_} requires model or mixed_models "
                "(use instances for an explicit count)"
                for field_, given in (("batch", self.batch is not None),
                                      ("heads", self.heads is not None))
                if given
            )
        elif self.model is not None and self.model not in MODELS_BY_NAME:
            errors.append(f"unknown model {self.model!r}; have {sorted(MODELS_BY_NAME)}")
        if self.decode_chunks is not None and not self.decode_instances:
            errors.append("decode_chunks requires decode_instances")
        _positive_bandwidth(errors, self.dram_bw)
        _buffer_qos(errors, self.buffer_bytes, self.qos, self.dram_bw)
        if self.binding not in ("both",) + BINDINGS:
            errors.append(f"unknown binding {self.binding!r}; have {('both',) + BINDINGS}")
        if self.binding == "tile-serial" and self.slots is not None:
            # The serial discipline issues one task per resource; slots
            # only parameterize the interleaved round-robin.
            errors.append("slots applies to the interleaved binding only")
        _known_engine(errors, self.engine)
        for name in (
            "batch",
            "heads",
            "instances",
            "chunks",
            "array_dim",
            "pe_1d",
            "slots",
            "decode_chunks",
        ):
            _positive(errors, name, getattr(self, name))
        if self.decode_instances < 0:
            errors.append(f"decode_instances must be >= 0, got {self.decode_instances}")
        return errors

    def build_scenarios(self) -> Tuple[Scenario, ...]:
        """The scenario list this request describes (one per binding),
        with the CLI's historical defaults filled in."""
        if self.scenarios is not None:
            return self.scenarios
        bindings = BINDINGS if self.binding == "both" else (self.binding,)
        batch = BATCH_SIZE if self.batch is None else self.batch
        slots = 2 if self.slots is None else self.slots
        chunks = 32 if self.chunks is None else self.chunks
        array_dim = 256 if self.array_dim is None else self.array_dim
        built = []
        for binding in bindings:
            if self.mixed_models is not None:
                built.append(
                    mixed_model_scenario(
                        self.mixed_models,
                        chunks,
                        batch=1 if self.batch is None else self.batch,
                        heads=self.heads,
                        binding=binding,
                        array_dim=array_dim,
                        pe_1d=self.pe_1d,
                        slots=slots,
                        decode_instances=self.decode_instances,
                        decode_chunks=self.decode_chunks,
                        dram_bw=self.dram_bw,
                        buffer_bytes=self.buffer_bytes,
                        qos=self.qos,
                    )
                )
            elif self.model is not None:
                built.append(
                    scenario_from_model(
                        MODELS_BY_NAME[self.model],
                        chunks * array_dim,
                        batch=batch,
                        heads=self.heads,
                        binding=binding,
                        array_dim=array_dim,
                        pe_1d=self.pe_1d,
                        slots=slots,
                        decode_instances=self.decode_instances,
                        decode_chunks=self.decode_chunks,
                        dram_bw=self.dram_bw,
                        buffer_bytes=self.buffer_bytes,
                        qos=self.qos,
                    )
                )
            else:
                instances = 4 if self.instances is None else self.instances
                built.append(
                    attention_scenario(
                        instances,
                        chunks,
                        binding=binding,
                        array_dim=array_dim,
                        pe_1d=self.pe_1d,
                        slots=slots,
                        decode_instances=self.decode_instances,
                        decode_chunks=self.decode_chunks,
                        dram_bw=self.dram_bw,
                        buffer_bytes=self.buffer_bytes,
                        qos=self.qos,
                    )
                )
        return tuple(built)


@dataclass(frozen=True)
class ScenarioGridRequest(Request):
    """A first-class sweep over models × batch × heads × decode-instances.

    Every combination of the four axes (× bindings) becomes one cached
    grid cell — a full merged-schedule simulation joined with its
    analytical estimate.  ``heads`` axis entries may be ``None`` (use
    each model's own head count).  ``extra_scenarios`` appends explicit
    heterogeneous cells — e.g.
    :func:`repro.workloads.scenario.heterogeneous_scenario` mixes with
    per-instance unequal chunk counts — that no (model, batch, heads)
    coordinate can express.
    """

    KIND = "scenario_grid"

    models: Tuple[str, ...] = ("BERT",)
    batches: Tuple[int, ...] = (1,)
    heads: Tuple[Optional[int], ...] = (None,)
    decode_instances: Tuple[int, ...] = (0,)
    chunks: int = 32
    decode_chunks: Optional[int] = None
    bindings: Tuple[str, ...] = ("interleaved",)
    array_dim: int = 256
    pe_1d: Optional[int] = None
    slots: Optional[int] = None
    dram_bw: Optional[float] = None
    buffer_bytes: Optional[float] = None
    qos: str = "uniform"
    extra_scenarios: Tuple[Scenario, ...] = ()

    def rule_violations(self) -> List[str]:
        errors: List[str] = []
        if not self.models and not self.extra_scenarios:
            errors.append("grid needs at least one model or extra scenario")
        if self.models:
            _known_models(errors, self.models)
            _positive_axis(errors, "batches", self.batches)
            _positive_axis(errors, "heads", self.heads)
            if not self.decode_instances:
                errors.append("decode_instances must name at least one count")
            elif any(d < 0 for d in self.decode_instances):
                errors.append(
                    "decode_instances values must be >= 0, got "
                    f"{list(self.decode_instances)}"
                )
            if not self.bindings:
                errors.append("bindings must name at least one binding")
            errors.extend(
                f"unknown binding {binding!r}; have {BINDINGS}"
                for binding in self.bindings
                if binding not in BINDINGS
            )
        if set(self.bindings) == {"tile-serial"} and self.slots is not None:
            errors.append("slots applies to the interleaved binding only")
        if self.decode_chunks is not None and not any(self.decode_instances):
            errors.append("decode_chunks requires a nonzero decode_instances")
        for name in ("chunks", "array_dim", "pe_1d", "slots", "decode_chunks"):
            _positive(errors, name, getattr(self, name))
        _positive_bandwidth(errors, self.dram_bw)
        _buffer_qos(errors, self.buffer_bytes, self.qos, self.dram_bw)
        return errors

    def cells(self) -> Tuple[ScenarioGridCell, ...]:
        """Every cell of the grid, in axis order (models outermost,
        bindings innermost), then the heterogeneous extras."""
        slots = 2 if self.slots is None else self.slots
        built = []
        for name in self.models:
            model = MODELS_BY_NAME[name]
            for batch in self.batches:
                for heads in self.heads:
                    for decode in self.decode_instances:
                        for binding in self.bindings:
                            scenario = scenario_from_model(
                                model,
                                self.chunks * self.array_dim,
                                batch=batch,
                                heads=heads,
                                binding=binding,
                                array_dim=self.array_dim,
                                pe_1d=self.pe_1d,
                                slots=slots,
                                decode_instances=decode,
                                decode_chunks=self.decode_chunks,
                                dram_bw=self.dram_bw,
                                buffer_bytes=self.buffer_bytes,
                                qos=self.qos,
                            )
                            built.append(
                                ScenarioGridCell(
                                    scenario=scenario,
                                    model=name,
                                    batch=batch,
                                    heads=(model.n_heads if heads is None else heads),
                                    decode=decode,
                                )
                            )
        built.extend(
            ScenarioGridCell(
                scenario=scenario,
                model=scenario.model,
                batch=None,
                heads=None,
                decode=sum(p.instances for p in scenario.phases if p.kind == "decode"),
            )
            for scenario in self.extra_scenarios
        )
        return tuple(built)


@dataclass(frozen=True)
class ServeRequest(Request):
    """One open-loop serving simulation: arrivals against one array.

    Exactly one of ``rate`` (a seeded Poisson process at that many
    requests per kilocycle) and ``trace`` (an explicit replayable
    arrival tuple) supplies the workload.  ``duration``, ``seed``,
    ``chunks``, and ``decode_tokens`` shape the generated process and
    apply to rate-driven serving only — a trace carries its own times
    and shapes.  ``max_inflight`` is the continuous-batching admission
    window and ``deadline`` the SLO (cycles from arrival to last token)
    that goodput is measured against.  ``chips`` spreads requests over a
    cluster of identical arrays (request parallelism, round-robin by
    arrival order), with ``link_bw``/``link_latency`` pricing each
    request's prefill-output gather on the shared interconnect.
    ``buffer_bytes``/``qos`` model the on-chip buffer and the memory
    link's arbitration policy (``"decode-first"`` protects in-flight
    token gaps under a prefill burst), exactly as
    :class:`~repro.serving.ServingSpec` documents.  ``None`` fields
    take the CLI's historical defaults at build time, so the request
    records what was *asked*, not what was defaulted.
    """

    KIND = "serve"

    rate: Optional[float] = None
    duration: Optional[int] = None
    seed: Optional[int] = None
    trace: Optional[Tuple[Arrival, ...]] = None
    chunks: Optional[int] = None
    decode_tokens: Optional[int] = None
    max_inflight: Optional[int] = None
    deadline: Optional[int] = None
    binding: str = "interleaved"
    embedding: Optional[int] = None
    array_dim: Optional[int] = None
    pe_1d: Optional[int] = None
    slots: Optional[int] = None
    dram_bw: Optional[float] = None
    buffer_bytes: Optional[float] = None
    qos: str = "uniform"
    chips: Optional[int] = None
    link_bw: Optional[float] = None
    link_latency: Optional[int] = None
    engine: Optional[str] = None

    def rule_violations(self) -> List[str]:
        errors: List[str] = []
        if (self.rate is None) == (self.trace is None):
            errors.append("exactly one of rate and trace must be given")
        if self.engine == "cycle":
            # Serving batches re-simulate per admission window; the
            # serial oracle is a differential tool, not a serving core.
            errors.append("serve runs on the vector engine only")
        _known_engine(errors, self.engine)
        if self.rate is not None and not self.rate > 0:
            errors.append(f"rate must be > 0, got {self.rate}")
        if self.trace is not None:
            errors.extend(
                f"{field_} applies to rate-driven serving only"
                for field_, given in (
                    ("duration", self.duration is not None),
                    ("seed", self.seed is not None),
                    ("chunks", self.chunks is not None),
                    ("decode_tokens", self.decode_tokens is not None),
                )
                if given
            )
            if not self.trace:
                errors.append("trace must name at least one arrival")
            try:
                check_sorted(self.trace)
            except ValueError as exc:
                errors.append(str(exc))
        if self.binding not in BINDINGS:
            errors.append(f"unknown binding {self.binding!r}; have {BINDINGS}")
        if self.binding == "tile-serial" and self.slots is not None:
            errors.append("slots applies to the interleaved binding only")
        if self.seed is not None and self.seed < 0:
            errors.append(f"seed must be >= 0, got {self.seed}")
        if self.decode_tokens is not None and self.decode_tokens < 0:
            errors.append(f"decode_tokens must be >= 0, got {self.decode_tokens}")
        for name in (
            "duration",
            "chunks",
            "max_inflight",
            "deadline",
            "embedding",
            "array_dim",
            "pe_1d",
            "slots",
            "chips",
        ):
            _positive(errors, name, getattr(self, name))
        _positive_bandwidth(errors, self.dram_bw)
        _buffer_qos(errors, self.buffer_bytes, self.qos, self.dram_bw)
        if self.link_bw is not None and not self.link_bw > 0:
            errors.append(f"link_bw must be > 0, got {self.link_bw}")
        if self.link_latency is not None and self.link_latency < 0:
            errors.append(f"link_latency must be >= 0, got {self.link_latency}")
        if self.link_bw is not None and (self.chips is None or self.chips < 2):
            errors.append("link_bw requires chips >= 2 (one chip has no interconnect)")
        return errors

    def build_spec(self) -> ServingSpec:
        """The :class:`~repro.serving.ServingSpec` this request
        describes, with the CLI's historical defaults filled in."""
        if self.trace is not None:
            arrivals = check_sorted(self.trace)
            name, rate = f"trace-{len(arrivals)}req", None
        else:
            seed = 0 if self.seed is None else self.seed
            arrivals = poisson_arrivals(
                self.rate,
                32768 if self.duration is None else self.duration,
                seed=seed,
                chunks=8 if self.chunks is None else self.chunks,
                decode_tokens=4 if self.decode_tokens is None else self.decode_tokens,
            )
            name, rate = f"poisson-r{self.rate:g}-s{seed}", self.rate
        return ServingSpec(
            name=name,
            arrivals=arrivals,
            binding=self.binding,
            embedding=64 if self.embedding is None else self.embedding,
            array_dim=256 if self.array_dim is None else self.array_dim,
            pe_1d=self.pe_1d,
            slots=2 if self.slots is None else self.slots,
            max_inflight=8 if self.max_inflight is None else self.max_inflight,
            deadline=self.deadline,
            dram_bw=self.dram_bw,
            n_chips=1 if self.chips is None else self.chips,
            link_bw=self.link_bw,
            link_latency=0 if self.link_latency is None else self.link_latency,
            rate=rate,
            buffer_bytes=self.buffer_bytes,
            qos=self.qos,
        )


@dataclass(frozen=True)
class ClusterRequest(Request):
    """A multi-chip sweep: one scenario sharded over chips × shardings
    × link bandwidths.

    The scenario shape fields mirror :class:`ScenarioRequest` (minus
    ``mixed_models``/``scenarios``: a cluster shards one homogeneous
    workload); the cluster axes then cross every requested chip count
    with every sharding policy and link bandwidth, one
    :class:`~repro.cluster.ClusterPoint` per combination.  A ``None``
    link bandwidth leaves the interconnect unmodeled — collectives cost
    nothing, the degenerate baseline every sweep should include.
    ``engine=None`` (the default) runs the vector engine.
    """

    KIND = "cluster"

    model: Optional[str] = None
    batch: Optional[int] = None
    heads: Optional[int] = None
    instances: Optional[int] = None
    chunks: Optional[int] = None
    array_dim: Optional[int] = None
    pe_1d: Optional[int] = None
    slots: Optional[int] = None
    decode_instances: int = 0
    decode_chunks: Optional[int] = None
    dram_bw: Optional[float] = None
    binding: str = "interleaved"
    chips: Tuple[int, ...] = (1, 2, 4)
    shardings: Tuple[str, ...] = ("head",)
    link_bws: Tuple[Optional[float], ...] = (None,)
    link_latency: int = 0
    topology: str = "all-to-all"
    engine: Optional[str] = None

    def rule_violations(self) -> List[str]:
        errors: List[str] = []
        if self.model is not None and self.instances is not None:
            errors.append(
                "instances and model are mutually exclusive (model "
                "derives the instance count from batch/heads)"
            )
        if self.model is None:
            errors.extend(
                f"{field_} requires model (use instances for an explicit count)"
                for field_, given in (("batch", self.batch is not None),
                                      ("heads", self.heads is not None))
                if given
            )
        elif self.model not in MODELS_BY_NAME:
            errors.append(f"unknown model {self.model!r}; have {sorted(MODELS_BY_NAME)}")
        if self.decode_chunks is not None and not self.decode_instances:
            errors.append("decode_chunks requires decode_instances")
        _positive_bandwidth(errors, self.dram_bw)
        if self.binding not in BINDINGS:
            errors.append(f"unknown binding {self.binding!r}; have {BINDINGS}")
        if self.binding == "tile-serial" and self.slots is not None:
            errors.append("slots applies to the interleaved binding only")
        _known_engine(errors, self.engine)
        _positive_axis(errors, "chips", self.chips)
        if not self.shardings:
            errors.append("shardings must name at least one policy")
        errors.extend(
            f"unknown sharding {sharding!r}; have {SHARDINGS}"
            for sharding in self.shardings
            if sharding not in SHARDINGS
        )
        if not self.link_bws:
            errors.append("link_bws must name at least one bandwidth")
        errors.extend(
            f"link_bws values must be > 0, got {bw}"
            for bw in self.link_bws
            if bw is not None and not bw > 0
        )
        if self.link_latency < 0:
            errors.append(f"link_latency must be >= 0, got {self.link_latency}")
        if self.topology not in TOPOLOGIES:
            errors.append(f"unknown topology {self.topology!r}; have {TOPOLOGIES}")
        for name in (
            "batch",
            "heads",
            "instances",
            "chunks",
            "array_dim",
            "pe_1d",
            "slots",
            "decode_chunks",
        ):
            _positive(errors, name, getattr(self, name))
        if self.decode_instances < 0:
            errors.append(f"decode_instances must be >= 0, got {self.decode_instances}")
        if not errors and "tensor" in self.shardings:
            scenario = self.build_scenario()
            seen: List[str] = []
            for phase in scenario.phases:
                for n_chips in self.chips:
                    try:
                        shard_config(scenario, phase, "tensor", n_chips)
                    except ValueError as error:
                        if str(error) not in seen:
                            seen.append(str(error))
            errors.extend(seen)
        return errors

    def build_scenario(self) -> Scenario:
        """The one scenario every cluster point shards, with the CLI's
        historical defaults filled in (matching ``repro scenario``)."""
        batch = BATCH_SIZE if self.batch is None else self.batch
        slots = 2 if self.slots is None else self.slots
        chunks = 32 if self.chunks is None else self.chunks
        array_dim = 256 if self.array_dim is None else self.array_dim
        if self.model is not None:
            return scenario_from_model(
                MODELS_BY_NAME[self.model],
                chunks * array_dim,
                batch=batch,
                heads=self.heads,
                binding=self.binding,
                array_dim=array_dim,
                pe_1d=self.pe_1d,
                slots=slots,
                decode_instances=self.decode_instances,
                decode_chunks=self.decode_chunks,
                dram_bw=self.dram_bw,
            )
        instances = 4 if self.instances is None else self.instances
        return attention_scenario(
            instances,
            chunks,
            binding=self.binding,
            array_dim=array_dim,
            pe_1d=self.pe_1d,
            slots=slots,
            decode_instances=self.decode_instances,
            decode_chunks=self.decode_chunks,
            dram_bw=self.dram_bw,
        )

    def build_points(self) -> Tuple[ClusterPoint, ...]:
        """Every cluster point of the sweep, chips outermost, then
        shardings, then link bandwidths."""
        scenario = self.build_scenario()
        return tuple(
            ClusterPoint(
                scenario=scenario,
                spec=ClusterSpec(
                    n_chips=n_chips,
                    link_bw=link_bw,
                    link_latency=self.link_latency,
                    topology=self.topology,
                ),
                sharding=sharding,
            )
            for n_chips in self.chips
            for sharding in self.shardings
            for link_bw in self.link_bws
        )


@dataclass(frozen=True)
class CrosscheckRequest(Request):
    """Simulated vs analytical utilization over scenario schedules.

    ``scenarios=None`` runs the seed grid of
    :func:`repro.experiments.crosscheck.seed_scenarios`;
    ``bandwidth=True`` appends the bandwidth-limited grid
    (:func:`repro.experiments.crosscheck.bandwidth_scenarios`), whose
    rows also compare the shared ``dram`` link's utilization;
    ``capacity=True`` appends the finite-buffer grid
    (:func:`repro.experiments.crosscheck.capacity_scenarios`), pitting
    the spill-inflated schedules against the ``capacity-bound``
    roofline term; ``cluster=True`` appends the sharded multi-chip grid
    (:func:`repro.experiments.crosscheck.cluster_points`), whose rows
    compare the shared ``link``'s utilization.
    """

    KIND = "crosscheck"

    tolerance: float = 0.05
    bandwidth: bool = False
    capacity: bool = False
    cluster: bool = False
    scenarios: Optional[Tuple[Scenario, ...]] = None

    def rule_violations(self) -> List[str]:
        errors: List[str] = []
        if self.tolerance < 0:
            errors.append(f"tolerance must be >= 0, got {self.tolerance}")
        if self.scenarios is not None and not self.scenarios:
            errors.append("scenarios must name at least one scenario")
        if self.scenarios is not None and self.bandwidth:
            errors.append(
                "bandwidth applies to the seed grid only (explicit "
                "scenarios carry their own dram_bw)"
            )
        if self.scenarios is not None and self.capacity:
            errors.append(
                "capacity applies to the seed grid only (explicit "
                "scenarios carry their own buffer_bytes)"
            )
        if self.scenarios is not None and self.cluster:
            errors.append(
                "cluster applies to the seed grid only (explicit "
                "scenarios are unsharded)"
            )
        return errors


#: Every request class the Session dispatches, in documentation order.
REQUEST_TYPES: Tuple[type, ...] = (
    ExperimentRequest,
    BindingSweepRequest,
    ScenarioRequest,
    ScenarioGridRequest,
    ServeRequest,
    ClusterRequest,
    CrosscheckRequest,
)
