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
- **declared once** — every field is a :func:`~repro.api.knobs.knob`
  holding its CLI flag, help text, range or choice rule and
  ``None``-means build default; validation, :meth:`Request.resolved`
  and the CLI's options all derive from that one declaration;
- **validated** — :meth:`Request.validate` collects every rule
  violation at once (each field's own rule from its knob, plus the
  cross-field rules a subclass adds) and raises
  :class:`RequestValidationError`; a valid request then imports the
  engine its evaluation runs on (:attr:`Request.ENGINE_MODULES`);
- **content-addressed** — :meth:`Request.signature` digests every field
  through the runtime's canonical encoding, and a field-walk test
  asserts no field can silently escape it.

The CLI, the experiment drivers, and the examples all build these
requests and hand them to a ``Session``; nothing else reaches the
runtime directly.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from ..cluster.spec import SHARDINGS, TOPOLOGIES, ClusterSpec
from ..serving.arrivals import Arrival, check_sorted, poisson_arrivals
from ..simulator.engine import ENGINES
from ..simulator.sweep import (
    DEFAULT_SWEEP_ARRAY_DIMS,
    DEFAULT_SWEEP_CHUNKS,
    ScenarioGridCell,
)
from ..workloads.models import BATCH_SIZE, MODELS, MODELS_BY_NAME, SEQUENCE_LENGTHS
from ..workloads.scenario import (
    BINDINGS,
    QOS_MODES,
    Scenario,
    attention_scenario,
    mixed_model_scenario,
    scenario_from_model,
)
from .knobs import Above, AtLeast, Comma, OneOf, knob, knob_of

if TYPE_CHECKING:
    from ..cluster.sweep import ClusterPoint
    from ..serving.simulator import ServingSpec

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

#: Model names, checked by request validation (not by argparse) so an
#: unknown name lists the known ones.
_MODEL = OneOf(sorted(MODELS_BY_NAME), "model", cli=False)
_ENGINE = OneOf(ENGINES, "engine")
#: The analytical models the figure drivers evaluate.
_MODEL_STACK = (
    "repro.model.unfused",
    "repro.model.flat",
    "repro.model.fusemax",
    "repro.model.inference",
    "repro.model.pareto",
)
_SERIAL_SLOTS = "slots applies to the interleaved binding only"
_BUFFER_NEEDS_DRAM = (
    "buffer_bytes requires dram_bw (spill traffic is priced on the shared memory link)"
)


def binding_axis(binding: str) -> Tuple[str, ...]:
    """The bindings a ``binding`` option names (``both`` is every one)."""
    return BINDINGS if binding == "both" else (binding,)


class RequestValidationError(ValueError):
    """One or more request fields break the request's rules.

    ``errors`` lists every violation (not just the first), mirroring the
    old CLI behaviour of reporting all misused flags at once.
    """

    def __init__(self, errors: List[str]) -> None:
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class Request:
    """Base request: validation protocol + content signature."""

    #: Request kind tag (mirrors the runtime task-kind vocabulary).
    KIND = "request"

    #: The heavy modules this request's evaluation needs that
    #: ``import repro.api`` does not load.  :meth:`validate` imports
    #: them, so they load before a session's pool forks and its workers
    #: inherit them.  The fold engine that scenario and binding points
    #: run on is pure Python and loads with ``repro.api``; the
    #: analytical models, the serving simulator and the cluster sweep
    #: are declared by the requests that run them.
    ENGINE_MODULES = ()

    def rule_violations(self) -> List[str]:
        """Every rule this request breaks (empty when valid): each
        field's own knob rule, in field order.  Subclasses add their
        cross-field rules around this walk."""
        errors: List[str] = []
        for field_ in fields(self):
            declared = field_.metadata.get("knob")
            if declared is not None:
                errors.extend(declared.violations(field_.name, getattr(self, field_.name)))
        return errors

    def validate(self) -> None:
        """Raise :class:`RequestValidationError` unless the spec is
        coherent; collects *all* violations before raising.  A valid
        request then imports its :attr:`ENGINE_MODULES`."""
        errors = self.rule_violations()
        if errors:
            raise RequestValidationError(errors)
        for module in self.ENGINE_MODULES:
            importlib.import_module(module)

    def resolved(self, name: str) -> Any:
        """Field ``name``, or its knob's build default when it is None."""
        value = getattr(self, name)
        return knob_of(type(self), name).none_means if value is None else value

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
    ENGINE_MODULES = _MODEL_STACK

    name: str = knob("report", rule=OneOf(EXPERIMENT_NAMES, "experiment"))
    kind: Optional[str] = knob(
        None,
        "--kind",
        rule=OneOf(GRID_KINDS, "sweep kind"),
        none_means="attention",
        help="evaluation grid to run",
    )
    models: Optional[Tuple[str, ...]] = knob(
        None,
        "--models",
        "A,B",
        _MODEL,
        comma=Comma(blank=True),
        none_means=tuple(model.name for model in MODELS),
        help="model names (default: all four; --grid: BERT)",
    )
    seq_lens: Optional[Tuple[int, ...]] = knob(
        None,
        "--seq-lens",
        "L1,L2",
        AtLeast(1),
        unit="value",
        comma=Comma(int, blank=True, bounded=False),
        none_means=SEQUENCE_LENGTHS,
        help="sequence lengths (default: 1K..1M)",
    )

    def rule_violations(self) -> List[str]:
        errors = super().rule_violations()
        if self.name != "sweep":
            errors.extend(
                f"{name} applies to the 'sweep' experiment only"
                for name in ("kind", "models", "seq_lens")
                if getattr(self, name) is not None
            )
        return errors

    @property
    def resolved_kind(self) -> str:
        return self.resolved("kind")


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

    chunks: Tuple[int, ...] = knob(
        DEFAULT_SWEEP_CHUNKS,
        "--chunks-list",
        "N1,N2",
        AtLeast(1),
        unit="value",
        comma=Comma(int, blank=True),
        help="sweep chunk counts (default: 16..8192, powers of two)",
    )
    bindings: Tuple[str, ...] = knob(BINDINGS, rule=OneOf(BINDINGS, "binding"), unit="binding")
    array_dims: Tuple[int, ...] = knob(
        DEFAULT_SWEEP_ARRAY_DIMS,
        "--arrays",
        "D1,D2",
        AtLeast(1),
        unit="value",
        comma=Comma(int, blank=True),
        help="sweep PE-array dims (default: 128,256)",
    )
    embeddings: Tuple[int, ...] = knob(
        (64,),
        "--embeddings",
        "E1,E2",
        AtLeast(1),
        unit="value",
        comma=Comma(int, blank=True),
        help="sweep embedding depths E (default: 64)",
    )
    pe_1d_dims: Tuple[Optional[int], ...] = knob(
        (None,),
        "--pe1d-list",
        "P1,P2",
        AtLeast(1),
        unit="value",
        comma=Comma(int, blank=True),
        help="sweep 1D-array lanes (default: matched to each array dim)",
    )
    engine: Optional[str] = knob(
        None,
        "--engine",
        rule=_ENGINE,
        none_means="vector",
        cli_default="vector",
        help="vector folds each graph along its chunks; cycle is the serial oracle",
    )


@dataclass(frozen=True)
class _ScenarioShape(Request):
    """The workload shape :class:`ScenarioRequest` and
    :class:`ClusterRequest` share: ``model`` (with ``batch``/``heads``)
    or an explicit ``instances`` count, the array, and a decode mix.
    Subclasses declare ``binding``."""

    #: The fields besides ``instances`` that set the instance count.
    _COUNT_SOURCES = ("model",)

    model: Optional[str] = knob(
        None,
        "--model",
        "NAME",
        _MODEL,
        help="derive instances = batch x heads from a model (BERT/TrXL/T5/XLM)",
    )
    batch: Optional[int] = knob(
        None, "--batch", "B", AtLeast(1), none_means=BATCH_SIZE, help="batch size with --model"
    )
    heads: Optional[int] = knob(
        None, "--heads", "H", AtLeast(1), help="override the model's head count with --model"
    )
    instances: Optional[int] = knob(
        None,
        "--instances",
        "N",
        AtLeast(1),
        none_means=4,
        help="explicit (batch, head) instance count",
    )
    chunks: Optional[int] = knob(
        None, "--chunks", "N", AtLeast(1), none_means=32, help="M1 chunks per prefill instance"
    )
    array_dim: Optional[int] = knob(
        None, "--array-dim", "D", AtLeast(1), none_means=256, help="PE-array dimension"
    )
    pe_1d: Optional[int] = knob(
        None, "--pe1d", "P", AtLeast(1), help="1D-array lanes (default: matched to --array-dim)"
    )
    slots: Optional[int] = knob(
        None, "--slots", "K", AtLeast(1), none_means=2, help="interleaved issue slots per resource"
    )
    decode_instances: int = knob(
        0, "--decode-instances", "N", AtLeast(0), help="add N decode-step instances"
    )
    decode_chunks: Optional[int] = knob(
        None,
        "--decode-chunks",
        "C",
        AtLeast(1),
        help="KV-cache chunks per decode instance (default: --chunks)",
    )
    dram_bw: Optional[float] = knob(
        None,
        "--dram-bw",
        "B",
        Above(0),
        help="shared DRAM bandwidth in bytes/cycle (default: unmodeled)",
    )

    def rule_violations(self) -> List[str]:
        errors: List[str] = []
        if self.model is not None and self.instances is not None:
            errors.append(
                "instances and model are mutually exclusive (model "
                "derives the instance count from batch/heads)"
            )
        if all(getattr(self, source) is None for source in self._COUNT_SOURCES):
            sources = " or ".join(self._COUNT_SOURCES)
            errors.extend(
                f"{name} requires {sources} (use instances for an explicit count)"
                for name in ("batch", "heads")
                if getattr(self, name) is not None
            )
        if self.decode_chunks is not None and not self.decode_instances:
            errors.append("decode_chunks requires decode_instances")
        errors.extend(super().rule_violations())
        if self.binding == "tile-serial" and self.slots is not None:
            # The serial discipline issues one task per resource; slots
            # only parameterize the interleaved round-robin.
            errors.append(_SERIAL_SLOTS)
        return errors

    def _scenario(
        self, binding: str, mixed_models: Optional[Tuple[str, ...]] = None, **memory: Any
    ) -> Scenario:
        """The one scenario this shape describes under ``binding``, with
        ``None`` fields at their build defaults; ``mixed_models`` and the
        buffer/QoS ``memory`` fields come from requests that have them."""
        chunks, array_dim = self.resolved("chunks"), self.resolved("array_dim")
        shape = dict(
            binding=binding,
            array_dim=array_dim,
            pe_1d=self.pe_1d,
            slots=self.resolved("slots"),
            decode_instances=self.decode_instances,
            decode_chunks=self.decode_chunks,
            dram_bw=self.dram_bw,
            **memory,
        )
        if mixed_models is not None:
            # A mixed schedule runs one sequence per model by default.
            batch = 1 if self.batch is None else self.batch
            return mixed_model_scenario(
                mixed_models, chunks, batch=batch, heads=self.heads, **shape
            )
        if self.model is not None:
            return scenario_from_model(
                MODELS_BY_NAME[self.model],
                chunks * array_dim,
                batch=self.resolved("batch"),
                heads=self.heads,
                **shape,
            )
        return attention_scenario(self.resolved("instances"), chunks, **shape)


@dataclass(frozen=True)
class ScenarioRequest(_ScenarioShape):
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
    fields take their knobs' build defaults at build time, so the
    request records what was *asked*, not what was defaulted.
    """

    KIND = "scenario"
    _COUNT_SOURCES = ("model", "mixed_models")

    mixed_models: Optional[Tuple[str, ...]] = knob(
        None,
        "--mixed-models",
        "A,B",
        _MODEL,
        unit="model",
        comma=Comma(),
        help="one schedule over several models' widths, e.g. BERT,XLM",
    )
    buffer_bytes: Optional[float] = knob(
        None,
        "--buffer-bytes",
        "BYTES",
        Above(0),
        help="on-chip buffer per instance; overflow spills (needs --dram-bw)",
    )
    qos: str = knob(
        "uniform",
        "--qos",
        rule=OneOf(QOS_MODES, "qos"),
        cli_default=None,
        help="DRAM arbitration; decode-first prioritizes decode instances",
    )
    binding: str = knob(
        "both",
        "--binding",
        rule=OneOf(("both",) + BINDINGS, "binding"),
        help="binding(s) to schedule",
    )
    engine: Optional[str] = knob(
        None,
        "--engine",
        rule=_ENGINE,
        none_means="vector",
        cli_default="vector",
        help="vector folds each scenario; cycle is the serial, uncached oracle",
    )
    profile: bool = knob(
        False,
        "--profile",
        help="with --scenario: print build/schedule times per scenario to stderr",
    )
    scenarios: Optional[Tuple[Scenario, ...]] = None

    def rule_violations(self) -> List[str]:
        errors: List[str] = []
        if self.scenarios is not None:
            errors.extend(
                f"scenarios is mutually exclusive with {field_.name}"
                for field_ in fields(self)
                if field_.name not in ("engine", "profile", "scenarios")
                and getattr(self, field_.name) != field_.default
            )
            if not self.scenarios:
                errors.append("scenarios must name at least one scenario")
        if self.mixed_models is not None:
            errors.extend(
                f"mixed_models and {name} are mutually exclusive"
                for name in ("model", "instances")
                if getattr(self, name) is not None
            )
        errors.extend(super().rule_violations())
        if self.buffer_bytes is not None and self.dram_bw is None:
            errors.append(_BUFFER_NEEDS_DRAM)
        return errors

    def build_scenarios(self) -> Tuple[Scenario, ...]:
        """The scenario list this request describes (one per binding),
        with the build defaults filled in."""
        if self.scenarios is not None:
            return self.scenarios
        memory = dict(buffer_bytes=self.buffer_bytes, qos=self.qos)
        return tuple(
            self._scenario(binding, self.mixed_models, **memory)
            for binding in binding_axis(self.binding)
        )


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
    ENGINE_MODULES = ("repro.model.scenario",)

    models: Tuple[str, ...] = knob(
        ("BERT",),
        "--models",
        "A,B",
        _MODEL,
        comma=Comma(blank=True),
        help="grid model names (default: BERT)",
    )
    batches: Tuple[int, ...] = knob(
        (1,),
        "--batches",
        "B1,B2",
        AtLeast(1),
        unit="value",
        comma=Comma(int),
        help="grid batch sizes (default: 1)",
    )
    heads: Tuple[Optional[int], ...] = knob(
        (None,),
        "--heads-list",
        "H1,H2",
        AtLeast(1),
        unit="value",
        comma=Comma(int),
        help="grid head counts (default: each model's own)",
    )
    decode_instances: Tuple[int, ...] = knob(
        (0,),
        "--decode-list",
        "D0,D1",
        AtLeast(0),
        unit="count",
        comma=Comma(int),
        help="grid decode-instance counts (default: 0)",
    )
    chunks: int = knob(
        32, "--chunks", "N", AtLeast(1), cli_default=None, help="prefill chunks of every grid cell"
    )
    decode_chunks: Optional[int] = knob(
        None,
        "--decode-chunks",
        "C",
        AtLeast(1),
        help="KV-cache chunks per decode instance (default: --chunks)",
    )
    bindings: Tuple[str, ...] = knob(
        ("interleaved",),
        "--binding",
        rule=OneOf(BINDINGS, "binding"),
        unit="binding",
        cli_choices=("both",) + BINDINGS,
        parse=binding_axis,
        help="grid binding(s) to schedule (default: interleaved)",
    )
    array_dim: int = knob(
        256, "--array-dim", "D", AtLeast(1), cli_default=None, help="grid PE-array dimension"
    )
    pe_1d: Optional[int] = knob(
        None,
        "--pe1d",
        "P",
        AtLeast(1),
        help="grid 1D-array lanes (default: matched to --array-dim)",
    )
    slots: Optional[int] = knob(
        None, "--slots", "K", AtLeast(1), none_means=2, help="interleaved issue slots per resource"
    )
    dram_bw: Optional[float] = knob(
        None,
        "--dram-bw",
        "B",
        Above(0),
        help="grid shared DRAM bandwidth in bytes/cycle (default: unmodeled)",
    )
    buffer_bytes: Optional[float] = knob(
        None,
        "--buffer-bytes",
        "BYTES",
        Above(0),
        help="grid on-chip buffer; overflow spills (needs --dram-bw)",
    )
    qos: str = knob(
        "uniform",
        "--qos",
        rule=OneOf(QOS_MODES, "qos"),
        cli_default=None,
        help="grid DRAM arbitration policy",
    )
    extra_scenarios: Tuple[Scenario, ...] = ()

    def rule_violations(self) -> List[str]:
        errors: List[str] = []
        if not self.models and not self.extra_scenarios:
            errors.append("grid needs at least one model or extra scenario")
        errors.extend(super().rule_violations())
        if set(self.bindings) == {"tile-serial"} and self.slots is not None:
            errors.append(_SERIAL_SLOTS)
        if self.decode_chunks is not None and not any(self.decode_instances):
            errors.append("decode_chunks requires a nonzero decode_instances")
        if self.buffer_bytes is not None and self.dram_bw is None:
            errors.append(_BUFFER_NEEDS_DRAM)
        return errors

    def cells(self) -> Tuple[ScenarioGridCell, ...]:
        """Every cell of the grid, in axis order (models outermost,
        bindings innermost), then the heterogeneous extras."""
        slots = self.resolved("slots")
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
    take their knobs' build defaults at build time, so the request
    records what was *asked*, not what was defaulted.
    """

    KIND = "serve"
    ENGINE_MODULES = ("repro.serving.simulator",)

    rate: Optional[float] = knob(
        None,
        "--rate",
        "R1,R2",
        Above(0),
        comma=Comma(float),
        help="offered loads in requests per kilocycle, one row each",
    )
    duration: Optional[int] = knob(
        None,
        "--duration",
        "C",
        AtLeast(1),
        none_means=32768,
        help="arrival window in cycles with --rate",
    )
    seed: Optional[int] = knob(
        None,
        "--seed",
        "S",
        AtLeast(0),
        none_means=0,
        help="arrival seed with --rate; equal seeds replay",
    )
    trace: Optional[Tuple[Arrival, ...]] = None
    chunks: Optional[int] = knob(
        None,
        "--chunks",
        "N",
        AtLeast(1),
        none_means=8,
        help="prefill M1 chunks per generated request",
    )
    decode_tokens: Optional[int] = knob(
        None,
        "--decode-tokens",
        "T",
        AtLeast(0),
        none_means=4,
        help="decode steps per generated request",
    )
    max_inflight: Optional[int] = knob(
        None,
        "--max-inflight",
        "K",
        AtLeast(1),
        none_means=8,
        help="continuous-batching window: max requests in flight",
    )
    deadline: Optional[int] = knob(
        None,
        "--deadline",
        "C",
        AtLeast(1),
        help="SLO in cycles from arrival to last token (fills goodput)",
    )
    binding: str = knob(
        "interleaved",
        "--binding",
        rule=OneOf(BINDINGS, "binding"),
        help="binding discipline to schedule",
    )
    embedding: Optional[int] = knob(None, rule=AtLeast(1), none_means=64)
    array_dim: Optional[int] = knob(
        None, "--array-dim", "D", AtLeast(1), none_means=256, help="PE-array dimension"
    )
    pe_1d: Optional[int] = knob(
        None, "--pe1d", "P", AtLeast(1), help="1D-array lanes (default: matched to --array-dim)"
    )
    slots: Optional[int] = knob(
        None, "--slots", "K", AtLeast(1), none_means=2, help="interleaved issue slots per resource"
    )
    dram_bw: Optional[float] = knob(
        None,
        "--dram-bw",
        "B",
        Above(0),
        help="shared DRAM bandwidth in bytes/cycle (default: unmodeled)",
    )
    buffer_bytes: Optional[float] = knob(
        None,
        "--buffer-bytes",
        "BYTES",
        Above(0),
        help="on-chip buffer per request; overflow spills (needs --dram-bw)",
    )
    qos: str = knob(
        "uniform",
        "--qos",
        rule=OneOf(QOS_MODES, "qos"),
        cli_default=None,
        help="DRAM arbitration; decode-first protects token gaps",
    )
    chips: Optional[int] = knob(
        None,
        "--chips",
        "N",
        AtLeast(1),
        none_means=1,
        help="spread requests round-robin over N arrays",
    )
    link_bw: Optional[float] = knob(
        None,
        "--link-bw",
        "B",
        Above(0),
        help="gather-link bandwidth in bytes/cycle (needs --chips >= 2)",
    )
    link_latency: Optional[int] = knob(
        None,
        "--link-latency",
        "C",
        AtLeast(0),
        none_means=0,
        help="per-gather hop latency in cycles (needs --link-bw)",
    )
    engine: Optional[str] = knob(None, rule=_ENGINE, none_means="vector")

    def rule_violations(self) -> List[str]:
        errors: List[str] = []
        if (self.rate is None) == (self.trace is None):
            errors.append("exactly one of rate and trace must be given")
        if self.engine == "cycle":
            # Serving batches re-simulate per admission window; the
            # serial oracle is a differential tool, not a serving core.
            errors.append("serve runs on the vector engine only")
        if self.trace is not None:
            errors.extend(
                f"{name} applies to rate-driven serving only"
                for name in ("duration", "seed", "chunks", "decode_tokens")
                if getattr(self, name) is not None
            )
            if not self.trace:
                errors.append("trace must name at least one arrival")
            try:
                check_sorted(self.trace)
            except ValueError as exc:
                errors.append(str(exc))
        errors.extend(super().rule_violations())
        if self.binding == "tile-serial" and self.slots is not None:
            errors.append(_SERIAL_SLOTS)
        if self.buffer_bytes is not None and self.dram_bw is None:
            errors.append(_BUFFER_NEEDS_DRAM)
        if self.link_bw is not None and (self.chips is None or self.chips < 2):
            errors.append("link_bw requires chips >= 2 (one chip has no interconnect)")
        if self.link_latency is not None and self.link_bw is None:
            # Without a link the gather is free, so a latency would be
            # silently dropped.
            errors.append("link_latency requires link_bw")
        return errors

    def build_spec(self) -> ServingSpec:
        """The :class:`~repro.serving.ServingSpec` this request
        describes, with the build defaults filled in."""
        from ..serving.simulator import ServingSpec

        if self.trace is not None:
            arrivals = check_sorted(self.trace)
            name, rate = f"trace-{len(arrivals)}req", None
        else:
            seed = self.resolved("seed")
            arrivals = poisson_arrivals(
                self.rate,
                self.resolved("duration"),
                seed=seed,
                chunks=self.resolved("chunks"),
                decode_tokens=self.resolved("decode_tokens"),
            )
            name, rate = f"poisson-r{self.rate:g}-s{seed}", self.rate
        return ServingSpec(
            name=name,
            arrivals=arrivals,
            binding=self.binding,
            embedding=self.resolved("embedding"),
            array_dim=self.resolved("array_dim"),
            pe_1d=self.pe_1d,
            slots=self.resolved("slots"),
            max_inflight=self.resolved("max_inflight"),
            deadline=self.deadline,
            dram_bw=self.dram_bw,
            n_chips=self.resolved("chips"),
            link_bw=self.link_bw,
            link_latency=self.resolved("link_latency"),
            rate=rate,
            buffer_bytes=self.buffer_bytes,
            qos=self.qos,
        )


@dataclass(frozen=True)
class ClusterRequest(_ScenarioShape):
    """A multi-chip sweep: one scenario sharded over chips × shardings
    × link bandwidths.

    The scenario shape fields are :class:`ScenarioRequest`'s (minus
    ``mixed_models``/``scenarios``: a cluster shards one homogeneous
    workload); the cluster axes then cross every requested chip count
    with every sharding policy and link bandwidth, one
    :class:`~repro.cluster.ClusterPoint` per combination.  A ``None``
    link bandwidth leaves the interconnect unmodeled — collectives cost
    nothing, the degenerate baseline every sweep should include.
    ``engine=None`` (the default) runs the vector engine.
    """

    KIND = "cluster"
    ENGINE_MODULES = ("repro.cluster.sweep",)

    binding: str = knob(
        "interleaved",
        "--binding",
        rule=OneOf(BINDINGS, "binding"),
        help="binding discipline to schedule",
    )
    chips: Tuple[int, ...] = knob(
        (1, 2, 4),
        "--chips",
        "N1,N2",
        AtLeast(1),
        unit="value",
        comma=Comma(int),
        help="chip counts to sweep (default: 1,2,4)",
    )
    shardings: Tuple[str, ...] = knob(
        ("head",),
        "--shardings",
        "S1,S2",
        OneOf(SHARDINGS, "sharding"),
        unit="policy",
        comma=Comma(),
        help="sharding policies to sweep (default: head)",
    )
    link_bws: Tuple[Optional[float], ...] = knob(
        (None,),
        "--link-bws",
        "B1,B2",
        Above(0),
        unit="bandwidth",
        comma=Comma(float, none=True),
        help="link bandwidths in bytes/cycle; 'none' leaves it unmodeled",
    )
    link_latency: int = knob(
        0, "--link-latency", "C", AtLeast(0), help="per-collective hop latency in cycles"
    )
    topology: str = knob(
        "all-to-all", "--topology", rule=OneOf(TOPOLOGIES, "topology"), help="interconnect topology"
    )
    engine: Optional[str] = knob(
        None,
        "--engine",
        rule=_ENGINE,
        none_means="vector",
        cli_default="vector",
        help="vector folds each sharded scenario; cycle is the serial oracle",
    )

    def rule_violations(self) -> List[str]:
        errors = super().rule_violations()
        if not errors and "tensor" in self.shardings:
            from ..cluster.build import shard_config

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
        """The one scenario every cluster point shards, with the build
        defaults filled in (matching ``repro simulate --scenario``)."""
        return self._scenario(self.binding)

    def build_points(self) -> Tuple[ClusterPoint, ...]:
        """Every cluster point of the sweep, chips outermost, then
        shardings, then link bandwidths."""
        from ..cluster.sweep import ClusterPoint

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
    ENGINE_MODULES = (
        "repro.model.scenario",
        "repro.model.cluster",
        "repro.cluster.sweep",
    )

    tolerance: float = knob(
        0.05,
        "--tolerance",
        "T",
        AtLeast(0),
        help="flag |simulated - analytical| utilization beyond T",
    )
    bandwidth: bool = knob(
        False, "--bandwidth", help="also cross-check the bandwidth-limited grid (dram rows)"
    )
    capacity: bool = knob(
        False, "--capacity", help="also cross-check the finite-buffer grid (capacity-bound)"
    )
    cluster: bool = knob(
        False, "--cluster", help="also cross-check the sharded multi-chip grid (link rows)"
    )
    scenarios: Optional[Tuple[Scenario, ...]] = None

    def rule_violations(self) -> List[str]:
        errors = super().rule_violations()
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
