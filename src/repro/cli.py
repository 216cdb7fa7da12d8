"""Command-line interface: ``python -m repro <command>``.

Every evaluation command is a thin adapter over :mod:`repro.api`:
parse flags → build a typed request → ``Session.run`` → format the
payload.  The options that fill request fields are generated from the
fields' :func:`~repro.api.knobs.knob` declarations, and the parsed flags
turn back into request keyword arguments by the same field names, so a
knob's flag, type, choices, metavar and help are written only where the
field is declared.  A new knob with a flag on ``ScenarioGridRequest``,
``ServeRequest``, ``ClusterRequest`` or ``CrosscheckRequest`` reaches its
command with no edit here; ``simulate`` names its fields in option order
because three requests share it.  The request's ``validate()`` owns the
range and cross-field rules; the CLI only checks which flags belong to
which *mode* (something the typed API makes unrepresentable) and refuses
runtime flags on the serial, uncached cycle-oracle paths.

Commands:

- ``report``            — regenerate every table and figure (text).
- ``fig1b`` … ``fig12``, ``table1`` — one experiment.
- ``sweep``             — run one evaluation grid through the runtime,
  or ``--grid`` for a scenario grid over models × batch × heads ×
  decode-instances (``ScenarioGridRequest``).
- ``taxonomy``          — classify the attention cascades (Table I).
- ``passes CASCADE``    — pass analysis of a named cascade
  (``3pass``, ``3pass-divopt``, ``2pass``, ``1pass``, ``causal``,
  ``sigmoid``).
- ``simulate``          — run the binding pipeline simulation
  (``--engine vector|cycle``), ``--sweep`` to scan chunk counts ×
  bindings × array dims × 1D lanes × embeddings and emit utilization
  vs sequence length (``--format table|csv|json``), or ``--scenario``
  to schedule N (batch, head) instances contending for the shared
  arrays in one merged graph (``--model/--batch/--heads`` or
  ``--instances``, plus ``--decode-instances`` for a decode mix,
  ``--mixed-models`` for one schedule spanning several embedding
  widths, ``--dram-bw`` for shared-memory-bandwidth contention, and
  ``--buffer-bytes``/``--qos`` for buffer-capacity spills and DRAM
  arbitration policy).
- ``serve``             — open-loop serving simulation: seeded Poisson
  arrivals (``--rate R1,R2`` in requests per kilocycle, one
  latency-vs-load row per rate) or a replayable ``--trace`` file join a
  running schedule through a continuous-batching window
  (``--max-inflight``), reporting TTFT/TBT/p50/p99 latency and goodput
  at ``--deadline``.  ``--chips N`` spreads requests over a cluster of
  identical arrays, with ``--link-bw``/``--link-latency`` pricing each
  request's prefill-output gather on the shared interconnect.  Per-rate
  points batch through ``Session.submit()/gather()``.
- ``cluster``           — sharded multi-chip scenario sweep: one
  workload lowered over ``--chips`` × ``--shardings`` ×
  ``--link-bws`` (collectives arbitrate a shared ``link`` resource),
  one strong-scaling row per cluster point through the pooled runtime.
- ``crosscheck``        — simulate every seed scenario and diff its
  per-array utilization against the analytical models, flagging
  divergence beyond ``--tolerance`` (``--bandwidth`` adds the
  bandwidth-limited grid and its ``dram`` rows; ``--capacity`` the
  finite-buffer grid against the capacity-bound roofline term;
  ``--cluster`` the sharded multi-chip grid and its ``link`` rows).

Grid-backed commands accept ``--jobs N`` (parallel evaluation over
processes), ``--cache``/``--no-cache`` (content-addressed result reuse;
``--cache`` persists to ``--cache-dir``), and the output is identical
for every combination.  ``--retries N``, ``--task-timeout S``, and
``--on-error raise|skip`` add the fault policy: failed grid points
retry with deterministic backoff, hung points are timed out, and
``skip`` degrades exhausted points to per-task failure records instead
of aborting the sweep.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from typing import Any, Callable, Dict, List, Sequence, Union, get_args, get_origin, get_type_hints

from .api import (
    EXPERIMENT_NAMES,
    GRID_EXPERIMENTS,
    BindingSweepRequest,
    ClusterRequest,
    CrosscheckRequest,
    ExperimentRequest,
    RequestValidationError,
    ScenarioGridRequest,
    ScenarioRequest,
    ServeRequest,
    Session,
)
from .api.knobs import FIELD_DEFAULT, OneOf, knob_of
from .experiments.common import format_table
from .rows import FORMATS, emit_rows
from .runtime.cache import ResultCache
from .runtime.faults import RetryPolicy, TaskError, TaskFailure
from .serving.arrivals import parse_trace
from .workloads.models import seq_label

#: ``passes``'s cascades (built by :func:`_cascade`, which imports the
#: einsum stack only when the command runs).
_CASCADES = ("3pass", "3pass-divopt", "2pass", "1pass", "causal", "sigmoid")

#: Experiment subcommand names (one subparser each); the grid-backed
#: subset accepting --jobs/--cache comes from ``repro.api`` so parser
#: and Session can never disagree.
_EXPERIMENTS = tuple(name for name in EXPERIMENT_NAMES if name not in ("report", "sweep"))

#: ``simulate``'s options, in order: the flags every mode reads
#: (ScenarioRequest's; the one-shot comparison uses chunks and
#: array_dim), ``--sweep``'s axes (BindingSweepRequest's), then
#: ``--scenario``'s shape.  ``--engine`` serves both requests.
_SIMULATE = ("chunks", "array_dim", "engine")
_SIMULATE_SWEEP = ("chunks", "array_dims", "pe_1d_dims", "embeddings")
_SIMULATE_SCENARIO = (
    "profile",
    "model",
    "batch",
    "heads",
    "instances",
    "pe_1d",
    "slots",
    "decode_instances",
    "decode_chunks",
    "dram_bw",
    "buffer_bytes",
    "qos",
    "mixed_models",
    "binding",
)
#: ``sweep``'s evaluation-grid options; ``--grid`` shares ``--models``.
_SWEEP = ("kind", "models", "seq_lens")


class _Refused(Exception):
    """Flags a command cannot run with; each message prints on its own
    line and the command exits 2."""

    def __init__(self, errors: Sequence[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = tuple(errors)


def _refuse_any(errors: Sequence[str]) -> None:
    if errors:
        raise _Refused(errors)


def _make_cache(args):
    """The cache object implied by --cache/--no-cache/--cache-dir."""
    if not getattr(args, "cache", False):
        return False
    if getattr(args, "cache_dir", None):
        return ResultCache(directory=args.cache_dir)
    return True


def _session(args) -> Session:
    """The Session implied by the runtime flags of one invocation."""
    retries = getattr(args, "retries", 0)
    timeout = getattr(args, "task_timeout", None)
    retry = None
    if retries or timeout is not None:
        retry = RetryPolicy(max_attempts=retries + 1, task_timeout_s=timeout)
    return Session(
        jobs=getattr(args, "jobs", 1),
        cache=_make_cache(args),
        registry=getattr(args, "registry", None) or None,
        retry=retry,
        on_error=getattr(args, "on_error", "raise"),
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


#: argparse type of an int knob, by the minimum its rule sets.
_INT_TYPES = {1: _positive_int, 0: _nonnegative_int}


def _flagged(cls: type) -> List[str]:
    """The fields of ``cls`` that have a CLI flag, in field order."""
    return [f.name for f in fields(cls) if getattr(f.metadata.get("knob"), "flag", None)]


def _options(cls: type, names: Sequence[str]):
    """(field, knob, value type, parser default, help) for ``names`` of
    ``cls``.  The value type is the annotation's ``int``/``float``/
    ``str``/``bool`` (``Optional`` stripped), or ``tuple`` for an axis;
    the help ends with the scalar default the field builds with."""
    hints = get_type_hints(cls)
    defaults = {f.name: f.default for f in fields(cls)}
    for name in names:
        knob, kind = knob_of(cls, name), hints[name]
        if get_origin(kind) is Union:
            kind = next(arg for arg in get_args(kind) if arg is not type(None))
        kind = tuple if get_origin(kind) is tuple else kind
        default = knob.cli_default
        if default is FIELD_DEFAULT:
            default = None if kind is tuple or knob.takes_text else defaults[name]
        builds = defaults[name] if knob.none_means is None else knob.none_means
        shown = builds is not None and not isinstance(builds, (bool, tuple))
        help_ = f"{knob.help} (default {builds})" if shown else knob.help
        yield name, knob, kind, default, help_


def _add_knobs(parser: argparse.ArgumentParser, cls: type, names: Sequence[str]) -> None:
    """One option per named field of ``cls``, from its knob."""
    for _, knob, kind, default, help_ in _options(cls, names):
        if kind is bool:
            parser.add_argument(knob.flag, action="store_true", help=help_)
            continue
        spec: Dict[str, Any] = dict(default=default, metavar=knob.metavar, help=help_)
        if not knob.takes_text and kind in (int, float):
            spec["type"] = _INT_TYPES[knob.rule.minimum] if kind is int else float
        if knob.cli_choices is not None:
            spec["choices"] = knob.cli_choices
        elif isinstance(knob.rule, OneOf) and knob.rule.cli and kind is str:
            spec["choices"] = knob.rule.choices
        parser.add_argument(knob.flag, **spec)


def _given(args, cls: type, names: Sequence[str]) -> List[str]:
    """The flags among ``names`` of ``cls`` set away from their default."""
    return [
        knob.flag
        for _, knob, _, default, _ in _options(cls, names)
        if getattr(args, knob.dest) != default
    ]


def _request_fields(args, cls: type, names: Sequence[str]) -> Dict[str, Any]:
    """Keyword arguments of ``cls`` from the parsed flags of ``names``
    (unset flags are left out, so the request keeps its defaults)."""
    values = {}
    for name, knob, *_ in _options(cls, names):
        value = getattr(args, knob.dest)
        if value is not None and knob.takes_text:
            try:
                value = knob.from_text(value)
            except ValueError as error:
                raise _Refused([f"invalid {knob.flag} {value!r}: {error}"]) from None
        if value is not None:
            values[name] = value
    return values


def _cycle_refusal(args) -> None:
    """The cycle oracle runs serial and uncached — so a cached vector
    result can never masquerade as a cycle run — and every path to it
    refuses the runtime flags rather than ignoring them."""
    if args.engine != "cycle":
        return
    refused = [
        flag
        for flag, given in (
            ("--registry", bool(args.registry)),
            ("--jobs", args.jobs != 1),
            ("--cache-dir", bool(args.cache_dir)),
            ("--retries", args.retries != 0),
            ("--task-timeout", args.task_timeout is not None),
            ("--on-error", args.on_error != "raise"),
        )
        if given
    ]
    if refused:
        message = f"{', '.join(refused)} applies to runtime-backed runs only"
        raise _Refused([f"{message}; the cycle oracle path is serial and uncached"])


def _add_output_args(parser: argparse.ArgumentParser, rows: str) -> None:
    parser.add_argument(
        "--format", choices=FORMATS, default=None, help="output format (default: table)"
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help=f"write the {rows} to FILE instead of stdout",
    )
    parser.add_argument(
        "--registry", metavar="DIR", default=None, help="record the run as JSON under DIR"
    )


def _add_runtime_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="evaluate grid points over N worker processes",
    )
    cache = parser.add_mutually_exclusive_group()
    cache.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        default=True,
        help="reuse cached grid-point results (default)",
    )
    cache.add_argument(
        "--no-cache", dest="cache", action="store_false", help="recompute every grid point"
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist the result cache under DIR (implies --cache)",
    )
    parser.add_argument(
        "--retries",
        type=_nonnegative_int,
        default=0,
        metavar="N",
        help="retry each failed grid point up to N times with "
        "deterministic backoff (default 0: fail fast)",
    )
    parser.add_argument(
        "--task-timeout",
        type=_positive_float,
        default=None,
        metavar="S",
        help="per-grid-point timeout in seconds; a hung point fails the "
        "attempt (and retries under --retries)",
    )
    parser.add_argument(
        "--on-error",
        choices=("raise", "skip"),
        default="raise",
        help="when a grid point exhausts its attempts: abort the sweep "
        "(raise, default) or degrade it to a per-task failure record (skip)",
    )


def _cmd_report(args) -> int:
    result = _session(args).run(ExperimentRequest(name="report"))
    print(result.payload)
    return 0


def _cmd_experiment(args) -> int:
    result = _session(args).run(ExperimentRequest(name=args.command))
    # The payload is the driver's captured stdout, newline included.
    print(result.payload, end="")
    return 0


def _cmd_sweep(args) -> int:
    """Run one evaluation grid through the runtime and summarize it."""
    # Flags assigned to the wrong sweep mode (the typed requests make
    # these combinations unrepresentable; the CLI still reports them).
    if args.grid:
        eval_only = _given(args, ExperimentRequest, ("kind", "seq_lens"))
        _refuse_any([f"{flag} does not apply to --grid" for flag in eval_only])
        return _cmd_sweep_grid(args)
    grid_only = _given(args, ScenarioGridRequest, _grid_fields())
    outputs = {"--format": args.format, "--output": args.output}
    grid_only += [flag for flag, value in outputs.items() if value is not None]
    _refuse_any([f"{flag} requires --grid" for flag in grid_only])
    request = ExperimentRequest(name="sweep", **_request_fields(args, ExperimentRequest, _SWEEP))
    request.validate()
    try:
        result = _session(args).run(request)
    except (ValueError, TaskError) as error:
        raise _Refused([f"sweep failed: {error}"]) from None
    rows = []
    failed = 0
    for (config, model, seq_len), r in result.payload.items():
        if isinstance(r, TaskFailure):  # skipped under --on-error skip
            cells = ("FAILED", "-")
            failed += 1
        else:
            cells = (f"{r.latency_cycles:.3e}", f"{r.energy_pj:.3e}")
        rows.append((config, model, seq_label(seq_len), *cells))
    print(format_table(["config", "model", "L", "latency (cycles)", "energy (pJ)"], rows))
    summary = f"{len(rows)} grid points ({request.resolved_kind}), jobs={args.jobs}"
    print(summary + (f", {failed} failed" if failed else ""))
    _report_recorded(result.provenance)
    return 0


def _grid_fields() -> List[str]:
    """``sweep --grid``'s own options (it shares ``--models``)."""
    return [name for name in _flagged(ScenarioGridRequest) if name not in _SWEEP]


def _cmd_sweep_grid(args) -> int:
    """The scenario grid: models x batches x heads x decode-instances."""
    fields_ = _request_fields(args, ScenarioGridRequest, _flagged(ScenarioGridRequest))
    result = _session(args).run(ScenarioGridRequest(**fields_))
    cells = result.payload
    summary = f"{len(cells)} grid cells (scenario_grid), jobs={args.jobs}"
    if result.provenance.cache_hits is not None:
        summary += f", cache hits {result.provenance.cache_hits}/{len(cells)}"
    _emit_rows(args, cells, "grid cells", result.provenance, summary)
    return 0


def _cmd_taxonomy(_args) -> int:
    from .analysis.taxonomy import build_taxonomy

    for name, entry in build_taxonomy().items():
        exemplars = ", ".join(entry.exemplars)
        print(f"{name}: {entry.category} ({exemplars})")
    return 0


def _cascade(name: str):
    """The attention cascade ``passes`` names."""
    from .cascades.attention import attention_1pass, attention_2pass, attention_3pass
    from .cascades.extensions import causal_attention, sigmoid_attention

    return {
        "3pass": attention_3pass,
        "3pass-divopt": lambda: attention_3pass(div_opt=True),
        "2pass": attention_2pass,
        "1pass": attention_1pass,
        "causal": causal_attention,
        "sigmoid": sigmoid_attention,
    }[name]()


def _cmd_passes(args) -> int:
    if args.cascade not in _CASCADES:
        print(f"unknown cascade {args.cascade!r}; have {sorted(_CASCADES)}", file=sys.stderr)
        return 2
    from .analysis.footprint import live_footprints
    from .analysis.passes import count_passes
    from .analysis.taxonomy import attention_rank_family

    cascade = _cascade(args.cascade)
    fam = attention_rank_family(cascade)
    analysis = count_passes(cascade, fam)
    print(f"{cascade.name}: {analysis.num_passes}-pass over {fam}")
    for label, info in analysis.info.items():
        where = (
            f"pass {info.pass_number}"
            if info.pass_number is not None
            else ("view" if info.is_view else f"between passes (t={info.time})")
        )
        print(f"  {label:>6}: {where}")
    shapes = {"E": 64, "F": 64, "M": 65536, "P": 1024, "M0": 256, "M1": 256}
    report = live_footprints(analysis, shapes)
    seq_dep = report.sequence_dependent_tensors()
    print(f"sequence-dependent live tensors: {seq_dep or 'none'}")
    return 0


def _report_recorded(provenance) -> None:
    """The ``recorded run`` trailer, when the session recorded one."""
    if provenance.run_id is not None:
        print(
            f"recorded run {provenance.run_id} "
            f"(digest {provenance.result_digest}, "
            f"{provenance.recorded_duration_s:.3f}s)"
        )


def _emit_rows(args, rows, noun: str, provenance, summary=None) -> None:
    """Shared tail of the row-emitting commands: render the rows in
    ``--format``, write or print them, print ``summary`` if given, then
    report the recorded run, if any."""
    fmt = args.format or "table"
    payload = emit_rows(rows, fmt)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(payload)
            if not payload.endswith("\n"):
                handle.write("\n")
        print(f"{len(rows)} {noun} -> {args.output} ({fmt}, jobs={args.jobs})")
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")
    if summary is not None:
        print(summary)
    _report_recorded(provenance)


def _simulate_flag_errors(args) -> List[str]:
    """Simulate flags assigned to the wrong mode (silently ignoring a
    flag the user passed would hand back wrong numbers without warning).

    Only *mode routing* lives here — which flags belong to the one-shot
    comparison, ``--sweep``, and ``--scenario``.  The cross-field rules
    (model vs instances, decode-chunks, slots, unknown models/bindings)
    live in the typed requests' ``validate()``.
    """
    errors = []
    if args.sweep and args.scenario:
        errors.append("--sweep and --scenario are mutually exclusive")
    if args.sweep:
        # The sweep axes replace the one-shot/scenario shape flags.
        errors.extend(
            f"{knob_of(ScenarioRequest, shape).flag} does not apply to --sweep "
            f"(use {knob_of(BindingSweepRequest, axis).flag})"
            for shape, axis in (("chunks", "chunks"), ("array_dim", "array_dims"))
            if _given(args, ScenarioRequest, [shape])
        )
    if not args.scenario:
        scenario_only = _given(args, ScenarioRequest, _SIMULATE_SCENARIO)
        errors.extend(f"{flag} requires --scenario" for flag in scenario_only)
    if not args.sweep:
        sweep_only = _given(args, BindingSweepRequest, _SIMULATE_SWEEP)
        errors.extend(f"{flag} requires --sweep" for flag in sweep_only)
    if not args.sweep and not args.scenario:
        # The one-shot comparison prints a fixed two-line summary and
        # never touches the runtime knobs.
        errors.extend(
            f"{flag} requires --sweep or --scenario"
            for flag, given in (
                ("--format", args.format is not None),
                ("--output", args.output is not None),
                ("--registry", args.registry is not None),
                ("--jobs", args.jobs != 1),
                ("--cache-dir", args.cache_dir is not None),
            )
            if given
        )
    return errors


def _cmd_simulate(args) -> int:
    _refuse_any(_simulate_flag_errors(args))
    if args.sweep:
        return _cmd_simulate_sweep(args)
    _cycle_refusal(args)
    if args.scenario:
        return _cmd_simulate_scenario(args)
    shape = ScenarioRequest(**_request_fields(args, ScenarioRequest, _SIMULATE))
    request = BindingSweepRequest(
        chunks=(shape.resolved("chunks"),),
        array_dims=(shape.resolved("array_dim"),),
        engine=shape.engine,
    )
    for (name, _, _, _, _), r in _session(args).run(request).payload.items():
        print(f"{name:12s} makespan={r.makespan:7d} util2d={r.util_2d:.3f} util1d={r.util_1d:.3f}")
    return 0


def _cmd_simulate_sweep(args) -> int:
    """The long-sequence binding sweep through the parallel runtime."""
    if args.engine == "cycle":
        message = "the cycle oracle cannot reach the long-sequence points"
        raise _Refused([f"--sweep runs the folded vector core; {message}"])
    fields_ = _request_fields(args, BindingSweepRequest, _SIMULATE_SWEEP + ("engine",))
    result = _session(args).run(BindingSweepRequest(**fields_))
    _emit_rows(args, result.payload, "binding points", result.provenance)
    return 0


def _cmd_simulate_scenario(args) -> int:
    """Merged multi-(batch, head) schedules through the runtime."""
    fields_ = _request_fields(args, ScenarioRequest, _SIMULATE + _SIMULATE_SCENARIO)
    result = _session(args).run(ScenarioRequest(**fields_))
    for prof in result.provenance.profiles or ():
        print(prof.describe(), file=sys.stderr)
    _emit_rows(args, result.payload, "scenario schedules", result.provenance)
    return 0


def _cmd_serve(args) -> int:
    """Open-loop serving: one latency-vs-load row per offered rate.

    Every rate point becomes one :class:`ServeRequest`; the points batch
    through ``Session.submit()``/``gather()``, so a multi-rate sweep
    pools into a single pass of the parallel runtime and reruns are pure
    cache reads.
    """
    if (args.rate is None) == (args.trace is None):
        raise _Refused(["exactly one of --rate and --trace must be given"])
    common = _request_fields(args, ServeRequest, _flagged(ServeRequest))
    if args.trace is not None:
        try:
            with open(args.trace) as handle:
                text = handle.read()
        except OSError as error:
            raise _Refused([f"cannot read --trace {args.trace}: {error}"]) from None
        try:
            arrivals = parse_trace(text)
        except ValueError as error:
            raise _Refused([f"--trace {args.trace}: {error}"]) from None
        requests = [ServeRequest(trace=arrivals, **common)]
    else:
        rates = common.pop("rate")
        requests = [ServeRequest(rate=rate, **common) for rate in rates]
    session = _session(args)
    for request in requests:
        session.submit(request)
    results = session.gather()
    rows = [result.payload for result in results]
    _emit_rows(args, rows, "serving points", results[0].provenance)
    return 0


def _cmd_cluster(args) -> int:
    """Sharded multi-chip scenario sweep through the pooled runtime."""
    _cycle_refusal(args)
    fields_ = _request_fields(args, ClusterRequest, _flagged(ClusterRequest))
    result = _session(args).run(ClusterRequest(**fields_))
    _emit_rows(args, result.payload, "cluster points", result.provenance)
    return 0


def _cmd_crosscheck(args) -> int:
    """Simulated vs analytical utilization over the seed scenarios."""
    from .experiments.crosscheck import render

    fields_ = _request_fields(args, CrosscheckRequest, _flagged(CrosscheckRequest))
    report = _session(args).run(CrosscheckRequest(**fields_)).payload
    print("Scenario cross-check: simulated vs analytical utilization")
    print(render(report))
    if args.strict and not report.ok:
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """An ``argparse`` parser whose ``--version`` action, given no
    version string, prints :attr:`version`: the package version is
    looked up only when ``--version`` is asked for."""

    @property
    def version(self) -> str:
        from . import __version__

        return f"%(prog)s {__version__}"


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser: hand-written mode and runtime flags around
    the request-field options generated from their knobs."""
    parser = _Parser(prog="repro", description="FuseMax reproduction toolkit")
    parser.add_argument(
        "--version",
        action="version",
        help="print the package version (from distribution metadata)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("report", help="regenerate every table and figure")
    _add_runtime_args(report)
    for name in _EXPERIMENTS:
        experiment = sub.add_parser(name, help=f"regenerate {name}")
        if name in GRID_EXPERIMENTS:
            _add_runtime_args(experiment)

    sweep = sub.add_parser("sweep", help="run one evaluation grid (or --grid scenario grid)")
    _add_knobs(sweep, ExperimentRequest, _SWEEP)
    sweep.add_argument(
        "--grid",
        action="store_true",
        help="run a scenario grid over models x batches x heads x decode-instances "
        "(each cell one merged schedule + its analytical estimate, cached per cell)",
    )
    _add_knobs(sweep, ScenarioGridRequest, _grid_fields())
    _add_output_args(sweep, "grid")
    _add_runtime_args(sweep)

    sub.add_parser("taxonomy", help="Table I classification")
    passes = sub.add_parser("passes", help="pass analysis of one cascade")
    passes.add_argument("cascade", help=f"one of {sorted(_CASCADES)}")

    simulate = sub.add_parser("simulate", help="binding pipeline simulation / long-sequence sweep")
    _add_knobs(simulate, ScenarioRequest, _SIMULATE)
    simulate.add_argument(
        "--sweep",
        action="store_true",
        help="scan chunk counts x bindings x array dims through the "
        "parallel runtime and emit a utilization-vs-length table",
    )
    _add_knobs(simulate, BindingSweepRequest, _SIMULATE_SWEEP)
    simulate.add_argument(
        "--scenario",
        action="store_true",
        help="schedule N (batch, head) instances contending for the "
        "shared arrays in one merged graph",
    )
    _add_knobs(simulate, ScenarioRequest, _SIMULATE_SCENARIO)
    _add_output_args(simulate, "sweep or scenario rows")
    _add_runtime_args(simulate)

    serve = sub.add_parser(
        "serve", help="open-loop serving simulation: arrivals, continuous batching, SLO metrics"
    )
    rate, *shape = _flagged(ServeRequest)
    _add_knobs(serve, ServeRequest, [rate])
    serve.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="replay an explicit arrival trace ('at chunks [decode_tokens]' "
        "per line; mutually exclusive with --rate)",
    )
    _add_knobs(serve, ServeRequest, shape)
    _add_output_args(serve, "serving rows")
    _add_runtime_args(serve)

    cluster = sub.add_parser(
        "cluster", help="sharded multi-chip scenario sweep over a modeled interconnect"
    )
    _add_knobs(cluster, ClusterRequest, _flagged(ClusterRequest))
    _add_output_args(cluster, "cluster rows")
    _add_runtime_args(cluster)

    check = sub.add_parser(
        "crosscheck", help="simulated vs analytical utilization over the seed scenarios"
    )
    tolerance, *grids = _flagged(CrosscheckRequest)
    _add_knobs(check, CrosscheckRequest, [tolerance])
    check.add_argument(
        "--strict", action="store_true", help="exit non-zero when any comparison diverges"
    )
    _add_knobs(check, CrosscheckRequest, grids)
    _add_runtime_args(check)
    return parser


_HANDLERS: Dict[str, Callable] = {
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "taxonomy": _cmd_taxonomy,
    "passes": _cmd_passes,
    "simulate": _cmd_simulate,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "crosscheck": _cmd_crosscheck,
    **{name: _cmd_experiment for name in _EXPERIMENTS},
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cache_dir", None) and not getattr(args, "cache", True):
        parser.error("--cache-dir cannot be combined with --no-cache")
    try:
        status = _HANDLERS[args.command](args)
        sys.stdout.flush()
    except (_Refused, RequestValidationError) as error:
        # One message per line: the CLI's historical error style.
        for message in error.errors:
            print(message, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe early (``repro ... | head``).  As
        # Python's docs recommend, point stdout at devnull so the final
        # flush at exit cannot raise again, and exit without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
