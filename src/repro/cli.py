"""Command-line interface: ``python -m repro <command>``.

Every evaluation command is a thin adapter over :mod:`repro.api`:
parse flags → build a typed request → ``Session.run`` → format the
payload.  The request's ``validate()`` owns the cross-field rules; the
CLI only checks which flags belong to which *mode* (something the typed
API makes unrepresentable).

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
from typing import Callable, Dict

from . import __version__
from .analysis import count_passes, live_footprints
from .analysis.taxonomy import attention_rank_family, build_taxonomy
from .api import (
    ENGINES,
    GRID_EXPERIMENTS,
    GRID_KINDS,
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
from .cascades import (
    attention_1pass,
    attention_2pass,
    attention_3pass,
    causal_attention,
    sigmoid_attention,
)
from .cluster import SHARDINGS, TOPOLOGIES
from .experiments import crosscheck as _crosscheck
from .experiments.common import format_table
from .rows import FORMATS, emit_rows
from .runtime import ResultCache, RetryPolicy
from .serving import parse_trace
from .workloads.models import BATCH_SIZE, seq_label
from .workloads.scenario import BINDINGS, QOS_MODES

_CASCADES: Dict[str, Callable] = {
    "3pass": attention_3pass,
    "3pass-divopt": lambda: attention_3pass(div_opt=True),
    "2pass": attention_2pass,
    "1pass": attention_1pass,
    "causal": causal_attention,
    "sigmoid": sigmoid_attention,
}

#: Experiment subcommand names (one subparser each); the grid-backed
#: subset accepting --jobs/--cache and the evaluation-grid kinds come
#: from ``repro.api`` so parser and Session can never disagree.
_EXPERIMENTS = (
    "ablations", "fig1b", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "table1",
)


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


def _run_validated(session: Session, request):
    """``session.run`` with validation errors printed one per line (the
    CLI's historical error style); returns None on rejection."""
    try:
        return session.run(request)
    except RequestValidationError as error:
        for message in error.errors:
            print(message, file=sys.stderr)
        return None


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


def _add_runtime_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="evaluate grid points over N worker processes",
    )
    cache = parser.add_mutually_exclusive_group()
    cache.add_argument(
        "--cache", dest="cache", action="store_true", default=True,
        help="reuse cached grid-point results (default)",
    )
    cache.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="recompute every grid point",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist the result cache under DIR (implies --cache)",
    )
    parser.add_argument(
        "--retries", type=_nonnegative_int, default=0, metavar="N",
        help="retry each failed grid point up to N times with "
             "deterministic backoff (default 0: fail fast)",
    )
    parser.add_argument(
        "--task-timeout", type=_positive_float, default=None, metavar="S",
        help="per-grid-point timeout in seconds; a hung point fails the "
             "attempt (and retries under --retries)",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "skip"), default="raise",
        help="when a grid point exhausts its attempts: abort the sweep "
             "(raise, default) or degrade it to a per-task failure "
             "record (skip)",
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


def _sweep_grid_flag_errors(args):
    """Flags assigned to the wrong sweep mode (the typed requests make
    these combinations unrepresentable; the CLI still reports them)."""
    grid_only = (
        ("--batches", args.batches is not None),
        ("--heads-list", args.heads_list is not None),
        ("--decode-list", args.decode_list is not None),
        ("--chunks", args.chunks is not None),
        ("--decode-chunks", args.decode_chunks is not None),
        ("--binding", args.binding is not None),
        ("--array-dim", args.array_dim is not None),
        ("--pe1d", args.pe1d is not None),
        ("--slots", args.slots is not None),
        ("--dram-bw", args.dram_bw is not None),
        ("--buffer-bytes", args.buffer_bytes is not None),
        ("--qos", args.qos is not None),
        ("--format", args.format is not None),
        ("--output", args.output is not None),
    )
    if args.grid:
        return [
            f"{flag} does not apply to --grid"
            for flag, given in (("--kind", args.kind is not None),
                                ("--seq-lens", args.seq_lens is not None))
            if given
        ]
    return [f"{flag} requires --grid" for flag, given in grid_only if given]


def _cmd_sweep(args) -> int:
    """Run one evaluation grid through the runtime and summarize it."""
    errors = _sweep_grid_flag_errors(args)
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        return 2
    if args.grid:
        return _cmd_sweep_grid(args)
    models = None
    if args.models:
        models = tuple(args.models.split(","))
    seq_lens = None
    if args.seq_lens:
        try:
            seq_lens = tuple(int(s) for s in args.seq_lens.split(","))
        except ValueError:
            print(f"invalid --seq-lens {args.seq_lens!r}: "
                  "expected comma-separated integers", file=sys.stderr)
            return 2
    session = _session(args)
    request = ExperimentRequest(
        name="sweep", kind=args.kind, models=models, seq_lens=seq_lens,
    )
    try:
        result = _run_validated(session, request)
    except ValueError as error:
        print(f"sweep failed: {error}", file=sys.stderr)
        return 2
    if result is None:
        return 2
    results = result.payload
    kind = request.resolved_kind
    print(format_table(
        ["config", "model", "L", "latency (cycles)", "energy (pJ)"],
        [
            (config, model, seq_label(seq_len),
             f"{r.latency_cycles:.3e}", f"{r.energy_pj:.3e}")
            for (config, model, seq_len), r in results.items()
        ],
    ))
    print(f"{len(results)} grid points ({kind}), jobs={args.jobs}")
    _report_recorded(result.provenance)
    return 0


def _cmd_sweep_grid(args) -> int:
    """The scenario grid: models x batches x heads x decode-instances."""
    axes = {}
    for field, flag, text, minimum in (
        ("batches", "--batches", args.batches, 1),
        ("heads", "--heads-list", args.heads_list, 1),
        ("decode_instances", "--decode-list", args.decode_list, 0),
    ):
        if text is not None:
            values = _parse_int_list(text, flag, minimum)
            if values is None:
                return 2
            axes[field] = values
    if args.models:
        axes["models"] = tuple(args.models.split(","))
    if args.binding is not None:
        axes["bindings"] = (
            BINDINGS if args.binding == "both" else (args.binding,)
        )
    for field, value in (
        ("chunks", args.chunks), ("decode_chunks", args.decode_chunks),
        ("array_dim", args.array_dim), ("pe_1d", args.pe1d),
        ("slots", args.slots), ("dram_bw", args.dram_bw),
        ("buffer_bytes", args.buffer_bytes), ("qos", args.qos),
    ):
        if value is not None:
            axes[field] = value
    result = _run_validated(_session(args), ScenarioGridRequest(**axes))
    if result is None:
        return 2
    cells = result.payload
    summary = f"{len(cells)} grid cells (scenario_grid), jobs={args.jobs}"
    if result.provenance.cache_hits is not None:
        summary += f", cache hits {result.provenance.cache_hits}/{len(cells)}"
    _emit_rows(args, cells, "grid cells", result.provenance, summary)
    return 0


def _cmd_taxonomy(_args) -> int:
    for name, entry in build_taxonomy().items():
        exemplars = ", ".join(entry.exemplars)
        print(f"{name}: {entry.category} ({exemplars})")
    return 0


def _cmd_passes(args) -> int:
    try:
        cascade = _CASCADES[args.cascade]()
    except KeyError:
        print(f"unknown cascade {args.cascade!r}; have {sorted(_CASCADES)}",
              file=sys.stderr)
        return 2
    fam = attention_rank_family(cascade)
    analysis = count_passes(cascade, fam)
    print(f"{cascade.name}: {analysis.num_passes}-pass over {fam}")
    for label, info in analysis.info.items():
        where = (
            f"pass {info.pass_number}" if info.pass_number is not None
            else ("view" if info.is_view else f"between passes (t={info.time})")
        )
        print(f"  {label:>6}: {where}")
    shapes = {"E": 64, "F": 64, "M": 65536, "P": 1024, "M0": 256, "M1": 256}
    report = live_footprints(analysis, shapes)
    seq_dep = report.sequence_dependent_tensors()
    print(f"sequence-dependent live tensors: {seq_dep or 'none'}")
    return 0


def _parse_int_list(text: str, flag: str, minimum: int = 1):
    """Comma-separated ints bounded below by ``minimum``, or None after
    a one-line stderr message (every sweep axis — chunks, array dims,
    lanes, embeddings, decode counts — is a physical count)."""
    try:
        values = tuple(int(item) for item in text.split(","))
    except ValueError:
        print(f"invalid {flag} {text!r}: expected comma-separated integers",
              file=sys.stderr)
        return None
    if any(value < minimum for value in values):
        print(f"invalid {flag} {text!r}: values must be >= {minimum}",
              file=sys.stderr)
        return None
    return values


def _report_recorded(provenance) -> None:
    """The ``recorded run`` trailer, when the session recorded one."""
    if provenance.run_id is not None:
        print(f"recorded run {provenance.run_id} "
              f"(digest {provenance.result_digest}, "
              f"{provenance.recorded_duration_s:.3f}s)")


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
        print(f"{len(rows)} {noun} -> {args.output} "
              f"({fmt}, jobs={args.jobs})")
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")
    if summary is not None:
        print(summary)
    _report_recorded(provenance)


def _simulate_flag_errors(args):
    """Simulate flags assigned to the wrong mode (silently ignoring a
    flag the user passed would hand back wrong numbers without warning).

    Only *mode routing* lives here — which flags belong to the one-shot
    comparison, ``--sweep``, and ``--scenario``.  The cross-field rules
    (model vs instances, decode-chunks, slots, unknown models/bindings)
    moved into the typed requests' ``validate()``.
    """
    errors = []
    if args.sweep and args.scenario:
        errors.append("--sweep and --scenario are mutually exclusive")
    scenario_only = (
        ("--model", args.model is not None),
        ("--mixed-models", args.mixed_models is not None),
        ("--batch", args.batch is not None),
        ("--heads", args.heads is not None),
        ("--instances", args.instances is not None),
        ("--pe1d", args.pe1d is not None),
        ("--slots", args.slots is not None),
        ("--decode-instances", args.decode_instances != 0),
        ("--decode-chunks", args.decode_chunks is not None),
        ("--dram-bw", args.dram_bw is not None),
        ("--buffer-bytes", args.buffer_bytes is not None),
        ("--qos", args.qos is not None),
        ("--binding", args.binding != "both"),
        ("--profile", args.profile),
    )
    sweep_only = (
        ("--chunks-list", args.chunks_list is not None),
        ("--arrays", args.arrays is not None),
        ("--pe1d-list", args.pe1d_list is not None),
        ("--embeddings", args.embeddings is not None),
    )
    if args.sweep:
        # The sweep axes replace the one-shot/scenario shape flags.
        errors.extend(
            f"{flag} does not apply to --sweep (use {alt})"
            for flag, alt, given in (
                ("--chunks", "--chunks-list", args.chunks is not None),
                ("--array-dim", "--arrays", args.array_dim is not None),
            )
            if given
        )
    if not args.scenario:
        errors.extend(
            f"{flag} requires --scenario" for flag, given in scenario_only if given
        )
    if not args.sweep:
        errors.extend(
            f"{flag} requires --sweep" for flag, given in sweep_only if given
        )
    if not args.sweep and not args.scenario:
        # The one-shot comparison prints a fixed two-line summary and
        # never touches the runtime knobs.
        errors.extend(
            f"{flag} requires --sweep or --scenario"
            for flag, given in (("--format", args.format is not None),
                                ("--output", args.output is not None),
                                ("--registry", args.registry is not None),
                                ("--jobs", args.jobs != 1),
                                ("--cache-dir", args.cache_dir is not None))
            if given
        )
    return errors


def _cmd_simulate(args) -> int:
    errors = _simulate_flag_errors(args)
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        return 2
    if args.sweep:
        return _cmd_simulate_sweep(args)
    if args.scenario:
        return _cmd_simulate_scenario(args)
    chunks = 32 if args.chunks is None else args.chunks
    array_dim = 256 if args.array_dim is None else args.array_dim
    result = _run_validated(_session(args), BindingSweepRequest(
        chunks=(chunks,), array_dims=(array_dim,), engine=args.engine,
    ))
    if result is None:
        return 2
    for (name, _, _, _, _), r in result.payload.items():
        print(f"{name:12s} makespan={r.makespan:7d} "
              f"util2d={r.util_2d:.3f} util1d={r.util_1d:.3f}")
    return 0


def _cmd_simulate_sweep(args) -> int:
    """The long-sequence binding sweep through the parallel runtime."""
    if args.engine == "cycle":
        print("--sweep runs the folded vector core; the cycle oracle "
              "cannot reach the long-sequence points", file=sys.stderr)
        return 2
    axes = {}
    for field, flag, text in (
        ("chunks", "--chunks-list", args.chunks_list),
        ("array_dims", "--arrays", args.arrays),
        ("embeddings", "--embeddings", args.embeddings),
        ("pe_1d_dims", "--pe1d-list", args.pe1d_list),
    ):
        if text:
            values = _parse_int_list(text, flag)
            if values is None:
                return 2
            axes[field] = values
    result = _run_validated(_session(args),
                            BindingSweepRequest(engine=args.engine, **axes))
    if result is None:
        return 2
    _emit_rows(args, result.payload, "binding points", result.provenance)
    return 0


def _cmd_simulate_scenario(args) -> int:
    """Merged multi-(batch, head) schedules through the runtime."""
    if args.engine == "cycle":
        # The differential path runs the oracle directly — serial and
        # uncached, so a cached event result can never masquerade as a
        # cycle run.  Reject runtime flags rather than ignore them.
        refused = [
            flag
            for flag, given in (("--registry", bool(args.registry)),
                                ("--jobs", args.jobs != 1),
                                ("--cache-dir", bool(args.cache_dir)),
                                ("--retries", args.retries != 0),
                                ("--task-timeout",
                                 args.task_timeout is not None),
                                ("--on-error", args.on_error != "raise"))
            if given
        ]
        if refused:
            print(f"{', '.join(refused)} applies to runtime-backed runs "
                  "only; the cycle oracle path is serial and uncached",
                  file=sys.stderr)
            return 2
    mixed_models = None
    if args.mixed_models is not None:
        mixed_models = tuple(args.mixed_models.split(","))
    result = _run_validated(_session(args), ScenarioRequest(
        model=args.model, batch=args.batch, heads=args.heads,
        instances=args.instances, mixed_models=mixed_models,
        chunks=args.chunks,
        array_dim=args.array_dim, pe_1d=args.pe1d, slots=args.slots,
        decode_instances=args.decode_instances,
        decode_chunks=args.decode_chunks, dram_bw=args.dram_bw,
        buffer_bytes=args.buffer_bytes,
        qos="uniform" if args.qos is None else args.qos,
        binding=args.binding, profile=args.profile, engine=args.engine,
    ))
    if result is None:
        return 2
    if result.provenance.profiles:
        for prof in result.provenance.profiles:
            print(prof.describe(), file=sys.stderr)
    _emit_rows(args, result.payload, "scenario schedules", result.provenance)
    return 0


def _parse_float_list(text: str, flag: str):
    """Comma-separated floats, or None after a one-line stderr message
    (range rules belong to the typed request's ``validate()``)."""
    try:
        return tuple(float(item) for item in text.split(","))
    except ValueError:
        print(f"invalid {flag} {text!r}: expected comma-separated numbers",
              file=sys.stderr)
        return None


def _cmd_serve(args) -> int:
    """Open-loop serving: one latency-vs-load row per offered rate.

    Every rate point becomes one :class:`ServeRequest`; the points batch
    through ``Session.submit()``/``gather()``, so a multi-rate sweep
    pools into a single pass of the parallel runtime and reruns are pure
    cache reads.
    """
    if (args.rate is None) == (args.trace is None):
        print("exactly one of --rate and --trace must be given",
              file=sys.stderr)
        return 2
    common = dict(
        duration=args.duration, seed=args.seed, chunks=args.chunks,
        decode_tokens=args.decode_tokens, max_inflight=args.max_inflight,
        deadline=args.deadline, binding=args.binding,
        array_dim=args.array_dim, pe_1d=args.pe1d, slots=args.slots,
        dram_bw=args.dram_bw, buffer_bytes=args.buffer_bytes,
        qos="uniform" if args.qos is None else args.qos,
        chips=args.chips, link_bw=args.link_bw,
        link_latency=args.link_latency,
    )
    if args.trace is not None:
        try:
            with open(args.trace) as handle:
                text = handle.read()
        except OSError as error:
            print(f"cannot read --trace {args.trace}: {error}",
                  file=sys.stderr)
            return 2
        try:
            arrivals = parse_trace(text)
        except ValueError as error:
            print(f"--trace {args.trace}: {error}", file=sys.stderr)
            return 2
        requests = [ServeRequest(trace=arrivals, **common)]
    else:
        rates = _parse_float_list(args.rate, "--rate")
        if rates is None:
            return 2
        requests = [ServeRequest(rate=rate, **common) for rate in rates]
    session = _session(args)
    try:
        for request in requests:
            session.submit(request)
    except RequestValidationError as error:
        for message in error.errors:
            print(message, file=sys.stderr)
        return 2
    results = session.gather()
    rows = [result.payload for result in results]
    _emit_rows(args, rows, "serving points", results[0].provenance)
    return 0


def _parse_link_bws(text: str):
    """Comma-separated link bandwidths where ``none`` leaves the
    interconnect unmodeled (the degenerate baseline of every sweep)."""
    values = []
    for item in text.split(","):
        if item.strip().lower() == "none":
            values.append(None)
            continue
        try:
            values.append(float(item))
        except ValueError:
            print(f"invalid --link-bws {text!r}: expected comma-separated "
                  "numbers or 'none'", file=sys.stderr)
            return None
    return tuple(values)


def _cmd_cluster(args) -> int:
    """Sharded multi-chip scenario sweep through the pooled runtime."""
    axes = {}
    if args.chips is not None:
        chips = _parse_int_list(args.chips, "--chips")
        if chips is None:
            return 2
        axes["chips"] = chips
    if args.shardings is not None:
        axes["shardings"] = tuple(args.shardings.split(","))
    if args.link_bws is not None:
        link_bws = _parse_link_bws(args.link_bws)
        if link_bws is None:
            return 2
        axes["link_bws"] = link_bws
    result = _run_validated(_session(args), ClusterRequest(
        model=args.model, batch=args.batch, heads=args.heads,
        instances=args.instances, chunks=args.chunks,
        array_dim=args.array_dim, pe_1d=args.pe1d, slots=args.slots,
        decode_instances=args.decode_instances,
        decode_chunks=args.decode_chunks, dram_bw=args.dram_bw,
        binding=args.binding, link_latency=args.link_latency,
        topology=args.topology, engine=args.engine, **axes,
    ))
    if result is None:
        return 2
    _emit_rows(args, result.payload, "cluster points", result.provenance)
    return 0


def _cmd_crosscheck(args) -> int:
    """Simulated vs analytical utilization over the seed scenarios."""
    result = _session(args).run(CrosscheckRequest(
        tolerance=args.tolerance, bandwidth=args.bandwidth,
        capacity=args.capacity, cluster=args.cluster,
    ))
    report = result.payload
    print("Scenario cross-check: simulated vs analytical utilization")
    print(_crosscheck.render(report))
    if args.strict and not report.ok:
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="FuseMax reproduction toolkit"
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}",
        help="print the package version (from distribution metadata)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("report", help="regenerate every table and figure")
    _add_runtime_args(report)
    for name in _EXPERIMENTS:
        experiment = sub.add_parser(name, help=f"regenerate {name}")
        if name in GRID_EXPERIMENTS:
            _add_runtime_args(experiment)
    sweep = sub.add_parser(
        "sweep", help="run one evaluation grid (or --grid scenario grid)"
    )
    sweep.add_argument(
        "--kind", choices=sorted(GRID_KINDS), default=None,
        help="which evaluation grid to run (default: attention)",
    )
    sweep.add_argument(
        "--models", metavar="A,B", default=None,
        help="comma-separated model names (default: all four; "
             "--grid default: BERT)",
    )
    sweep.add_argument(
        "--seq-lens", metavar="L1,L2", default=None,
        help="comma-separated sequence lengths (default: 1K..1M)",
    )
    sweep.add_argument(
        "--grid", action="store_true",
        help="run a scenario grid over models x batches x heads x "
             "decode-instances (each cell one merged schedule + its "
             "analytical estimate, cached per cell)",
    )
    sweep.add_argument(
        "--batches", metavar="B1,B2", default=None,
        help="grid batch sizes (default: 1)",
    )
    sweep.add_argument(
        "--heads-list", metavar="H1,H2", default=None,
        help="grid head counts (default: each model's own)",
    )
    sweep.add_argument(
        "--decode-list", metavar="D0,D1", default=None,
        help="grid decode-instance counts (default: 0)",
    )
    sweep.add_argument(
        "--chunks", type=_positive_int, default=None, metavar="N",
        help="per-instance prefill chunk count of every grid cell "
             "(default 32)",
    )
    sweep.add_argument(
        "--decode-chunks", type=_positive_int, default=None, metavar="C",
        help="KV-cache chunks per decode instance (default: --chunks)",
    )
    sweep.add_argument(
        "--binding", choices=("both",) + BINDINGS, default=None,
        help="grid binding(s) to schedule (default: interleaved)",
    )
    sweep.add_argument(
        "--array-dim", type=_positive_int, default=None, metavar="D",
        help="grid PE-array dimension (default 256)",
    )
    sweep.add_argument(
        "--pe1d", type=_positive_int, default=None, metavar="P",
        help="grid 1D-array lanes (default: matched to --array-dim)",
    )
    sweep.add_argument(
        "--slots", type=_positive_int, default=None, metavar="K",
        help="interleaved issue slots per resource (default 2)",
    )
    sweep.add_argument(
        "--dram-bw", type=float, default=None, metavar="B",
        help="grid shared DRAM bandwidth in bytes/cycle "
             "(default: unmodeled)",
    )
    sweep.add_argument(
        "--buffer-bytes", type=float, default=None, metavar="BYTES",
        help="grid on-chip buffer capacity; working-set overflow "
             "spills extra DRAM traffic (requires --dram-bw; "
             "default: unbounded)",
    )
    sweep.add_argument(
        "--qos", choices=QOS_MODES, default=None,
        help="grid DRAM arbitration policy (default: uniform)",
    )
    sweep.add_argument(
        "--format", choices=FORMATS, default=None,
        help="grid output format (default: table)",
    )
    sweep.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the grid to FILE instead of stdout",
    )
    sweep.add_argument(
        "--registry", metavar="DIR", default=None,
        help="record the run as JSON under DIR",
    )
    _add_runtime_args(sweep)
    sub.add_parser("taxonomy", help="Table I classification")
    passes = sub.add_parser("passes", help="pass analysis of one cascade")
    passes.add_argument("cascade", help=f"one of {sorted(_CASCADES)}")
    simulate = sub.add_parser(
        "simulate", help="binding pipeline simulation / long-sequence sweep"
    )
    simulate.add_argument(
        "--chunks", type=_positive_int, default=None, metavar="N",
        help="M1 chunk count for the one-shot comparison or per "
             "scenario prefill instance (default 32)",
    )
    simulate.add_argument(
        "--array-dim", type=_positive_int, default=None, metavar="D",
        help="PE-array dimension (1D array sized to match; default 256)",
    )
    simulate.add_argument(
        "--engine", choices=ENGINES, default="vector",
        help="scheduler core: vector (default) folds each binding graph "
             "along its chunk axis and each scenario into counted "
             "instance classes; cycle is the cycle-accurate oracle, "
             "serial and uncached, with identical results (not with "
             "--sweep)",
    )
    simulate.add_argument(
        "--sweep", action="store_true",
        help="scan chunk counts x bindings x array dims through the "
             "parallel runtime and emit a utilization-vs-length table",
    )
    simulate.add_argument(
        "--chunks-list", metavar="N1,N2", default=None,
        help="sweep chunk counts (default: 16..8192 in powers of two)",
    )
    simulate.add_argument(
        "--arrays", metavar="D1,D2", default=None,
        help="sweep PE-array dimensions (default: 128,256)",
    )
    simulate.add_argument(
        "--pe1d-list", metavar="P1,P2", default=None,
        help="sweep 1D-array lane counts independently of the 2D edge "
             "(default: matched to each array dim)",
    )
    simulate.add_argument(
        "--embeddings", metavar="E1,E2", default=None,
        help="sweep embedding depths E (default: 64)",
    )
    simulate.add_argument(
        "--scenario", action="store_true",
        help="schedule N (batch, head) instances contending for the "
             "shared arrays in one merged graph",
    )
    simulate.add_argument(
        "--profile", action="store_true",
        help="with --scenario: print a build/schedule wall-time "
             "breakdown per scenario to stderr (runs inline, uncached)",
    )
    simulate.add_argument(
        "--model", metavar="NAME", default=None,
        help="derive the scenario from a workload model "
             "(BERT/TrXL/T5/XLM; instances = batch x heads)",
    )
    simulate.add_argument(
        "--batch", type=_positive_int, default=None, metavar="B",
        help=f"scenario batch size with --model (default {BATCH_SIZE})",
    )
    simulate.add_argument(
        "--heads", type=_positive_int, default=None, metavar="H",
        help="override the model's head count with --model",
    )
    simulate.add_argument(
        "--instances", type=_positive_int, default=None, metavar="N",
        help="explicit (batch, head) instance count (default 4; "
             "mutually exclusive with --model)",
    )
    simulate.add_argument(
        "--pe1d", type=_positive_int, default=None, metavar="P",
        help="scenario 1D-array lanes (default: matched to --array-dim)",
    )
    simulate.add_argument(
        "--slots", type=_positive_int, default=None, metavar="K",
        help="interleaved issue slots instances contend for (default 2)",
    )
    simulate.add_argument(
        "--decode-instances", type=_nonnegative_int, default=0, metavar="N",
        help="add N decode-step instances to the scenario",
    )
    simulate.add_argument(
        "--decode-chunks", type=_positive_int, default=None, metavar="C",
        help="KV-cache chunks per decode instance (default: --chunks)",
    )
    simulate.add_argument(
        "--dram-bw", type=float, default=None, metavar="B",
        help="shared DRAM bandwidth in bytes/cycle: every instance's "
             "traffic contends for one memory link (default: unmodeled)",
    )
    simulate.add_argument(
        "--buffer-bytes", type=float, default=None, metavar="BYTES",
        help="on-chip buffer capacity per instance: working-set "
             "overflow spills and refills as extra DRAM traffic "
             "(requires --dram-bw; default: unbounded)",
    )
    simulate.add_argument(
        "--qos", choices=QOS_MODES, default=None,
        help="shared-resource arbitration policy: decode-first "
             "prioritizes decode instances (default: uniform)",
    )
    simulate.add_argument(
        "--mixed-models", metavar="A,B", default=None,
        help="one merged scenario spanning several models' embedding "
             "widths (e.g. BERT,XLM; mutually exclusive with --model)",
    )
    simulate.add_argument(
        "--binding", choices=("both",) + BINDINGS, default="both",
        help="scenario binding(s) to schedule (default: both)",
    )
    simulate.add_argument(
        "--format", choices=FORMATS, default=None,
        help="sweep/scenario output format (default: table)",
    )
    simulate.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the sweep to FILE instead of stdout",
    )
    simulate.add_argument(
        "--registry", metavar="DIR", default=None,
        help="record the sweep as JSON under DIR",
    )
    _add_runtime_args(simulate)
    serve = sub.add_parser(
        "serve",
        help="open-loop serving simulation: arrivals, continuous "
             "batching, SLO metrics",
    )
    serve.add_argument(
        "--rate", metavar="R1,R2", default=None,
        help="offered load(s) in requests per kilocycle; one "
             "latency-vs-load row per rate (seeded Poisson arrivals)",
    )
    serve.add_argument(
        "--trace", metavar="FILE", default=None,
        help="replay an explicit arrival trace ('at chunks "
             "[decode_tokens]' per line; mutually exclusive with --rate)",
    )
    serve.add_argument(
        "--duration", type=_positive_int, default=None, metavar="C",
        help="generate arrivals over C cycles with --rate (default 32768)",
    )
    serve.add_argument(
        "--seed", type=_nonnegative_int, default=None, metavar="S",
        help="arrival-process seed with --rate (default 0); equal "
             "(rate, duration, seed) replay identical traces",
    )
    serve.add_argument(
        "--chunks", type=_positive_int, default=None, metavar="N",
        help="prefill M1 chunks per generated request (default 8)",
    )
    serve.add_argument(
        "--decode-tokens", type=_nonnegative_int, default=None, metavar="T",
        help="decode steps per generated request (default 4)",
    )
    serve.add_argument(
        "--max-inflight", type=_positive_int, default=None, metavar="K",
        help="continuous-batching window: max requests in flight "
             "(default 8)",
    )
    serve.add_argument(
        "--deadline", type=_positive_int, default=None, metavar="C",
        help="SLO deadline in cycles from arrival to last token; "
             "fills the goodput column",
    )
    serve.add_argument(
        "--binding", choices=BINDINGS, default="interleaved",
        help="binding discipline to schedule (default: interleaved)",
    )
    serve.add_argument(
        "--array-dim", type=_positive_int, default=None, metavar="D",
        help="PE-array dimension (1D array sized to match; default 256)",
    )
    serve.add_argument(
        "--pe1d", type=_positive_int, default=None, metavar="P",
        help="1D-array lanes (default: matched to --array-dim)",
    )
    serve.add_argument(
        "--slots", type=_positive_int, default=None, metavar="K",
        help="interleaved issue slots requests contend for (default 2)",
    )
    serve.add_argument(
        "--dram-bw", type=float, default=None, metavar="B",
        help="shared DRAM bandwidth in bytes/cycle: every request's "
             "traffic contends for one memory link (default: unmodeled)",
    )
    serve.add_argument(
        "--buffer-bytes", type=float, default=None, metavar="BYTES",
        help="on-chip buffer capacity per request: working-set "
             "overflow spills and refills as extra DRAM traffic "
             "(requires --dram-bw; default: unbounded)",
    )
    serve.add_argument(
        "--qos", choices=QOS_MODES, default=None,
        help="DRAM arbitration policy: decode-first issues decode "
             "transfers just-in-time and ahead of prefill bulk, "
             "protecting token gaps under a prefill burst "
             "(default: uniform)",
    )
    serve.add_argument(
        "--chips", type=_positive_int, default=None, metavar="N",
        help="spread requests over N identical arrays (request "
             "parallelism, round-robin by arrival; default 1)",
    )
    serve.add_argument(
        "--link-bw", type=float, default=None, metavar="B",
        help="interconnect bandwidth in bytes/cycle: each request's "
             "prefill-output gather contends for one shared link "
             "(requires --chips >= 2; default: unmodeled)",
    )
    serve.add_argument(
        "--link-latency", type=_nonnegative_int, default=None, metavar="C",
        help="per-gather hop latency in cycles (default 0)",
    )
    serve.add_argument(
        "--format", choices=FORMATS, default=None,
        help="output format (default: table)",
    )
    serve.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the serving rows to FILE instead of stdout",
    )
    serve.add_argument(
        "--registry", metavar="DIR", default=None,
        help="record the batched run as JSON under DIR",
    )
    _add_runtime_args(serve)
    cluster = sub.add_parser(
        "cluster",
        help="sharded multi-chip scenario sweep over a modeled "
             "interconnect",
    )
    cluster.add_argument(
        "--model", metavar="NAME", default=None,
        help="derive the workload from a model (BERT/TrXL/T5/XLM; "
             "instances = batch x heads)",
    )
    cluster.add_argument(
        "--batch", type=_positive_int, default=None, metavar="B",
        help=f"batch size with --model (default {BATCH_SIZE})",
    )
    cluster.add_argument(
        "--heads", type=_positive_int, default=None, metavar="H",
        help="override the model's head count with --model",
    )
    cluster.add_argument(
        "--instances", type=_positive_int, default=None, metavar="N",
        help="explicit (batch, head) instance count (default 4; "
             "mutually exclusive with --model)",
    )
    cluster.add_argument(
        "--chunks", type=_positive_int, default=None, metavar="N",
        help="prefill M1 chunks per instance (default 32)",
    )
    cluster.add_argument(
        "--array-dim", type=_positive_int, default=None, metavar="D",
        help="per-chip PE-array dimension (default 256)",
    )
    cluster.add_argument(
        "--pe1d", type=_positive_int, default=None, metavar="P",
        help="1D-array lanes (default: matched to --array-dim)",
    )
    cluster.add_argument(
        "--slots", type=_positive_int, default=None, metavar="K",
        help="interleaved issue slots per chip resource (default 2)",
    )
    cluster.add_argument(
        "--decode-instances", type=_nonnegative_int, default=0, metavar="N",
        help="add N decode-step instances to the workload",
    )
    cluster.add_argument(
        "--decode-chunks", type=_positive_int, default=None, metavar="C",
        help="KV-cache chunks per decode instance (default: --chunks)",
    )
    cluster.add_argument(
        "--dram-bw", type=float, default=None, metavar="B",
        help="per-chip DRAM bandwidth in bytes/cycle (default: unmodeled)",
    )
    cluster.add_argument(
        "--binding", choices=BINDINGS, default="interleaved",
        help="binding discipline to schedule (default: interleaved)",
    )
    cluster.add_argument(
        "--chips", metavar="N1,N2", default=None,
        help="chip counts to sweep (default: 1,2,4)",
    )
    cluster.add_argument(
        "--shardings", metavar="S1,S2", default=None,
        help=f"sharding policies to sweep, from {SHARDINGS} "
             "(default: head)",
    )
    cluster.add_argument(
        "--link-bws", metavar="B1,B2", default=None,
        help="interconnect bandwidths in bytes/cycle to sweep; 'none' "
             "leaves the link unmodeled (default: none)",
    )
    cluster.add_argument(
        "--link-latency", type=_nonnegative_int, default=0, metavar="C",
        help="per-collective hop latency in cycles (default 0)",
    )
    cluster.add_argument(
        "--topology", choices=TOPOLOGIES, default="all-to-all",
        help="interconnect topology (default: all-to-all)",
    )
    cluster.add_argument(
        "--engine", choices=ENGINES, default="vector",
        help="scheduler core: vector (default) folds each sharded "
             "scenario; cycle is the cycle-accurate oracle, serial and "
             "uncached, with identical results",
    )
    cluster.add_argument(
        "--format", choices=FORMATS, default=None,
        help="output format (default: table)",
    )
    cluster.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the cluster rows to FILE instead of stdout",
    )
    cluster.add_argument(
        "--registry", metavar="DIR", default=None,
        help="record the sweep as JSON under DIR",
    )
    _add_runtime_args(cluster)
    check = sub.add_parser(
        "crosscheck",
        help="simulated vs analytical utilization over the seed scenarios",
    )
    check.add_argument(
        "--tolerance", type=float, default=_crosscheck.DEFAULT_TOLERANCE,
        metavar="T",
        help="flag |simulated - analytical| utilization beyond T "
             f"(default {_crosscheck.DEFAULT_TOLERANCE})",
    )
    check.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when any comparison diverges",
    )
    check.add_argument(
        "--bandwidth", action="store_true",
        help="also cross-check the bandwidth-limited scenario grid "
             "(adds a dram utilization row per finite-dram_bw scenario)",
    )
    check.add_argument(
        "--capacity", action="store_true",
        help="also cross-check the finite-buffer grid (spill-inflated "
             "schedules vs the capacity-bound roofline term)",
    )
    check.add_argument(
        "--cluster", action="store_true",
        help="also cross-check the sharded multi-chip grid (adds a "
             "link utilization row per cluster point)",
    )
    _add_runtime_args(check)
    args = parser.parse_args(argv)

    if getattr(args, "cache_dir", None) and not getattr(args, "cache", True):
        parser.error("--cache-dir cannot be combined with --no-cache")

    handlers = {
        "report": _cmd_report, "sweep": _cmd_sweep, "taxonomy": _cmd_taxonomy,
        "passes": _cmd_passes, "simulate": _cmd_simulate, "serve": _cmd_serve,
        "cluster": _cmd_cluster, "crosscheck": _cmd_crosscheck,
        **{name: _cmd_experiment for name in _EXPERIMENTS},
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()
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
