"""Benchmark gate: the open-loop serving simulator under load.

Run directly for the CI budget gates:

    PYTHONPATH=src python benchmarks/bench_serving.py

or through pytest-benchmark like the other bench modules:

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py

Three things are gated:

- **determinism** — the same seeded spec simulates to an identical
  :class:`~repro.serving.ServingResult` twice, and the event core agrees
  with the cycle-accurate oracle on a small serving graph (the clock
  chain and admission gating are ordinary task structure, so the
  engine-equivalence guarantee must extend to them unchanged), both on
  the built graph and on the stamped templates ``simulate_serving``
  schedules;
- **budget** — a saturated rate point (``--serve-budget`` seconds for
  build + schedule + metrics) keeps the serving path fast enough for CI;
- **shape** — across ``--rates``, p50 latency is non-decreasing and
  goodput non-increasing in offered load (the latency-vs-load curve the
  subsystem exists to produce cannot silently invert).

``--json-out FILE`` writes every measurement as JSON so CI can upload
the perf trajectory per commit instead of discarding it.
"""

import argparse
import json
import time

from repro.serving import ServingSpec, poisson_arrivals, simulate_serving

#: Default arrival seed.  Fixed so the gates are deterministic; override
#: with --seed to explore.
DEFAULT_SEED = 20240722

#: Offered loads (requests/kilocycle) of the curve-shape gate, low to
#: high.  The default 256x256 array serves one 8-chunk + 4-token request
#: in ~5.3k cycles (capacity ~0.19 req/kcy), so the curve spans
#: unsaturated, knee, and overloaded operating points.
DEFAULT_RATES = (0.05, 0.1, 0.2, 0.4)

#: Offered load of the budget gate: far past saturation, so the timed
#: point schedules the largest graph the defaults can produce.
SATURATED_RATE = 4.0

#: SLO deadline (cycles) used by the goodput column of every gate point.
DEADLINE = 20_000


def _spec(rate, duration, seed, deadline=DEADLINE, array_dim=256):
    return ServingSpec(
        name=f"bench-r{rate:g}",
        arrivals=poisson_arrivals(rate, duration, seed=seed),
        array_dim=array_dim,
        deadline=deadline,
        rate=rate,
    )


def _timed_point(spec):
    start = time.perf_counter()
    result = simulate_serving(spec)
    took = time.perf_counter() - start
    return result, took


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration",
        type=int,
        default=131_072,
        metavar="C",
        help="arrival-process duration in cycles (default 131072)",
    )
    parser.add_argument(
        "--rates",
        default=",".join(f"{r:g}" for r in DEFAULT_RATES),
        metavar="R1,R2",
        help="offered loads of the curve-shape gate, low to high "
        f"(default {','.join(f'{r:g}' for r in DEFAULT_RATES)})",
    )
    parser.add_argument(
        "--serve-budget",
        type=float,
        default=10.0,
        metavar="S",
        help=f"fail if the saturated rate-{SATURATED_RATE:g} point "
        "exceeds S seconds for build + schedule + metrics "
        "(0 disables; default 10)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        metavar="S",
        help=f"arrival-process seed (default {DEFAULT_SEED}; fixed so "
        "the gates cannot flake)",
    )
    parser.add_argument(
        "--json-out",
        metavar="FILE",
        default=None,
        help="write every measurement as JSON to FILE (the CI perf "
        "artifact)",
    )
    args = parser.parse_args(argv)
    rates = tuple(float(item) for item in args.rates.split(","))

    # Determinism: identical reruns, and event == cycle on a serving
    # graph small enough for the oracle.
    small = _spec(1.0, 8192, args.seed, array_dim=64)
    first, _ = _timed_point(small)
    second, _ = _timed_point(small)
    assert first == second, "seeded serving rerun diverged"
    from repro.serving import serving_sim

    *_, event = serving_sim(small)  # the event core on the built graph
    *_, cycle = serving_sim(small, engine="cycle")
    assert event == cycle, "serving graph: engines diverged"
    # The path that ships schedules stamped templates, not that graph.
    assert first == simulate_serving(small, engine="cycle"), (
        "serving: stamped templates diverged from the cycle oracle"
    )
    print(
        f"determinism: {first.n_requests} requests, "
        f"makespan={first.makespan:,} — rerun identical, event == cycle ok"
    )

    print(
        f"\nlatency-vs-load curve (duration {args.duration:,} cycles, "
        f"seed {args.seed}, deadline {DEADLINE:,}):"
    )
    points = []
    for rate in rates:
        result, took = _timed_point(_spec(rate, args.duration, args.seed))
        points.append((rate, result, took))
        if result.n_requests == 0:
            # A short --duration can draw zero arrivals at low rates;
            # the point still lands in the artifact, with null metrics.
            print(f"  rate={rate:4g}/kcy     0 req  (no arrivals drawn)")
            continue
        print(
            f"  rate={rate:4g}/kcy  {result.n_requests:4d} req  "
            f"{result.n_tasks:7,} tasks  p50={result.latency_p50:7,}  "
            f"p99={result.latency_p99:7,}  ttft_p50={result.ttft_p50:7,}  "
            f"goodput={result.goodput:.3f}  {took:5.2f} s"
        )
    curve = [(rate, r) for rate, r, _ in points if r.n_requests]
    for (lo_rate, lo), (hi_rate, hi) in zip(curve, curve[1:]):
        assert lo.latency_p50 <= hi.latency_p50, (
            f"p50 latency inverted: rate {lo_rate:g} -> {lo.latency_p50} "
            f"but rate {hi_rate:g} -> {hi.latency_p50}"
        )
        assert lo.goodput >= hi.goodput, (
            f"goodput inverted: rate {lo_rate:g} -> {lo.goodput:.3f} "
            f"but rate {hi_rate:g} -> {hi.goodput:.3f}"
        )
    print("curve-shape gate: p50 non-decreasing, goodput non-increasing ok")

    saturated, saturated_s = _timed_point(
        _spec(SATURATED_RATE, args.duration, args.seed)
    )
    print(
        f"\nsaturated point: rate={SATURATED_RATE:g}/kcy  "
        f"{saturated.n_requests} req  {saturated.n_tasks:,} tasks  "
        f"makespan={saturated.makespan:,}  {saturated_s:5.2f} s"
    )
    if args.serve_budget:
        assert saturated_s <= args.serve_budget, (
            f"saturated serving point took {saturated_s:.1f}s "
            f"(gate: {args.serve_budget:g}s)"
        )
        print(f"budget gate: {saturated_s:.2f} s <= {args.serve_budget:g} s ok")
    points.append((SATURATED_RATE, saturated, saturated_s))

    if args.json_out:
        payload = {
            "bench": "serving",
            "seed": args.seed,
            "duration": args.duration,
            "deadline": DEADLINE,
            "serve_budget_s": args.serve_budget,
            "points": [
                {
                    "rate": rate,
                    "n_requests": result.n_requests,
                    "n_tasks": result.n_tasks,
                    "makespan": result.makespan,
                    "ttft_p50": result.ttft_p50,
                    "ttft_p99": result.ttft_p99,
                    "tbt_mean": result.tbt_mean,
                    "latency_p50": result.latency_p50,
                    "latency_p99": result.latency_p99,
                    "throughput": result.throughput,
                    "goodput": result.goodput,
                    "util_2d": result.util_2d,
                    "wall_s": took,
                }
                for rate, result, took in points
            ],
        }
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"measurements -> {args.json_out}")


# ---- pytest-benchmark entry points (parity with the other bench modules) ----


def test_bench_serving_saturated(benchmark):
    """Build + schedule + metrics at the saturated budget-gate rate."""
    spec = _spec(SATURATED_RATE, 65_536, DEFAULT_SEED)
    result = benchmark(lambda: simulate_serving(spec))
    assert result.n_requests > 0
    assert result.goodput is not None


def test_bench_serving_trace_replay(benchmark):
    """A trace-driven point: build dominated by per-request graphs."""
    spec = _spec(1.0, 32_768, DEFAULT_SEED, array_dim=128)
    result = benchmark(lambda: simulate_serving(spec))
    assert result.latency_p50 is not None


if __name__ == "__main__":
    main()
