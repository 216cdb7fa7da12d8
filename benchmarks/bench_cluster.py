"""Benchmark gate: sharded multi-chip scheduling over the interconnect.

Run directly for the CI budget gates:

    PYTHONPATH=src python benchmarks/bench_cluster.py

or through pytest-benchmark like the other bench modules:

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster.py

Three things are gated:

- **parity** — the event core on the built graph and the folded
  vector engine produce an identical schedule on a sharded
  64-instance x 16-chunk BERT point (collectives are ordinary task
  structure, so the engine-equivalence guarantee must extend to cluster
  graphs unchanged), and the shared link's busy cycles equal the
  closed-form collective sum exactly;
- **shape** — the strong-scaling curve keeps its shape: with an ample
  link, makespan strictly decreases from 1 to 8 chips; with a priced
  link, the analytical bound flips to ``link-bound`` and the simulated
  schedule lands past the knee (adding chips stopped helping);
- **budget** — the folded vector engine schedules a cluster-scale
  sharded point (512 instances over 8 chips) inside ``--cluster-budget``
  seconds, keeping chip-count sweeps CI-fast.

``--json-out FILE`` writes every measurement as JSON so CI can upload
the perf trajectory per commit instead of discarding it.
"""

import argparse
import json
import time

from repro.cluster import (
    ClusterPoint,
    ClusterSpec,
    build_cluster_tasks,
    cluster_link_cycles,
    evaluate_cluster_point,
    schedule_cluster_tasks,
)
from repro.model.cluster import analytical_cluster
from repro.simulator import folded_slots, run_event_driven
from repro.workloads import BERT
from repro.workloads.scenario import attention_scenario, scenario_from_model

#: Link bandwidths (bytes/cycle) of the two scaling regimes: ample
#: keeps every point compute-bound, priced puts 8 chips past the knee.
AMPLE_BW = 65536.0
PRICED_BW = 64.0

#: Chip counts of the strong-scaling shape gate, low to high.
DEFAULT_CHIPS = (1, 2, 4, 8)


def _bert_scenario():
    """The parity-gate workload: BERT at B4 x H16, 16 chunks per
    instance — 64 instances to shard."""
    return scenario_from_model(BERT, 4096, batch=4, heads=16)


def _bert_point(n_chips, link_bw, sharding="head"):
    """The parity-gate workload sharded over ``n_chips``."""
    point = ClusterPoint(
        scenario=_bert_scenario(),
        spec=ClusterSpec(n_chips=n_chips, link_bw=link_bw),
        sharding=sharding,
    )
    return evaluate_cluster_point(point)


def _bert_event_schedule(spec, sharding="head"):
    """The parity reference: the built sharded graph on the event core."""
    scenario = _bert_scenario()
    tasks = build_cluster_tasks(scenario, spec, sharding)
    budget = sum(t.duration for t in tasks) + 1
    return run_event_driven(tasks, folded_slots(scenario), budget)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--chips",
        default=",".join(str(n) for n in DEFAULT_CHIPS),
        metavar="N1,N2",
        help="chip counts of the strong-scaling shape gate "
        f"(default {','.join(str(n) for n in DEFAULT_CHIPS)})",
    )
    parser.add_argument(
        "--cluster-budget",
        type=float,
        default=10.0,
        metavar="S",
        help="fail if the folded 512-instance point exceeds S seconds "
        "(0 disables; default 10)",
    )
    parser.add_argument(
        "--json-out",
        metavar="FILE",
        default=None,
        help="write every measurement as JSON to FILE (the CI perf "
        "artifact)",
    )
    args = parser.parse_args(argv)
    chips = tuple(int(item) for item in args.chips.split(","))

    # Parity: the event core on the built graph == the folded vector
    # schedule on the sharded BERT point, for both sharding policies,
    # and the link accounting is exact.
    scenario = _bert_scenario()
    spec = ClusterSpec(n_chips=4, link_bw=PRICED_BW)
    for sharding in ("head", "tensor"):
        event, event_s = _timed(
            lambda s=sharding: _bert_event_schedule(spec, s)
        )
        vector, vector_s = _timed(
            lambda s=sharding: schedule_cluster_tasks(scenario, spec, s)
        )
        assert event == vector, f"{sharding}: event != vector"
        busy_link = event.busy_cycles.get("link", 0)
        expected = cluster_link_cycles(scenario, spec, sharding)
        assert busy_link == expected, f"{sharding}: link accounting"
        print(
            f"parity[{sharding}]: {len(event.finish_times):,} tasks  "
            f"makespan={event.makespan:,}  busy_link={busy_link:,}  "
            f"event {event_s:.2f}s == vector {vector_s:.2f}s ok"
        )

    print(f"\nstrong-scaling curve (BERT B4xH16, link={AMPLE_BW:g} B/cy):")
    points = []
    for n in chips:
        result, took = _timed(
            lambda n=n: _bert_point(n, AMPLE_BW)
        )
        points.append((n, result, took))
        print(
            f"  chips={n:2d}  makespan={result.makespan:9,}  "
            f"util_2d={result.util_2d:.3f}  {took:5.2f} s"
        )
    for (lo_n, lo, _), (hi_n, hi, _) in zip(points, points[1:]):
        assert hi.makespan < lo.makespan, (
            f"scaling inverted under an ample link: {lo_n} chips -> "
            f"{lo.makespan} but {hi_n} chips -> {hi.makespan}"
        )
    knee_spec = ClusterSpec(n_chips=max(chips), link_bw=PRICED_BW)
    scenario = scenario_from_model(BERT, 4096, batch=4, heads=16)
    estimate = analytical_cluster(scenario, knee_spec)
    assert estimate.kind == "link-bound", (
        f"expected the priced link to bind at {max(chips)} chips, "
        f"got {estimate.kind}"
    )
    priced, priced_s = _timed(
        lambda: _bert_point(max(chips), PRICED_BW)
    )
    assert priced.makespan >= estimate.latency_cycles
    assert priced.makespan > points[-1][1].makespan, (
        "priced link should cost more than the ample baseline"
    )
    print(
        f"curve-shape gate: makespan strictly decreasing to {max(chips)} "
        f"chips; priced link ({PRICED_BW:g} B/cy) is link-bound past the "
        "knee ok"
    )
    points.append((max(chips), priced, priced_s))

    folded, folded_s = _timed(
        lambda: evaluate_cluster_point(
            ClusterPoint(
                scenario=attention_scenario(512, 16, array_dim=64),
                spec=ClusterSpec(n_chips=8, link_bw=PRICED_BW),
            ),
        )
    )
    print(
        f"\nfolded point: 512 instances on 8 chips  "
        f"{folded.n_tasks:,} tasks  makespan={folded.makespan:,}  "
        f"{folded_s:5.2f} s"
    )
    if args.cluster_budget:
        assert folded_s <= args.cluster_budget, (
            f"folded cluster point took {folded_s:.1f}s "
            f"(gate: {args.cluster_budget:g}s)"
        )
        print(
            f"budget gate: {folded_s:.2f} s <= {args.cluster_budget:g} s ok"
        )

    if args.json_out:
        payload = {
            "bench": "cluster",
            "chips": list(chips),
            "ample_bw": AMPLE_BW,
            "priced_bw": PRICED_BW,
            "cluster_budget_s": args.cluster_budget,
            "points": [
                {
                    "n_chips": n,
                    "sharding": result.sharding,
                    "link_bw": result.link_bw,
                    "n_tasks": result.n_tasks,
                    "makespan": result.makespan,
                    "busy_link": result.busy_link,
                    "util_2d": result.util_2d,
                    "util_link": result.util_link,
                    "wall_s": took,
                }
                for n, result, took in points
            ],
            "folded": {
                "n_tasks": folded.n_tasks,
                "makespan": folded.makespan,
                "wall_s": folded_s,
            },
        }
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"measurements -> {args.json_out}")


# ---- pytest-benchmark entry points (parity with the other bench modules) ----


def test_bench_cluster_event_point(benchmark):
    """The sharded BERT point through the event core."""
    spec = ClusterSpec(n_chips=4, link_bw=PRICED_BW)
    result = benchmark(lambda: _bert_event_schedule(spec))
    assert result.busy_cycles["link"] > 0


def test_bench_cluster_folded_sweep(benchmark):
    """A cluster-scale sharded point through the folded vector engine."""
    point = ClusterPoint(
        scenario=attention_scenario(512, 16, array_dim=64),
        spec=ClusterSpec(n_chips=8, link_bw=PRICED_BW),
    )
    result = benchmark(lambda: evaluate_cluster_point(point))
    assert result.n_chips == 8


if __name__ == "__main__":
    main()
