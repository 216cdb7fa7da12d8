"""Benchmark: the runtime executor and cache on the full Fig. 6-12 grids.

Run directly for the cold/warm comparison the runtime exists for:

    PYTHONPATH=src python benchmarks/bench_runtime.py

or through pytest-benchmark like the other bench modules:

    PYTHONPATH=src python -m pytest benchmarks/bench_runtime.py

``--min-speedup X`` adjusts the warm-vs-cold gate (0 disables it) —
CI uses a loose gate because shared-runner timings jitter.
"""

import argparse
import tempfile
import time

from repro.api import Session
from repro.runtime import ResultCache, attention_grid, pareto_grid


#: The figures' grids, one session pass each: Figs. 6-9, 10-11 and 12.
GRIDS = (
    ("attention", lambda: attention_grid()),
    ("inference", lambda: attention_grid(kind="inference")),
    ("pareto", lambda: pareto_grid()),
)


def full_grid(jobs=1, cache=False, pooled=None):
    """Every grid the figures draw from: Figs. 6-9 (attention),
    Figs. 10-11 (inference), Fig. 12 (pareto), one session pass each.
    ``pooled``, a dict when given, maps each kind to whether its pass
    ran on the process pool (``ExecutionOutcome.pooled``)."""
    session = Session(jobs=jobs, cache=cache)
    outcomes = {kind: session.evaluate(kind, grid()) for kind, grid in GRIDS}
    if pooled is not None:
        pooled.update((kind, outcome.pooled) for kind, outcome in outcomes.items())
    return tuple(outcome.results for outcome in outcomes.values())


def _best_of(fn, reps=3):
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-speedup", type=float, default=5.0, metavar="X",
        help="fail unless the warm-cache rerun is X times faster than cold "
             "(0 disables the gate; default 5)",
    )
    args = parser.parse_args(argv)

    cold, baseline = _best_of(lambda: full_grid(cache=False))
    paths = {}
    parallel, fanout = _best_of(lambda: full_grid(jobs=8, cache=False, pooled=paths))
    assert fanout == baseline, "parallel sweep diverged from serial"

    with tempfile.TemporaryDirectory() as tmp:
        disk = ResultCache(directory=tmp)
        populate, _ = _best_of(lambda: full_grid(cache=disk), reps=1)
        fresh = ResultCache(directory=tmp)  # cold memory over a warm disk tree
        disk_warm, from_disk = _best_of(lambda: full_grid(cache=fresh), reps=1)
        mem_warm, from_mem = _best_of(lambda: full_grid(cache=fresh))
        assert from_disk == baseline and from_mem == baseline, (
            "cached sweep diverged from serial"
        )

    points = sum(len(grid) for grid in baseline)
    print(f"full evaluation grid: {points} points "
          "(attention 120, inference 120, pareto 24)")
    print(f"cold, serial           {cold * 1e3:8.1f} ms")
    ran = ", ".join(f"{kind} {'pooled' if p else 'inline'}" for kind, p in paths.items())
    print(f"cold, 8 jobs           {parallel * 1e3:8.1f} ms   ({ran})")
    print(f"cold, populating disk  {populate * 1e3:8.1f} ms")
    print(f"warm, from disk        {disk_warm * 1e3:8.1f} ms   "
          f"({cold / disk_warm:4.1f}x vs cold)")
    print(f"warm, from memory      {mem_warm * 1e3:8.1f} ms   "
          f"({cold / mem_warm:4.1f}x vs cold)")
    speedup = cold / mem_warm
    if args.min_speedup:
        assert speedup >= args.min_speedup, (
            f"warm rerun only {speedup:.1f}x faster than cold "
            f"(gate: {args.min_speedup:g}x)"
        )
    print(f"warm-cache rerun speedup: {speedup:.1f}x "
          f"(gate: >= {args.min_speedup:g}x)")


# ---- pytest-benchmark entry points (parity with the other bench modules) ----


def test_bench_full_grid_cold(benchmark):
    grids = benchmark(lambda: full_grid(cache=False))
    assert sum(len(g) for g in grids) == 264


def test_bench_full_grid_warm(benchmark):
    cache = ResultCache()
    full_grid(cache=cache)
    grids = benchmark(lambda: full_grid(cache=cache))
    assert cache.stats.memory_hits >= 264
    assert grids == full_grid(cache=False)


if __name__ == "__main__":
    main()
