"""Chaos gate: a faulted sweep must digest identically to a clean one.

Every grid point is pure, so a *recoverable* fault — a transient
exception, a killed pool worker, a hang cut short by the task timeout, a
cache entry torn on disk — may cost attempts but can never change a
payload.  This gate proves it end to end:

    PYTHONPATH=src python benchmarks/bench_chaos.py

Leg 1 computes the clean serial digest.  Leg 2 reruns the same grid in
parallel under a seeded :class:`FaultPlan` (crashes, raises, hangs, and
post-put corruption) and asserts the digest is byte-identical.  Leg 3
rereads the now-partially-corrupted disk cache, asserting every torn
entry is quarantined, recomputed, and the digest still holds.  Leg 4
checks graceful degradation: a permanent fault under ``on_error="skip"``
yields a :class:`TaskFailure` in exactly its slot, everything else
untouched.
"""

import argparse
import json
import signal
import tempfile

from repro.runtime import (
    FaultPlan,
    FaultSpec,
    ResultCache,
    RetryPolicy,
    TaskFailure,
    attention_grid,
    execute_tasks,
    result_digest,
)
from repro.workloads import BERT, T5

SEQ_LENS = (1024, 4096, 65536)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        metavar="N",
        help="worker processes for the chaos leg (default 4)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="fault-plan seed (default 0); any seed must pass",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=0.3,
        metavar="R",
        help="per-task fault probability (default 0.3)",
    )
    parser.add_argument(
        "--json-out",
        metavar="FILE",
        default=None,
        help="write the gate summary as JSON to FILE",
    )
    args = parser.parse_args(argv)

    tasks = attention_grid((BERT, T5), SEQ_LENS)
    # Hangs outlast the task timeout, so every "hang" fault becomes a
    # retryable TaskTimeout; without SIGALRM the timeout is advisory and
    # a hang just sleeps through, so keep the plan crash/raise-only.
    kinds = ("raise", "crash")
    if hasattr(signal, "SIGALRM"):
        kinds = ("raise", "crash", "hang")
    plan = FaultPlan.seeded(
        len(tasks),
        seed=args.seed,
        rate=args.rate,
        kinds=kinds,
        corrupt_rate=0.2,
        hang_s=30.0,
    )
    policy = RetryPolicy(max_attempts=5, task_timeout_s=2.0)

    clean = result_digest(execute_tasks(tasks, cache=False).results)

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultCache(directory=tmp)
        outcome = execute_tasks(
            tasks, jobs=args.jobs, cache=store, retry=policy, faults=plan
        )
        chaos = result_digest(outcome.results)
        assert chaos == clean, (
            f"chaos digest {chaos} != clean digest {clean}: "
            "a recoverable fault changed a payload"
        )
        assert outcome.recovered >= len(plan.fault_indices), (
            f"only {outcome.recovered} recoveries for "
            f"{len(plan.fault_indices)} faulted tasks"
        )
        assert outcome.failures == ()

        # Leg 3: the corrupted disk entries quarantine and recompute.
        fresh = ResultCache(directory=tmp)
        reread = result_digest(execute_tasks(tasks, cache=fresh).results)
        assert reread == clean, "post-corruption reread diverged"
        n_corrupt = len(set(plan.corrupt))
        assert fresh.stats.corrupt == n_corrupt, (
            f"quarantined {fresh.stats.corrupt} entries, expected {n_corrupt}"
        )

    # Leg 4: permanent fault + skip-mode degrades, never poisons.
    permanent = FaultPlan(
        faults=tuple(FaultSpec(0, attempt, "raise") for attempt in (1, 2))
    )
    skipped = execute_tasks(
        tasks,
        cache=False,
        retry=RetryPolicy(max_attempts=2),
        on_error="skip",
        faults=permanent,
    )
    assert isinstance(skipped.results[0], TaskFailure)
    assert all(not isinstance(r, TaskFailure) for r in skipped.results[1:])

    summary = {
        "tasks": len(tasks),
        "seed": args.seed,
        "faulted_tasks": len(plan.fault_indices),
        "corrupted_entries": n_corrupt,
        "attempts": outcome.attempts,
        "recovered": outcome.recovered,
        "respawns": outcome.respawns,
        "clean_digest": clean,
        "chaos_digest": chaos,
    }
    print(
        f"grid: {len(tasks)} points, seed {args.seed}, "
        f"{len(plan.fault_indices)} faulted tasks "
        f"({', '.join(kinds)}), {n_corrupt} corrupted entries"
    )
    print(
        f"chaos leg: {outcome.attempts} attempts, "
        f"{outcome.recovered} recovered, {outcome.respawns} pool respawns"
    )
    print(f"digests: clean {clean} == chaos {chaos} == reread {reread}")
    print("skip leg: permanent fault degraded to TaskFailure slot 0 only")
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"summary -> {args.json_out}")


# ---- pytest entry point (parity with the other bench modules) ----


def test_chaos_digest_matches_clean():
    main(["--jobs", "2", "--rate", "0.25"])


if __name__ == "__main__":
    main()
