"""Export experiment results to CSV files.

``python -m repro.experiments.export [outdir]`` writes one CSV per
table/figure plus a headline summary — the artifact-style output for
downstream plotting.
"""

from __future__ import annotations

import argparse
import csv
import os
from typing import Iterable, List, Optional, Sequence

from ..api.session import Session
from . import ablations, fig1b, fig6, fig7, fig8, fig9, fig10, fig11, fig12, table1


def _write_csv(path: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        writer.writerows(rows)


def export_all(outdir: str, session: Optional[Session] = None) -> List[str]:
    """Write every experiment's rows as CSV; returns the file paths."""
    os.makedirs(outdir, exist_ok=True)
    written: List[str] = []

    def emit(name, headers, rows):
        path = os.path.join(outdir, name)
        _write_csv(path, headers, rows)
        written.append(path)

    emit(
        "fig1b.csv",
        ["model", "seq_len", "attn", "linear", "other"],
        [(r.model, r.seq_len, r.attn, r.linear, r.other) for r in fig1b.run()],
    )
    emit(
        "table1.csv",
        ["cascade", "passes", "exemplars"],
        [(r.cascade, r.passes, r.exemplars) for r in table1.run()],
    )
    emit(
        "fig6.csv",
        ["config", "model", "seq_len", "util_1d", "util_2d"],
        [
            (r.config, r.model, r.seq_len, r.util_1d, r.util_2d)
            for r in fig6.run(session=session)
        ],
    )
    emit(
        "fig7.csv",
        ["config", "seq_len"] + list(fig7.GROUPS),
        [
            [r.config, r.seq_len] + [r.shares[g] for g in fig7.GROUPS]
            for r in fig7.run(session=session)
        ],
    )
    emit(
        "fig8.csv",
        ["config", "model", "seq_len", "speedup"],
        [(r.config, r.model, r.seq_len, r.speedup) for r in fig8.run(session=session)],
    )
    emit(
        "fig9.csv",
        ["config", "model", "seq_len", "normalized_energy"],
        [
            (r.config, r.model, r.seq_len, r.normalized_energy)
            for r in fig9.run(session=session)
        ],
    )
    emit(
        "fig10.csv",
        ["config", "model", "seq_len", "speedup"],
        [(r.config, r.model, r.seq_len, r.speedup) for r in fig10.run(session=session)],
    )
    emit(
        "fig11.csv",
        ["config", "model", "seq_len", "normalized_energy"],
        [
            (r.config, r.model, r.seq_len, r.normalized_energy)
            for r in fig11.run(session=session)
        ],
    )
    fig12_rows = []
    for result in fig12.run(session=session).values():
        for point in result.points:
            fig12_rows.append(
                (point.model, point.array_dim, point.area_cm2,
                 point.latency_seconds)
            )
    emit(
        "fig12.csv",
        ["model", "array_dim", "area_cm2", "latency_seconds"],
        fig12_rows,
    )
    emit(
        "ablation_divisions.csv",
        ["cascade", "divisions", "exps", "macc_equivalents"],
        [
            (r.cascade, r.divisions, r.exps, r.macc_equivalents)
            for r in ablations.division_reduction()
        ],
    )
    return written


def main(argv=None) -> int:
    # Imported here: the CLI module imports this package's siblings.
    from ..cli import _add_runtime_args, _session

    parser = argparse.ArgumentParser(
        prog="repro-export", description="export experiment results as CSV"
    )
    parser.add_argument("outdir", nargs="?", default="results")
    _add_runtime_args(parser)
    args = parser.parse_args(argv)
    if args.cache_dir and not args.cache:
        parser.error("--cache-dir cannot be combined with --no-cache")
    paths = export_all(args.outdir, _session(args))
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
