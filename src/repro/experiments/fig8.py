"""Figure 8: attention speedup over the unfused baseline.

Regenerates the speedup bars for FLAT and the three FuseMax configurations
across models and sequence lengths, plus the headline averages (the
paper: FuseMax averages 10× over unfused and 6.7× over FLAT).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..api.session import Session
from ..workloads.models import MODELS, ModelConfig, SEQUENCE_LENGTHS, seq_label
from .common import evaluate_grid, format_table

BASELINE = "Unfused"


@dataclass(frozen=True)
class SpeedupRow:
    config: str
    model: str
    seq_len: int
    speedup: float


def run(
    models: Sequence[ModelConfig] = MODELS,
    seq_lens: Sequence[int] = SEQUENCE_LENGTHS,
    *,
    session: Optional[Session] = None,
) -> List[SpeedupRow]:
    return from_results(evaluate_grid(session, models, seq_lens))


def from_results(results: Dict[Tuple[str, str, int], Any]) -> List[SpeedupRow]:
    """The rows of keyed attention results (see :func:`.evaluate_grid`)."""
    rows = []
    for (config, model, seq_len), result in results.items():
        base = results[(BASELINE, model, seq_len)]
        rows.append(
            SpeedupRow(
                config=config,
                model=model,
                seq_len=seq_len,
                speedup=base.latency_cycles / result.latency_cycles,
            )
        )
    return rows


def averages(rows: List[SpeedupRow]) -> Dict[str, float]:
    """Mean speedup per configuration over the whole grid."""
    grouped: Dict[str, List[float]] = {}
    for row in rows:
        grouped.setdefault(row.config, []).append(row.speedup)
    return {config: statistics.mean(vals) for config, vals in grouped.items()}


def fusemax_vs_flat(rows: List[SpeedupRow]) -> float:
    """The paper's headline: mean FuseMax speedup relative to FLAT."""
    by_key = {(r.config, r.model, r.seq_len): r.speedup for r in rows}
    ratios = [
        by_key[("+Binding", model, seq)] / by_key[("FLAT", model, seq)]
        for (config, model, seq) in by_key
        if config == "+Binding"
    ]
    return statistics.mean(ratios)


def render(rows: List[SpeedupRow]) -> str:
    ordered = sorted(rows, key=lambda r: (r.model, r.seq_len, r.config))
    return format_table(
        ["model", "L", "config", "speedup"],
        [
            (r.model, seq_label(r.seq_len), r.config, f"{r.speedup:.2f}")
            for r in ordered
        ],
    )


def main(session: Optional[Session] = None) -> None:
    rows = run(session=session)
    print("Figure 8 — attention speedup over the unfused baseline")
    print(render(rows))
    for config, value in averages(rows).items():
        print(f"avg {config}: {value:.2f}x")
    print(f"FuseMax over FLAT: {fusemax_vs_flat(rows):.2f}x (paper: 6.7x)")


if __name__ == "__main__":
    main()
