"""Figure 10: end-to-end transformer inference speedup over unfused.

Attention plus the encoder's linear layers (Sec. VI-C).  Paper headline:
FuseMax averages 7.6× over the unfused baseline and 5.3× over FLAT, with
the gap growing with sequence length as attention dominates.
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
class InferenceSpeedupRow:
    config: str
    model: str
    seq_len: int
    speedup: float


def run(
    models: Sequence[ModelConfig] = MODELS,
    seq_lens: Sequence[int] = SEQUENCE_LENGTHS,
    *,
    session: Optional[Session] = None,
) -> List[InferenceSpeedupRow]:
    return from_results(evaluate_grid(session, models, seq_lens, kind="inference"))


def from_results(results: Dict[Tuple[str, str, int], Any]) -> List[InferenceSpeedupRow]:
    """The rows of keyed inference results (see :func:`.evaluate_grid`)."""
    rows = []
    for (config, model, seq_len), result in results.items():
        base = results[(BASELINE, model, seq_len)]
        rows.append(
            InferenceSpeedupRow(
                config=config,
                model=model,
                seq_len=seq_len,
                speedup=base.latency_cycles / result.latency_cycles,
            )
        )
    return rows


def fusemax_vs_flat(rows: List[InferenceSpeedupRow]) -> float:
    by_key = {(r.config, r.model, r.seq_len): r.speedup for r in rows}
    ratios = [
        by_key[("+Binding", model, seq)] / by_key[("FLAT", model, seq)]
        for (config, model, seq) in by_key
        if config == "+Binding"
    ]
    return statistics.mean(ratios)


def render(rows: List[InferenceSpeedupRow]) -> str:
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
    print("Figure 10 — end-to-end inference speedup over the unfused baseline")
    print(render(rows))
    print(f"FuseMax over FLAT: {fusemax_vs_flat(rows):.2f}x (paper: 5.3x)")


if __name__ == "__main__":
    main()
