"""Figure 11: end-to-end transformer inference energy relative to unfused.

Paper headline: FuseMax uses 82% of the unfused baseline's and 83% of
FLAT's energy for end-to-end inference; the reduction grows with sequence
length as attention's share of the kernel grows.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..api.session import Session
from ..workloads.models import MODELS, ModelConfig, SEQUENCE_LENGTHS, seq_label
from .common import evaluate_grid, format_table
from .fig10 import BASELINE


@dataclass(frozen=True)
class InferenceEnergyRow:
    config: str
    model: str
    seq_len: int
    normalized_energy: float


def run(
    models: Sequence[ModelConfig] = MODELS,
    seq_lens: Sequence[int] = SEQUENCE_LENGTHS,
    *,
    session: Optional[Session] = None,
) -> List[InferenceEnergyRow]:
    return from_results(evaluate_grid(session, models, seq_lens, kind="inference"))


def from_results(results: Dict[Tuple[str, str, int], Any]) -> List[InferenceEnergyRow]:
    """The rows of keyed inference results (see :func:`.evaluate_grid`)."""
    rows = []
    for (config, model, seq_len), result in results.items():
        base = results[(BASELINE, model, seq_len)]
        rows.append(
            InferenceEnergyRow(
                config=config,
                model=model,
                seq_len=seq_len,
                normalized_energy=result.energy_pj / base.energy_pj,
            )
        )
    return rows


def fusemax_vs_flat(rows: List[InferenceEnergyRow]) -> float:
    by_key = {(r.config, r.model, r.seq_len): r.normalized_energy for r in rows}
    ratios = [
        by_key[("+Binding", model, seq)] / by_key[("FLAT", model, seq)]
        for (config, model, seq) in by_key
        if config == "+Binding"
    ]
    return statistics.mean(ratios)


def render(rows: List[InferenceEnergyRow]) -> str:
    ordered = sorted(rows, key=lambda r: (r.model, r.seq_len, r.config))
    return format_table(
        ["model", "L", "config", "energy vs unfused"],
        [
            (r.model, seq_label(r.seq_len), r.config, f"{r.normalized_energy:.3f}")
            for r in ordered
        ],
    )


def main(session: Optional[Session] = None) -> None:
    rows = run(session=session)
    print("Figure 11 — end-to-end inference energy relative to unfused")
    print(render(rows))
    print(f"FuseMax energy vs FLAT: {fusemax_vs_flat(rows):.2f} (paper: 0.83)")


if __name__ == "__main__":
    main()
