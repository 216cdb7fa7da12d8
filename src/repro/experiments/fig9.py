"""Figure 9: attention energy relative to the unfused baseline.

Regenerates normalized energy for FLAT and the FuseMax configurations.
Paper headline: FuseMax uses 77% of the unfused baseline's energy and 79%
of FLAT's on attention.
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
class EnergyRow:
    config: str
    model: str
    seq_len: int
    normalized_energy: float  # relative to the unfused baseline
    compute_2d_fraction: float


def run(
    models: Sequence[ModelConfig] = MODELS,
    seq_lens: Sequence[int] = SEQUENCE_LENGTHS,
    *,
    session: Optional[Session] = None,
) -> List[EnergyRow]:
    return from_results(evaluate_grid(session, models, seq_lens))


def from_results(results: Dict[Tuple[str, str, int], Any]) -> List[EnergyRow]:
    """The rows of keyed attention results (see :func:`.evaluate_grid`)."""
    rows = []
    for (config, model, seq_len), result in results.items():
        base = results[(BASELINE, model, seq_len)]
        rows.append(
            EnergyRow(
                config=config,
                model=model,
                seq_len=seq_len,
                normalized_energy=result.energy_pj / base.energy_pj,
                compute_2d_fraction=result.energy.fraction("compute_2d"),
            )
        )
    return rows


def fusemax_vs_flat(rows: List[EnergyRow]) -> float:
    """Mean FuseMax energy relative to FLAT (paper: 0.79)."""
    by_key = {(r.config, r.model, r.seq_len): r.normalized_energy for r in rows}
    ratios = [
        by_key[("+Binding", model, seq)] / by_key[("FLAT", model, seq)]
        for (config, model, seq) in by_key
        if config == "+Binding"
    ]
    return statistics.mean(ratios)


def render(rows: List[EnergyRow]) -> str:
    ordered = sorted(rows, key=lambda r: (r.model, r.seq_len, r.config))
    return format_table(
        ["model", "L", "config", "energy vs unfused", "2D-compute frac"],
        [
            (r.model, seq_label(r.seq_len), r.config,
             f"{r.normalized_energy:.3f}", f"{r.compute_2d_fraction:.3f}")
            for r in ordered
        ],
    )


def main(session: Optional[Session] = None) -> None:
    rows = run(session=session)
    print("Figure 9 — attention energy relative to the unfused baseline")
    print(render(rows))
    print(f"FuseMax energy vs FLAT: {fusemax_vs_flat(rows):.2f} (paper: 0.79)")


if __name__ == "__main__":
    main()
