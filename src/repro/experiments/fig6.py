"""Figure 6: 1D and 2D PE-array utilization across configurations.

Regenerates both panels — (a) 1D-array and (b) 2D-array utilization — for
the five configurations (Unfused, FLAT, +Cascade, +Architecture, +Binding)
across the four models and six sequence lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..api.session import Session
from ..workloads.models import MODELS, ModelConfig, SEQUENCE_LENGTHS, seq_label
from .common import evaluate_grid, format_table


@dataclass(frozen=True)
class UtilizationRow:
    """One (config, model, length) utilization sample."""

    config: str
    model: str
    seq_len: int
    util_1d: float
    util_2d: float


def run(
    models: Sequence[ModelConfig] = MODELS,
    seq_lens: Sequence[int] = SEQUENCE_LENGTHS,
    *,
    session: Optional[Session] = None,
) -> List[UtilizationRow]:
    return from_results(evaluate_grid(session, models, seq_lens))


def from_results(results: Dict[Tuple[str, str, int], Any]) -> List[UtilizationRow]:
    """The rows of keyed attention results (see :func:`.evaluate_grid`)."""
    return [
        UtilizationRow(
            config=r.config,
            model=r.model,
            seq_len=r.seq_len,
            util_1d=r.util_1d,
            util_2d=r.util_2d,
        )
        for r in results.values()
    ]


def series(
    rows: List[UtilizationRow], which: str
) -> Dict[Tuple[str, str], List[float]]:
    """Figure series keyed by (config, model), ordered by length."""
    grouped: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    for row in rows:
        value = row.util_1d if which == "1d" else row.util_2d
        grouped.setdefault((row.config, row.model), []).append((row.seq_len, value))
    return {
        key: [v for _, v in sorted(samples)] for key, samples in grouped.items()
    }


def render(rows: List[UtilizationRow]) -> str:
    ordered = sorted(rows, key=lambda r: (r.model, r.seq_len, r.config))
    return format_table(
        ["model", "L", "config", "util 1D", "util 2D"],
        [
            (r.model, seq_label(r.seq_len), r.config,
             f"{r.util_1d:.2f}", f"{r.util_2d:.2f}")
            for r in ordered
        ],
    )


def main(session: Optional[Session] = None) -> None:
    print("Figure 6 — PE array utilization")
    print(render(run(session=session)))


if __name__ == "__main__":
    main()
