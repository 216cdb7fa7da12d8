"""Figure 7: 2D-array utilization broken down by Einsum (BERT).

For FLAT and the three FuseMax configurations, attributes the 2D array's
busy time to the Einsums that occupy it — QK/BQK, SLN (exponentials),
LM/SLD (drain-time reductions), and SLNV/AV (the value product) — showing
that FuseMax spends most cycles on the tensor products even though it also
absorbed the softmax exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..model.flat import FLATModel
from ..model.fusemax import fusemax, plus_architecture, plus_cascade
from ..runtime import executor as _runtime
from ..workloads.models import BERT, ModelConfig, SEQUENCE_LENGTHS, seq_label
from .common import format_table

#: Display groups in the order of the paper's legend.
GROUPS = ("QK", "LM", "SLN", "SLD", "SLNV/AV")

_GROUP_OF = {
    "QK": "QK",
    "BQK": "QK",
    "LM": "LM",
    "SLN": "SLN",
    "SLD": "SLD",
    "SLNV": "SLNV/AV",
    "AV": "SLNV/AV",
}


@dataclass(frozen=True)
class Fig7Row:
    """Per-Einsum share of total latency on the 2D array."""

    config: str
    seq_len: int
    shares: Dict[str, float]

    @property
    def total_active(self) -> float:
        return sum(self.shares.values())


def run(
    model: ModelConfig = BERT,
    seq_lens: Sequence[int] = SEQUENCE_LENGTHS,
    *,
    jobs: int = 1,
    cache: object = True,
) -> List[Fig7Row]:
    configs = (FLATModel(), plus_cascade(), plus_architecture(), fusemax())
    results = _runtime.sweep_attention(
        (model,), seq_lens, configs, jobs=jobs, cache=cache
    )
    rows = []
    for seq_len in seq_lens:
        for config in configs:
            result = results[(config.name, model.name, seq_len)]
            shares = {group: 0.0 for group in GROUPS}
            for label, fraction in result.einsum_share_of_latency().items():
                group = _GROUP_OF.get(label)
                if group is not None:
                    shares[group] += fraction
            rows.append(Fig7Row(config=result.config, seq_len=seq_len, shares=shares))
    return rows


def render(rows: List[Fig7Row]) -> str:
    table_rows = []
    for r in rows:
        table_rows.append(
            (seq_label(r.seq_len), r.config)
            + tuple(f"{r.shares[g]:.3f}" for g in GROUPS)
            + (f"{r.total_active:.3f}",)
        )
    return format_table(("L", "config") + GROUPS + ("total",), table_rows)


def main(jobs: int = 1, cache: object = True) -> None:
    print("Figure 7 — 2D array utilization by Einsum (BERT)")
    print(render(run(jobs=jobs, cache=cache)))


if __name__ == "__main__":
    main()
