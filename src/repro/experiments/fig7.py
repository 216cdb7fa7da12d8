"""Figure 7: 2D-array utilization broken down by Einsum (BERT).

For FLAT and the three FuseMax configurations, attributes the 2D array's
busy time to the Einsums that occupy it — QK/BQK, SLN (exponentials),
LM/SLD (drain-time reductions), and SLNV/AV (the value product) — showing
that FuseMax spends most cycles on the tensor products even though it also
absorbed the softmax exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..api.session import Session
from ..model import all_attention_models
from ..workloads.models import BERT, ModelConfig, SEQUENCE_LENGTHS, seq_label
from .common import evaluate_grid, format_table

#: The configurations compared, in presentation order.
CONFIGS = ("FLAT", "+Cascade", "+Architecture", "+Binding")

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
    session: Optional[Session] = None,
) -> List[Fig7Row]:
    configs = [config for config in all_attention_models() if config.name in CONFIGS]
    results = evaluate_grid(session, (model,), seq_lens, configs)
    return from_results(results, model, seq_lens)


def from_results(
    results: Dict[Tuple[str, str, int], Any],
    model: ModelConfig = BERT,
    seq_lens: Sequence[int] = SEQUENCE_LENGTHS,
) -> List[Fig7Row]:
    """The rows of keyed attention results (see :func:`.evaluate_grid`)
    covering ``model`` and ``seq_lens`` under every config of
    :data:`CONFIGS`; the full Fig. 6 grid does."""
    rows = []
    for seq_len in seq_lens:
        for config in CONFIGS:
            result = results[(config, model.name, seq_len)]
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


def main(session: Optional[Session] = None) -> None:
    print("Figure 7 — 2D array utilization by Einsum (BERT)")
    print(render(run(session=session)))


if __name__ == "__main__":
    main()
