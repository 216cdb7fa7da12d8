"""Ablation tables for the design choices DESIGN.md calls out.

Not paper figures, but the quantitative backing for individual design
decisions:

- ``division_reduction`` — Sec. IV-D: divisions per cascade, with/without
  the reassociation.
- ``block_size`` — the 1-pass correction overhead vs the M0 fusion tile.
- ``buffer_capacity`` — when FLAT's traffic strategy flips (resident →
  retile → spill) as L grows, per global-buffer size.
- ``interleaving`` — simulated utilization with the binding's
  interleaving on/off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..analysis.opcount import total_ops
from ..arch.spec import flat_arch
from ..cascades.attention import attention_1pass, attention_2pass, attention_3pass
from ..model.flat import spill_decision
from ..simulator.pipeline import PipelineConfig, compare_bindings
from ..workloads.models import SEQUENCE_LENGTHS, seq_label
from .common import format_table

_SHAPES = {"E": 64, "F": 64, "M": 65536, "P": 1024, "M0": 256, "M1": 256}


@dataclass(frozen=True)
class DivisionRow:
    cascade: str
    divisions: int
    exps: int
    macc_equivalents: int


def division_reduction() -> List[DivisionRow]:
    rows = []
    for cascade in (
        attention_3pass(False),
        attention_3pass(True),
        attention_2pass(True),
        attention_1pass(),
    ):
        ops = total_ops(cascade, _SHAPES)
        rows.append(
            DivisionRow(
                cascade=cascade.name,
                divisions=ops.get("divide"),
                exps=ops.get("exp"),
                macc_equivalents=ops.macc_equivalents(),
            )
        )
    return rows


def block_size(blocks: Sequence[int] = (16, 64, 256, 1024)) -> List[Tuple[int, int]]:
    """(M0, MACC-equivalents) for the 1-pass cascade: correction overhead
    amortizes as the fusion tile grows."""
    rows = []
    for m0 in blocks:
        shapes = dict(_SHAPES, M0=m0, M1=_SHAPES["M"] // m0)
        rows.append((m0, total_ops(attention_1pass(), shapes).macc_equivalents()))
    return rows


def buffer_capacity(
    capacities_mb: Sequence[int] = (4, 16, 64),
) -> Dict[int, List[str]]:
    """FLAT's traffic strategy per sequence length, per buffer size."""
    table = {}
    for mb in capacities_mb:
        arch = flat_arch(global_buffer_bytes=mb * 2**20)
        table[mb] = [
            spill_decision(arch, 64, 64, seq, seq).strategy
            for seq in SEQUENCE_LENGTHS
        ]
    return table


def interleaving(
    chunks: int = 32, engine: str = "vector"
) -> Dict[str, Tuple[float, float]]:
    """(util_2d, util_1d) per binding from the binding simulator.

    Runs on the vector engine's chunk fold by default; ``engine="cycle"`` replays
    the same schedule on the cycle-accurate oracle (identical numbers).
    """
    reports = compare_bindings(PipelineConfig(chunks=chunks), engine=engine)
    return {
        name: (report.util_2d, report.util_1d)
        for name, report in reports.items()
    }


def render() -> str:
    sections = ["Ablation: division reduction (M=64K, P=1K)"]
    sections.append(
        format_table(
            ["cascade", "divisions", "exps", "macc-equiv"],
            [
                (r.cascade, f"{r.divisions:,}", f"{r.exps:,}",
                 f"{r.macc_equivalents:,}")
                for r in division_reduction()
            ],
        )
    )
    sections.append("\nAblation: 1-pass correction overhead vs block size")
    sections.append(
        format_table(
            ["M0", "macc-equiv"],
            [(m0, f"{ops:,}") for m0, ops in block_size()],
        )
    )
    sections.append("\nAblation: FLAT traffic strategy vs buffer capacity")
    cap_table = buffer_capacity()
    sections.append(
        format_table(
            ["GLB (MB)"] + [seq_label(s) for s in SEQUENCE_LENGTHS],
            [[mb] + strategies for mb, strategies in cap_table.items()],
        )
    )
    sections.append("\nAblation: binding interleaving (simulated)")
    sections.append(
        format_table(
            ["binding", "util 2D", "util 1D"],
            [
                (name, f"{u2:.2f}", f"{u1:.2f}")
                for name, (u2, u1) in interleaving().items()
            ],
        )
    )
    return "\n".join(sections)


def main() -> None:
    print(render())


if __name__ == "__main__":
    main()
