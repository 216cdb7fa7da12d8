"""Table I: classifying attention algorithms by pass count.

The classification is derived by running the pass analysis on each
implemented cascade (not hard-coded) and attaching the paper's exemplars.
Also reports the division-reduction ablation: applying Sec. IV-D to the
3-pass cascade merges its last two passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.passes import count_passes
from ..analysis.taxonomy import attention_rank_family, build_taxonomy
from ..cascades.attention import attention_2pass, attention_3pass
from .common import format_table


@dataclass(frozen=True)
class Table1Row:
    cascade: str
    passes: int
    exemplars: str


def run() -> List[Table1Row]:
    rows = [
        Table1Row(entry.cascade_name, entry.passes, ", ".join(entry.exemplars))
        for entry in build_taxonomy().values()
    ]
    # Division-reduction ablation (Sec. IV-D applied to the 3- and 2-pass).
    for cascade in (attention_3pass(div_opt=True), attention_2pass(div_opt=True)):
        analysis = count_passes(cascade, attention_rank_family(cascade))
        rows.append(Table1Row(cascade.name, analysis.num_passes, "(ablation)"))
    return rows


def render(rows: List[Table1Row]) -> str:
    return format_table(
        ["cascade", "passes", "prior work (Table I)"],
        [(r.cascade, r.passes, r.exemplars) for r in rows],
    )


def main() -> None:
    print("Table I — attention algorithm taxonomy by pass count")
    print(render(run()))


if __name__ == "__main__":
    main()
