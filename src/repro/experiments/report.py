"""Run every experiment and emit the full evaluation report.

``python -m repro.experiments.report`` regenerates the data behind every
table and figure of the paper's evaluation in one shot, printing the same
rows/series the paper reports plus the headline averages, ready to be
diffed against EXPERIMENTS.md.  The figures share grids, so the report
evaluates each distinct grid once through the session and hands the
results to each figure's ``from_results``.
"""

from __future__ import annotations

from typing import Optional

from ..api.session import Session
from . import ablations, fig1b, fig6, fig7, fig8, fig9, fig10, fig11, fig12, table1
from .common import evaluate_grid


def full_report(session: Optional[Session] = None) -> str:
    """All experiment tables concatenated into one report string.

    The report evaluates each distinct grid once, one pass of
    ``session`` (a default :class:`Session` when None) each: the
    attention grid that Figs. 6-9 read, the inference grid of Figs.
    10-11, and the Fig. 12 pareto grid.  The output is byte-identical
    for every ``jobs``, cache and retry setting of the session.
    """
    attention = evaluate_grid(session)
    inference = evaluate_grid(session, kind="inference")
    sections = []

    sections.append("=" * 72)
    sections.append("Figure 1b — proportion of required compute (BERT)")
    sections.append(fig1b.render(fig1b.run()))

    sections.append("=" * 72)
    sections.append("Table I — attention taxonomy by pass count")
    sections.append(table1.render(table1.run()))

    sections.append("=" * 72)
    sections.append("Figure 6 — PE array utilization")
    sections.append(fig6.render(fig6.from_results(attention)))

    sections.append("=" * 72)
    sections.append("Figure 7 — 2D utilization by Einsum (BERT)")
    sections.append(fig7.render(fig7.from_results(attention)))

    rows8 = fig8.from_results(attention)
    sections.append("=" * 72)
    sections.append("Figure 8 — attention speedup over unfused")
    sections.append(fig8.render(rows8))
    sections.append(
        f"headline: FuseMax over FLAT {fig8.fusemax_vs_flat(rows8):.2f}x "
        "(paper: 6.7x)"
    )

    rows9 = fig9.from_results(attention)
    sections.append("=" * 72)
    sections.append("Figure 9 — attention energy vs unfused")
    sections.append(fig9.render(rows9))
    sections.append(
        f"headline: FuseMax energy vs FLAT {fig9.fusemax_vs_flat(rows9):.2f} "
        "(paper: 0.79)"
    )

    rows10 = fig10.from_results(inference)
    sections.append("=" * 72)
    sections.append("Figure 10 — end-to-end speedup over unfused")
    sections.append(fig10.render(rows10))
    sections.append(
        f"headline: FuseMax over FLAT {fig10.fusemax_vs_flat(rows10):.2f}x "
        "(paper: 5.3x)"
    )

    rows11 = fig11.from_results(inference)
    sections.append("=" * 72)
    sections.append("Figure 11 — end-to-end energy vs unfused")
    sections.append(fig11.render(rows11))
    sections.append(
        f"headline: FuseMax energy vs FLAT {fig11.fusemax_vs_flat(rows11):.2f} "
        "(paper: 0.83)"
    )

    sections.append("=" * 72)
    sections.append("Figure 12 — area vs latency Pareto at 256K")
    sections.append(fig12.render(fig12.run(session=session)))

    sections.append("=" * 72)
    sections.append("Ablations")
    sections.append(ablations.render())

    return "\n".join(sections)


def main(session: Optional[Session] = None) -> None:
    print(full_report(session))


if __name__ == "__main__":
    main()
