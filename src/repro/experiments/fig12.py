"""Figure 12: Pareto-optimal area/latency curves at sequence length 256K.

Sweeps the FuseMax PE array from 16×16 to 512×512 (buffers scaled with the
binding, Sec. VI-D) and reports the attention-latency/area trade-off per
model, plus the Pareto frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..api.session import Session
from ..model.pareto import ARRAY_DIMS, DesignPoint, PARETO_SEQ_LEN, pareto_frontier
from ..runtime.executor import pareto_grid
from ..workloads.models import MODELS, ModelConfig
from .common import format_table


@dataclass(frozen=True)
class Fig12Result:
    """The sweep points and frontier for one model."""

    model: str
    points: List[DesignPoint]
    frontier: List[DesignPoint]


def run(
    models: Sequence[ModelConfig] = MODELS,
    seq_len: int = PARETO_SEQ_LEN,
    dims: Sequence[int] = ARRAY_DIMS,
    *,
    session: Optional[Session] = None,
) -> Dict[str, Fig12Result]:
    tasks = pareto_grid(models, seq_len, dims)
    design_points = (session or Session()).evaluate("pareto", tasks).results
    results = {}
    for i, model in enumerate(models):
        points = design_points[i * len(dims) : (i + 1) * len(dims)]
        results[model.name] = Fig12Result(
            model=model.name,
            points=points,
            frontier=pareto_frontier(points),
        )
    return results


def render(results: Dict[str, Fig12Result]) -> str:
    rows = []
    for result in results.values():
        frontier_dims = {p.array_dim for p in result.frontier}
        for point in result.points:
            rows.append(
                (
                    point.model,
                    f"{point.array_dim}x{point.array_dim}",
                    f"{point.area_cm2:.3f}",
                    f"{point.latency_seconds:.1f}",
                    "*" if point.array_dim in frontier_dims else "",
                )
            )
    return format_table(
        ["model", "array", "area (cm^2)", "latency (s)", "pareto"], rows
    )


def main(session: Optional[Session] = None) -> None:
    print("Figure 12 — area vs attention latency at L = 256K")
    print(render(run(session=session)))


if __name__ == "__main__":
    main()
