"""ASCII waterfall (Gantt) rendering of binding simulations — Fig. 4 as text.

Turns a :class:`~repro.simulator.engine.SimResult` into a per-resource
timeline where each character cell covers a fixed number of cycles, so the
software-pipelined epochs of the interleaved binding are visible directly:

    2d |BBBBBBSLLLLLBBBBBB...
    1d |....mM.ppddnnnn....

Intended for notebooks/terminals; the examples use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from .engine import SimResult, Task


@dataclass(frozen=True)
class Lane:
    """One resource's rendered timeline."""

    resource: str
    text: str


def _start_estimate(task: Task, finish: Mapping[str, int]) -> int:
    """Approximate start = finish - duration (exact for serial mode,
    a visual lower bound when interleaved)."""
    return max(0, finish[task.name] - task.duration)


def render_waterfall(
    tasks: Sequence[Task],
    result: SimResult,
    width: int = 72,
    label_of=None,
) -> List[Lane]:
    """Render one character lane per resource.

    ``label_of`` maps a task name to its single-character glyph (default:
    first letter).  Later tasks overwrite earlier ones in a cell, which
    reads naturally for pipelines.
    """
    if label_of is None:
        def label_of(name):
            return name[0]
    makespan = max(result.makespan, 1)
    scale = max(1, -(-makespan // width))  # cycles per character cell
    lanes: Dict[str, List[str]] = {}
    for task in tasks:
        lane = lanes.setdefault(task.resource, ["."] * (-(-makespan // scale)))
        start = _start_estimate(task, result.finish_times)
        end = result.finish_times[task.name]
        for cell in range(start // scale, max(start // scale + 1, -(-end // scale))):
            if cell < len(lane):
                lane[cell] = label_of(task.name)
    return [Lane(resource, "".join(cells)) for resource, cells in sorted(lanes.items())]


def waterfall_text(
    tasks: Sequence[Task], result: SimResult, width: int = 72
) -> str:
    """The full waterfall as one printable string."""
    lanes = render_waterfall(tasks, result, width)
    name_width = max(len(lane.resource) for lane in lanes)
    lines = [
        f"{lane.resource:>{name_width}} |{lane.text}" for lane in lanes
    ]
    cycles_per_cell = max(1, -(-max(result.makespan, 1) // width))
    lines.append(f"{'':>{name_width}}  ({cycles_per_cell} cycles per cell, "
                 f"makespan {result.makespan})")
    return "\n".join(lines)

